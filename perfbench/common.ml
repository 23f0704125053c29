(* Shared pieces of the benchmark: the pinned protocol configuration,
   seeded input streams, order statistics and the per-run result record. *)

open Fieldlib

(* The pinned protocol configuration: bench/main.ml's [default_cfg]. It is
   spelled out here, and passed explicitly to every session and to the
   farm's command line, so that a change to any library or CLI default
   cannot silently change what is measured. *)
let field = Primes.p127_ntt
let params = { Pcp.Pcp_zaatar.rho = 3; rho_lin = 10 }
let p_bits = 512
let domains = 1

let arg_config strategy =
  { Argsys.Argument.params; p_bits; strategy; domains; qap_backend = Qapb.Auto }

(* The same configuration as `zaatar serve` flags. [--qap-backend ntt] at
   127 bits is how the CLI selects [Primes.p127_ntt]; [Auto] resolves to
   the NTT backend on that prime, so both sides run one proof system. *)
let serve_flags =
  [ "--field-bits"; "127"; "--qap-backend"; "ntt"; "--rho"; "3"; "--rho-lin"; "10";
    "--pbits"; "512"; "--domains"; "1" ]

(* Host-speed probe. On a shared 2-vCPU virtual machine the same code runs
   up to 1.6x slower for seconds to minutes at a time, and not in step on
   the two vCPUs, so runs of the same code spread by a quarter whatever
   their length. While the probe is on, a CPU-time timer (SIGPROF, every
   [period] s of CPU) interrupts the work on its own thread and times a
   fixed kernel that calls no library code. [now] leaves the probes' time
   out, so every timing excludes them, and [factor] turns the time of the
   work done while some probes were taken into its time at the nominal
   host speed, on which the kernel takes [ref_us]. A change to the program
   moves scaled timings as it moves measured ones; a slower host moves the
   kernel with the work it interrupts (perfbench/README.md has the
   measurements). *)
module Probe = struct
  let period = 0.01
  let iters = 120_000
  let ref_us = 300.0
  let min_window = 20 (* samples behind one factor *)
  let cap = 1 lsl 15
  let durs = Float.Array.make cap 0.0
  let table = Array.make 1024 1
  let spent = ref 0.0
  let samples = Atomic.make 0

  (* How the work's time follows the kernel's as the host slows: work
     time ~ kernel time ^ [slope]. On the 2-vCPU VM, over two sets of ten
     24 s runs, the log-log slope of unscaled rate on mean sample was 1.43
     to 1.71 on the batch workloads and toolchain, whose allocation-heavy
     work leans on memory more than the kernel does. Over ten farm-mixed
     runs it was 0.77 for the sidecar's samples, and 1 fit best there. *)
  let slope = ref 1.5

  (* 64-bit multiplies and L1-resident table updates; allocates nothing. *)
  let kernel () =
    let a = ref 0x2545F491 in
    for i = 1 to iters do
      a := (!a * 0x1851F42D4C957F2D) + i;
      let j = (!a lsr 40) land 1023 in
      table.(j) <- table.(j) lxor !a
    done;
    ignore (Sys.opaque_identity !a)

  (* Times the kernel once; returns the time. *)
  let sample () =
    let t0 = Unix.gettimeofday () in
    kernel ();
    let d = Unix.gettimeofday () -. t0 in
    let n = Atomic.get samples in
    if n < cap then begin
      Float.Array.set durs n d;
      Atomic.set samples (n + 1)
    end;
    d

  let timer v = ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = v; it_value = v })

  let start () =
    Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> spent := !spent +. sample ()));
    timer period

  (* For work in another process: a domain of its own samples every
     [period] s of wall time, on whichever vCPU it gets. The work is not
     paused meanwhile, so [spent] stays 0. *)
  let running = Atomic.make false
  let sidecar = ref None

  let start_sidecar () =
    slope := 1.0;
    Atomic.set running true;
    sidecar :=
      Some
        (Domain.spawn (fun () ->
             while Atomic.get running do
               Unix.sleepf period;
               ignore (sample ())
             done))

  let stop () =
    timer 0.0;
    Sys.set_signal Sys.sigprof Sys.Signal_ignore;
    Atomic.set running false;
    Option.iter Domain.join !sidecar;
    sidecar := None

  (* The number of samples so far: work between two marks [i0] and [i1]
     ran while samples [i0, i1) were taken. *)
  let mark () = Atomic.get samples

  (* Widens [i0, i1) evenly to at least [min_window] of the samples
     taken so far. *)
  let window i0 i1 =
    let n = Atomic.get samples in
    let rec go i0 i1 =
      if i1 - i0 >= min_window || (i0 = 0 && i1 = n) then (i0, i1)
      else go (max 0 (i0 - 1)) (min n (i1 + 1))
    in
    go (max 0 (min i0 n)) (max 0 (min i1 n))

  (* The mean over the window, less samples over [4 * ref_us]: a probe
     that long was descheduled, not slowed (about 1 in 100 on the
     sidecar, none in the handler). *)
  let mean_us i0 i1 =
    let i0, i1 = window i0 i1 in
    let t = ref 0.0 and k = ref 0 and all = ref 0.0 in
    for i = i0 to i1 - 1 do
      let d = Float.Array.get durs i in
      all := !all +. d;
      if d <= 4e-6 *. ref_us then begin
        t := !t +. d;
        incr k
      end
    done;
    if !k = 0 then !all *. 1e6 /. float_of_int (max 1 (i1 - i0))
    else !t *. 1e6 /. float_of_int !k

  (* Multiply the time of the work between marks [i0] and [i1] by this
     (divide a rate by it) to have it at the nominal host speed; 1 if no
     probe ran. *)
  let factor i0 i1 =
    if Atomic.get samples = 0 then 1.0 else (ref_us /. mean_us i0 i1) ** !slope
end

(* Wall-clock seconds, less the time the probe has taken. *)
let now () = Unix.gettimeofday () -. !Probe.spent

(* Every input that varies with --seed comes from one of these streams:
   the workload name, the seed and a purpose label fix the key, the op
   index is the nonce. *)
let stream ~workload ~seed purpose i =
  Chacha.Prg.create ~seed:(Printf.sprintf "perfbench %s %d %s" workload seed purpose) ~nonce:i ()

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

let sum = List.fold_left ( +. ) 0.0

(* Peak resident set (VmHWM) of a process, in MiB; [pid] "self" reads the
   benchmark's own process. *)
let vmhwm_mb pid =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM in /proc/" ^ pid ^ "/status")
  in
  scan ()

(* What a workload hands back to zbench.ml. [metrics] go into the result
   line in order; [report] lines are printed above it for a reader (every
   metric the workload defines, including those not in the result line). *)
type result = {
  attempted : int;
  failed : int;
  checks_ok : bool; (* equivalence and self-tests beyond the per-op checks *)
  metrics : (string * float * string) list;
  report : (string * float * string) list;
}

(* Set-up is repeated [setup_reps] times per run and reported as the
   median, so one slow start does not move [setup_s]. *)
let setup_reps = 3

(* Runs [f] [setup_reps] times, timing each call; the last call's value is
   kept and every earlier one is released with [drop]. Returns it with
   the median set-up time, unscaled and with each set-up scaled by the
   probes taken during it. *)
let repeated_setup ~drop f =
  let rec go k times prev =
    (match prev with Some v -> drop v | None -> ());
    let m = Probe.mark () and t0 = now () in
    let v = f () in
    let times = (now () -. t0, m, Probe.mark ()) :: times in
    if k = 1 then (v, times) else go (k - 1) times (Some v)
  in
  let v, times = go setup_reps [] None in
  ( v,
    ( median (List.map (fun (t, _, _) -> t) times),
      median (List.map (fun (t, i0, i1) -> t *. Probe.factor i0 i1) times) ) )

(* An op's time in ms and the probe marks around it. *)
type timed = { ms : float; m0 : int; m1 : int }

let timed f =
  let m0 = Probe.mark () and t0 = now () in
  let r = f () in
  (r, { ms = (now () -. t0) *. 1000.0; m0; m1 = Probe.mark () })

let scaled_ms (t : timed) = t.ms *. Probe.factor t.m0 t.m1

(* The untraced result line: [setup_s], the rate scaled by the probes
   taken between marks [run] and the latencies each by its own probes,
   and [peak_rss_mb] as read. With the probe on, the unscaled timings and
   the probe go to the report. [rate] is instances per second of op
   time. *)
let end_to_end ~run:(i0, i1) ~setup ~rate ~(lat : timed list) ~rss =
  let setup_raw, setup_scaled = setup and scaled = List.map scaled_ms lat in
  let raw = List.map (fun (t : timed) -> t.ms) lat in
  ( [
      ("setup_s", setup_scaled, "s");
      ("instances_per_s", rate /. Probe.factor i0 i1, "1/s");
      ("latency_p50_ms", median scaled, "ms");
      ("latency_p99_ms", percentile 99.0 scaled, "ms");
      ("peak_rss_mb", rss, "MB");
    ],
    if Atomic.get Probe.samples = 0 then []
    else [
      ("unscaled_setup_s", setup_raw, "s");
      ("unscaled_instances_per_s", rate, "1/s");
      ("unscaled_latency_p50_ms", median raw, "ms");
      ("unscaled_latency_p99_ms", percentile 99.0 raw, "ms");
      ("probe_mean_us", Probe.mean_us i0 i1, "us");
      ("probe_samples", float_of_int (i1 - i0), "count");
    ] )

(* Library counters behind the per-layer counts. Zobs counts only while
   it is enabled, which only the traced run does. *)
let counter_names =
  [| "ntt.butterfly"; "prg.bytes"; "prg.field"; "group.pow.fixed_base"; "group.multi_pow.terms";
     "fp.mul"; "fp.mul_lazy"; "mont.mul" |]

let counters () = Array.map Zobs.Registry.counter_value counter_names
let counter_delta a b = Array.map2 (fun x y -> y - x) a b

(* The per-op counts a traced run reports, from the summed counter deltas
   of [ops] ops. *)
let count_metrics ~ops (d : int array) =
  let per k = float_of_int k /. float_of_int (max 1 ops) in
  let c name = d.(Option.get (Array.find_index (( = ) name) counter_names)) in
  [
    ("poly.ntt_butterflies", per (c "ntt.butterfly"), "count");
    ("chacha.prg_bytes", per (c "prg.bytes"), "bytes");
    ("chacha.prg_field_draws", per (c "prg.field"), "count");
    ("crypto.fixed_base_pows", per (c "group.pow.fixed_base"), "count");
    ("crypto.multi_exp_terms", per (c "group.multi_pow.terms"), "count");
    ("fieldlib.mults", per (c "fp.mul" + c "fp.mul_lazy" + c "mont.mul"), "count");
  ]

(* Every per-layer metric a traced run reports, in result-line order. A
   layer the workload never calls reads 0 there. Times are self time per
   op; counts, words and bytes are per op over the first traced cycle,
   which a seed fixes exactly. *)
let per_layer =
  [
    ("compiler.compile_ms", "ms"); ("compiler.constraints", "count");
    ("pcp.gen_queries_ms", "ms"); ("pcp.gen_queries_words", "words");
    ("chacha.prg_bytes", "bytes"); ("chacha.prg_field_draws", "count");
    ("commit.request_ms", "ms"); ("commit.request_words", "words");
    ("commit.challenge_ms", "ms"); ("commit.consistency_ms", "ms");
    ("qap.of_r1cs_ms", "ms"); ("qap.prover_h_ms", "ms"); ("qap.prover_h_words", "words");
    ("poly.ntt_butterflies", "count");
    ("commit.prover_commit_ms", "ms"); ("commit.prover_commit_words", "words");
    ("pcp.answer_ms", "ms"); ("pcp.decide_ms", "ms"); ("argument.solve_ms", "ms");
    ("crypto.group_gen_ms", "ms"); ("crypto.group_cached_ms", "ms");
    ("crypto.group_validate_ms", "ms"); ("crypto.fixed_base_pows", "count");
    ("crypto.multi_exp_terms", "count");
    ("fieldlib.mults", "count");
    ("wire.query_encode_ms", "ms"); ("wire.query_decode_ms", "ms"); ("wire.other_codec_ms", "ms");
    ("wire.hello_bytes", "bytes"); ("wire.commit_bytes", "bytes"); ("wire.query_bytes", "bytes");
    ("wire.answer_bytes", "bytes"); ("wire.verdict_bytes", "bytes"); ("wire.session_bytes", "bytes");
    ("argument.unattributed_ms", "ms");
    ("farm.connect_ms", "ms");
    ("farm.matmul.hello_rtt_ms", "ms"); ("farm.matmul.commit_rtt_ms", "ms");
    ("farm.matmul.query_rtt_ms", "ms");
    ("farm.pam.hello_rtt_ms", "ms"); ("farm.pam.commit_rtt_ms", "ms"); ("farm.pam.query_rtt_ms", "ms");
    ("farm.cache_hit_ratio", "ratio"); ("farm.loop_utilization", "ratio"); ("farm.shed", "count");
    ("farm.errors", "count");
    ("exec.solve_ms", "ms"); ("exec.rows_per_s", "1/s"); ("exec.row_visits", "count");
    ("lint.analyze_ms", "ms"); ("lint.findings", "count");
    ("gc.minor_words", "words");
    ("trace.overhead_pct", "%"); ("trace.ops", "count");
  ]

(* For each span name: self time per op over every traced op ([all],
   [n_all] ops) as [<name>_ms], and minor words per op over the first
   traced cycle ([first], [n_first] ops) as [<name>_words]. *)
let span_metrics ~all ~n_all ~first ~n_first names =
  let get agg span = Option.value (Hashtbl.find_opt agg span) ~default:(0.0, 0.0, 0) in
  List.concat_map
    (fun span ->
      let t, _, _ = get all span and _, w, _ = get first span in
      [
        (span ^ "_ms", t *. 1000.0 /. float_of_int (max 1 n_all), "ms");
        (span ^ "_words", w /. float_of_int (max 1 n_first), "words");
      ])
    names

(* Frame bytes per op in each protocol phase, and all of them, from
   [(phase, bytes)] pairs summed over [ops] ops. *)
let wire_metrics ~ops pairs =
  let per b = float_of_int b /. float_of_int (max 1 ops) in
  let total keep = List.fold_left (fun a (p, b) -> if keep p then a + b else a) 0 pairs in
  List.map
    (fun ph -> ("wire." ^ ph ^ "_bytes", per (total (( = ) ph)), "bytes"))
    [ "hello"; "commit"; "query"; "answer"; "verdict" ]
  @ [ ("wire.session_bytes", per (total (fun _ -> true)), "bytes") ]
