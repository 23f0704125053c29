(* The farm-mixed workload: `zaatar serve` runs as its own process and
   serves matmul (examples/matmul.zl) and PAM. One client process drives a
   closed loop of [connections] replay connections with zero think time;
   each replays honest transcripts recorded at set-up against the same
   server, 15 matmul sessions to 1 PAM session, and every reply must equal
   the recording byte for byte (the honest prover draws nothing from its
   PRG, so its replies are a function of the frames it receives). *)

open Fieldlib
open Common
module A = Argsys.Argument

let connections = 2
let cycle = 16 (* sessions per connection per cycle; the last one is PAM *)
let matmul_sessions = 3 (* distinct matmul transcripts, replayed in turn *)
let timeout_ms = 20_000

(* ------------------------------------------------------------------ *)
(* The server process                                                   *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; listen : string; metrics : string; err_log : string }

let live : server list ref = ref []

(* SIGTERM, then SIGKILL if it has not exited within 5 s; always reaped.
   A server already stopped is left alone. *)
let stop s =
  if List.exists (fun s' -> s'.pid = s.pid) !live then begin
    live := List.filter (fun s' -> s'.pid <> s.pid) !live;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 5.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when now () < deadline ->
        Unix.sleepf 0.02;
        wait ()
      | 0, _ -> (
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error _ -> ()
    in
    wait ()
  end

let () = at_exit (fun () -> List.iter stop !live)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let lines_of path = try String.split_on_char '\n' (read_file path) with Sys_error _ -> []

let after prefix line =
  let k = String.length prefix in
  if String.length line > k && String.sub line 0 k = prefix then
    Some (String.trim (String.sub line k (String.length line - k)))
  else None

(* Starts the server, waits for both addresses in its log and then for
   /healthz to answer 200. *)
let start_server ~zaatar ~out files =
  let out_log = Filename.concat out "serve.out" and err_log = Filename.concat out "serve.err" in
  let open_log p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fd_out = open_log out_log and fd_err = open_log err_log in
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [ zaatar; "serve" ] @ files
    @ [ "--listen"; "127.0.0.1:0"; "--metrics-listen"; "127.0.0.1:0" ]
    @ serve_flags
  in
  let pid = Unix.create_process zaatar (Array.of_list args) fd_in fd_out fd_err in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  let s = { pid; listen = ""; metrics = ""; err_log } in
  live := s :: !live;
  let deadline = now () +. 60.0 in
  let fail what =
    stop s;
    failwith
      (Printf.sprintf "zaatar serve: %s; stderr: %s" what
         (String.concat " | " (List.filter (( <> ) "") (lines_of err_log))))
  in
  let rec addrs () =
    let ls = lines_of out_log in
    match (List.find_map (after "listening on ") ls, List.find_map (after "metrics on ") ls) with
    | Some l, Some m -> (l, m)
    | _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (fun s' -> s'.pid <> pid) !live;
        fail "exited during start-up");
      if now () > deadline then fail "no listen address within 60 s";
      Unix.sleepf 0.01;
      addrs ()
  in
  let listen, metrics = addrs () in
  let s = { s with listen; metrics } in
  live := s :: List.filter (fun s' -> s'.pid <> pid) !live;
  let rec healthy () =
    match Znet.Metrics_http.get metrics "/healthz" with
    | 200, _ -> ()
    | _ | (exception Failure _) ->
      if now () > deadline then fail "/healthz never answered 200";
      Unix.sleepf 0.01;
      healthy ()
  in
  healthy ();
  s

(* ------------------------------------------------------------------ *)
(* Transcripts                                                          *)
(* ------------------------------------------------------------------ *)

type frame = { phase : string; sent : bytes; reply : bytes option }
type transcript = { app : string; frames : frame list }

(* One real verifier session against the server, keeping every frame. *)
let record ~listen ~app (comp : A.computation) ~prg ~inputs =
  let conn = Znet.connect ~timeout_ms listen in
  Fun.protect ~finally:(fun () -> Znet.close conn) @@ fun () ->
  let vs = A.Verifier_session.create ~config:(arg_config A.Honest) comp ~prg ~inputs in
  let codec = A.Verifier_session.codec vs in
  let frames = ref [] in
  let send m reply =
    let b = Zwire.encode ~codec m in
    Znet.send conn b;
    let r = if reply then Some (Znet.recv conn) else None in
    frames := { phase = Zwire.phase_of_msg m; sent = b; reply = r } :: !frames;
    r
  in
  let rec go m =
    match A.Verifier_session.on_msg vs (Zwire.decode ~codec (Option.get (send m true))) with
    | `Send m' -> go m'
    | `Finished (Some m') -> ignore (send m' false)
    | `Finished None -> ()
  in
  go (A.Verifier_session.initial vs);
  (A.Verifier_session.result vs, { app; frames = List.rev !frames })

let matmul_native ints =
  Array.init 9 (fun ij ->
      let i = ij / 3 and j = ij mod 3 in
      List.fold_left (fun acc k -> acc + (ints.((3 * i) + k) * ints.(9 + (3 * k) + j))) 0 [ 0; 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Replay                                                               *)
(* ------------------------------------------------------------------ *)

type session = { lat : timed; ok : bool; tr : transcript }

(* A transcript's frame bytes by phase: each reply belongs to the phase of
   the frame it answers, except the Answers, which are their own. *)
let phase_bytes tr =
  List.concat_map
    (fun f ->
      (f.phase, Bytes.length f.sent)
      ::
      (match f.reply with
      | Some r -> [ ((if f.phase = "query" then "answer" else f.phase), Bytes.length r) ]
      | None -> []))
    tr.frames

let replay ~listen tr =
  let ok, lat =
    timed @@ fun () ->
    match Tracer.span "farm.connect" (fun () -> Znet.connect ~timeout_ms ~retries:0 listen) with
    | exception (Znet.Net_error _ | Unix.Unix_error _) -> false
    | conn -> (
      Fun.protect ~finally:(fun () -> Znet.close conn) @@ fun () ->
      try
        List.for_all
          (fun f ->
            match f.reply with
            | None ->
              Znet.send conn f.sent;
              true
            | Some expect ->
              Tracer.span (Printf.sprintf "farm.%s.%s_rtt" tr.app f.phase) (fun () ->
                  Znet.send conn f.sent;
                  Bytes.equal expect (Znet.recv conn)))
          tr.frames
      with Znet.Net_error _ | Unix.Unix_error _ -> false)
  in
  { lat; ok; tr }

(* The closed loop: each connection runs whole cycles until another one
   is expected to end more than half a cycle past [seconds]. Connection
   [j] starts its cycle [j * cycle / connections] sessions in, so the PAM
   sessions of different connections do not line up. Returns
   [(op id, cycle number from 1, session)] for every session. *)
let drive ~listen ~seconds ~matmul ~pam =
  let ops = Atomic.make 0 in
  let conn j () =
    let t0 = now () in
    let out = ref [] in
    let rec go k =
      for s = 0 to cycle - 1 do
        let pos = (s + (j * cycle / connections)) mod cycle in
        let tr = if pos = cycle - 1 then pam else matmul.(pos mod Array.length matmul) in
        let op = Atomic.fetch_and_add ops 1 + 1 in
        out := (op, k, Tracer.op_span ~op "farm.session" (fun () -> replay ~listen tr)) :: !out
      done;
      let el = now () -. t0 in
      if el +. (el /. float_of_int k /. 2.0) <= seconds then go (k + 1)
    in
    go 1;
    !out
  in
  let t0 = now () in
  let doms = List.init connections (fun j -> Domain.spawn (conn j)) in
  let sessions = List.concat_map Domain.join doms in
  (sessions, now () -. t0)

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)
(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~trace ~out ~zaatar =
  let workload = "farm-mixed" in
  let pam_def = Apps.Registry.pam ~scale:1 in
  let pam_file = Filename.concat out "pam.zl" in
  Out_channel.with_open_bin pam_file (fun oc -> output_string oc pam_def.Apps.App_def.source);
  let matmul_file = "examples/matmul.zl" in
  let matmul_src = read_file matmul_file in
  ignore (Zcrypto.Group.cached ~field_order:field ~p_bits ());
  let group_gen = ref [] and compile_ms = ref [] and constraints = ref 0 in
  let setup () =
    let ctx = Fp.create field in
    let t0 = now () in
    ignore (Zcrypto.Group.generate ~field_order:field ~p_bits ());
    group_gen := ((now () -. t0) *. 1000.0) :: !group_gen;
    let compile src =
      let t0 = now () in
      let c = Zlang.Compile.compile ~ctx src in
      compile_ms := ((now () -. t0) *. 1000.0) :: !compile_ms;
      Apps.Glue.computation_of c
    in
    let mm = compile matmul_src and pm = compile pam_def.Apps.App_def.source in
    constraints := Constr.R1cs.num_constraints mm.A.r1cs + Constr.R1cs.num_constraints pm.A.r1cs;
    let srv = start_server ~zaatar ~out [ matmul_file; pam_file ] in
    let recorded ~app comp ints expect i =
      let result, tr =
        record ~listen:srv.listen ~app comp
          ~prg:(stream ~workload ~seed (app ^ " verifier") i)
          ~inputs:[| Apps.Glue.field_inputs ctx ints |]
      in
      let inst = result.A.instances.(0) in
      if not (inst.A.accepted && Apps.Glue.int_outputs ctx inst.A.claimed_output = expect) then
        failwith (app ^ ": recorded session did not verify with the native outputs");
      tr
    in
    let matmul =
      Array.init matmul_sessions (fun i ->
          let prg = stream ~workload ~seed "matmul inputs" i in
          let ints = Array.init 18 (fun _ -> Chacha.Prg.int_below prg 201 - 100) in
          recorded ~app:"matmul" mm ints (matmul_native ints) i)
    in
    let pam =
      let ints = pam_def.Apps.App_def.gen_inputs (stream ~workload ~seed "pam inputs" 0) in
      recorded ~app:"pam" pm ints (pam_def.Apps.App_def.native ints) 0
    in
    if not (replay ~listen:srv.listen matmul.(0)).ok then failwith "warm-up session failed";
    (srv, matmul, pam)
  in
  let (srv, matmul, pam), setup = repeated_setup ~drop:(fun (s, _, _) -> stop s) setup in
  Fun.protect ~finally:(fun () -> stop srv) @@ fun () ->
  let finish sessions =
    let json =
      match Znet.Metrics_http.get srv.metrics "/json" with
      | 200, body -> Zobs.Json.parse body
      | code, _ -> failwith (Printf.sprintf "/json answered %d" code)
    in
    let num path =
      List.fold_left
        (fun j k -> Option.value (Zobs.Json.member k j) ~default:Zobs.Json.Null)
        json path
      |> Zobs.Json.to_num |> Option.value ~default:0.0
    in
    let rss = vmhwm_mb (string_of_int srv.pid) in
    let errs = List.filter (( <> ) "") (lines_of srv.err_log) in
    Printf.printf "server stderr: %d line(s)\n" (List.length errs);
    List.iter (fun l -> Printf.printf "  | %s\n" l) errs;
    let failed = List.length (List.filter (fun (_, _, s) -> not s.ok) sessions) in
    (num, rss, failed)
  in
  let lat sessions = List.map (fun (_, _, s) -> s.lat) sessions in
  if not trace then begin
    let run0 = Probe.mark () in
    let sessions, wall = drive ~listen:srv.listen ~seconds ~matmul ~pam in
    let run = (run0, Probe.mark ()) in
    let num, rss, failed = finish sessions in
    let n = List.length sessions in
    let shed = num [ "server"; "shed" ] in
    let rate = float_of_int n /. wall in
    let metrics, unscaled = end_to_end ~run ~setup ~rate ~lat:(lat sessions) ~rss in
    {
      attempted = n;
      failed;
      checks_ok = true;
      metrics;
      report =
        [
          ("sessions_per_s", rate /. Probe.factor (fst run) (snd run), "1/s");
          ("failed_ratio", float_of_int failed /. float_of_int n, "ratio");
          ("server_shed", shed, "count");
          ("samples", float_of_int n, "count");
        ]
        @ unscaled;
    }
  end
  else begin
    (* One untraced cycle per connection as the reference, then traced
       cycles for the rest of the run. *)
    let reference, ref_wall = drive ~listen:srv.listen ~seconds:0.0 ~matmul ~pam in
    Tracer.enabled := true;
    let traced, wall = drive ~listen:srv.listen ~seconds ~matmul ~pam in
    Tracer.enabled := false;
    let num, _, failed = finish (reference @ traced) in
    let n = List.length traced in
    (* Counts come from each connection's first traced cycle, whose mix
       (15 matmul, 1 PAM) does not depend on timing. *)
    let first = List.filter (fun (_, k, _) -> k = 1) traced in
    let n_first = List.length first in
    let first_ops = Hashtbl.create 64 in
    List.iter (fun (op, _, _) -> Hashtbl.replace first_ops op ()) first;
    let all = Tracer.by_name () in
    let first_agg = Tracer.by_name ~keep:(Hashtbl.mem first_ops) () in
    (* Round trips are per call of their own kind, not per session. *)
    let mean_ms span =
      let t, _, c = Option.value (Hashtbl.find_opt all span) ~default:(0.0, 0.0, 0) in
      if c = 0 then 0.0 else t *. 1000.0 /. float_of_int c
    in
    let rtts =
      List.concat_map
        (fun app ->
          List.map
            (fun phase ->
              (Printf.sprintf "farm.%s.%s_rtt_ms" app phase,
               mean_ms (Printf.sprintf "farm.%s.%s_rtt" app phase), "ms"))
            [ "hello"; "commit"; "query" ])
        [ "matmul"; "pam" ]
    in
    let _, root_words, _ =
      Option.value (Hashtbl.find_opt first_agg "farm.session") ~default:(0.0, 0.0, 0)
    in
    let hits = num [ "server"; "cache_hits" ] and misses = num [ "server"; "cache_misses" ] in
    let ref_rate = float_of_int (List.length reference) /. ref_wall in
    let traced_rate = float_of_int n /. wall in
    {
      attempted = List.length reference + n;
      failed;
      checks_ok = true;
      metrics =
        [
          ("compiler.compile_ms", sum !compile_ms /. float_of_int (List.length !compile_ms), "ms");
          ("compiler.constraints", float_of_int !constraints /. 2.0, "count");
          ("crypto.group_gen_ms", median !group_gen, "ms");
          ("farm.connect_ms", mean_ms "farm.connect", "ms");
        ]
        @ rtts
        @ [
            ("farm.cache_hit_ratio", hits /. Float.max 1.0 (hits +. misses), "ratio");
            ("farm.loop_utilization", num [ "loop"; "utilization" ], "ratio");
            ("farm.shed", num [ "server"; "shed" ], "count");
            ( "farm.errors",
              num [ "server"; "failed" ] +. num [ "server"; "decode_errors" ]
              +. num [ "server"; "timeouts" ],
              "count" );
            ("gc.minor_words", root_words /. float_of_int n_first, "words");
            ("trace.overhead_pct", 100.0 *. (1.0 -. (traced_rate /. ref_rate)), "%");
            ("trace.ops", float_of_int n, "count");
          ]
        @ wire_metrics ~ops:n_first (List.concat_map (fun (_, _, s) -> phase_bytes s.tr) first);
      report =
        [
          ("untraced_sessions_per_s", ref_rate, "1/s");
          ("traced_sessions_per_s", traced_rate, "1/s");
        ];
    }
  end
