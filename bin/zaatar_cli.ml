(* The zaatar command-line interface.

     zaatar compile FILE.zl              constraint/proof encoding statistics
     zaatar lint FILE.zl|SYS.r1cs ...    Zlint soundness analysis (DESIGN.md §11)
     zaatar run FILE.zl -i 1,2,3 ...     compile, prove and verify a batch
     zaatar run ... --connect H:P        same, against a remote prover
     zaatar profile FILE.zl              per-phase op ledger vs the Figure-3 model
     zaatar serve FILE.zl --listen H:P   networked prover service
     zaatar stats H:P                    scrape a prover's metrics endpoint
     zaatar trace-merge A B -o OUT       one Perfetto view of a split run
     zaatar bench NAME [--scale N]       one built-in benchmark, end to end
     zaatar selftest                     differential checks of all benchmarks
     zaatar check SYS.r1cs WITNESS       check a serialized witness
     zaatar exec SYS.r1cs -i 1,2,3       solve a witness from inputs alone (Zexec)
     zaatar fuzz --seed N --count M      differential-fuzz the compiler
     zaatar micro [--field-bits N]       the section-5.1 microbenchmark row

   Exit-code contract (README "Linting"): 0 success, 1 operational failure
   (unreadable file, network error, REJECTED proof, ...), 2 lint errors —
   the program is well-formed enough to analyze but the analysis found
   error-severity findings. *)

open Fieldlib
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let field_for_config bits (config : Argsys.Argument.config) =
  Argsys.Argument.field_of_bits ~backend:config.Argsys.Argument.qap_backend bits

let field_bits_arg =
  let doc =
    "Field modulus size in bits (61, 127, 128, 192, 220, ...). 127 names the NTT-friendly \
     127-bit prime, or the paper's Mersenne 2^127-1 under --qap-backend lagrange."
  in
  Arg.(value & opt int (Nat.num_bits Argsys.Argument.default_field) & info [ "field-bits" ] ~doc)

(* Argument validation: bad values are rejected by cmdliner with a usage
   error instead of surfacing later as a crash mid-protocol. *)
let pos_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%d is not a positive integer" n))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let addr_conv =
  let parse s =
    match Znet.parse_addr s with
    | _ -> Ok s
    | exception Znet.Net_error e -> Error (`Msg (Znet.error_to_string e))
  in
  Arg.conv ~docv:"HOST:PORT" (parse, Format.pp_print_string)

let backend_conv =
  let parse s =
    match Qapb.backend_of_string s with
    | Some b -> Ok b
    | None -> Error (`Msg (Printf.sprintf "%S is not a QAP backend (auto|ntt|lagrange)" s))
  in
  Arg.conv ~docv:"BACKEND"
    (parse, fun ppf b -> Format.pp_print_string ppf (Qapb.backend_to_string b))

let timeout_arg =
  Arg.(
    value
    & opt pos_int_conv 30000
    & info [ "timeout-ms" ]
        ~doc:"Socket connect/read/write timeout in milliseconds (with --connect).")

let print_stats (c : Zlang.Compile.compiled) =
  let s = Zlang.Compile.stats c in
  Printf.printf "computation %S: %d input(s), %d output(s)\n" c.Zlang.Compile.name
    c.Zlang.Compile.num_inputs c.Zlang.Compile.num_outputs;
  Printf.printf "  %-28s %10s %10s\n" "" "Ginger" "Zaatar";
  Printf.printf "  %-28s %10d %10d\n" "variables |Z|" s.Zlang.Compile.z_ginger s.Zlang.Compile.z_zaatar;
  Printf.printf "  %-28s %10d %10d\n" "constraints |C|" s.Zlang.Compile.c_ginger s.Zlang.Compile.c_zaatar;
  Printf.printf "  %-28s %10d %10d\n" "proof vector |u|" s.Zlang.Compile.u_ginger s.Zlang.Compile.u_zaatar;
  Printf.printf "  %-28s %10d %10d\n" "additive terms K / K2" s.Zlang.Compile.k s.Zlang.Compile.k2

let compile_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.zl") in
  let emit =
    Arg.(value & opt (some string) None & info [ "emit" ] ~docv:"OUT.r1cs" ~doc:"Write the quadratic-form constraint system to a file.")
  in
  let run file bits emit =
    let ctx = Fp.create (Argsys.Argument.field_of_bits bits) in
    let compiled = Zlang.Compile.compile ~ctx (read_file file) in
    print_stats compiled;
    match emit with
    | None -> ()
    | Some out ->
      let oc = open_out out in
      output_string oc (Constr.Serialize.system_to_string (Zlang.Compile.zaatar_r1cs compiled));
      close_out oc;
      Printf.printf "wrote %s\n" out
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a ZL program and print encoding statistics")
    Term.(const run $ file $ field_bits_arg $ emit)

(* ---- zaatar lint ---- *)

let lint_cmd =
  let files =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:"Targets: .zl sources get both lint layers (AST checks, then the compiled \
                system); anything else is read as a serialized .r1cs and gets the backend \
                layer only.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Report format: $(b,text) or $(b,json).")
  in
  let unroll_budget =
    Arg.(
      value
      & opt pos_int_conv Zlint.Frontend.default_cfg.Zlint.Frontend.unroll_budget
      & info [ "unroll-budget" ] ~docv:"N"
          ~doc:"Flag loop nests that would unroll into more than N statements (ZL004).")
  in
  let limit =
    Arg.(
      value
      & opt pos_int_conv 20
      & info [ "limit" ] ~docv:"N" ~doc:"Report at most N findings per diagnostic code.")
  in
  let run files format unroll_budget limit bits =
    let ctx = Fp.create (Argsys.Argument.field_of_bits bits) in
    let cfg = { Zlint.Frontend.unroll_budget } in
    let lint_one file =
      if Filename.check_suffix file ".zl" then
        { Zlint.file; findings = Zlint.lint_zl ~cfg ~ctx (read_file file) }
      else
        { Zlint.file; findings = Zlint.lint_system (Constr.Serialize.system_of_string (read_file file)) }
    in
    match List.map lint_one files with
    | reports ->
      (match format with
      | `Text -> print_string (Zlint.render_text ~limit reports)
      | `Json -> print_endline (Zobs.Json.to_string (Zlint.render_json ~limit reports)));
      exit (Zlint.exit_code reports)
    | exception Constr.Serialize.Parse_error m ->
      Printf.eprintf "lint: %s\n" m;
      exit 1
    | exception Sys_error m ->
      Printf.eprintf "lint: %s\n" m;
      exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Analyze ZL programs and constraint systems for soundness bugs (exit 2 on errors)")
    Term.(const run $ files $ format $ unroll_budget $ limit $ field_bits_arg)

let parse_inputs s =
  String.split_on_char ',' s
  |> List.filter (fun x -> String.trim x <> "")
  |> List.map (fun x -> int_of_string (String.trim x))
  |> Array.of_list

(* Observability: --trace enables Zobs and writes a Chrome-trace-event JSON
   (load in chrome://tracing or https://ui.perfetto.dev); --metrics prints
   the span/counter table. ZAATAR_TRACE=out.json does the same without
   flags. *)
let obs_args =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"OUT.json"
          ~doc:"Enable tracing and write a Chrome-trace-event JSON file (Perfetto-loadable).")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Enable tracing and print the Zobs span/counter table.")
  in
  Term.(const (fun trace metrics -> (trace, metrics)) $ trace $ metrics)

(* [process] names this side of a split run in the exported trace
   ("verifier"/"prover"); merged files keep the two distinguishable. *)
let with_obs ?(process = "zaatar") (trace, metrics) f =
  if trace <> None || metrics then Zobs.enable ();
  let code = f () in
  (match trace with
  | Some path ->
    Zobs.write_chrome_trace ~process_name:process path;
    Printf.printf "wrote %s (chrome trace; load in chrome://tracing or ui.perfetto.dev)\n" path
  | None -> ());
  if metrics then Format.printf "@.== telemetry ==@.%a" Zobs.report ();
  exit code

(* --profile rides on run/bench: enable the Zledger (which needs Zobs on)
   and print the per-phase op/GC table after the batch report. *)
let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Enable the op ledger and print per-phase Figure-3 op counts and GC deltas \
              after the run (see `zaatar profile` for the model audit).")

(* Defaults come from Argument.default_config; the paper's parameters are
   --rho 8 --rho-lin 20 --pbits 1024 --qap-backend lagrange. *)
let protocol_args =
  let d = Argsys.Argument.default_config in
  let int_opt name default doc = Arg.(value & opt pos_int_conv default & info [ name ] ~doc) in
  let rho = int_opt "rho" d.params.rho "PCP repetitions (paper: 8)." in
  let rho_lin = int_opt "rho-lin" d.params.rho_lin "Linearity-test iterations (paper: 20)." in
  let pbits = int_opt "pbits" d.p_bits "ElGamal group size in bits (paper: 1024)." in
  let domains =
    int_opt "domains" d.domains
      "Domains for the parallel commitment pipeline (transcripts are domain-count independent)."
  in
  let qap_backend =
    Arg.(
      value
      & opt backend_conv d.qap_backend
      & info [ "qap-backend" ]
          ~doc:"QAP prover backend: $(b,auto) picks the NTT pipeline when the field's \
                2-adicity covers the constraint count and falls back to the paper's \
                Lagrange pipeline otherwise; $(b,ntt) and $(b,lagrange) force one. \
                Prover and verifier must agree (the backends are distinct proof \
                systems). $(b,lagrange) at --field-bits 127 also selects the paper's \
                Mersenne prime 2^127-1.")
  in
  Term.(
    const (fun rho rho_lin p_bits domains qap_backend ->
        { d with params = { Pcp.Pcp_zaatar.rho; rho_lin }; p_bits; domains; qap_backend })
    $ rho $ rho_lin $ pbits $ domains $ qap_backend)

let report_batch ctx (result : Argsys.Argument.batch_result) =
  Array.iteri
    (fun i (inst : Argsys.Argument.instance_result) ->
      let outs =
        Array.to_list inst.Argsys.Argument.claimed_output
        |> List.map (fun e ->
               match Fp.to_signed_int ctx e with Some n -> string_of_int n | None -> Fp.to_string e)
        |> String.concat ","
      in
      Printf.printf "instance %d: outputs [%s]  %s\n" i outs
        (if inst.Argsys.Argument.accepted then "verified" else "REJECTED"))
    result.Argsys.Argument.instances;
  Printf.printf "\nprover phases:\n%s" (Format.asprintf "%a" Argsys.Metrics.pp result.Argsys.Argument.prover);
  Printf.printf "verifier setup: %.3fs, per-instance total: %.3fs\n"
    result.Argsys.Argument.verifier_setup_s result.Argsys.Argument.verifier_per_instance_s;
  if Argsys.Argument.all_accepted result then 0 else 1

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.zl") in
  let inputs =
    Arg.(non_empty & opt_all string [] & info [ "i"; "input" ] ~doc:"Comma-separated input vector (one per batch instance).")
  in
  let emit_witness =
    Arg.(value & opt (some string) None
         & info [ "emit-witness" ] ~docv:"PREFIX"
             ~doc:"Also write each instance's satisfying assignment to PREFIX.<i> (checkable with `zaatar check`).")
  in
  let connect =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"Verify against a remote prover (`zaatar serve`) instead of the in-process \
                prover. Both sides must use the same program and --field-bits.")
  in
  let no_lint =
    Arg.(
      value & flag
      & info [ "no-lint" ]
          ~doc:"Skip the pre-flight front-end lint gate (which exits 2 on error-severity \
                findings such as reads of uninitialized variables).")
  in
  let run file bits inputs emit_witness connect no_lint timeout_ms config profile obs =
    with_obs ~process:(if connect = None then "zaatar" else "verifier") obs @@ fun () ->
    if profile then Zobs.enable ();
    let ctx = Fp.create (field_for_config bits config) in
    let source = read_file file in
    (* Pre-flight gate: a program that reads uninitialized variables (or
       worse) still compiles to *some* constraint system; proving it
       verifies the wrong computation. Error findings stop the run with
       exit 2 before any proving work happens. *)
    if not no_lint then begin
      let findings = Zlint.lint_source source in
      if Zlint.Diagnostic.has_errors findings then begin
        print_string (Zlint.render_text [ { Zlint.file; findings } ]);
        Printf.eprintf "run: lint errors in %s (use --no-lint to override)\n" file;
        exit 2
      end
    end;
    let compiled = Zlang.Compile.compile ~ctx source in
    print_stats compiled;
    print_newline ();
    let comp = Apps.Glue.computation_of compiled in
    let batch =
      Array.of_list (List.map (fun s -> Apps.Glue.field_inputs ctx (parse_inputs s)) inputs)
    in
    (match emit_witness with
    | None -> ()
    | Some prefix ->
      Array.iteri
        (fun i x ->
          let w = compiled.Zlang.Compile.solve_zaatar x in
          let path = Printf.sprintf "%s.%d" prefix i in
          let oc = open_out path in
          output_string oc (Constr.Serialize.assignment_to_string ctx w);
          close_out oc;
          Printf.printf "wrote %s\n" path)
        batch);
    let prg = Chacha.Prg.create ~seed:"zaatar cli" () in
    let result =
      match connect with
      | None -> Argsys.Argument.run_batch ~config comp ~prg ~inputs:batch
      | Some addr ->
        Printf.printf "remote prover at %s (computation %s)\n%!" addr (Argsys.Argument.digest comp);
        (* Only mint a distributed trace id when tracing is on: an untraced
           run keeps its v2 Hello bit-identical across invocations. *)
        let trace_id =
          if Zobs.enabled () then begin
            let id = Zobs.mint_trace_id () in
            Printf.printf "trace id %s\n%!" id;
            Some id
          end
          else None
        in
        Argsys.Remote.run_connect ~config ?trace_id ~timeout_ms ~addr comp ~prg ~inputs:batch
    in
    let code = report_batch ctx result in
    if profile then Format.printf "@.%a" Zobs.Ledger.pp_table ();
    code
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile a ZL program, prove and verify a batch of instances")
    Term.(
      const run $ file $ field_bits_arg $ inputs $ emit_witness $ connect $ no_lint
      $ timeout_arg $ protocol_args $ profile_flag $ obs_args)

(* ---- zaatar profile ---- *)

let print_audit rows =
  let open Costmodel.Model in
  Printf.printf "\nop audit (Figure 3 predicted vs ledgered; DESIGN.md \xc2\xa712 bands):\n";
  Printf.printf "  %-22s %-8s %14s %14s %8s %-13s %-6s %s\n" "phase" "op" "predicted" "ledgered"
    "ratio" "band" "status" "note";
  List.iter
    (fun r ->
      Printf.printf "  %-22s %-8s %14.0f %14d %8.3f [%4.2f,%4.2f] %-6s %s\n" r.phase r.op
        r.predicted r.ledgered r.ratio r.lo r.hi
        (if not r.gated then "info" else if r.pass then "ok" else "FAIL")
        r.note)
    rows

let profile_cmd =
  let file =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"FILE.zl" ~doc:"Program to prove and audit (omit with --live).")
  in
  let live =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "live" ] ~docv:"HOST:PORT"
          ~doc:"Scrape a running prover's sampling profiler instead of proving locally: \
                fetch /profile from a `zaatar serve --metrics-listen` endpoint and print \
                the folded stacks (--folded writes them to a file instead).")
  in
  let inputs =
    Arg.(
      value & opt_all string []
      & info [ "i"; "input" ]
          ~doc:"Comma-separated input vector (one per batch instance). Omitted: $(b,--batch) \
                deterministic pseudorandom vectors are generated (profiling needs valid \
                inputs, not meaningful ones).")
  in
  let batch =
    Arg.(
      value & opt pos_int_conv 1
      & info [ "batch" ] ~doc:"Instances to prove when no -i inputs are given.")
  in
  let folded =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"OUT.folded"
          ~doc:"Also write folded stacks (semicolon-joined span path + exclusive \
                microseconds per line), the input format of Brendan Gregg's flamegraph.pl.")
  in
  let run_live addr folded =
    match Znet.Metrics_http.get addr "/profile" with
    | exception Failure m ->
      Printf.eprintf "profile: %s\n" m;
      1
    | code, _ when code <> 200 ->
      Printf.eprintf "profile: %s answered HTTP %d\n" addr code;
      1
    | _, body -> (
      match folded with
      | None ->
        print_string body;
        if body = "" then print_endline "(no samples yet)";
        0
      | Some path ->
        let oc = open_out path in
        output_string oc body;
        close_out oc;
        Printf.printf "wrote %s (folded stacks; flamegraph.pl %s > flame.svg)\n" path path;
        0)
  in
  let run file bits inputs batch folded live config obs =
    match (live, file) with
    | Some addr, _ -> exit (run_live addr folded)
    | None, None ->
      Printf.eprintf "profile: FILE.zl or --live HOST:PORT required\n";
      exit 1
    | None, Some file ->
    with_obs ~process:"profile" obs @@ fun () ->
    Zobs.enable ();
    let ctx = Fp.create (field_for_config bits config) in
    let compiled = Zlang.Compile.compile ~ctx (read_file file) in
    print_stats compiled;
    print_newline ();
    let comp = Apps.Glue.computation_of compiled in
    let instances =
      if inputs <> [] then
        Array.of_list (List.map (fun s -> Apps.Glue.field_inputs ctx (parse_inputs s)) inputs)
      else begin
        let iprg = Chacha.Prg.create ~seed:"zaatar profile inputs" () in
        Array.init batch (fun _ ->
            Apps.Glue.field_inputs ctx
              (Array.init compiled.Zlang.Compile.num_inputs (fun _ ->
                   Chacha.Prg.int_below iprg 1000)))
      end
    in
    let prg = Chacha.Prg.create ~seed:"zaatar cli" () in
    let result = Argsys.Argument.run_batch ~config comp ~prg ~inputs:instances in
    Format.printf "%a" Zobs.Ledger.pp_table ();
    let st = Zlang.Compile.stats compiled in
    let sizes =
      Costmodel.Model.sizes_of_stats st ~n_x:compiled.Zlang.Compile.num_inputs
        ~n_y:compiled.Zlang.Compile.num_outputs ~t_local:0.0
    in
    let pp =
      {
        Costmodel.Model.rho = config.Argsys.Argument.params.Pcp.Pcp_zaatar.rho;
        rho_lin = config.Argsys.Argument.params.Pcp.Pcp_zaatar.rho_lin;
      }
    in
    let rows =
      (* Mirror Qapb.of_r1cs's backend selection so the audit prices the
         pipeline the run actually took. *)
      let nc = sizes.Costmodel.Model.c_zaatar in
      let ntt_domain =
        let pick =
          match config.Argsys.Argument.qap_backend with
          | Qapb.Lagrange -> false
          | Qapb.Ntt -> true
          | Qapb.Auto -> nc > 0 && Qapb.ntt_viable ctx nc
        in
        if pick then Some (Polylib.Ntt.next_pow2 nc) else None
      in
      Costmodel.Model.zaatar_op_audit ?ntt_domain pp sizes ~beta:(Array.length instances)
        ~ledger:Zobs.Ledger.phase
    in
    print_audit rows;
    (match folded with
    | None -> ()
    | Some path ->
      Zobs.write_folded path;
      Printf.printf "wrote %s (folded stacks; flamegraph.pl %s > flame.svg)\n" path path);
    let gated = List.filter (fun r -> r.Costmodel.Model.gated) rows in
    let in_band = List.filter (fun r -> r.Costmodel.Model.pass) gated in
    if not (Argsys.Argument.all_accepted result) then begin
      Printf.eprintf "profile: batch REJECTED\n";
      1
    end
    else begin
      Printf.printf "\nop audit %s: %d/%d gated rows in band\n"
        (if Costmodel.Model.audit_pass rows then "OK" else "FAILED")
        (List.length in_band) (List.length gated);
      if Costmodel.Model.audit_pass rows then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Prove a batch with the op ledger on and audit per-phase op counts against the \
             Figure-3 cost model (exit 1 if any gated row leaves its band), or scrape a \
             live prover's sampling profiler with --live")
    Term.(
      const run $ file $ field_bits_arg $ inputs $ batch $ folded $ live $ protocol_args
      $ obs_args)

let serve_cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.zl" ~doc:"ZL programs this prover serves.")
  in
  let listen =
    Arg.(
      required
      & opt (some addr_conv) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:"Address to listen on; port 0 picks an ephemeral port (printed at startup).")
  in
  let once =
    Arg.(value & flag & info [ "once" ] ~doc:"Serve a single connection, then exit (CI smoke).")
  in
  let metrics_listen =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "metrics-listen" ] ~docv:"HOST:PORT"
          ~doc:"Expose live metrics over HTTP: Prometheus text at /metrics, a JSON snapshot \
                at /json (scrape with `zaatar stats`). Port 0 picks an ephemeral port \
                (printed at startup).")
  in
  let trace_dir =
    Arg.(
      value
      & opt (some dir) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:"Write one Chrome-trace sidecar per connection (prover_connN.json), mergeable \
                with `zaatar trace-merge`. The per-session flight recorder feeds these \
                (plus forensic_connN.jsonl bundles on error/slow sessions).")
  in
  let log_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-json" ] ~docv:"SINK"
          ~doc:"Emit structured JSONL logs (per-connection peer/digest/phase fields) to \
                'stderr', 'stdout' or a file path.")
  in
  let max_sessions =
    Arg.(
      value
      & opt pos_int_conv Zfarm.Farm.default.Zfarm.Farm.max_sessions
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Concurrent in-flight session cap; connections beyond it park in the accept \
                queue, and beyond that are shed with a busy/retry-after reply.")
  in
  let accept_queue =
    Arg.(
      value
      & opt pos_int_conv Zfarm.Farm.default.Zfarm.Farm.accept_queue
      & info [ "accept-queue" ] ~docv:"N"
          ~doc:"Connections parked beyond --max-sessions before load shedding begins.")
  in
  let session_timeout_ms =
    Arg.(
      value
      & opt pos_int_conv Zfarm.Farm.default.Zfarm.Farm.session_timeout_ms
      & info [ "session-timeout-ms" ] ~docv:"MS"
          ~doc:"Per-session inactivity deadline: sessions (and parked connections) idle \
                longer than this are closed and accounted as timeouts.")
  in
  let setup_cache_mb =
    Arg.(
      value
      & opt int (Zfarm.Farm.default.Zfarm.Farm.setup_cache_bytes / (1024 * 1024))
      & info [ "setup-cache-mb" ] ~docv:"MB"
          ~doc:"Byte bound of the per-digest setup cache (compiled QAP, subproduct trees, \
                twiddle plans, LRU-evicted). 0 disables the cache.")
  in
  let slow_session_ms =
    Arg.(
      value
      & opt int Zfarm.Farm.default.Zfarm.Farm.slow_session_ms
      & info [ "slow-session-ms" ] ~docv:"MS"
          ~doc:"Sessions lasting at least this long dump a JSONL forensic bundle to \
                --trace-dir (0, the default, disables the slow-session trigger; errored \
                sessions always dump).")
  in
  let recent_cap =
    Arg.(
      value
      & opt pos_int_conv Znet.Svcstats.default_recent_cap
      & info [ "recent-cap" ] ~docv:"N"
          ~doc:"Completed connections kept in the stats ring backing /json and the \
                session-latency percentiles.")
  in
  let flight_cap =
    Arg.(
      value
      & opt int Zfarm.Farm.default.Zfarm.Farm.flight_cap
      & info [ "flight-cap" ] ~docv:"N"
          ~doc:"Per-session flight-recorder ring capacity, in events (0 disables the \
                recorder).")
  in
  let profile_hz =
    Arg.(
      value
      & opt int Zfarm.Farm.default.Zfarm.Farm.profile_hz
      & info [ "profile-hz" ] ~docv:"HZ"
          ~doc:"Sampling wall-clock profiler tick rate backing /profile and `zaatar profile \
                --live` (0 disables the sampler).")
  in
  let run files listen once metrics_listen trace_dir log_json max_sessions accept_queue
      session_timeout_ms setup_cache_mb slow_session_ms recent_cap flight_cap profile_hz bits
      config obs =
    with_obs ~process:"prover" obs @@ fun () ->
    (match log_json with
    | Some "stderr" -> Zobs.Log.set_sink (`Channel stderr)
    | Some "stdout" -> Zobs.Log.set_sink (`Channel stdout)
    | Some path -> Zobs.Log.set_sink (`File path)
    | None -> ());
    let ctx = Fp.create (field_for_config bits config) in
    let table = Hashtbl.create 8 in
    List.iter
      (fun f ->
        let compiled = Zlang.Compile.compile ~ctx (read_file f) in
        let comp = Apps.Glue.computation_of compiled in
        let d = Argsys.Argument.digest comp in
        Printf.printf "serving %s as computation %s\n%!" f d;
        Hashtbl.replace table d comp)
      files;
    let log s = Printf.printf "%s\n%!" s in
    Znet.Svcstats.set_recent_cap recent_cap;
    let fconfig =
      {
        Zfarm.Farm.default with
        arg_config = config;
        max_sessions;
        accept_queue;
        session_timeout_ms;
        setup_cache_bytes = setup_cache_mb * 1024 * 1024;
        trace_dir;
        slow_session_ms;
        flight_cap;
        profile_hz;
      }
    in
    Zfarm.Farm.serve ~config:fconfig ~lookup:(Hashtbl.find_opt table)
      ?max_conns:(if once then Some 1 else None)
      ?metrics_listen ~log listen;
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run a networked prover: accept verifier connections concurrently and prove \
             batches on demand")
    Term.(
      const run $ files $ listen $ once $ metrics_listen $ trace_dir $ log_json $ max_sessions
      $ accept_queue $ session_timeout_ms $ setup_cache_mb $ slow_session_ms $ recent_cap
      $ flight_cap $ profile_hz $ field_bits_arg $ protocol_args $ obs_args)

(* JSON field accessors shared by `zaatar stats` and `zaatar top`. *)
let jnum j k =
  match Option.bind (Zobs.Json.member k j) Zobs.Json.to_num with Some v -> v | None -> 0.0

let jstr j k =
  match Option.bind (Zobs.Json.member k j) Zobs.Json.to_str with Some s -> s | None -> ""

let stats_cmd =
  let addr =
    Arg.(
      required
      & pos 0 (some addr_conv) None
      & info [] ~docv:"HOST:PORT" ~doc:"A `zaatar serve --metrics-listen` endpoint.")
  in
  let raw =
    Arg.(value & flag & info [ "raw" ] ~doc:"Dump the raw Prometheus text exposition (/metrics).")
  in
  let run addr raw =
    exit
    @@
    match Znet.Metrics_http.get addr (if raw then "/metrics" else "/json") with
    | exception Failure m ->
      Printf.eprintf "stats: %s\n" m;
      1
    | code, _ when code <> 200 ->
      Printf.eprintf "stats: %s answered HTTP %d\n" addr code;
      1
    | _, body when raw ->
      print_string body;
      0
    | _, body ->
      let j = Zobs.Json.parse body in
      let server = Option.value (Zobs.Json.member "server" j) ~default:(Zobs.Json.Obj []) in
      Printf.printf "server %s:\n" addr;
      List.iter
        (fun k -> Printf.printf "  %-16s %10.0f\n" k (jnum server k))
        [
          "accepted"; "active"; "completed"; "failed"; "decode_errors"; "timeouts"; "shed";
          "cache_hits"; "cache_misses"; "queue_depth";
        ];
      let hits = jnum server "cache_hits" and misses = jnum server "cache_misses" in
      if hits +. misses > 0.0 then
        Printf.printf "  %-16s %9.0f%%\n" "cache_hit_rate" (100.0 *. hits /. (hits +. misses));
      (match Zobs.Json.member "latency_ms" server with
      | Some lat ->
        Printf.printf "  %-16s p50 %.1f  p95 %.1f  p99 %.1f\n" "latency_ms" (jnum lat "p50")
          (jnum lat "p95") (jnum lat "p99")
      | None -> ());
      let conns =
        Option.value (Option.bind (Zobs.Json.member "connections" j) Zobs.Json.to_arr)
          ~default:[]
      in
      if conns <> [] then begin
        Printf.printf "connections:\n";
        Printf.printf "  %4s %-21s %-16s %-7s %9s %10s %10s %6s\n" "id" "peer" "digest"
          "status" "secs" "sent B" "recv B" "msgs";
        List.iter
          (fun c ->
            Printf.printf "  %4.0f %-21s %-16s %-7s %9.3f %10.0f %10.0f %6.0f\n" (jnum c "id")
              (jstr c "peer") (jstr c "digest") (jstr c "status") (jnum c "duration_s")
              (jnum c "bytes_sent") (jnum c "bytes_recv") (jnum c "msgs"))
          conns
      end;
      0
  in
  Cmd.v (Cmd.info "stats" ~doc:"Scrape and pretty-print a prover's live metrics endpoint")
    Term.(const run $ addr $ raw)

let top_cmd =
  let addr =
    Arg.(
      required
      & pos 0 (some addr_conv) None
      & info [] ~docv:"HOST:PORT" ~doc:"A `zaatar serve --metrics-listen` endpoint.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Render a single frame and exit (scripting/CI; no screen clear).")
  in
  let interval_ms =
    Arg.(
      value & opt pos_int_conv 1000
      & info [ "interval-ms" ] ~docv:"MS" ~doc:"Refresh period between frames.")
  in
  (* One frame of the live view: farm gauges, latency percentiles, loop
     health, then a per-session table (active first — the /json connection
     list is active @ recent). *)
  let render addr j =
    let server = Option.value (Zobs.Json.member "server" j) ~default:(Zobs.Json.Obj []) in
    let loop = Option.value (Zobs.Json.member "loop" j) ~default:(Zobs.Json.Obj []) in
    let accepted = jnum server "accepted" in
    let shed = jnum server "shed" in
    let hits = jnum server "cache_hits" and misses = jnum server "cache_misses" in
    let rate a b = if a +. b > 0.0 then 100.0 *. a /. (a +. b) else 0.0 in
    Printf.printf "zaatar top — %s\n" addr;
    Printf.printf
      "sessions: %.0f active  %.0f queued  %.0f done  %.0f failed  %.0f timeout  %.0f shed \
       (%.1f%%)\n"
      (jnum server "active") (jnum server "queue_depth") (jnum server "completed")
      (jnum server "failed") (jnum server "timeouts") shed
      (rate shed accepted);
    (match Zobs.Json.member "latency_ms" server with
    | Some lat ->
      Printf.printf "latency ms: p50 %.1f  p95 %.1f  p99 %.1f" (jnum lat "p50") (jnum lat "p95")
        (jnum lat "p99")
    | None -> Printf.printf "latency ms: -");
    Printf.printf "   cache hit: %.1f%% (%.0f/%.0f)\n" (rate hits misses) hits (hits +. misses);
    let iter_us = Option.value (Zobs.Json.member "iter_us" loop) ~default:(Zobs.Json.Obj []) in
    Printf.printf
      "loop: %.0f iters  util %.1f%%  ready/iter %.2f  iter_us p50 %.0f p95 %.0f p99 %.0f\n"
      (jnum loop "iterations")
      (100.0 *. jnum loop "utilization")
      (jnum loop "ready_avg") (jnum iter_us "p50") (jnum iter_us "p95") (jnum iter_us "p99");
    let conns =
      Option.value (Option.bind (Zobs.Json.member "connections" j) Zobs.Json.to_arr) ~default:[]
    in
    Printf.printf "\n%4s %-16s %-8s %-7s %8s %10s %10s\n" "id" "digest" "phase" "status"
      "age s" "sent B" "recv B";
    List.iter
      (fun c ->
        Printf.printf "%4.0f %-16s %-8s %-7s %8.3f %10.0f %10.0f\n" (jnum c "id")
          (jstr c "digest") (jstr c "phase") (jstr c "status") (jnum c "duration_s")
          (jnum c "bytes_sent") (jnum c "bytes_recv"))
      conns;
    if conns = [] then Printf.printf "(no sessions yet)\n"
  in
  let run addr once interval_ms =
    exit
    @@
    let frame () =
      match Znet.Metrics_http.get addr "/json" with
      | exception Failure m ->
        Printf.eprintf "top: %s\n" m;
        Some 1
      | code, _ when code <> 200 ->
        Printf.eprintf "top: %s answered HTTP %d\n" addr code;
        Some 1
      | _, body ->
        render addr (Zobs.Json.parse body);
        None
    in
    if once then match frame () with Some c -> c | None -> 0
    else begin
      let rc = ref None in
      while !rc = None do
        (* Home + clear-to-end leaves less flicker than a full clear. *)
        print_string "\027[H\027[J";
        rc := frame ();
        flush stdout;
        if !rc = None then Unix.sleepf (float_of_int interval_ms /. 1000.0)
      done;
      Option.value !rc ~default:0
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live farm operations view: poll a prover's /json endpoint and render \
             per-session state, latency percentiles, cache and shed rates, and event-loop \
             health (--once for a single scriptable frame)")
    Term.(const run $ addr $ once $ interval_ms)

let trace_merge_cmd =
  let files =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"TRACE.json"
          ~doc:"Chrome-trace files from one distributed run (e.g. the verifier's --trace \
                output and the prover's --trace-dir sidecar).")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"OUT.json" ~doc:"Merged Chrome-trace output file.")
  in
  let run files out =
    exit
    @@
    match Zobs.Sink.merge_chrome_trace_files ~out files with
    | () ->
      Printf.printf "wrote %s (merged %d trace file(s); load in ui.perfetto.dev)\n" out
        (List.length files);
      0
    | exception Invalid_argument m ->
      Printf.eprintf "trace-merge: %s\n" m;
      1
  in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:"Merge per-process Chrome traces (one pid each) into a single Perfetto view")
    Term.(const run $ files $ out)

let bench_cmd =
  let bname = Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"pam | bisection | apsp | fannkuch | lcs") in
  let scale = Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Input-size multiplier.") in
  let batch = Arg.(value & opt int 2 & info [ "batch" ] ~doc:"Batch size.") in
  let run name scale batch bits config profile obs =
    with_obs obs @@ fun () ->
    if profile then Zobs.enable ();
    let ctx = Fp.create (field_for_config bits config) in
    let app = Apps.Registry.by_name name ~scale in
    Printf.printf "benchmark %s (%s)\n" app.Apps.App_def.display app.Apps.App_def.params_desc;
    let compiled = Apps.Glue.compile ctx app in
    print_stats compiled;
    print_newline ();
    let comp = Apps.Glue.computation_of compiled in
    let prg = Chacha.Prg.create ~seed:("cli bench " ^ name) () in
    let inputs =
      Array.init batch (fun _ -> Apps.Glue.field_inputs ctx (app.Apps.App_def.gen_inputs prg))
    in
    let code = report_batch ctx (Argsys.Argument.run_batch ~config comp ~prg ~inputs) in
    if profile then Format.printf "@.%a" Zobs.Ledger.pp_table ();
    code
  in
  Cmd.v (Cmd.info "bench" ~doc:"Run one built-in benchmark end to end")
    Term.(const run $ bname $ scale $ batch $ field_bits_arg $ protocol_args $ profile_flag $ obs_args)

let selftest_cmd =
  let run bits =
    let ctx = Fp.create (Argsys.Argument.field_of_bits bits) in
    let prg = Chacha.Prg.create ~seed:"selftest" () in
    List.iter
      (fun (app : Apps.App_def.t) ->
        Printf.printf "%-28s (%s) ... %!" app.Apps.App_def.display app.Apps.App_def.params_desc;
        ignore (Apps.Glue.differential_check ~trials:3 ctx app prg);
        print_endline "ok")
      (Apps.Registry.suite ());
    print_endline "all benchmarks match their native references"
  in
  Cmd.v (Cmd.info "selftest" ~doc:"Differential-check every benchmark against its native reference")
    Term.(const run $ field_bits_arg)

let check_cmd =
  let sys_file = Arg.(required & pos 0 (some file) None & info [] ~docv:"SYSTEM.r1cs") in
  let wit_file = Arg.(required & pos 1 (some file) None & info [] ~docv:"WITNESS") in
  let run sys_file wit_file =
    let sys = Constr.Serialize.system_of_string (read_file sys_file) in
    let _wctx, w = Constr.Serialize.assignment_of_string (read_file wit_file) in
    let ctx = sys.Constr.R1cs.field in
    match Constr.R1cs.first_violation ctx sys w with
    | None ->
      Printf.printf "OK: %d constraints over %d variables satisfied\n"
        (Constr.R1cs.num_constraints sys) sys.Constr.R1cs.num_vars
    | Some j ->
      Printf.printf "FAIL: constraint %d violated\n" j;
      exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a serialized assignment against a serialized constraint system")
    Term.(const run $ sys_file $ wit_file)

(* zaatar exec: the Zexec witness-solving interpreter (DESIGN.md §16).
   Solves a serialized system from inputs alone — no ZL source, no
   compiler solver — or, with --check, cross-validates interpreter vs
   compiler vs native reference over the whole benchmark suite. *)
let exec_cmd =
  let sys_file = Arg.(value & pos 0 (some file) None & info [] ~docv:"SYSTEM.r1cs") in
  let inputs =
    Arg.(
      value
      & opt (some string) None
      & info [ "i"; "inputs" ] ~docv:"V1,V2,.." ~doc:"Input values (signed integers).")
  in
  let emit_witness =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-witness" ] ~docv:"OUT" ~doc:"Write the solved assignment to a file.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Differential mode: for every benchmark app, compare the interpreter's witness \
             against the compiler's solver and the app's native reference.")
  in
  let trials = Arg.(value & opt pos_int_conv 3 & info [ "trials" ] ~doc:"Random trials per app with --check.") in
  let scale =
    Arg.(value & opt (some pos_int_conv) None & info [ "scale" ] ~docv:"N" ~doc:"Problem size for --check (apps' default otherwise).")
  in
  let run_check bits trials scale =
    let ctx = Fp.create (Argsys.Argument.field_of_bits bits) in
    let prg = Chacha.Prg.create ~seed:"exec-check" () in
    let failed = ref false in
    List.iter
      (fun (app : Apps.App_def.t) ->
        Printf.printf "%-28s (%s) ... %!" app.Apps.App_def.display app.Apps.App_def.params_desc;
        let c = Zlang.Compile.compile ~ctx app.Apps.App_def.source in
        let sys = Zlang.Compile.zaatar_r1cs c in
        let ok = ref true in
        let stats = ref None in
        for _ = 1 to trials do
          let ints = app.Apps.App_def.gen_inputs prg in
          let finputs = Apps.Glue.field_inputs ctx ints in
          let w1 = c.Zlang.Compile.solve_zaatar finputs in
          match Zexec.Exec.solve sys ~inputs:finputs with
          | Error e ->
            ok := false;
            Printf.printf "\n  %s" (Zexec.Exec.error_to_text e)
          | Ok (w2, st) ->
            stats := Some st;
            Array.iteri
              (fun v x ->
                if not (Fp.equal x w2.(v)) then begin
                  ok := false;
                  Printf.printf "\n  witness differs at w%d" v
                end)
              w1;
            let outs = Apps.Glue.int_outputs ctx (Zlang.Compile.outputs_zaatar c w2) in
            if outs <> app.Apps.App_def.native ints then begin
              ok := false;
              Printf.printf "\n  outputs differ from the native reference"
            end
        done;
        if !ok then begin
          (match !stats with
          | Some st ->
            Printf.printf "ok (%d pinned, %d defaulted, %d row visits)\n" st.Zexec.Exec.pinned
              st.Zexec.Exec.defaulted st.Zexec.Exec.row_visits
          | None -> print_endline "ok")
        end
        else begin
          failed := true;
          print_newline ()
        end)
      (Apps.Registry.suite ?scale ());
    if !failed then exit 1;
    print_endline "interpreter, compiler and native references all agree"
  in
  let run bits sys_file inputs emit_witness check trials scale =
    if check then run_check bits trials scale
    else
      match sys_file with
      | None ->
        prerr_endline "zaatar exec: SYSTEM.r1cs required (or use --check)";
        exit 1
      | Some f -> (
        let sys = Constr.Serialize.system_of_string (read_file f) in
        let ctx = sys.Constr.R1cs.field in
        let ints = match inputs with Some s -> parse_inputs s | None -> [||] in
        let finputs = Array.map (Fp.of_int ctx) ints in
        match Zexec.Exec.solve sys ~inputs:finputs with
        | Error e ->
          prerr_endline (Zexec.Exec.error_to_text ~file:f e);
          exit 1
        | Ok (w, st) ->
          Printf.printf
            "solved %d constraints over %d variables: %d pinned, %d defaulted, %d ambiguous \
             row(s), %d row visits\n"
            (Constr.R1cs.num_constraints sys) sys.Constr.R1cs.num_vars st.Zexec.Exec.pinned
            st.Zexec.Exec.defaulted st.Zexec.Exec.ambiguous_rows st.Zexec.Exec.row_visits;
          let outs = Zexec.Exec.outputs sys ~num_inputs:(Array.length ints) w in
          if Array.length outs > 0 then
            Printf.printf "outputs: %s\n"
              (String.concat ", "
                 (Array.to_list
                    (Array.map
                       (fun e ->
                         match Fp.to_signed_int ctx e with
                         | Some n -> string_of_int n
                         | None -> Fp.to_string e)
                       outs)));
          (match emit_witness with
          | Some out ->
            let oc = open_out_bin out in
            output_string oc (Constr.Serialize.assignment_to_string ctx w);
            close_out oc;
            Printf.printf "wrote %s\n" out
          | None -> ()))
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:"Solve a constraint system's witness from inputs alone (the Zexec interpreter)")
    Term.(const run $ field_bits_arg $ sys_file $ inputs $ emit_witness $ check $ trials $ scale)

(* zaatar fuzz: the differential fuzzing campaign. Exit 0 when every
   program agrees across the oracle, 1 when a discrepancy (or an
   undetectable transform mutation) survives. *)
let fuzz_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.") in
  let count = Arg.(value & opt pos_int_conv 100 & info [ "count" ] ~docv:"M" ~doc:"Programs to generate.") in
  let shrink =
    Arg.(value & flag & info [ "shrink" ] ~doc:"Minimize each discrepancy before reporting it.")
  in
  let break_transform =
    Arg.(
      value & flag
      & info [ "break-transform" ]
          ~doc:
            "Adversarial mode: delete a product-definition row from a compiled system and \
             verify the toolchain (Zlint ZR002, Zexec) catches it; shrink to a minimal \
             reproducer.")
  in
  let fixture =
    Arg.(
      value
      & opt (some string) None
      & info [ "fixture" ] ~docv:"OUT.r1cs"
          ~doc:"With --break-transform: write the minimal broken system to a file.")
  in
  let verdict_every =
    Arg.(
      value & opt int 16
      & info [ "verdict-every" ] ~docv:"K"
          ~doc:"Run every K-th program through the full argument pipeline (0 disables).")
  in
  let run bits seed count shrink break_transform fixture verdict_every =
    let ctx = Fp.create (Argsys.Argument.field_of_bits bits) in
    if break_transform then begin
      match Zfuzz.Fuzz.break_transform ~ctx ~seed ~count () with
      | None ->
        Printf.printf
          "break-transform: no generated program yielded a lint-detectable mutation in %d \
           tries\n"
          count;
        exit 1
      | Some bc ->
        Printf.printf "break-transform: campaign index %d, minimized to:\n%s" bc.Zfuzz.Fuzz.bt_index
          bc.Zfuzz.Fuzz.bt_source;
        List.iter
          (fun (d : Zlint.Diagnostic.t) ->
            if d.Zlint.Diagnostic.code = "ZR002" then
              Printf.printf "  detected: %s %s\n" d.Zlint.Diagnostic.code d.Zlint.Diagnostic.message)
          bc.Zfuzz.Fuzz.bt_findings;
        (match fixture with
        | Some out ->
          let oc = open_out_bin out in
          output_string oc (Constr.Serialize.system_to_string bc.Zfuzz.Fuzz.bt_system);
          close_out oc;
          Printf.printf "wrote %s\n" out
        | None -> ())
    end
    else begin
      Printf.printf "fuzz: seed=%d count=%d (three-way oracle%s)\n%!" seed count
        (if verdict_every > 0 then Printf.sprintf ", argument verdict every %d" verdict_every
         else "");
      let r = Zfuzz.Fuzz.campaign ~verdict_every ~ctx ~seed ~count () in
      List.iter
        (fun (d : Zfuzz.Fuzz.discrepancy) ->
          Printf.printf "DISCREPANCY at index %d, stage %s: %s\n  inputs: %s\n"
            d.Zfuzz.Fuzz.index d.Zfuzz.Fuzz.stage d.Zfuzz.Fuzz.detail
            (String.concat "," (Array.to_list (Array.map string_of_int d.Zfuzz.Fuzz.inputs)));
          let src =
            if shrink then begin
              let prog, ints = Zfuzz.Fuzz.case ~seed d.Zfuzz.Fuzz.index in
              Zlang.Printer.to_source
                (Zfuzz.Fuzz.shrink_discrepancy ~ctx ~stage:d.Zfuzz.Fuzz.stage prog ints)
            end
            else d.Zfuzz.Fuzz.source
          in
          print_string src)
        r.Zfuzz.Fuzz.discrepancies;
      Printf.printf "%d program(s), %d through the argument pipeline, %d discrepancy(ies)\n"
        r.Zfuzz.Fuzz.programs r.Zfuzz.Fuzz.verdicts
        (List.length r.Zfuzz.Fuzz.discrepancies);
      if r.Zfuzz.Fuzz.discrepancies <> [] then exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential-fuzz the ZL compiler against the native evaluator and Zexec")
    Term.(
      const run $ field_bits_arg $ seed $ count $ shrink $ break_transform $ fixture
      $ verdict_every)

let micro_cmd =
  let pbits =
    Arg.(
      value
      & opt int Argsys.Argument.default_config.p_bits
      & info [ "pbits" ] ~doc:"ElGamal group size in bits.")
  in
  let iters = Arg.(value & opt int 1000 & info [ "iters" ] ~doc:"Iterations per operation.") in
  let run bits pbits iters =
    let field = Argsys.Argument.field_of_bits bits in
    let ctx = Fp.create field in
    let grp = Zcrypto.Group.cached ~field_order:field ~p_bits:pbits () in
    let m = Costmodel.Params.measure ~iters ctx grp in
    Format.printf "%a@." Costmodel.Params.pp_row m
  in
  Cmd.v (Cmd.info "micro" ~doc:"Measure the section-5.1 microbenchmark parameters")
    Term.(const run $ field_bits_arg $ pbits $ iters)

let () =
  let info = Cmd.info "zaatar" ~doc:"Verified computation with QAP-based linear PCPs (EuroSys'13)" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_cmd; lint_cmd; run_cmd; profile_cmd; serve_cmd; stats_cmd; top_cmd;
            trace_merge_cmd; bench_cmd; selftest_cmd; check_cmd; exec_cmd; fuzz_cmd; micro_cmd;
          ]))
