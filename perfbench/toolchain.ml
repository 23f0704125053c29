(* The toolchain workload: each cycle compiles, lints (Zlint.lint_compiled)
   and interprets (Zexec.Exec.solve) the five suite apps and a fixed block
   of Zfuzz programs. An op is one program check: the interpreter's
   witness must equal the compiler's, and the outputs must equal the
   native reference (apps) or the Zfuzz evaluator (fuzz programs). *)

open Fieldlib
open Common

(* Fuzz programs per cycle; the five apps make up the rest. The block is
   the same for every --seed, which draws the apps' inputs: Zfuzz program
   sizes vary so widely that a block drawn per seed moved the median check
   time by a third from seed to seed. Campaign 42 is the one CI smokes. *)
let fuzz_block = 200
let fuzz_campaign = 42

type program = { source : string; inputs : int array; expect : int array }

let apps = Apps.Registry.suite ~scale:1 ()

(* Cycle [c]'s programs: the apps on inputs drawn for that cycle, then the
   fuzz block. *)
let cycle_programs ~workload ~seed fuzz c =
  List.map
    (fun (app : Apps.App_def.t) ->
      let inputs = app.Apps.App_def.gen_inputs (stream ~workload ~seed app.Apps.App_def.name c) in
      { source = app.Apps.App_def.source; inputs; expect = app.Apps.App_def.native inputs })
    apps
  @ fuzz

(* The first [fuzz_block] cases of [fuzz_campaign] that the compiler and
   the Zfuzz evaluator both accept, and how many were passed over. About
   1 case in 100 is rejected by one of them (`zaatar fuzz` reports these
   as compile or eval discrepancies); they have no reference output, so
   they cannot be checked here. *)
let fuzz_programs ctx =
  let rec go i acc skipped =
    if List.length acc = fuzz_block then (List.rev acc, skipped)
    else
      let prog, inputs = Zfuzz.Fuzz.case ~seed:fuzz_campaign i in
      let source = Zlang.Printer.to_source prog in
      match (Zfuzz.Eval.run prog inputs, Zlang.Compile.compile ~ctx source) with
      | expect, _ -> go (i + 1) ({ source; inputs; expect } :: acc) skipped
      | exception (Zfuzz.Eval.Eval_error _ | Zlang.Ast.Error _) -> go (i + 1) acc (skipped + 1)
  in
  go 0 [] 0

type check = { ok : bool; constraints : int; findings : int; row_visits : int }

let sp = Tracer.span

let check ctx p =
  let compiled = sp "compiler.compile" (fun () -> Zlang.Compile.compile ~ctx p.source) in
  let findings = sp "lint.analyze" (fun () -> Zlint.lint_compiled compiled) in
  let sys = Zlang.Compile.zaatar_r1cs compiled in
  let inputs = Array.map (Fp.of_int ctx) p.inputs in
  let w = sp "argument.solve" (fun () -> compiled.Zlang.Compile.solve_zaatar inputs) in
  let base =
    { ok = false; constraints = Constr.R1cs.num_constraints sys; findings = List.length findings;
      row_visits = 0 }
  in
  match sp "exec.solve" (fun () -> Zexec.Exec.solve sys ~inputs) with
  | Error _ -> base
  | Ok (w', st) ->
    let outputs =
      Array.map
        (fun e -> Option.value (Fp.to_signed_int ctx e) ~default:max_int)
        (Zlang.Compile.outputs_zaatar compiled w)
    in
    { base with
      ok = Array.for_all2 Fp.equal w w' && outputs = p.expect;
      row_visits = st.Zexec.Exec.row_visits }

let run ~workload ~seed ~seconds ~trace =
  let fuzz_skipped = ref 0 in
  let setup () =
    let ctx = Fp.create field in
    let fuzz, skipped = fuzz_programs ctx in
    fuzz_skipped := skipped;
    (* Warm-up op: the first app of the first cycle. *)
    let warm = List.hd (cycle_programs ~workload ~seed [] 0) in
    if not (check ctx warm).ok then failwith "warm-up program check failed";
    (ctx, fuzz)
  in
  let (ctx, fuzz), setup = repeated_setup ~drop:ignore setup in
  let failed = ref 0 and lat = ref [] and first = ref [] in
  let counts = ref (Array.make (Array.length counter_names) 0) in
  let op_no = ref 0 in
  let run_program ~first_cycle p =
    incr op_no;
    let c0 = counters () and m0 = Probe.mark () and t0 = now () in
    let r =
      match Tracer.op_span ~op:!op_no "toolchain.program" (fun () -> check ctx p) with
      | r -> r
      | exception (Failure _ | Invalid_argument _ | Zlang.Ast.Error _ | Zlang.Builder.Unsatisfiable _) ->
        { ok = false; constraints = 0; findings = 0; row_visits = 0 }
    in
    lat := { ms = (now () -. t0) *. 1000.0; m0; m1 = Probe.mark () } :: !lat;
    if not r.ok then incr failed;
    if first_cycle then begin
      first := r :: !first;
      counts := Array.map2 ( + ) !counts (counter_delta c0 (counters ()))
    end
  in
  let per_cycle = List.length apps + fuzz_block in
  (* Whole cycles only, as in Batch.run. *)
  let cycles ~from =
    let t0 = now () in
    let rec go c =
      List.iter (run_program ~first_cycle:false) (cycle_programs ~workload ~seed fuzz c);
      let el = now () -. t0 in
      let k = c - from + 1 in
      if el +. (el /. float_of_int k /. 2.0) <= seconds then go (c + 1) else k
    in
    let k = go from in
    (k * per_cycle, now () -. t0)
  in
  if not trace then begin
    let run0 = Probe.mark () in
    let ops, wall = cycles ~from:0 in
    let rate = float_of_int ops /. wall and run = (run0, Probe.mark ()) in
    let metrics, unscaled = end_to_end ~run ~setup ~rate ~lat:!lat ~rss:(vmhwm_mb "self") in
    {
      attempted = ops;
      failed = !failed;
      checks_ok = true;
      metrics;
      report =
        [
          ("programs_per_s", rate /. Probe.factor (fst run) (snd run), "1/s");
          ("fuzz_cases_skipped", float_of_int !fuzz_skipped, "count");
          ("failed_ratio", float_of_int !failed /. float_of_int ops, "ratio");
          ("samples", float_of_int ops, "count");
        ]
        @ unscaled;
    }
  end
  else begin
    (* Untraced reference: cycle 0; then the traced cycles replay it. *)
    let t0 = now () in
    List.iter (run_program ~first_cycle:false) (cycle_programs ~workload ~seed fuzz 0);
    let untraced_s = now () -. t0 in
    let ref_ops = !op_no in
    Zobs.enable ();
    Tracer.enabled := true;
    let t0 = now () in
    List.iter (run_program ~first_cycle:true) (cycle_programs ~workload ~seed fuzz 0);
    let traced_s = now () -. t0 in
    let more, _ = cycles ~from:1 in
    Tracer.enabled := false;
    Zobs.disable ();
    let ops = per_cycle + more in
    let in_first op = op > ref_ops && op <= ref_ops + per_cycle in
    let all = Tracer.by_name () and first_agg = Tracer.by_name ~keep:in_first () in
    let spans =
      span_metrics ~all ~n_all:ops ~first:first_agg ~n_first:per_cycle
        [ "compiler.compile"; "lint.analyze"; "argument.solve"; "exec.solve" ]
    in
    let rs = !first in
    let per f = float_of_int (List.fold_left (fun a r -> a + f r) 0 rs) /. float_of_int per_cycle in
    let exec_s, _, _ = Option.value (Hashtbl.find_opt all "exec.solve") ~default:(0.0, 0.0, 0) in
    let _, root_words, _ =
      Option.value (Hashtbl.find_opt first_agg "toolchain.program") ~default:(0.0, 0.0, 0)
    in
    {
      attempted = ref_ops + ops;
      failed = !failed;
      checks_ok = true;
      metrics =
        spans
        @ count_metrics ~ops:per_cycle !counts
        @ [
            ("compiler.constraints", per (fun r -> r.constraints), "count");
            ("lint.findings", per (fun r -> r.findings), "count");
            ("exec.row_visits", per (fun r -> r.row_visits), "count");
            (* Constraint rows solved per second of interpreter time. *)
            ("exec.rows_per_s", per (fun r -> r.constraints) *. float_of_int ops /. exec_s, "1/s");
            ("gc.minor_words", root_words /. float_of_int per_cycle, "words");
            ("trace.overhead_pct", 100.0 *. (1.0 -. (untraced_s /. traced_s)), "%");
            ("trace.ops", float_of_int ops, "count");
          ];
      report = [ ("untraced_cycle_s", untraced_s, "s"); ("traced_cycle_s", traced_s, "s") ];
    }
  end
