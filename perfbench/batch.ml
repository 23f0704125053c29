(* The batch workloads, verify-b1 and prove-b16: loopback batches over the
   five suite apps, pumped through Argument.Verifier_session and
   Prover_session with every message round-tripped through Zwire, as
   Argument.run_batch does.

   The traced run rebuilds the same exchange from the layers' public
   functions (Figure 2), with a span around each call, and checks that it
   produces the session path's frames byte for byte. *)

open Fieldlib
open Common
module A = Argsys.Argument
module Commit = Commitment.Commit

type app = { def : Apps.App_def.t; comp : A.computation; digest : string }

type spec = { beta : int; cheats : bool }

let spec_of = function
  | "verify-b1" -> Some { beta = 1; cheats = true }
  | "prove-b16" -> Some { beta = 16; cheats = false }
  | _ -> None

(* One batch in four runs a cheating prover, rotating over the strategies
   that draw nothing from the transcript PRG. *)
let cheats = [| A.Wrong_output; A.Corrupt_h; A.Equivocate; A.Nonlinear |]

let strategy spec i = if spec.cheats && i mod 4 = 3 then cheats.(i / 4 mod 4) else A.Honest

(* What one batch produced, on either path. [frames] are the encoded wire
   messages in exchange order. *)
type batch = {
  verdicts : bool array;
  claimed : Fp.el array array;
  frames : bytes list;
  wall : float;
  v_setup : float; (* Verifier_session.create *)
  prover : float; (* all Prover_session.on_msg calls *)
  v_answers : float; (* Verifier_session.on_msg on the Answers *)
  marks : int * int; (* probe marks around the batch *)
}

let lookup app d = if String.equal d app.digest then Some app.comp else None

(* The session path: run_batch's pump, with clocks around the state
   machines and the encoded frames kept. *)
let session_batch ~config app ~prg ~inputs =
  let m0 = Probe.mark () and t_start = now () in
  let vs = A.Verifier_session.create ~config app.comp ~prg ~inputs in
  let v_setup = now () -. t_start in
  let ps = A.Prover_session.create ~config ~lookup:(lookup app) ~prg () in
  let vcodec = A.Verifier_session.codec vs in
  let frames = ref [] in
  let carry ~enc ~dec m =
    let b = Zwire.encode ?codec:enc m in
    frames := b :: !frames;
    Zwire.decode ?codec:dec b
  in
  let prover = ref 0.0 and v_answers = ref 0.0 and v_other = ref 0.0 in
  let timed acc f =
    let t0 = now () in
    let r = f () in
    acc := !acc +. (now () -. t0);
    r
  in
  let to_p m =
    let m = carry ~enc:(Some vcodec) ~dec:(A.Prover_session.codec ps) m in
    timed prover (fun () -> A.Prover_session.on_msg ps m)
  in
  let to_v m =
    let m = carry ~enc:(A.Prover_session.codec ps) ~dec:(Some vcodec) m in
    let acc = match m with Zwire.Answers _ -> v_answers | _ -> v_other in
    timed acc (fun () -> A.Verifier_session.on_msg vs m)
  in
  let rec pump m =
    match to_p m with
    | `Finished None -> ()
    | `Finished (Some reply) | `Send reply -> (
      match to_v reply with
      | `Send next -> pump next
      | `Finished (Some last) -> (
        match to_p last with
        | `Finished _ -> ()
        | `Send _ -> raise (A.Session_error "protocol did not terminate"))
      | `Finished None -> ())
  in
  pump (A.Verifier_session.initial vs);
  let r = A.Verifier_session.result vs in
  {
    verdicts = Array.map (fun (i : A.instance_result) -> i.A.accepted) r.A.instances;
    claimed = Array.map (fun (i : A.instance_result) -> i.A.claimed_output) r.A.instances;
    frames = List.rev !frames;
    wall = now () -. t_start;
    v_setup;
    prover = !prover;
    v_answers = !v_answers;
    marks = (m0, Probe.mark ());
  }

(* ------------------------------------------------------------------ *)
(* The traced pipeline                                                  *)
(* ------------------------------------------------------------------ *)

(* The prover's per-instance proof material, as Argument's
   build_proof_parts makes it for the strategies in [cheats]. *)
type parts = {
  u_z : Fp.el array;
  u_h : Fp.el array;
  ans_z : Fp.el array;
  ans_h : Fp.el array;
  nonlinear : bool;
  io : Fp.el array;
  out : Fp.el array;
}

let sp = Tracer.span

let proof_parts ctx (comp : A.computation) qap strategy x =
  let w =
    sp "argument.solve" (fun () ->
        let w = comp.A.solve x in
        assert (Constr.R1cs.satisfied ctx comp.A.r1cs w);
        w)
  in
  let h = sp "qap.prover_h" (fun () -> Qapb.prover_h qap w) in
  let z = Array.sub w 1 comp.A.r1cs.Constr.R1cs.num_z in
  let p =
    { u_z = z; u_h = h; ans_z = z; ans_h = h; nonlinear = false; io = A.io_of_w comp w;
      out = A.outputs_of_w comp w }
  in
  let bump a k =
    let a = Array.copy a in
    a.(k) <- Fp.add ctx a.(k) Fp.one;
    a
  in
  match strategy with
  | A.Honest -> p
  | A.Wrong_output ->
    { p with io = bump p.io (Array.length p.io - 1); out = bump p.out (Array.length p.out - 1) }
  | A.Corrupt_h ->
    let h' = bump h 0 in
    { p with u_h = h'; ans_h = h' }
  | A.Equivocate -> if Array.length z > 0 then { p with ans_z = bump z 0 } else p
  | A.Nonlinear -> { p with nonlinear = true }
  | A.Corrupt_witness -> invalid_arg "Corrupt_witness draws from the PRG; not in the rotation"

(* Figure 2 from the layers' public functions. It draws the PRG in
   Verifier_session.create's order (queries, Enc(r) x2, challenges x2),
   keeps both sides' codecs as the sessions do, and returns the same
   [batch] as [session_batch]. *)
let traced_batch ~(config : A.config) app ~prg ~inputs =
  let t_start = now () in
  let comp = app.comp in
  let ctx = comp.A.r1cs.Constr.R1cs.field in
  let num_z = comp.A.r1cs.Constr.R1cs.num_z in
  let frames = ref [] in
  let carry ~enc ~dec m =
    let enc_name, dec_name =
      match m with
      | Zwire.Queries _ -> ("wire.query_encode", "wire.query_decode")
      | _ -> ("wire.other_codec", "wire.other_codec")
    in
    let b = sp enc_name (fun () -> Zwire.encode ?codec:enc m) in
    frames := b :: !frames;
    sp dec_name (fun () -> Zwire.decode ?codec:dec b)
  in
  (* Verifier set-up. *)
  let v0 = now () in
  let qap_v = sp "qap.of_r1cs" (fun () -> Qapb.of_r1cs ~backend:config.A.qap_backend comp.A.r1cs) in
  let h_len = Qapb.h_len qap_v in
  let grp =
    sp "crypto.group_cached" (fun () ->
        Zcrypto.Group.cached ~field_order:(Fp.modulus ctx) ~p_bits:config.A.p_bits ())
  in
  let queries =
    sp "pcp.gen_queries" (fun () -> Pcp.Pcp_zaatar.gen_queries ~params:config.A.params qap_v prg)
  in
  let request len =
    sp "commit.request" (fun () -> Commit.commit_request ~domains:config.A.domains ctx grp prg ~len)
  in
  let req_z, vs_z = request num_z in
  let req_h, vs_h = request h_len in
  let challenge vs qs = sp "commit.challenge" (fun () -> Commit.decommit_challenge ctx vs prg qs) in
  let ch_z = challenge vs_z queries.Pcp.Pcp_zaatar.z_queries in
  let ch_h = challenge vs_h queries.Pcp.Pcp_zaatar.h_queries in
  let v_setup = now () -. v0 in
  let vcodec = Zwire.codec ~group_p:grp.Zcrypto.Group.p ctx in
  let pcodec = Zwire.codec ctx in
  let prover = ref 0.0 in
  let on_prover f =
    let t0 = now () in
    let r = f () in
    prover := !prover +. (now () -. t0);
    r
  in
  (* Hello / Hello_ok. *)
  let hello =
    Zwire.Hello
      { Zwire.digest = app.digest; modulus = Fp.modulus ctx; rho = config.A.params.Pcp.Pcp_zaatar.rho;
        rho_lin = config.A.params.Pcp.Pcp_zaatar.rho_lin; p_bits = config.A.p_bits; inputs;
        trace_id = "" }
  in
  let inputs' =
    match carry ~enc:(Some vcodec) ~dec:None hello with
    | Zwire.Hello h -> h.Zwire.inputs
    | _ -> failwith "hello did not round-trip"
  in
  let parts =
    on_prover (fun () ->
        let qap = sp "qap.of_r1cs" (fun () -> Qapb.of_r1cs ~backend:config.A.qap_backend comp.A.r1cs) in
        Array.map (proof_parts ctx comp qap config.A.strategy) inputs')
  in
  ignore (carry ~enc:(Some pcodec) ~dec:(Some vcodec) (Zwire.Hello_ok app.digest));
  (* Commit phase. *)
  let cr =
    match
      carry ~enc:(Some vcodec) ~dec:(Some pcodec)
        (Zwire.Commit_request
           { Zwire.group_p = grp.Zcrypto.Group.p; group_q = grp.Zcrypto.Group.q;
             group_g = grp.Zcrypto.Group.g; y_z = req_z.Commit.pk.Zcrypto.Elgamal.y;
             y_h = req_h.Commit.pk.Zcrypto.Elgamal.y; enc_r_z = req_z.Commit.enc_r;
             enc_r_h = req_h.Commit.enc_r })
    with
    | Zwire.Commit_request cr -> cr
    | _ -> failwith "commit request did not round-trip"
  in
  let coms =
    on_prover (fun () ->
        let req_z', req_h' =
          sp "crypto.group_validate" (fun () ->
              let g =
                Zcrypto.Group.of_params ~p:cr.Zwire.group_p ~q:cr.Zwire.group_q ~g:cr.Zwire.group_g
              in
              ( { Commit.pk = Zcrypto.Elgamal.public_key_of g ~y:cr.Zwire.y_z; enc_r = cr.Zwire.enc_r_z },
                { Commit.pk = Zcrypto.Elgamal.public_key_of g ~y:cr.Zwire.y_h; enc_r = cr.Zwire.enc_r_h } ))
        in
        Dompool.Pool.map ~domains:config.A.domains
          (fun p ->
            sp "commit.prover_commit" (fun () ->
                (Commit.prover_commit req_z' p.u_z, Commit.prover_commit req_h' p.u_h)))
          parts)
  in
  let pcodec = Zwire.codec ~group_p:cr.Zwire.group_p ctx in
  let coms =
    match carry ~enc:(Some pcodec) ~dec:(Some vcodec) (Zwire.Commitments coms) with
    | Zwire.Commitments c -> c
    | _ -> failwith "commitments did not round-trip"
  in
  (* Decommit: queries, answers, checks. *)
  let q =
    match
      carry ~enc:(Some vcodec) ~dec:(Some pcodec)
        (Zwire.Queries
           { Zwire.z_queries = queries.Pcp.Pcp_zaatar.z_queries;
             h_queries = queries.Pcp.Pcp_zaatar.h_queries; t_z = ch_z.Commit.t; t_h = ch_h.Commit.t })
    with
    | Zwire.Queries q -> q
    | _ -> failwith "queries did not round-trip"
  in
  let answers =
    on_prover (fun () ->
        Array.map
          (fun p ->
            sp "pcp.answer" (fun () ->
                let oracle =
                  let base = Pcp.Oracle.honest ctx p.ans_z p.ans_h in
                  if p.nonlinear then Pcp.Oracle.nonlinear ctx base else base
                in
                let r =
                  Pcp.Pcp_zaatar.answer oracle
                    { Pcp.Pcp_zaatar.z_queries = q.Zwire.z_queries; h_queries = q.Zwire.h_queries;
                      reps = [||] }
                in
                { Zwire.claimed_io = p.io; claimed_output = p.out; z_resp = r.Pcp.Pcp_zaatar.z_resp;
                  h_resp = r.Pcp.Pcp_zaatar.h_resp; a_t_z = Fp.dot ctx q.Zwire.t_z p.ans_z;
                  a_t_h = Fp.dot ctx q.Zwire.t_h p.ans_h }))
          parts)
  in
  let answers =
    match carry ~enc:(Some pcodec) ~dec:(Some vcodec) (Zwire.Answers answers) with
    | Zwire.Answers a -> a
    | _ -> failwith "answers did not round-trip"
  in
  let a0 = now () in
  let verdicts =
    Array.mapi
      (fun i (a : Zwire.instance_answers) ->
        let com_z, com_h = coms.(i) in
        let commit_ok =
          sp "commit.consistency" (fun () ->
              Commit.consistency_check vs_z ch_z ~commitment:com_z
                { Commit.a = a.Zwire.z_resp; a_t = a.Zwire.a_t_z }
              && Commit.consistency_check vs_h ch_h ~commitment:com_h
                   { Commit.a = a.Zwire.h_resp; a_t = a.Zwire.a_t_h })
        in
        let verdict =
          sp "pcp.decide" (fun () ->
              Pcp.Pcp_zaatar.decide qap_v queries
                { Pcp.Pcp_zaatar.z_resp = a.Zwire.z_resp; h_resp = a.Zwire.h_resp }
                ~io:a.Zwire.claimed_io)
        in
        commit_ok && Pcp.Pcp_zaatar.accepts verdict)
      answers
  in
  let v_answers = now () -. a0 in
  ignore (carry ~enc:(Some vcodec) ~dec:(Some pcodec) (Zwire.Verdicts verdicts));
  {
    verdicts;
    claimed = Array.map (fun (a : Zwire.instance_answers) -> a.Zwire.claimed_output) answers;
    frames = List.rev !frames;
    wall = now () -. t_start;
    v_setup;
    prover = !prover;
    v_answers;
    marks = (0, 0);
  }

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)
(* ------------------------------------------------------------------ *)

(* verify-b1 cycles over all five apps. prove-b16 runs lcs alone: its
   beta=16 batch takes about 2.4 s on a 2-vCPU x86 VM (pam 6.5 s,
   bisection 7 s, apsp and fannkuch 10 to 11 s), so a run holds about ten
   batches of one size and their median is one app's, not whichever app
   the middle of a few mixed batches falls on. *)
let app_names spec =
  if spec.beta = 1 then [ "pam"; "bisection"; "apsp"; "fannkuch"; "lcs" ] else [ "lcs" ]

let outputs_ok ctx app ints (claimed : Fp.el array) =
  match Apps.Glue.int_outputs ctx claimed with
  | got -> got = app.def.Apps.App_def.native ints
  | exception Failure _ -> false

(* An op fails when an honest batch is rejected or claims an output other
   than the native one, or when a cheating batch is accepted. *)
let op_ok ctx app strategy ints (b : batch) =
  match strategy with
  | A.Honest ->
    Array.for_all Fun.id b.verdicts
    && Array.length b.claimed = Array.length ints
    && Array.for_all2 (outputs_ok ctx app) ints b.claimed
  | _ -> not (Array.exists Fun.id b.verdicts)

let run ~workload ~seed ~seconds ~trace spec =
  (* Generated once per process as Verifier_session.create would; every
     set-up below pays the same generation again through Group.generate. *)
  ignore (Zcrypto.Group.cached ~field_order:field ~p_bits ());
  let group_gen = ref [] and compile_ms = ref [] in
  let setup () =
    let ctx = Fp.create field in
    let apps =
      Array.of_list
        (List.map
           (fun name ->
             let def = Apps.Registry.by_name name ~scale:1 in
             let t0 = now () in
             let comp = Apps.Glue.computation_of (Apps.Glue.compile ctx def) in
             compile_ms := ((now () -. t0) *. 1000.0) :: !compile_ms;
             Qapb.prewarm (Qapb.of_r1cs comp.A.r1cs);
             { def; comp; digest = A.digest comp })
           (app_names spec))
    in
    let t0 = now () in
    ignore (Zcrypto.Group.generate ~field_order:field ~p_bits ());
    group_gen := ((now () -. t0) *. 1000.0) :: !group_gen;
    let warm = apps.(Array.length apps - 1) in
    let ints = warm.def.Apps.App_def.gen_inputs (Chacha.Prg.create ~seed:"perfbench warm-up" ()) in
    let b =
      session_batch ~config:(arg_config A.Honest) warm
        ~prg:(Chacha.Prg.create ~seed:"perfbench warm-up batch" ())
        ~inputs:[| Apps.Glue.field_inputs ctx ints |]
    in
    if not (op_ok ctx warm A.Honest [| ints |] b) then failwith "warm-up batch failed";
    (ctx, apps)
  in
  let (ctx, apps), setup = repeated_setup ~drop:ignore setup in
  let n = Array.length apps in
  let op i =
    let app = apps.(i mod n) and st = strategy spec i in
    let prg = stream ~workload ~seed "inputs" i in
    let ints = Array.init spec.beta (fun _ -> app.def.Apps.App_def.gen_inputs prg) in
    (app, st, ints, Array.map (Apps.Glue.field_inputs ctx) ints, stream ~workload ~seed "batch" i)
  in
  let failed = ref 0 in
  (* Runs op [i] on [path]; a session error or a failed check counts. *)
  let attempt path i =
    let app, st, ints, inputs, prg = op i in
    match path i ~config:(arg_config st) app ~prg ~inputs with
    | b ->
      if not (op_ok ctx app st ints b) then incr failed;
      Some b
    | exception
        ( A.Session_error _ | Zwire.Decode_error _ | Zlang.Builder.Unsatisfiable _ | Failure _
        | Invalid_argument _ | Assert_failure _ ) ->
      incr failed;
      None
  in
  (* Whole cycles only, so every run weighs the apps alike: another cycle
     starts while it is expected to end no more than half a cycle past
     [seconds], and the second always does. A verify-b1 cycle takes 11 to
     16 s, so without that a slow host would end some runs after one cycle,
     with half the samples and a lower peak_rss_mb (88 MB against 114 MB
     after two). Returns the ops run and their wall time. *)
  let cycles path ~on_op =
    let t0 = now () in
    let rec go c =
      for k = 0 to n - 1 do
        on_op (c * n + k) (attempt path (c * n + k))
      done;
      let el = now () -. t0 in
      if c = 0 || el +. (el /. float_of_int (c + 1) /. 2.0) <= seconds then go (c + 1) else c + 1
    in
    let c = go 0 in
    (c * n, now () -. t0)
  in
  let beta = float_of_int spec.beta in
  let ms x = x *. 1000.0 in
  let constraints =
    sum (Array.to_list (Array.map (fun a -> float_of_int (Constr.R1cs.num_constraints a.comp.A.r1cs)) apps))
    /. float_of_int n
  in
  let setup_layers =
    [
      ("compiler.compile_ms", sum !compile_ms /. float_of_int (List.length !compile_ms), "ms");
      ("compiler.constraints", constraints, "count");
      ("crypto.group_gen_ms", median !group_gen, "ms");
    ]
  in
  if not trace then begin
    (* Only the timings are kept: holding the frames would grow the heap
       with every batch and make peak_rss_mb depend on the run length. *)
    let done_ = ref [] and run0 = Probe.mark () in
    let ops, wall =
      cycles (fun _ -> session_batch)
        ~on_op:(fun _ b -> Option.iter (fun b -> done_ := { b with frames = [] } :: !done_) b)
    in
    let bs = !done_ in
    let lat = List.map (fun b -> { ms = ms b.wall; m0 = fst b.marks; m1 = snd b.marks }) bs in
    let metrics, unscaled =
      end_to_end ~run:(run0, Probe.mark ()) ~setup ~rate:(float_of_int ops *. beta /. wall) ~lat
        ~rss:(vmhwm_mb "self")
    in
    (* Each batch's part scaled by the batch's probes. *)
    let scaled part = median (List.map (fun b -> part b *. Probe.factor (fst b.marks) (snd b.marks)) bs) in
    {
      attempted = ops;
      failed = !failed;
      checks_ok = true;
      metrics;
      report =
        [
          ("verifier_setup_ms", scaled (fun b -> ms b.v_setup), "ms");
          ("prover_instance_ms", scaled (fun b -> ms b.prover /. beta), "ms");
          ("verifier_instance_ms", scaled (fun b -> ms b.v_answers /. beta), "ms");
          ("failed_ratio", float_of_int !failed /. float_of_int ops, "ratio");
          ("samples", float_of_int (List.length lat), "count");
        ]
        @ unscaled;
    }
  end
  else begin
    (* Reference: the first cycle on the session path, untraced. *)
    let untraced_s = ref 0.0 in
    let reference =
      Array.init n (fun i ->
          attempt
            (fun _ ~config app ~prg ~inputs ->
              let t0 = now () in
              let b = session_batch ~config app ~prg ~inputs in
              untraced_s := !untraced_s +. (now () -. t0);
              b)
            i)
    in
    Zobs.enable ();
    Tracer.enabled := true;
    let same = ref true and traced_s = ref 0.0 in
    let counts = ref (Array.make (Array.length counter_names) 0) in
    let wire = ref [] in
    let phase = [| "hello"; "hello"; "commit"; "commit"; "query"; "answer"; "verdict" |] in
    let path i ~config app ~prg ~inputs =
      let c0 = counters () and t0 = now () in
      let b =
        Tracer.op_span ~op:(i + 1) "argument.batch" (fun () ->
            traced_batch ~config app ~prg ~inputs)
      in
      if i < n then begin
        traced_s := !traced_s +. (now () -. t0);
        counts := Array.map2 ( + ) !counts (counter_delta c0 (counters ()));
        List.iteri (fun k f -> wire := (phase.(k), Bytes.length f) :: !wire) b.frames
      end;
      (* Drop the library's own span events; only counters are read. *)
      Zobs.Span.reset ();
      b
    in
    let on_op i b =
      if i < n then
        match (reference.(i), b) with
        | Some r, Some b ->
          if not (List.equal Bytes.equal r.frames b.frames && r.verdicts = b.verdicts) then
            same := false
        | _ -> same := false
    in
    let ops, _ = cycles path ~on_op in
    Tracer.enabled := false;
    Zobs.disable ();
    let all = Tracer.by_name () and first = Tracer.by_name ~keep:(fun op -> op <= n) () in
    let spans =
      span_metrics ~all ~n_all:ops ~first ~n_first:n
        [
          "qap.of_r1cs"; "crypto.group_cached"; "pcp.gen_queries"; "commit.request";
          "commit.challenge"; "argument.solve"; "qap.prover_h"; "crypto.group_validate";
          "commit.prover_commit"; "pcp.answer"; "commit.consistency"; "pcp.decide";
          "wire.query_encode"; "wire.query_decode"; "wire.other_codec";
        ]
    in
    (* The root span's self time is the batch outside every layer call;
       its words include its children's, so they are the op's total. *)
    let root_s, _, _ = Option.value (Hashtbl.find_opt all "argument.batch") ~default:(0.0, 0.0, 0) in
    let _, root_words, _ =
      Option.value (Hashtbl.find_opt first "argument.batch") ~default:(0.0, 0.0, 0)
    in
    {
      attempted = n + ops;
      failed = !failed;
      checks_ok = !same;
      metrics =
        setup_layers @ spans @ count_metrics ~ops:n !counts
        @ wire_metrics ~ops:n !wire
        @ [
            ("argument.unattributed_ms", root_s *. 1000.0 /. float_of_int ops, "ms");
            ("gc.minor_words", root_words /. float_of_int n, "words");
            ("trace.overhead_pct", 100.0 *. (1.0 -. (!untraced_s /. !traced_s)), "%");
            ("trace.ops", float_of_int ops, "count");
          ];
      report =
        [
          ("frames_identical", (if !same then 1.0 else 0.0), "bool");
          ("untraced_cycle_s", !untraced_s, "s");
          ("traced_cycle_s", !traced_s, "s");
        ];
    }
  end
