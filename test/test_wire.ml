(* Zwire codec and socket-driver tests: round-trip properties per message
   type, decode-error taxonomy on truncated/corrupted frames, and
   end-to-end TCP sessions against the prover farm checked against the
   in-process loopback. *)

open Fieldlib
open Zcrypto
open Argsys

let fctx = Fp.create Primes.p61
let gp = Primes.p89
let gctx = Fp.create gp
let wcodec = Zwire.codec ~group_p:gp fctx
let qtest name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)
let arb_seed = QCheck.make ~print:string_of_int (QCheck.Gen.int_range 0 (1 lsl 20))
let prg_of seed = Chacha.Prg.create ~seed:(Printf.sprintf "wire-%d" seed) ()
let fel = Chacha.Prg.field fctx
let gel = Chacha.Prg.field gctx

(* Plant the edge elements 0, 1 and p-1 at the front of longer vectors so
   every round-trip run also exercises the width boundaries. *)
let vec prg n =
  Array.init n (fun i ->
      match i with
      | 0 when n > 3 -> Fp.zero
      | 1 when n > 3 -> Fp.one
      | 2 when n > 3 -> Fp.sub fctx Fp.zero Fp.one
      | _ -> fel prg)

let pvec prg n = Fp.Vec.of_array fctx (vec prg n)
let ct prg = { Elgamal.c1 = gel prg; c2 = gel prg }
let hex prg = Printf.sprintf "%016x" (Chacha.Prg.bits64 prg)

let rt ?(codec = wcodec) msg = Zwire.msg_equal msg (Zwire.decode ~codec (Zwire.encode ~codec msg))

let gen_hello prg =
  let batch = Chacha.Prg.int_below prg 4 in
  let width = Chacha.Prg.int_below prg 5 in
  Zwire.Hello
    {
      digest = hex prg;
      modulus = Primes.p61;
      rho = 1 + Chacha.Prg.int_below prg 10;
      rho_lin = 1 + Chacha.Prg.int_below prg 10;
      p_bits = 61;
      inputs = Array.init batch (fun _ -> vec prg width);
      trace_id = (if Chacha.Prg.int_below prg 2 = 0 then "" else hex prg);
    }

let gen_commit_request prg =
  let nz = Chacha.Prg.int_below prg 5 and nh = Chacha.Prg.int_below prg 5 in
  Zwire.Commit_request
    {
      group_p = gp;
      group_q = Primes.p61;
      group_g = gel prg;
      y_z = gel prg;
      y_h = gel prg;
      enc_r_z = Array.init nz (fun _ -> ct prg);
      enc_r_h = Array.init nh (fun _ -> ct prg);
    }

let gen_queries prg =
  let nq = Chacha.Prg.int_below prg 4 in
  Zwire.Queries
    {
      z_queries = Array.init nq (fun _ -> pvec prg (Chacha.Prg.int_below prg 6));
      h_queries = Array.init nq (fun _ -> pvec prg (Chacha.Prg.int_below prg 6));
      t_z = vec prg (Chacha.Prg.int_below prg 6);
      t_h = vec prg (Chacha.Prg.int_below prg 6);
    }

let gen_answers prg =
  let batch = Chacha.Prg.int_below prg 4 in
  Zwire.Answers
    (Array.init batch (fun _ ->
         {
           Zwire.claimed_io = vec prg (Chacha.Prg.int_below prg 5);
           claimed_output = vec prg (Chacha.Prg.int_below prg 3);
           z_resp = vec prg (Chacha.Prg.int_below prg 6);
           h_resp = vec prg (Chacha.Prg.int_below prg 6);
           a_t_z = fel prg;
           a_t_h = fel prg;
         }))

let roundtrip_tests =
  [
    qtest "hello round-trips" 50 arb_seed (fun s -> rt (gen_hello (prg_of s)));
    qtest "hello_ok round-trips" 20 arb_seed (fun s -> rt (Zwire.Hello_ok (hex (prg_of s))));
    qtest "commit_request round-trips" 50 arb_seed (fun s -> rt (gen_commit_request (prg_of s)));
    qtest "commitments round-trip" 50 arb_seed (fun s ->
        let prg = prg_of s in
        let n = Chacha.Prg.int_below prg 5 in
        rt (Zwire.Commitments (Array.init n (fun _ -> (ct prg, ct prg)))));
    qtest "queries round-trip" 50 arb_seed (fun s -> rt (gen_queries (prg_of s)));
    qtest "answers round-trip" 50 arb_seed (fun s -> rt (gen_answers (prg_of s)));
    qtest "verdicts round-trip" 20 arb_seed (fun s ->
        let prg = prg_of s in
        let n = Chacha.Prg.int_below prg 9 in
        rt (Zwire.Verdicts (Array.init n (fun _ -> Chacha.Prg.bool prg))));
    qtest "error_msg round-trips" 20 arb_seed (fun s ->
        rt (Zwire.Error_msg ("boom " ^ hex (prg_of s))));
  ]

(* ---- Malformed frames ---- *)

let decode_fails ?codec b =
  match Zwire.decode ?codec b with
  | _ -> None
  | exception Zwire.Decode_error e -> Some e

let check_error what expected got =
  match got with
  | Some e when e = expected -> ()
  | Some e -> Alcotest.failf "%s: expected %s, got %s" what (Zwire.error_to_string expected) (Zwire.error_to_string e)
  | None -> Alcotest.failf "%s: decoded successfully" what

let sample_msg () =
  let prg = prg_of 7 in
  Zwire.Queries
    { z_queries = [| pvec prg 5 |]; h_queries = [| pvec prg 5 |]; t_z = vec prg 5; t_h = vec prg 5 }

let corruption_tests =
  [
    Alcotest.test_case "every truncation is a Decode_error" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (gen_hello (prg_of 3)) in
        for k = 0 to Bytes.length b - 1 do
          match decode_fails ~codec:wcodec (Bytes.sub b 0 k) with
          | Some _ -> ()
          | None -> Alcotest.failf "prefix of %d bytes decoded" k
        done);
    Alcotest.test_case "bad magic" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        Bytes.set b 0 'X';
        check_error "magic" Zwire.Bad_magic (decode_fails ~codec:wcodec b));
    Alcotest.test_case "bad version" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        Bytes.set b 2 '\042';
        check_error "version" (Zwire.Bad_version 42) (decode_fails ~codec:wcodec b));
    Alcotest.test_case "bad tag" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        Bytes.set b 3 '\099';
        check_error "tag" (Zwire.Bad_tag 99) (decode_fails ~codec:wcodec b));
    Alcotest.test_case "out-of-range element rejected, not reduced" `Quick (fun () ->
        (* The final 8 bytes of a one-instance Answers frame are a_t_h; all
           0xff exceeds p61 and must be refused. *)
        let prg = prg_of 11 in
        let msg =
          Zwire.Answers
            [|
              {
                Zwire.claimed_io = vec prg 2;
                claimed_output = vec prg 1;
                z_resp = vec prg 3;
                h_resp = vec prg 3;
                a_t_z = fel prg;
                a_t_h = fel prg;
              };
            |]
        in
        let b = Zwire.encode ~codec:wcodec msg in
        Bytes.fill b (Bytes.length b - 8) 8 '\255';
        check_error "element" (Zwire.Out_of_range "answers.a_t_h") (decode_fails ~codec:wcodec b));
    Alcotest.test_case "non-boolean verdict byte rejected" `Quick (fun () ->
        let b = Zwire.encode (Zwire.Verdicts [| true; false; true |]) in
        Bytes.set b (Bytes.length b - 1) '\007';
        check_error "verdict" (Zwire.Out_of_range "verdicts (not 0/1)") (decode_fails b));
    Alcotest.test_case "trailing junk rejected" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        let b' = Bytes.cat b (Bytes.make 3 'x') in
        check_error "junk" (Zwire.Trailing_bytes 3) (decode_fails ~codec:wcodec b'));
    Alcotest.test_case "oversized payload length is truncation" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        Bytes.set b 4 '\255';
        (match decode_fails ~codec:wcodec b with
        | Some (Zwire.Truncated _) -> ()
        | Some e -> Alcotest.failf "expected Truncated, got %s" (Zwire.error_to_string e)
        | None -> Alcotest.fail "decoded with absurd length"));
    Alcotest.test_case "queries without a codec need context" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        match decode_fails b with
        | Some (Zwire.Missing_context _) -> ()
        | Some e -> Alcotest.failf "expected Missing_context, got %s" (Zwire.error_to_string e)
        | None -> Alcotest.fail "decoded without codec");
    Alcotest.test_case "commitments without group context" `Quick (fun () ->
        let prg = prg_of 13 in
        let b = Zwire.encode ~codec:wcodec (Zwire.Commitments [| (ct prg, ct prg) |]) in
        match decode_fails ~codec:(Zwire.codec fctx) b with
        | Some (Zwire.Missing_context _) -> ()
        | Some e -> Alcotest.failf "expected Missing_context, got %s" (Zwire.error_to_string e)
        | None -> Alcotest.fail "decoded without group modulus");
  ]

(* ---- End-to-end: farm over TCP vs loopback ---- *)

let fi = Fp.of_int fctx

(* Same y = x^2 + 3 computation as test_argument.ml. *)
let square_plus_3 : Argument.computation =
  let c1 =
    { Constr.R1cs.a = Constr.Lincomb.of_var 2; b = Constr.Lincomb.of_var 2; c = Constr.Lincomb.of_var 1 }
  in
  let c2 =
    {
      Constr.R1cs.a = Constr.Lincomb.add fctx (Constr.Lincomb.of_var 1) (Constr.Lincomb.of_const (fi 3));
      b = Constr.Lincomb.of_const Fp.one;
      c = Constr.Lincomb.of_var 3;
    }
  in
  let r1cs = { Constr.R1cs.field = fctx; num_vars = 3; num_z = 1; constraints = [| c1; c2 |] } in
  let solve x =
    let x0 = x.(0) in
    let sq = Fp.mul fctx x0 x0 in
    [| Fp.one; sq; x0; Fp.add fctx sq (fi 3) |]
  in
  { Argument.r1cs; num_inputs = 1; num_outputs = 1; solve }

let lookup_sq3 =
  let d = Argument.digest square_plus_3 in
  fun d' -> if String.equal d' d then Some square_plus_3 else None

(* Run [body] on a connection to a one-session farm serving
   [square_plus_3] (or what [lookup] resolves) under [server_config]. *)
let with_prover ?(lookup = lookup_sq3) ~server_config (body : Znet.conn -> 'a) : 'a =
  Farm_harness.with_farm
    ~fconfig:{ Zfarm.Farm.default with arg_config = server_config }
    ~lookup ~max_conns:1
    (fun addr ->
      let conn = Znet.connect addr in
      Fun.protect ~finally:(fun () -> Znet.close conn) (fun () -> body conn))

let run_remote ~server_config ~seed inputs =
  with_prover ~server_config (fun conn ->
      Remote.run_conn ~config:Argument.test_config square_plus_3
        ~prg:(Chacha.Prg.create ~seed ())
        ~inputs conn)

let verdicts (r : Argument.batch_result) =
  Array.map (fun (i : Argument.instance_result) -> i.accepted) r.Argument.instances

let outputs (r : Argument.batch_result) =
  Array.map
    (fun (i : Argument.instance_result) -> Array.map Nat.to_decimal i.claimed_output)
    r.Argument.instances

let e2e_tests =
  [
    Alcotest.test_case "socket session matches loopback" `Quick (fun () ->
        let seed = "wire e2e verifier" in
        let inputs = Array.map (fun x -> [| fi x |]) [| 2; 5; 11 |] in
        let sock =
          run_remote ~server_config:Argument.test_config ~seed inputs
        in
        let loop =
          Argument.run_batch ~config:Argument.test_config square_plus_3
            ~prg:(Chacha.Prg.create ~seed ())
            ~inputs
        in
        Alcotest.(check bool) "socket all accepted" true (Argument.all_accepted sock);
        Alcotest.(check (array bool)) "same verdicts" (verdicts loop) (verdicts sock);
        Alcotest.(check (array (array string))) "same outputs" (outputs loop) (outputs sock));
    Alcotest.test_case "cheating remote prover rejected" `Quick (fun () ->
        let inputs = Array.map (fun x -> [| fi x |]) [| 3; 4; 9 |] in
        let r =
          run_remote
            ~server_config:{ Argument.test_config with Argument.strategy = Argument.Wrong_output }
            ~seed:"wire e2e cheat" inputs
        in
        Alcotest.(check bool) "none accepted" true (Argument.none_accepted r));
    Alcotest.test_case "unknown computation refused with Error_msg" `Quick (fun () ->
        let raised =
          with_prover ~server_config:Argument.test_config ~lookup:(fun _ -> None)
            (fun conn ->
              try
                ignore
                  (Remote.run_conn ~config:Argument.test_config square_plus_3
                     ~prg:(Chacha.Prg.create ~seed:"wire e2e refuse v" ())
                     ~inputs:[| [| fi 2 |] |] conn);
                false
              with Argument.Session_error m -> String.length m > 0)
        in
        Alcotest.(check bool) "session error raised" true raised);
  ]

(* ---- Version negotiation ---- *)

(* v1 frames predate the Hello trace id; v2 appended it. Downlevel frames
   must keep decoding (with an empty trace id), and anything newer than
   [Zwire.version] must be refused with the Bad_version taxonomy — over a
   live connection, as an Error_msg before hanging up. *)
let version_tests =
  [
    qtest "hello encoded at v1 decodes with an empty trace id" 50 arb_seed (fun s ->
        match gen_hello (prg_of s) with
        | Zwire.Hello h ->
          Zwire.msg_equal
            (Zwire.Hello { h with Zwire.trace_id = "" })
            (Zwire.decode ~codec:wcodec (Zwire.encode ~codec:wcodec ~version:1 (Zwire.Hello h)))
        | _ -> false);
    qtest "non-hello messages are version-agnostic" 20 arb_seed (fun s ->
        let msg = gen_queries (prg_of s) in
        Zwire.msg_equal msg (Zwire.decode ~codec:wcodec (Zwire.encode ~codec:wcodec ~version:1 msg)));
    Alcotest.test_case "version below min_version refused" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        Bytes.set b 2 '\000';
        check_error "v0" (Zwire.Bad_version 0) (decode_fails ~codec:wcodec b));
    Alcotest.test_case "next version refused (no silent forward-compat)" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        Bytes.set b 2 (Char.chr (Zwire.version + 1));
        check_error "v+1" (Zwire.Bad_version (Zwire.version + 1)) (decode_fails ~codec:wcodec b));
    Alcotest.test_case "encode refuses versions outside the window" `Quick (fun () ->
        let bad v = match Zwire.encode ~version:v (Zwire.Verdicts [| true |]) with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "v0" true (bad 0);
        Alcotest.(check bool) "v+1" true (bad (Zwire.version + 1)));
    Alcotest.test_case "v1 hello accepted by a current prover" `Quick (fun () ->
        (* A downlevel verifier (no trace id on the wire) must still get its
           Hello_ok: the extension degrades, it does not divide. *)
        let d = Argument.digest square_plus_3 in
        let cfg = Argument.test_config in
        let hello =
          Zwire.Hello
            {
              Zwire.digest = d;
              modulus = Primes.p61;
              rho = cfg.Argument.params.Pcp.Pcp_zaatar.rho;
              rho_lin = cfg.Argument.params.Pcp.Pcp_zaatar.rho_lin;
              p_bits = cfg.Argument.p_bits;
              inputs = [| [| fi 2 |] |];
              trace_id = "dropped-on-v1-wire";
            }
        in
        let reply =
          with_prover ~server_config:cfg (fun conn ->
              Znet.send conn (Zwire.encode ~version:1 hello);
              Zwire.decode (Znet.recv conn))
        in
        match reply with
        | Zwire.Hello_ok _ -> ()
        | m -> Alcotest.failf "expected Hello_ok, got tag %d" (Zwire.tag_of_msg m));
    Alcotest.test_case "newer-version hello refused with Error_msg" `Quick (fun () ->
        (* A peer from the future gets a clean protocol-level refusal, not a
           dropped connection. *)
        let reply =
          with_prover ~server_config:Argument.test_config (fun conn ->
              let b = Zwire.encode (gen_hello (prg_of 17)) in
              Bytes.set b 2 (Char.chr (Zwire.version + 1));
              Znet.send conn b;
              Zwire.decode (Znet.recv conn))
        in
        let contains_version s =
          let n = String.length s and p = "version" in
          let k = String.length p in
          let rec go i = i + k <= n && (String.sub s i k = p || go (i + 1)) in
          go 0
        in
        match reply with
        | Zwire.Error_msg m -> Alcotest.(check bool) "names the version" true (contains_version m)
        | m -> Alcotest.failf "expected Error_msg, got tag %d" (Zwire.tag_of_msg m));
  ]

let suite =
  roundtrip_tests @ corruption_tests @ e2e_tests @ version_tests
