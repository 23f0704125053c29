open Fieldlib
open Constr
open Argsys

let ctx = Fp.create Primes.p61
let fi = Fp.of_int ctx

(* y = x^2 + 3. Variables: 1 = z1 (= x^2), 2 = x (input), 3 = y (output). *)
let square_plus_3 : Argument.computation =
  let c1 = { R1cs.a = Lincomb.of_var 2; b = Lincomb.of_var 2; c = Lincomb.of_var 1 } in
  let c2 =
    {
      R1cs.a = Lincomb.add ctx (Lincomb.of_var 1) (Lincomb.of_const (fi 3));
      b = Lincomb.of_const Fp.one;
      c = Lincomb.of_var 3;
    }
  in
  let r1cs = { R1cs.field = ctx; num_vars = 3; num_z = 1; constraints = [| c1; c2 |] } in
  let solve x =
    let x0 = x.(0) in
    let sq = Fp.mul ctx x0 x0 in
    [| Fp.one; sq; x0; Fp.add ctx sq (fi 3) |]
  in
  { Argument.r1cs; num_inputs = 1; num_outputs = 1; solve }

let config = Argument.test_config

let run strategy inputs seed =
  let prg = Chacha.Prg.create ~seed () in
  Argument.run_batch ~config:{ config with Argument.strategy } square_plus_3 ~prg
    ~inputs:(Array.map (fun x -> [| fi x |]) inputs)

let count_rejected r =
  Array.fold_left (fun n (i : Argument.instance_result) -> if i.accepted then n else n + 1) 0
    r.Argument.instances

let unit_tests =
  [
    Alcotest.test_case "honest batch accepted with correct outputs" `Quick (fun () ->
        let r = run Argument.Honest [| 2; 5; 11; 100 |] "arg honest" in
        Alcotest.(check bool) "all accepted" true (Argument.all_accepted r);
        let outs =
          Array.map (fun (i : Argument.instance_result) -> Fp.to_int_opt i.claimed_output.(0)) r.Argument.instances
        in
        Alcotest.(check (array (option int))) "outputs" [| Some 7; Some 28; Some 124; Some 10003 |] outs);
    Alcotest.test_case "wrong output rejected" `Quick (fun () ->
        let r = run Argument.Wrong_output [| 3; 4; 9; 12; 20 |] "arg wrong" in
        Alcotest.(check bool) "none accepted" true (Argument.none_accepted r));
    Alcotest.test_case "corrupt witness rejected" `Quick (fun () ->
        let r = run Argument.Corrupt_witness [| 3; 4; 9; 12; 20 |] "arg cw" in
        Alcotest.(check bool) "none accepted" true (Argument.none_accepted r));
    Alcotest.test_case "corrupt h rejected" `Quick (fun () ->
        let r = run Argument.Corrupt_h [| 3; 4; 9 |] "arg ch" in
        Alcotest.(check bool) "none accepted" true (Argument.none_accepted r));
    Alcotest.test_case "equivocating prover rejected by commitment" `Quick (fun () ->
        let r = run Argument.Equivocate [| 3; 4; 9 |] "arg eq" in
        Alcotest.(check bool) "none accepted" true (Argument.none_accepted r);
        Array.iter
          (fun (i : Argument.instance_result) -> Alcotest.(check bool) "commit failed" false i.commit_ok)
          r.Argument.instances);
    Alcotest.test_case "nonlinear prover rejected" `Quick (fun () ->
        let r = run Argument.Nonlinear [| 3; 4; 9 |] "arg nl" in
        Alcotest.(check bool) "none accepted" true (Argument.none_accepted r));
    Alcotest.test_case "prover metrics populated" `Quick (fun () ->
        let r = run Argument.Honest [| 2; 3 |] "arg metrics" in
        List.iter
          (fun phase ->
            Alcotest.(check bool) phase true (List.mem_assoc phase (Metrics.to_list r.Argument.prover)))
          [ "solve_constraints"; "construct_u"; "crypto_ops"; "answer_queries" ]);
    Alcotest.test_case "verifier setup dominates per-instance (batchable)" `Quick (fun () ->
        let r = run Argument.Honest [| 2; 3; 4; 5 |] "arg timing" in
        Alcotest.(check bool) "setup > 0" true (r.Argument.verifier_setup_s > 0.0);
        Alcotest.(check bool) "per-instance > 0" true (r.Argument.verifier_per_instance_s > 0.0));
    Alcotest.test_case "metrics accumulate and reset" `Quick (fun () ->
        let m = Metrics.create () in
        Metrics.add m "a" 1.0;
        Metrics.add m "a" 2.0;
        Metrics.add m "b" 0.5;
        Alcotest.(check (float 1e-9)) "a" 3.0 (Metrics.get m "a");
        Alcotest.(check (float 1e-9)) "total" 3.5 (Metrics.total m);
        Metrics.reset m;
        Alcotest.(check (float 1e-9)) "after reset" 0.0 (Metrics.total m));
  ]

(* One default configuration: the farm inherits the argument's, and the
   127-bit field is NTT-friendly unless the Lagrange backend asks for the
   paper's Mersenne prime. *)
let defaults_tests =
  [
    Alcotest.test_case "one default config; 127-bit field rule" `Quick (fun () ->
        let d = Argument.default_config in
        Alcotest.(check bool) "farm inherits the default" true
          (Zfarm.Farm.default.Zfarm.Farm.arg_config = d);
        Alcotest.(check (pair int int)) "rho, rho_lin" (3, 10)
          (d.Argument.params.Pcp.Pcp_zaatar.rho, d.Argument.params.Pcp.Pcp_zaatar.rho_lin);
        Alcotest.(check int) "p_bits" 512 d.Argument.p_bits;
        Alcotest.(check int) "domains" 1 d.Argument.domains;
        Alcotest.(check bool) "auto backend" true (d.Argument.qap_backend = Qapb.Auto);
        Alcotest.(check bool) "default field" true
          (Nat.equal Argument.default_field Primes.p127_ntt);
        let field backend = Nat.to_decimal (Argument.field_of_bits ?backend 127) in
        let ntt = Nat.to_decimal Primes.p127_ntt and mersenne = Nat.to_decimal Primes.p127 in
        Alcotest.(check string) "127, default backend" ntt (field None);
        Alcotest.(check string) "127, auto" ntt (field (Some Qapb.Auto));
        Alcotest.(check string) "127, ntt" ntt (field (Some Qapb.Ntt));
        Alcotest.(check string) "127, lagrange: Mersenne" mersenne (field (Some Qapb.Lagrange));
        Alcotest.(check string) "61 is Mersenne under any backend"
          (Nat.to_decimal Primes.p61)
          (Nat.to_decimal (Argument.field_of_bits ~backend:Qapb.Ntt 61)));
  ]

let suite = unit_tests @ defaults_tests
