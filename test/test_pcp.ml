open Fieldlib
open Constr
open Pcp

let ctx = Fp.create Primes.p61
let fi = Fp.of_int ctx

let random_sys seed = Test_constr.random_satisfiable_r1cs seed

let split_w (sys : R1cs.system) (w : Fp.el array) =
  let z = Array.sub w 1 sys.R1cs.num_z in
  let io = Array.sub w (sys.R1cs.num_z + 1) (R1cs.num_io sys) in
  (z, io)

let honest_oracle qap w =
  let z, _ = split_w (Qapb.sys qap) w in
  let h = Qapb.prover_h qap w in
  Oracle.honest ctx z h

let qtest name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let params = Pcp_zaatar.test_params

let zaatar_tests =
  [
    qtest "zaatar completeness" 40 QCheck.small_int (fun seed ->
        let sys, w = random_sys seed in
        let qap = Qapb.of_r1cs sys in
        let _, io = split_w sys w in
        let prg = Chacha.Prg.create ~seed:(Printf.sprintf "zc %d" seed) () in
        Pcp_zaatar.(accepts (run ~params qap prg (honest_oracle qap w) ~io)));
    qtest "zaatar completeness at paper parameters" 3 QCheck.small_int (fun seed ->
        let sys, w = random_sys seed in
        let qap = Qapb.of_r1cs sys in
        let _, io = split_w sys w in
        let prg = Chacha.Prg.create ~seed:(Printf.sprintf "zp %d" seed) () in
        Pcp_zaatar.(accepts (run ~params:paper_params qap prg (honest_oracle qap w) ~io)));
    qtest "zaatar rejects wrong output (whp)" 40 QCheck.small_int (fun seed ->
        (* Claim the same z but a corrupted output y: the io part fed to the
           divisibility test no longer matches. *)
        let sys, w = random_sys seed in
        if R1cs.num_io sys = 0 then true
        else begin
          let qap = Qapb.of_r1cs sys in
          let _, io = split_w sys w in
          let perturbed_var = sys.R1cs.num_vars in
          let io' = Array.copy io in
          io'.(Array.length io' - 1) <- Fp.add ctx io'.(Array.length io' - 1) Fp.one;
          let var_used =
            Array.exists
              (fun (k : R1cs.constr) ->
                List.exists (fun (v, _) -> v = perturbed_var)
                  (Lincomb.terms k.R1cs.a @ Lincomb.terms k.R1cs.b @ Lincomb.terms k.R1cs.c))
              sys.R1cs.constraints
          in
          if not var_used then true
          else begin
            let prg = Chacha.Prg.create ~seed:(Printf.sprintf "zw %d" seed) () in
            (* The honest oracle for the true w, but claimed io'. *)
            not Pcp_zaatar.(accepts (run ~params qap prg (honest_oracle qap w) ~io:io'))
          end
        end);
    qtest "zaatar rejects corrupted witness with forced h (whp)" 40 QCheck.small_int (fun seed ->
        let sys, w = random_sys seed in
        let qap = Qapb.of_r1cs sys in
        let w' = Array.copy w in
        w'.(1) <- Fp.add ctx w'.(1) (fi 5);
        if R1cs.satisfied ctx sys w' then true
        else begin
          let z', io = (fst (split_w sys w'), snd (split_w sys w')) in
          let h' = Qapb.prover_h_forced qap w' in
          let oracle = Oracle.honest ctx z' h' in
          let prg = Chacha.Prg.create ~seed:(Printf.sprintf "zf %d" seed) () in
          not Pcp_zaatar.(accepts (run ~params qap prg oracle ~io))
        end);
    qtest "zaatar rejects non-linear oracle (whp)" 40 QCheck.small_int (fun seed ->
        let sys, w = random_sys seed in
        let qap = Qapb.of_r1cs sys in
        let _, io = split_w sys w in
        let oracle = Oracle.nonlinear ctx (honest_oracle qap w) in
        let prg = Chacha.Prg.create ~seed:(Printf.sprintf "zn %d" seed) () in
        match Pcp_zaatar.run ~params qap prg oracle ~io with
        | Pcp_zaatar.Reject_linearity _ -> true
        | Pcp_zaatar.Accept ->
          (* sum-of-squares poison can cancel by luck on tiny systems *)
          false
        | Pcp_zaatar.Reject_divisibility _ -> true);
    Alcotest.test_case "query count matches l' = 6 rho_lin + 4" `Quick (fun () ->
        let sys, _ = random_sys 11 in
        let qap = Qapb.of_r1cs sys in
        let prg = Chacha.Prg.create ~seed:"count" () in
        let p = { Pcp_zaatar.rho = 3; rho_lin = 5 } in
        let q = Pcp_zaatar.gen_queries ~params:p qap prg in
        let total = Array.length q.Pcp_zaatar.z_queries + Array.length q.Pcp_zaatar.h_queries in
        Alcotest.(check int) "total" (Pcp_zaatar.num_queries p) total;
        Alcotest.(check int) "per-rep" (3 * ((6 * 5) + 4)) total);
    Alcotest.test_case "query vector lengths" `Quick (fun () ->
        let sys, _ = random_sys 12 in
        let qap = Qapb.of_r1cs ~backend:Qapb.Lagrange sys in
        let prg = Chacha.Prg.create ~seed:"len" () in
        let q = Pcp_zaatar.gen_queries ~params qap prg in
        Array.iter
          (fun v -> Alcotest.(check int) "z len" sys.R1cs.num_z (Fp.Vec.length v))
          q.Pcp_zaatar.z_queries;
        Array.iter
          (fun v -> Alcotest.(check int) "h len" (R1cs.num_constraints sys + 1) (Fp.Vec.length v))
          q.Pcp_zaatar.h_queries);
  ]

(* --- Ginger baseline --- *)

(* A small Ginger system with IO: y = x^2 + 3 (see test_constr). *)
let ginger_sys = Test_constr.ginger_sys

let ginger_tests =
  [
    Alcotest.test_case "ginger completeness" `Quick (fun () ->
        let io = [| fi 5; fi 28 |] in
        let bound = Quad.bind_io ctx ginger_sys io in
        let z = [| fi 25 |] in
        Alcotest.(check bool) "bound satisfied" true (Quad.satisfied ctx bound [| Fp.one; fi 25 |]);
        let uz, uzz = Pcp_ginger.proof_vector ctx z in
        let oracle = Oracle.honest ctx uz uzz in
        let prg = Chacha.Prg.create ~seed:"ginger ok" () in
        Alcotest.(check bool) "accept" true
          Pcp_ginger.(accepts (run ~params:test_params ctx bound prg oracle)));
    Alcotest.test_case "ginger rejects wrong witness (whp)" `Quick (fun () ->
        let io = [| fi 5; fi 28 |] in
        let bound = Quad.bind_io ctx ginger_sys io in
        let z = [| fi 24 |] in
        let uz, uzz = Pcp_ginger.proof_vector ctx z in
        let oracle = Oracle.honest ctx uz uzz in
        let reject = ref 0 in
        for seed = 0 to 19 do
          let prg = Chacha.Prg.create ~seed:(Printf.sprintf "ginger bad %d" seed) () in
          if not Pcp_ginger.(accepts (run ~params:test_params ctx bound prg oracle)) then incr reject
        done;
        Alcotest.(check bool) "mostly rejected" true (!reject >= 18));
    Alcotest.test_case "ginger rejects wrong output" `Quick (fun () ->
        let io = [| fi 5; fi 29 |] in
        let bound = Quad.bind_io ctx ginger_sys io in
        let z = [| fi 25 |] in
        let uz, uzz = Pcp_ginger.proof_vector ctx z in
        let oracle = Oracle.honest ctx uz uzz in
        let prg = Chacha.Prg.create ~seed:"ginger out" () in
        Alcotest.(check bool) "reject" false
          Pcp_ginger.(accepts (run ~params:test_params ctx bound prg oracle)));
    Alcotest.test_case "ginger rejects proof not of form (z, z x z)" `Quick (fun () ->
        let io = [| fi 5; fi 28 |] in
        let bound = Quad.bind_io ctx ginger_sys io in
        let z = [| fi 25 |] in
        let uz, uzz = Pcp_ginger.proof_vector ctx z in
        let uzz' = Array.copy uzz in
        uzz'.(0) <- Fp.add ctx uzz'.(0) Fp.one;
        let oracle = Oracle.honest ctx uz uzz' in
        let reject = ref 0 in
        for seed = 0 to 19 do
          let prg = Chacha.Prg.create ~seed:(Printf.sprintf "ginger zz %d" seed) () in
          if not Pcp_ginger.(accepts (run ~params:test_params ctx bound prg oracle)) then incr reject
        done;
        Alcotest.(check bool) "mostly rejected" true (!reject >= 15));
    qtest "ginger completeness on random systems" 20 QCheck.small_int (fun seed ->
        (* Convert a random satisfiable R1CS into a Ginger system: each
           quadratic-form constraint ab = c is one degree-2 constraint. *)
        let sys, w = random_sys seed in
        let gsys =
          {
            Quad.field = ctx;
            num_vars = sys.R1cs.num_vars;
            num_z = sys.R1cs.num_z;
            constraints =
              Array.map
                (fun (k : R1cs.constr) ->
                  Quad.qpoly_sub ctx (Quad.qpoly_mul_lin ctx k.R1cs.a k.R1cs.b)
                    (Quad.qpoly_of_lincomb k.R1cs.c))
                sys.R1cs.constraints;
          }
        in
        let io = Array.sub w (sys.R1cs.num_z + 1) (R1cs.num_io sys) in
        let bound = Quad.bind_io ctx gsys io in
        let z = Array.sub w 1 sys.R1cs.num_z in
        let uz, uzz = Pcp_ginger.proof_vector ctx z in
        let oracle = Oracle.honest ctx uz uzz in
        let prg = Chacha.Prg.create ~seed:(Printf.sprintf "gr %d" seed) () in
        Pcp_ginger.(accepts (run ~params:test_params ctx bound prg oracle)));
  ]

let suite = zaatar_tests @ ginger_tests
