open Fieldlib
open Zcrypto

(* Property tests for the DESIGN.md §8 exponentiation kernels: fixed-base
   window tables, Shamir simultaneous exponentiation, Pippenger bucket
   multi-exponentiation, and the parallel commitment pipeline built on
   them. Every kernel is checked against the generic ladder ({!Group.pow}),
   which in turn is pinned against the Barrett ladder elsewhere. *)

let field = Primes.p61
let ctx = Fp.create field
let grp = Group.cached ~field_order:field ~p_bits:192 ()
let prg seed = Chacha.Prg.create ~seed ()
let q1 = Nat.sub grp.Group.q Nat.one

let rand_el p = Group.fb_pow grp (Group.fb_g grp) (Fp.to_nat (Chacha.Prg.field ctx p))
let rand_exp p = Fp.to_nat (Chacha.Prg.field ctx p)

(* Exponent edge cases every kernel must handle: 0, 1, and q-1 (the widest
   exponent a Z_q table must cover). *)
let edge_exps = [ Nat.zero; Nat.one; q1 ]

let check_pow name expect got = Alcotest.(check bool) name true (Group.equal expect got)

let fixed_base_tests =
  [
    Alcotest.test_case "fb_pow = pow for windows 1-6" `Quick (fun () ->
        let p = prg "fb windows" in
        let bases = [ ("g", grp.Group.g); ("rand", rand_el p) ] in
        List.iter
          (fun (bname, base) ->
            for window = 1 to 6 do
              let tab = Group.fb_precompute ~window grp base in
              let exps = edge_exps @ List.init 8 (fun _ -> rand_exp p) in
              List.iter
                (fun e ->
                  check_pow
                    (Printf.sprintf "%s w=%d e=%s" bname window (Nat.to_hex e))
                    (Group.pow grp base e) (Group.fb_pow grp tab e))
                exps
            done)
          bases);
    Alcotest.test_case "cached g-table matches pow" `Quick (fun () ->
        let p = prg "fb g" in
        let tab = Group.fb_g grp in
        List.iter
          (fun e -> check_pow "g table" (Group.pow grp grp.Group.g e) (Group.fb_pow grp tab e))
          (edge_exps @ List.init 16 (fun _ -> rand_exp p)));
    Alcotest.test_case "fb_pow falls back beyond the table range" `Quick (fun () ->
        (* A table sized for Z_q exponents must still be correct for wider
           exponents (generic-ladder fallback). *)
        let wide = Nat.mul grp.Group.q (Nat.of_int 3) in
        check_pow "wide exponent" (Group.pow grp grp.Group.g wide)
          (Group.fb_pow grp (Group.fb_g grp) wide));
  ]

(* The packed fixed-base path must do the boxed path's work exactly:
   start from one in Montgomery form and multiply once per nonzero
   window digit, so mont.mul (part of the fieldlib.mults total) counts
   stay identical. Checked on the bench's 512-bit group over p127_ntt. *)
let packed_fb_tests =
  [
    Alcotest.test_case "packed fb_pow (512-bit) = pow, one mont.mul per nonzero digit" `Quick
      (fun () ->
        let field = Primes.p127_ntt in
        let ctx = Fp.create field in
        let grp = Group.cached ~field_order:field ~p_bits:512 () in
        let q1 = Nat.sub grp.Group.q Nat.one in
        let p = prg "packed fb" in
        let mont_muls f =
          Zobs.reset ();
          Zobs.enable ();
          Fun.protect ~finally:(fun () -> Zobs.disable (); Zobs.reset ()) (fun () ->
              let r = f () in
              (r, Zobs.Registry.counter_value "mont.mul"))
        in
        for window = 1 to 6 do
          let tab = Group.fb_precompute ~window grp grp.Group.g in
          List.iter
            (fun e ->
              let got, muls = mont_muls (fun () -> Group.fb_pow grp tab e) in
              let what = Printf.sprintf "w=%d e=%s" window (Nat.to_hex e) in
              check_pow what (Group.pow grp grp.Group.g e) got;
              let digits = (Nat.num_bits e + window - 1) / window in
              let nonzero = ref 0 in
              for i = 0 to digits - 1 do
                if Nat.bits e ~lo:(i * window) ~w:window <> 0 then incr nonzero
              done;
              Alcotest.(check int) (what ^ " mont.mul") !nonzero muls)
            ([ Nat.zero; Nat.one; q1 ] @ List.init 4 (fun _ -> Fp.to_nat (Chacha.Prg.field ctx p)))
        done);
  ]

let scratch_tests =
  [
    Alcotest.test_case "CIOS Montgomery product = Barrett product, 1 to 35 limbs" `Quick
      (fun () ->
        (* odd moduli of every shape the limb loops care about: one limb,
           exact limb boundaries, all-ones top limbs, group sizes *)
        let p = prg "cios widths" in
        let odd n = if Nat.is_even n then Nat.add n Nat.one else n in
        let random_nat bits =
          Nat.shift_right (Nat.of_bytes_le (Chacha.Prg.bytes p ((bits + 7) / 8))) (((bits + 7) / 8 * 8) - bits)
        in
        let moduli =
          [ Nat.of_int 2147483647; Nat.of_int 1_000_003; Primes.p61; Primes.p127; grp.Group.p;
            Nat.sub (Nat.shift_left Nat.one 62) Nat.one; Nat.sub (Nat.shift_left Nat.one 93) Nat.one ]
          @ List.map (fun bits -> odd (Nat.add (Nat.shift_left Nat.one (bits - 1)) (random_nat (bits - 1))))
              [ 32; 100; 512; 1024; 1085 ]
        in
        List.iter
          (fun m ->
            let mctx = Montgomery.create m and bctx = Fp.create ~tag:Fp.Group m in
            let below () = snd (Nat.divmod (random_nat (Nat.num_bits m + 8)) m) in
            for _ = 1 to 20 do
              let a = below () and b = below () in
              let what = Printf.sprintf "%d-bit modulus" (Nat.num_bits m) in
              let ma = Montgomery.to_mont mctx a and mb = Montgomery.to_mont mctx b in
              Alcotest.(check bool) (what ^ " round trip") true (Nat.equal a (Montgomery.of_mont mctx ma));
              Alcotest.(check bool) (what ^ " mul") true
                (Nat.equal (Fp.to_nat (Fp.mul bctx a b)) (Montgomery.of_mont mctx (Montgomery.mul mctx ma mb)));
              (* products stay canonical in Montgomery form, not merely < 2p *)
              Alcotest.(check bool) (what ^ " canonical") true
                (Montgomery.equal (Montgomery.mul mctx ma mb)
                   (Montgomery.to_mont mctx (Fp.to_nat (Fp.mul bctx a b))));
              Alcotest.(check bool) (what ^ " sqr") true
                (Nat.equal (Fp.to_nat (Fp.sqr bctx a)) (Montgomery.of_mont mctx (Montgomery.sqr mctx ma)))
            done;
            let e = random_nat 200 and a = below () in
            Alcotest.(check bool) "pow_nat = Barrett pow" true
              (Nat.equal (Fp.to_nat (Fp.pow bctx a e)) (Montgomery.pow_nat mctx a e)))
          moduli);
    Alcotest.test_case "contexts with one modulus share one scratch" `Quick (fun () ->
        (* a prover rebuilds the group context every session *)
        let fresh () = Montgomery.create (Nat.add grp.Group.p Nat.zero) in
        let sc = Montgomery.scratch_for (fresh ()) in
        for _ = 1 to 10 do
          Alcotest.(check bool) "same scratch" true (Montgomery.scratch_for (fresh ()) == sc)
        done;
        let other = Montgomery.create Primes.p127 in
        Alcotest.(check bool) "other modulus, other scratch" false
          (Montgomery.scratch_for other == sc));
  ]

let shamir_tests =
  [
    Alcotest.test_case "pow2 = pow * pow" `Quick (fun () ->
        let p = prg "shamir" in
        let cases =
          List.concat_map (fun e1 -> List.map (fun e2 -> (e1, e2)) edge_exps) edge_exps
          @ List.init 12 (fun _ -> (rand_exp p, rand_exp p))
        in
        List.iter
          (fun (e1, e2) ->
            let b1 = rand_el p and b2 = rand_el p in
            check_pow "pow2"
              (Group.mul grp (Group.pow grp b1 e1) (Group.pow grp b2 e2))
              (Group.pow2 grp b1 e1 b2 e2))
          cases);
  ]

let multi_pow_tests =
  [
    Alcotest.test_case "multi_pow = fold of pow" `Quick (fun () ->
        let p = prg "pippenger" in
        let naive bases exps =
          let acc = ref Group.one in
          Array.iteri (fun i b -> acc := Group.mul grp !acc (Group.pow grp b exps.(i))) bases;
          !acc
        in
        List.iter
          (fun n ->
            let bases = Array.init n (fun _ -> rand_el p) in
            let exps =
              Array.init n (fun i ->
                  match i with 0 -> Nat.zero | 1 -> Nat.one | 2 -> q1 | _ -> rand_exp p)
            in
            let expect = naive bases exps in
            List.iter
              (fun window ->
                let got =
                  match window with
                  | None -> Group.multi_pow grp bases exps
                  | Some w -> Group.multi_pow ~window:w grp bases exps
                in
                check_pow (Printf.sprintf "n=%d" n) expect got)
              [ None; Some 1; Some 2; Some 3 ])
          [ 0; 1; 2; 3; 7; 20 ]);
  ]

let hom_dot_tests =
  [
    Alcotest.test_case "hom_dot = hom_dot_naive" `Quick (fun () ->
        let p = prg "hom_dot" in
        let sk, pk = Elgamal.keygen grp p in
        List.iter
          (fun n ->
            let r = Array.init n (fun _ -> Chacha.Prg.field ctx p) in
            let enc_r = Array.map (Elgamal.encrypt sk p) r in
            (* Mix of zeros (skipped), ones (bare hom_add) and generic
               coefficients, the three hom_dot partitions. *)
            let u =
              Array.init n (fun i ->
                  if i mod 4 = 0 then Fp.zero
                  else if i mod 4 = 1 then Fp.one
                  else Chacha.Prg.field ctx p)
            in
            let a = Elgamal.hom_dot pk enc_r u and b = Elgamal.hom_dot_naive pk enc_r u in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d" n) true
              (Group.equal a.Elgamal.c1 b.Elgamal.c1 && Group.equal a.Elgamal.c2 b.Elgamal.c2))
          [ 0; 1; 5; 24 ]);
  ]

let parallel_tests =
  [
    Alcotest.test_case "commit_request transcript is domain-count independent" `Quick (fun () ->
        let run domains =
          Commitment.Commit.commit_request ~domains ctx grp (prg "par commit") ~len:17
        in
        let req1, vs1 = run 1 and req4, vs4 = run 4 in
        Alcotest.(check bool) "same y" true
          (Group.equal req1.Commitment.Commit.pk.Elgamal.y req4.Commitment.Commit.pk.Elgamal.y);
        Array.iteri
          (fun i (c1 : Elgamal.ciphertext) ->
            let c4 = req4.Commitment.Commit.enc_r.(i) in
            Alcotest.(check bool)
              (Printf.sprintf "enc_r.%d" i)
              true
              (Group.equal c1.Elgamal.c1 c4.Elgamal.c1 && Group.equal c1.Elgamal.c2 c4.Elgamal.c2))
          req1.Commitment.Commit.enc_r;
        Array.iteri
          (fun i r1 ->
            Alcotest.(check bool) (Printf.sprintf "r.%d" i) true
              (Fp.equal r1 (Fp.Vec.get vs4.Commitment.Commit.r i)))
          (Fp.Vec.to_array vs1.Commitment.Commit.r));
    Alcotest.test_case "commitment protocol accepts with domains > 1" `Quick (fun () ->
        let p = prg "par protocol" in
        let n = 11 in
        let u = Array.init n (fun _ -> Chacha.Prg.field ctx p) in
        let req, vs = Commitment.Commit.commit_request ~domains:3 ctx grp p ~len:n in
        let com = Commitment.Commit.prover_commit req u in
        let queries = Array.init 4 (fun _ -> Chacha.Prg.field_vec ctx p n) in
        let ch = Commitment.Commit.decommit_challenge ctx vs p queries in
        let ans = Commitment.Commit.prover_answer ctx u queries ch.Commitment.Commit.t in
        Alcotest.(check bool) "accept" true
          (Commitment.Commit.consistency_check vs ch ~commitment:com ans));
  ]

let suite = fixed_base_tests @ packed_fb_tests @ scratch_tests @ shamir_tests @ multi_pow_tests @ hom_dot_tests @ parallel_tests
