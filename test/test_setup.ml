open Fieldlib
open Zcrypto

(* The verifier's set-up on the key owner's side (DESIGN.md §18): the
   key-owner Enc against the public-key oracle, the packed query
   generator against the boxed one, the packed dot and decommit vector
   against their boxed formulas, and the strictness of the packed
   Queries decoder. *)

let prg seed = Chacha.Prg.create ~seed ()
let hex b = String.concat "" (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let with_counters f =
  Zobs.reset ();
  Zobs.enable ();
  Fun.protect ~finally:(fun () -> Zobs.disable (); Zobs.reset ()) f

let counter = Zobs.Registry.counter_value

(* (label, field, group): the unit-test group and the benchmark's. *)
let groups =
  lazy
    [
      ("192-bit", Fp.create Primes.p61, Group.cached ~field_order:Primes.p61 ~p_bits:192 ());
      ("512-bit", Fp.create Primes.p127_ntt, Group.cached ~field_order:Primes.p127_ntt ~p_bits:512 ());
    ]

(* The group with its g table rebuilt at [window]. *)
let with_window (grp : Group.t) window =
  { grp with Group.g_fb = Lazy.from_val (Group.fb_precompute ~window grp grp.Group.g) }

let ct_bytes (grp : Group.t) (c : Elgamal.ciphertext) =
  let w = (Nat.num_bits grp.Group.p + 7) / 8 in
  hex (Nat.to_bytes_le c.Elgamal.c1 w) ^ "/" ^ hex (Nat.to_bytes_le c.Elgamal.c2 w)

let encryption_tests =
  [
    Alcotest.test_case "key-owner Enc = public-key oracle, byte for byte, every swept window" `Quick
      (fun () ->
        List.iter
          (fun (label, ctx, grp) ->
            let qm1 = Fp.sub ctx Fp.zero Fp.one in
            List.iter
              (fun window ->
                let grp = with_window grp window in
                let p = prg (Printf.sprintf "key owner %s %d" label window) in
                let sk, pk = Elgamal.keygen grp p in
                let ytab = Oracles.y_table pk in
                let ms = [ Fp.zero; Fp.one; qm1; Chacha.Prg.field ctx p ] in
                let ks = [ Fp.one; qm1; Chacha.Prg.field_nonzero ctx p ] in
                List.iter
                  (fun m ->
                    List.iter
                      (fun k ->
                        let what = Printf.sprintf "%s w=%d m=%s k=%s" label window (Fp.to_string m) (Fp.to_string k) in
                        let c = Elgamal.encrypt_with_k sk ~k m in
                        Alcotest.(check string) what
                          (ct_bytes grp (Oracles.pk_encrypt_with_k pk ~ytab ~k m))
                          (ct_bytes grp c);
                        Alcotest.(check bool) (what ^ " decrypts to g^m") true
                          (Group.equal (Elgamal.decrypt_to_group sk c) (Elgamal.encode pk m)))
                      ks)
                  ms;
                (* the packed batch form, slot by slot, over 1 and 3 domains *)
                let pairs = List.concat_map (fun m -> List.map (fun k -> (m, k)) ks) ms in
                let mv = Fp.Vec.of_array ctx (Array.of_list (List.map fst pairs)) in
                let kv = Fp.Vec.of_array grp.Group.modq (Array.of_list (List.map snd pairs)) in
                List.iter
                  (fun domains ->
                    Array.iteri
                      (fun i c ->
                        let m, k = List.nth pairs i in
                        Alcotest.(check string)
                          (Printf.sprintf "%s w=%d encrypt_vec slot %d (domains %d)" label window i domains)
                          (ct_bytes grp (Oracles.pk_encrypt_with_k pk ~ytab ~k m))
                          (ct_bytes grp c))
                      (Elgamal.encrypt_vec ~domains sk ~ks:kv mv))
                  [ 1; 3 ])
              Group.g_window_sweep)
          (Lazy.force groups));
    Alcotest.test_case "key-owner Enc takes one fixed-base power fewer per element" `Quick (fun () ->
        List.iter
          (fun (label, ctx, grp) ->
            let p = prg ("fb count " ^ label) in
            let sk, pk = Elgamal.keygen grp p in
            let ytab = Oracles.y_table pk in
            let n = 7 in
            let ms = Array.init n (fun _ -> Chacha.Prg.field ctx p) in
            let ks = Array.init n (fun _ -> Chacha.Prg.field_nonzero ctx p) in
            let fb_pows f =
              with_counters (fun () ->
                  f ();
                  (counter "group.pow.fixed_base", counter "fp.mul.group", counter "fp.mul",
                   counter "elgamal.encrypt"))
            in
            let oracle, _, _, _ =
              fb_pows (fun () -> Array.iteri (fun i m -> ignore (Oracles.pk_encrypt_with_k pk ~ytab ~k:ks.(i) m)) ms)
            in
            let single, single_g, single_f, single_e =
              fb_pows (fun () -> Array.iteri (fun i m -> ignore (Elgamal.encrypt_with_k sk ~k:ks.(i) m)) ms)
            in
            let packed, packed_g, packed_f, packed_e =
              fb_pows (fun () ->
                  ignore
                    (Elgamal.encrypt_vec sk ~ks:(Fp.Vec.of_array grp.Group.modq ks) (Fp.Vec.of_array ctx ms)))
            in
            Alcotest.(check int) (label ^ " oracle: three per element") (3 * n) oracle;
            Alcotest.(check int) (label ^ " key owner: one fewer per element") (oracle - n) single;
            Alcotest.(check int) (label ^ " packed: one fewer per element") (oracle - n) packed;
            (* the exponent m + x k is one group-side multiplication, no field op *)
            Alcotest.(check (list int)) (label ^ " single: e, fp.mul.group, fp.mul") [ n; n; 0 ]
              [ single_e; single_g; single_f ];
            Alcotest.(check (list int)) (label ^ " packed: e, fp.mul.group, fp.mul") [ n; n; 0 ]
              [ packed_e; packed_g; packed_f ])
          (Lazy.force groups));
    Alcotest.test_case "a prover-side group never builds a g table" `Quick (fun () ->
        List.iter
          (fun (label, ctx, (grp : Group.t)) ->
            let p = prg ("prover group " ^ label) in
            let req, _ = Commitment.Commit.commit_request ctx grp p ~len:9 in
            (* what the prover rebuilds from a Commit_request *)
            let g = Group.of_params ~p:grp.Group.p ~q:grp.Group.q ~g:grp.Group.g in
            let req' =
              { Commitment.Commit.pk = Elgamal.public_key_of g ~y:req.Commitment.Commit.pk.Elgamal.y;
                enc_r = req.Commitment.Commit.enc_r }
            in
            let u = Array.init 9 (fun i -> if i mod 3 = 0 then Fp.one else Chacha.Prg.field ctx p) in
            let c = Commitment.Commit.prover_commit req' u and c0 = Commitment.Commit.prover_commit req u in
            Alcotest.(check string) (label ^ " same commitment") (ct_bytes grp c0) (ct_bytes grp c);
            Alcotest.(check bool) (label ^ " g table untouched") false (Lazy.is_val g.Group.g_fb))
          (Lazy.force groups));
  ]

(* ---- Packed queries ---- *)

let field_tests =
  [
    Alcotest.test_case "Prg.field_into = Prg.field, stream in step" `Quick (fun () ->
        List.iter
          (fun modulus ->
            let ctx = Fp.create modulus in
            let a = prg "field_into twin" and b = prg "field_into twin" in
            for n = 0 to 40 do
              let v = Chacha.Prg.field_vec ctx a n and e = Chacha.Prg.field_array ctx b n in
              Alcotest.(check (array string)) (Printf.sprintf "n=%d" n)
                (Array.map Fp.to_string e) (Array.map Fp.to_string (Fp.Vec.to_array v))
            done;
            Alcotest.(check string) "streams in step" (hex (Chacha.Prg.bytes b 64)) (hex (Chacha.Prg.bytes a 64)))
          [ Primes.p61; Primes.p127_ntt; Primes.p220 () ]);
  ]

let slice_tests =
  [
    Alcotest.test_case "Nat slice byte codecs = Nat byte codecs, fits exactly when the value does" `Quick
      (fun () ->
        let p = prg "slice codecs" in
        for len = 0 to 40 do
          let b = Chacha.Prg.bytes p len in
          (* also a value with its top bits clear *)
          let b' = Bytes.copy b in
          if len > 0 then Bytes.set b' (len - 1) '\x01';
          List.iter
            (fun b ->
              let n = Nat.of_bytes_le b in
              for w = 0 to ((8 * len) / 31) + 2 do
                let dst = Limb.create (w + 2) in
                Limb.fill dst 0 (w + 2) 7;
                let fits = Nat.slice_of_bytes b 0 len dst 1 w in
                let what = Printf.sprintf "len=%d w=%d" len w in
                Alcotest.(check bool) (what ^ " fits") (Nat.num_bits n <= 31 * w) fits;
                Alcotest.(check int) (what ^ " left neighbour") 7 (Limb.get dst 0);
                Alcotest.(check int) (what ^ " right neighbour") 7 (Limb.get dst (w + 1));
                if fits then begin
                  Alcotest.(check string) what (Nat.to_hex n) (Nat.to_hex (Nat.of_slice dst 1 w));
                  let buf = Buffer.create len in
                  Nat.add_slice_bytes_le buf dst 1 w len;
                  Alcotest.(check string) (what ^ " encode") (hex b) (hex (Buffer.to_bytes buf));
                  (* one byte short of a value whose top byte is set *)
                  if len > 0 && Bytes.get b (len - 1) <> '\000' then
                    match Nat.add_slice_bytes_le buf dst 1 w (len - 1) with
                    | () -> Alcotest.failf "%s: encoded into %d bytes" what (len - 1)
                    | exception Invalid_argument _ -> ()
                end
              done)
            [ b; b' ]
        done);
  ]

let queries_equal what (zq, hq, reps) (q : Pcp.Pcp_zaatar.queries) =
  let same kind boxed packed =
    Alcotest.(check int) (what ^ " " ^ kind ^ " count") (Array.length boxed) (Array.length packed);
    Array.iteri
      (fun i b ->
        Alcotest.(check (array string)) (Printf.sprintf "%s %s query %d" what kind i)
          (Array.map Fp.to_string b) (Array.map Fp.to_string (Fp.Vec.to_array packed.(i))))
      boxed
  in
  same "z" zq q.Pcp.Pcp_zaatar.z_queries;
  same "h" hq q.Pcp.Pcp_zaatar.h_queries;
  Alcotest.(check bool) (what ^ " repetitions") true (reps = q.Pcp.Pcp_zaatar.reps)

let gen_tests =
  [
    Alcotest.test_case "packed gen_queries = boxed oracle, PRG left in step" `Quick (fun () ->
        let systems =
          List.init 4 (fun s -> (Printf.sprintf "lagrange %d" s, fst (Test_pcp.random_sys (s + 3)), Qapb.Lagrange))
          @ List.init 4 (fun s ->
                (Printf.sprintf "ntt %d" s, fst (Test_qap_ntt.random_satisfiable (s + 5)), Qapb.Ntt))
        in
        List.iter
          (fun (what, sys, backend) ->
            let qap = Qapb.of_r1cs ~backend sys in
            List.iter
              (fun params ->
                let a = prg ("gen " ^ what) and b = prg ("gen " ^ what) in
                let q = Pcp.Pcp_zaatar.gen_queries ~params qap a in
                queries_equal what (Oracles.gen_queries_boxed ~params qap b) q;
                Alcotest.(check string) (what ^ " PRG position") (hex (Chacha.Prg.bytes b 64))
                  (hex (Chacha.Prg.bytes a 64)))
              [ Pcp.Pcp_zaatar.test_params; { Pcp.Pcp_zaatar.rho = 2; rho_lin = 3 } ])
          systems);
    Alcotest.test_case "packed dot = Fp.dot, equal fp.mul_lazy counts with zeros" `Quick (fun () ->
        List.iter
          (fun modulus ->
            let ctx = Fp.create modulus in
            let sc = Fp.scratch_for ctx in
            let p = prg "packed dot" in
            List.iter
              (fun n ->
                List.iter
                  (fun (pattern, za, zb) ->
                    let draw z = Array.init n (fun i -> if z i then Fp.zero else Chacha.Prg.field ctx p) in
                    let a = draw za and b = draw zb in
                    let run f =
                      with_counters (fun () ->
                          let v = f () in
                          (Fp.to_string v, counter "fp.mul_lazy", counter "fp.mul"))
                    in
                    let what = Printf.sprintf "%s n=%d %s" (Nat.to_hex modulus) n pattern in
                    let boxed = run (fun () -> Fp.dot ctx a b) in
                    let packed = run (fun () -> Fp.Vec.dot ctx sc (Fp.Vec.of_array ctx a) (Fp.Vec.of_array ctx b)) in
                    Alcotest.(check (triple string int int)) what boxed packed)
                  [
                    ("dense", (fun _ -> false), fun _ -> false);
                    ("a zeros", (fun i -> i mod 3 = 0), fun _ -> false);
                    ("b zeros", (fun _ -> false), fun i -> i mod 2 = 1);
                    ("both", (fun i -> i mod 3 = 0), fun i -> i mod 2 = 1);
                    ("all zero", (fun _ -> true), fun _ -> false);
                  ])
              [ 0; 1; 2; 3; 5; 17; 1100 ])
          [ Primes.p61; Primes.p127_ntt ]);
    Alcotest.test_case "decommit vector = r + sum alpha_i q_i, one fp.mul per term" `Quick (fun () ->
        List.iter
          (fun (label, ctx, grp) ->
            let p = prg ("decommit " ^ label) in
            let len = 13 and nq = 6 in
            let _, vs = Commitment.Commit.commit_request ctx grp p ~len in
            let queries =
              Array.init nq (fun i ->
                  (* a zero query and a query with zero slots among them *)
                  if i = 1 then Fp.Vec.create ctx len
                  else
                    Fp.Vec.of_array ctx
                      (Array.init len (fun j -> if (i + j) mod 4 = 0 then Fp.zero else Chacha.Prg.field ctx p)))
            in
            let ch, muls =
              with_counters (fun () ->
                  let ch = Commitment.Commit.decommit_challenge ctx vs p queries in
                  (ch, counter "fp.mul"))
            in
            Alcotest.(check int) (label ^ " fp.mul per term") (nq * len) muls;
            let t = Fp.Vec.to_array vs.Commitment.Commit.r in
            Array.iteri
              (fun i q ->
                let q = Fp.Vec.to_array q in
                Array.iteri (fun j qj -> t.(j) <- Fp.add ctx t.(j) (Fp.mul ctx ch.Commitment.Commit.alpha.(i) qj)) q)
              queries;
            Alcotest.(check (array string)) (label ^ " t") (Array.map Fp.to_string t)
              (Array.map Fp.to_string ch.Commitment.Commit.t))
          (Lazy.force groups));
  ]

(* ---- The packed Queries decoder stays strict ---- *)

let fctx = Fp.create Primes.p61
let width = Fp.num_bytes fctx
let codec = Zwire.codec fctx

(* z: two queries of 3, h: one of 2; t_z, t_h of 3. *)
let sample () =
  let p = prg "strict queries" in
  let pv n = Chacha.Prg.field_vec fctx p n in
  Zwire.Queries
    {
      Zwire.z_queries = [| pv 3; pv 3 |];
      h_queries = [| pv 2 |];
      t_z = Chacha.Prg.field_array fctx p 3;
      t_h = Chacha.Prg.field_array fctx p 3;
    }

let header_len = 8

(* Byte offsets of every query element in the frame, with its section. *)
let element_offsets () =
  let off = ref (header_len + 4) and acc = ref [] in
  let section what lens =
    List.iter
      (fun n ->
        off := !off + 4;
        for _ = 1 to n do
          acc := (what, !off) :: !acc;
          off := !off + width
        done)
      lens;
    off := !off + 4
  in
  section "queries.z" [ 3; 3 ];
  section "queries.h" [ 2 ];
  List.rev !acc

let decode_error b = match Zwire.decode ~codec b with _ -> None | exception Zwire.Decode_error e -> Some e

let decode_tests =
  [
    Alcotest.test_case "packed Queries decode: Out_of_range at every element position" `Quick (fun () ->
        let frame = Zwire.encode ~codec (sample ()) in
        Alcotest.(check bool) "round trip" true (Zwire.msg_equal (sample ()) (Zwire.decode ~codec frame));
        let p_bytes = Nat.to_bytes_le Primes.p61 width in
        (* 2^63: zero in the two 31-bit limbs a p61 slot has, so only the
           overflow check can refuse it *)
        let past_limbs = Bytes.make width '\000' in
        Bytes.set past_limbs (width - 1) '\x80';
        List.iter
          (fun (what, off) ->
            List.iter
              (fun (label, bad) ->
                let b = Bytes.copy frame in
                Bytes.blit bad 0 b off width;
                match decode_error b with
                | Some (Zwire.Out_of_range w) when w = what -> ()
                | Some e -> Alcotest.failf "%s at %d (%s): %s" what off label (Zwire.error_to_string e)
                | None -> Alcotest.failf "%s at %d (%s) decoded" what off label)
              [ ("p", p_bytes); ("all ones", Bytes.make width '\xff'); ("2^63", past_limbs) ])
          (element_offsets ()));
    Alcotest.test_case "packed Queries decode: Truncated at every cut" `Quick (fun () ->
        let frame = Zwire.encode ~codec (sample ()) in
        let plen = Bytes.length frame - header_len in
        for cut = 0 to plen - 1 do
          let b = Bytes.sub frame 0 (header_len + cut) in
          Bytes.set_int32_be b 4 (Int32.of_int cut);
          match decode_error b with
          | Some (Zwire.Truncated _) -> ()
          | Some e -> Alcotest.failf "cut %d: %s" cut (Zwire.error_to_string e)
          | None -> Alcotest.failf "cut %d decoded" cut
        done);
  ]

let suite = encryption_tests @ field_tests @ slice_tests @ gen_tests @ decode_tests
