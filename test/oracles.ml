(* Reference kernels for the byte<->limb boundary (DESIGN.md §17): the
   straightforward per-byte / per-bit / array-state forms the production
   kernels replaced. They live here only as differential oracles. *)

open Fieldlib

(* Natural from little-endian bytes, one shift-and-add per byte. *)
let of_bytes_le b =
  let acc = ref Nat.zero in
  for i = Bytes.length b - 1 downto 0 do
    acc := Nat.add_int (Nat.shift_left !acc 8) (Char.code (Bytes.get b i))
  done;
  !acc

(* Little-endian bytes of a natural, each byte built from eight testbits. *)
let to_bytes_le a len =
  if Nat.num_bits a > len * 8 then invalid_arg "Nat.to_bytes_le: does not fit";
  let b = Bytes.make len '\000' in
  let bits = Nat.num_bits a in
  for i = 0 to ((bits + 7) / 8) - 1 do
    let byte = ref 0 in
    for k = 7 downto 0 do
      byte := (!byte lsl 1) lor if Nat.testbit a ((i * 8) + k) then 1 else 0
    done;
    Bytes.set b i (Char.chr !byte)
  done;
  b

(* ChaCha20 block (RFC 8439 §2.3) over an explicit 16-word state array. *)
let mask32 = 0xFFFFFFFF
let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let quarter_round st a b c d =
  st.(a) <- (st.(a) + st.(b)) land mask32;
  st.(d) <- rotl (st.(d) lxor st.(a)) 16;
  st.(c) <- (st.(c) + st.(d)) land mask32;
  st.(b) <- rotl (st.(b) lxor st.(c)) 12;
  st.(a) <- (st.(a) + st.(b)) land mask32;
  st.(d) <- rotl (st.(d) lxor st.(a)) 8;
  st.(c) <- (st.(c) + st.(d)) land mask32;
  st.(b) <- rotl (st.(b) lxor st.(c)) 7

let chacha_block (key : int array) (nonce : int array) counter =
  let init = Array.make 16 0 in
  Array.blit [| 0x61707865; 0x3320646e; 0x79622d32; 0x6b206574 |] 0 init 0 4;
  Array.blit key 0 init 4 8;
  init.(12) <- counter land mask32;
  Array.blit nonce 0 init 13 3;
  let st = Array.copy init in
  for _ = 1 to 10 do
    quarter_round st 0 4 8 12;
    quarter_round st 1 5 9 13;
    quarter_round st 2 6 10 14;
    quarter_round st 3 7 11 15;
    quarter_round st 0 5 10 15;
    quarter_round st 1 6 11 12;
    quarter_round st 2 7 8 13;
    quarter_round st 3 4 9 14
  done;
  let out = Bytes.create 64 in
  for i = 0 to 15 do
    let w = (st.(i) + init.(i)) land mask32 in
    for j = 0 to 3 do
      Bytes.set out ((4 * i) + j) (Char.chr ((w lsr (8 * j)) land 0xff))
    done
  done;
  out

(* [Prg.bytes], one [Prg.byte] at a time. *)
let prg_bytes prg n = Bytes.init n (fun _ -> Char.chr (Chacha.Prg.byte prg))

(* The first [n] keystream bytes of [Prg.of_key key ~nonce], block by
   reference block (Prg's nonce-lane layout). *)
let keystream key ~nonce n =
  let nonce_words = [| nonce land 0xFFFFFFFF; (nonce lsr 32) land 0x3FFFFFFF; 0 |] in
  let blocks = (n + 63) / 64 in
  let all = Bytes.concat Bytes.empty (List.init blocks (chacha_block key nonce_words)) in
  Bytes.sub all 0 n

(* ---- Verifier set-up (DESIGN.md §18) ---- *)

(* Public-key ElGamal: c2 = g^m * y^k, with a fixed-base table for y. The
   form anyone holding y can compute, and the oracle for the key owner's
   c2 = g^(m + x k). Three fixed-base powers per element. *)
let y_table (pk : Zcrypto.Elgamal.public_key) = Zcrypto.Group.fb_precompute pk.grp pk.y

let pk_encrypt_with_k (pk : Zcrypto.Elgamal.public_key) ~ytab ~(k : Nat.t) (m : Fp.el) =
  let grp = pk.Zcrypto.Elgamal.grp in
  let gtab = Zcrypto.Group.fb_g grp in
  let gm = Zcrypto.Group.fb_pow grp gtab (Fp.to_nat m) in
  {
    Zcrypto.Elgamal.c1 = Zcrypto.Group.fb_pow grp gtab k;
    c2 = Zcrypto.Group.mul grp gm (Zcrypto.Group.fb_pow grp ytab k);
  }

(* The boxed query generator: one [Fp.el array] per query, every random
   element boxed as drawn and every sum a fresh array. Same PRG order as
   [Pcp_zaatar.gen_queries]; returns (z queries, h queries, repetitions). *)
let gen_queries_boxed ~(params : Pcp.Pcp_zaatar.params) (qap : Qapb.t) prg =
  let open Pcp.Pcp_zaatar in
  let ctx = Qapb.ctx qap in
  let n' = (Qapb.sys qap).Constr.R1cs.num_z and hl = Qapb.h_len qap in
  let add_vec a b = Array.init (Array.length a) (fun i -> Fp.add ctx a.(i) b.(i)) in
  let rand_vec len = Array.init len (fun _ -> Chacha.Prg.field ctx prg) in
  let zq = ref [] and hq = ref [] in
  let push l q =
    l := q :: !l;
    List.length !l - 1
  in
  let nth l i = List.nth !l (List.length !l - 1 - i) in
  let rec fresh_tau () =
    let tau = Chacha.Prg.field ctx prg in
    match Qapb.queries qap ~tau with q -> q | exception Qapb.Tau_collision -> fresh_tau ()
  in
  let repetition () =
    let triple l len =
      let q5 = rand_vec len in
      let q6 = rand_vec len in
      let i5 = push l q5 in
      let i6 = push l q6 in
      (i5, i6, push l (add_vec q5 q6))
    in
    let lin_z = Array.init params.rho_lin (fun _ -> triple zq n') in
    let lin_h = Array.init params.rho_lin (fun _ -> triple hq hl) in
    let iblind_z, _, _ = lin_z.(0) and iblind_h, _, _ = lin_h.(0) in
    let q5 = nth zq iblind_z and q8 = nth hq iblind_h in
    let qap_q = fresh_tau () in
    let iq1 = push zq (add_vec (Qapb.z_slice qap qap_q.Qapb.a_tau) q5) in
    let iq2 = push zq (add_vec (Qapb.z_slice qap qap_q.Qapb.b_tau) q5) in
    let iq3 = push zq (add_vec (Qapb.z_slice qap qap_q.Qapb.c_tau) q5) in
    let iq4 = push hq (add_vec qap_q.Qapb.qd q8) in
    { lin_z; lin_h; iq1; iq2; iq3; iq4; iblind_z; iblind_h; qap_q }
  in
  let reps = Array.init params.rho (fun _ -> repetition ()) in
  (Array.of_list (List.rev !zq), Array.of_list (List.rev !hq), reps)
