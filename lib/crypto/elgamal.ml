(* ElGamal over a Schnorr group with plaintexts in the exponent: the
   homomorphic (not fully homomorphic) encryption the commitment protocol
   needs (§2.2, footnote 3).

     Enc(m) = (g^k, g^m * y^k)        for k uniform in [1, q)
     Dec(c1, c2) = c2 * c1^(-x) = g^m

   Decryption recovers g^m, not m — and that is all the consistency test
   ever needs: it compares group elements whose exponents are linear
   combinations the verifier knows in the clear (see lib/commit).

   Homomorphism: Enc(a) * Enc(b) = Enc(a+b) componentwise, and
   Enc(a)^c = Enc(c*a); the prover evaluates Enc(<u, r>) from Enc(r)
   without ever seeing r.

   Only the key owner ever encrypts (the verifier's Enc(r)), and it knows
   x with y = g^x. Since g has order q,

     g^m * y^k = g^(m + x k mod q)

   so encryption is two fixed-base powers of g — c1 = g^k and
   c2 = g^(m + x k) — against one wide g table cached on the group: no
   per-key y table, and the ciphertext bytes are those of the public-key
   form (DESIGN.md §18). [hom_dot] is a Pippenger multi-exponentiation
   (DESIGN.md §8). *)

open Fieldlib

type public_key = { grp : Group.t; y : Group.element }
type secret_key = { pk : public_key; x : Nat.t }
type ciphertext = { c1 : Group.element; c2 : Group.element }

let c_encrypt = Zobs.Counter.make "elgamal.encrypt"
let c_decrypt = Zobs.Counter.make "elgamal.decrypt"
let c_hom = Zobs.Counter.make "elgamal.hom_op"

let keygen (grp : Group.t) (prg : Chacha.Prg.t) =
  let x = Fp.to_nat (Chacha.Prg.field_nonzero grp.Group.modq prg) in
  let y = Group.fb_pow grp (Group.fb_g grp) x in
  let pk = { grp; y } in
  ({ pk; x }, pk)

(* Codec hook (lib/wire): rebuild a public key from a transmitted y. *)
let public_key_of (grp : Group.t) ~(y : Group.element) =
  if Nat.is_zero y || Nat.compare y grp.Group.p >= 0 then
    invalid_arg "Elgamal.public_key_of: y out of range";
  { grp; y }

(* Key-owner encryption of every slot of [m] with the matching slot of
   [ks] as its randomness k in [1, q). The exponents m_i + x k_i are
   formed in place in one packed pass in the group's Z_q context [expq],
   whose multiplications count under fp.mul.group: they are part of the
   e op, not Figure-3 field multiplications. The powers then fan out over
   [domains], reading exponents straight from their slots. *)
let encrypt_vec ?(domains = 1) (sk : secret_key) ~(ks : Fp.Vec.t) (m : Fp.Vec.t) : ciphertext array =
  let n = Fp.Vec.length m in
  let grp = sk.pk.grp in
  let q = grp.Group.expq in
  let sc = Fp.scratch_for q in
  let xv = Fp.Vec.of_array q [| sk.x |] in
  let es = Fp.Vec.create q n in
  if Fp.Vec.length ks <> n || ks.Fp.Vec.k <> es.Fp.Vec.k || m.Fp.Vec.k <> es.Fp.Vec.k then
    invalid_arg "Elgamal.encrypt_vec: operands are not Z_q vectors of one length";
  for i = 0 to n - 1 do
    Fp.Vec.mul q sc es i xv 0 ks i;
    Fp.Vec.add q sc es i es i m i
  done;
  Zobs.Counter.add c_encrypt n;
  (* force the g table before fanning out: lazy forcing is not
     thread-safe across domains *)
  let gtab = Group.fb_g grp in
  Dompool.Pool.mapi ~domains
    (fun i () -> { c1 = Group.fb_pow_slot grp gtab ks i; c2 = Group.fb_pow_slot grp gtab es i })
    (Array.make n ())

(* One element through the same kernel. *)
let encrypt_with_k (sk : secret_key) ~(k : Nat.t) (m : Fp.el) : ciphertext =
  let q = sk.pk.grp.Group.expq in
  (encrypt_vec sk ~ks:(Fp.Vec.of_array q [| k |]) (Fp.Vec.of_array q [| m |])).(0)

(* Encrypt a field element (exponent encoding). *)
let encrypt (sk : secret_key) (prg : Chacha.Prg.t) (m : Fp.el) : ciphertext =
  let k = Fp.to_nat (Chacha.Prg.field_nonzero sk.pk.grp.Group.modq prg) in
  encrypt_with_k sk ~k m

(* Decrypt to the group encoding g^m of the plaintext. *)
let decrypt_to_group (sk : secret_key) (c : ciphertext) : Group.element =
  Zobs.Counter.incr c_decrypt;
  let grp = sk.pk.grp in
  Group.mul grp c.c2 (Group.inv grp (Group.pow grp c.c1 sk.x))

(* g^m for a known m: what decryptions are compared against. *)
let encode (pk : public_key) (m : Fp.el) : Group.element =
  Group.fb_pow pk.grp (Group.fb_g pk.grp) (Fp.to_nat m)

(* Homomorphic operations. *)

let hom_add (pk : public_key) (a : ciphertext) (b : ciphertext) : ciphertext =
  Zobs.Counter.incr c_hom;
  { c1 = Group.mul pk.grp a.c1 b.c1; c2 = Group.mul pk.grp a.c2 b.c2 }

let hom_scale (pk : public_key) (c : ciphertext) (s : Fp.el) : ciphertext =
  Zobs.Counter.incr c_hom;
  { c1 = Group.pow pk.grp c.c1 (Fp.to_nat s); c2 = Group.pow pk.grp c.c2 (Fp.to_nat s) }

let hom_zero (pk : public_key) : ciphertext =
  (* Enc(0) with randomness 0: (1, 1) — only used as a fold seed, so the
     missing blinding is irrelevant. *)
  ignore pk;
  { c1 = Fp.one; c2 = Fp.one }

(* Enc(<u, r>) from Enc(r) as a fold of hom_scale/hom_add: the pre-kernel
   path, kept as the ablation/CI cross-check baseline for [hom_dot]. *)
let hom_dot_naive (pk : public_key) (enc_r : ciphertext array) (u : Fp.el array) : ciphertext =
  if Array.length enc_r <> Array.length u then invalid_arg "Elgamal.hom_dot: length mismatch";
  let acc = ref (hom_zero pk) in
  Array.iteri
    (fun i ui -> if not (Fp.is_zero ui) then acc := hom_add pk !acc (hom_scale pk enc_r.(i) ui))
    u;
  !acc

(* Enc(<u, r>) from Enc(r): the prover's commitment computation. Zero
   coefficients are skipped (sparse proof vectors), unit coefficients are a
   bare homomorphic add, and everything else feeds one Pippenger
   multi-exponentiation per ciphertext component. *)
let hom_dot (pk : public_key) (enc_r : ciphertext array) (u : Fp.el array) : ciphertext =
  let n = Array.length enc_r in
  if n <> Array.length u then invalid_arg "Elgamal.hom_dot: length mismatch";
  let grp = pk.grp in
  let ones1 = ref Group.one and ones2 = ref Group.one in
  let idx = ref [] and nidx = ref 0 in
  for i = n - 1 downto 0 do
    let ui = u.(i) in
    if Fp.is_zero ui then ()
    else if Fp.equal ui Fp.one then begin
      Zobs.Counter.incr c_hom;
      ones1 := Group.mul grp !ones1 enc_r.(i).c1;
      ones2 := Group.mul grp !ones2 enc_r.(i).c2
    end
    else begin
      idx := i :: !idx;
      incr nidx
    end
  done;
  if !nidx = 0 then { c1 = !ones1; c2 = !ones2 }
  else begin
    (* Each Pippenger term is one homomorphic accumulate step (the paper's
       h row), same as the hom_add/hom_scale pair it replaces. *)
    Zobs.Counter.add c_hom !nidx;
    let idx = Array.of_list !idx in
    let exps = Array.map (fun i -> Fp.to_nat u.(i)) idx in
    let b1 = Array.map (fun i -> enc_r.(i).c1) idx in
    let b2 = Array.map (fun i -> enc_r.(i).c2) idx in
    {
      c1 = Group.mul grp !ones1 (Group.multi_pow grp b1 exps);
      c2 = Group.mul grp !ones2 (Group.multi_pow grp b2 exps);
    }
  end
