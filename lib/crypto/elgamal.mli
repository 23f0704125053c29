(** ElGamal over a Schnorr group with plaintexts in the exponent: the
    homomorphic (not fully homomorphic) encryption the commitment protocol
    needs (§2.2, footnote 3).

      Enc(m) = (g^k, g^m y^k)        Dec(c1, c2) = c2 c1^{-x} = g^m

    Decryption recovers g^m, not m — all the consistency test needs, since
    it compares group elements whose exponents the verifier knows in the
    clear. [hom_add]/[hom_scale] give Enc(a+b) and Enc(c*a); {!hom_dot}
    evaluates Enc(<u, r>) from Enc(r) without the prover learning r.

    Encryption is the key owner's: with y = g^x and g of order q,
    g^m y^k = g^(m + x k mod q), so Enc is two fixed-base powers of g on
    the group's cached table — byte for byte the public-key ciphertext
    (DESIGN.md §18). {!hom_dot} is a Pippenger multi-exponentiation
    (DESIGN.md §8). *)

open Fieldlib

type public_key = { grp : Group.t; y : Group.element }
type secret_key = { pk : public_key; x : Nat.t }
type ciphertext = { c1 : Group.element; c2 : Group.element }

val keygen : Group.t -> Chacha.Prg.t -> secret_key * public_key

val public_key_of : Group.t -> y:Group.element -> public_key
(** Rebuild a public key from a wire-transmitted [y] (Zwire
    [Commit_request]); raises [Invalid_argument] unless [0 < y < p]. *)

val encrypt_vec : ?domains:int -> secret_key -> ks:Fp.Vec.t -> Fp.Vec.t -> ciphertext array
(** [encrypt_vec sk ~ks m]: key-owner Enc of slot [i] of [m] (a residue
    mod q) under randomness slot [i] of [ks] (in [1, q)):
    c1 = g^k, c2 = g^(m + x k). Per element two [group.pow.fixed_base]
    and one [fp.mul.group] (the exponent, formed in [Group.expq] in one
    packed pass); the powers spread over [domains], and the result does
    not depend on the domain count. *)

val encrypt_with_k : secret_key -> k:Nat.t -> Fp.el -> ciphertext
(** One element through {!encrypt_vec}. *)

val encrypt : secret_key -> Chacha.Prg.t -> Fp.el -> ciphertext
(** {!encrypt_with_k} with fresh randomness k drawn from the PRG. *)

val decrypt_to_group : secret_key -> ciphertext -> Group.element

val encode : public_key -> Fp.el -> Group.element
(** [g^m] for a known [m] — what decryptions are compared against. *)

val hom_add : public_key -> ciphertext -> ciphertext -> ciphertext
val hom_scale : public_key -> ciphertext -> Fp.el -> ciphertext
val hom_zero : public_key -> ciphertext

val hom_dot : public_key -> ciphertext array -> Fp.el array -> ciphertext
(** Skips zero coefficients, folds unit coefficients in with bare
    homomorphic adds, and serves the rest with Pippenger {!Group.multi_pow}
    (one per ciphertext component). *)

val hom_dot_naive : public_key -> ciphertext array -> Fp.el array -> ciphertext
(** The pre-kernel hom_scale/hom_add fold, kept as the ablation baseline
    and the CI divergence check for {!hom_dot}. *)
