(** Montgomery-form modular arithmetic: the multiplication-heavy
    alternative to {!Fp}'s Barrett reduction, used where long chains of
    multiplications dominate (group exponentiation in the commitment's
    ElGamal, §5.1's e/d/h costs).

    Elements live in Montgomery representation (xR mod p, R = 2^(31k));
    convert at the boundary with {!to_mont}/{!of_mont}. Every product —
    boxed or packed — runs the one CIOS REDC kernel behind {!mul_into} on
    limb slices, so a boxed {!mul} allocates only its result. The
    ablation bench compares a Barrett and a Montgomery exponentiation
    ladder. *)

open Nat

type ctx

type el
(** An element in Montgomery representation. *)

val create : t -> ctx
(** Modulus must be odd and >= 3. *)

val modulus : ctx -> t

val to_mont : ctx -> t -> el
(** Input must be reduced (< p). Both conversions run one uncounted REDC
    and allocate only their result. *)

val of_mont : ctx -> el -> t

val one : ctx -> el
val zero : ctx -> el

val mul : ctx -> el -> el -> el
val sqr : ctx -> el -> el
val add : ctx -> el -> el -> el
val sub : ctx -> el -> el -> el

val pow : ctx -> el -> t -> el
(** Plain square-and-multiply entirely inside Montgomery form (kept as the
    ablation baseline; production paths use the kernels below). *)

(** {2 Exponentiation kernels (DESIGN.md §8)} *)

type fb
(** A fixed-base window table: precomputed powers [b^(j * 2^(w*i))] so any
    exponent below the table width costs one multiplication per nonzero
    base-[2^w] digit — no squarings. The entries are k-limb slices of one
    packed, read-only {!Limb.a} arena (shareable across domains). *)

val fb_precompute : ctx -> ?window:int -> bits:int -> el -> fb
(** [fb_precompute ctx ~window ~bits b] builds the table covering exponents
    of up to [bits] bits. [window] in [1, 16], default 5. Costs about
    [(bits/window) * 2^window] multiplications. *)

val fb_bits : fb -> int
(** Widest supported exponent, in bits. *)

val fb_pow : ctx -> fb -> t -> t
(** [fb_pow ctx fb e] is [b^e mod p] as a plain residue (out of
    Montgomery form). The accumulator is a packed scratch register
    starting from one in Montgomery form, with one counted [mont.mul] per
    nonzero digit; the returned natural is the only allocation. Raises
    [Invalid_argument] if the exponent is wider than the table. *)

val fb_pow_slice : ctx -> fb -> Limb.a -> int -> int -> t
(** [fb_pow_slice ctx fb src off n]: {!fb_pow} with the exponent read
    digit by digit from the [n]-limb slice at [src.(off)] (a packed
    {!Fp.Vec} slot), so no exponent is ever boxed. Same count, same
    result, same range check. *)

val pow2 : ctx -> el -> t -> el -> t -> el
(** [pow2 ctx b1 e1 b2 e2 = b1^e1 * b2^e2] by Shamir/Straus simultaneous
    exponentiation: one shared squaring chain, about half the cost of two
    independent ladders. *)

val multi_pow : ctx -> ?window:int -> el array -> t array -> el
(** [multi_pow ctx bases exps = prod_i bases.(i)^exps.(i)] by Pippenger
    bucket aggregation: about [(bits/c) * (n + 2^c)] multiplications for
    [c ~ log2 n], against [1.5 * n * bits] for independent ladders.
    [window] overrides the automatic choice of [c] (used by tests). The
    bucket arena is packed ({!Limb.a} slices + [mul_into]), so the inner
    loop allocates nothing on the OCaml heap. *)

(** {2 Packed kernels}

    CIOS REDC on {!Limb.a} slices. A {!scratch} is owned by one domain —
    obtain it with {!scratch_for} (domain-local, cached per modulus); see
    DESIGN.md §13 for the ownership discipline. *)

type scratch

val scratch_create : ctx -> scratch
val scratch_for : ctx -> scratch

val mul_into : ctx -> scratch -> Limb.a -> int -> Limb.a -> int -> Limb.a -> int -> unit
(** [mul_into ctx sc dst dso a ao b bo]: the k-limb slice of [dst] at
    [dso] gets [REDC(a * b)] of the k-limb input slices (all Montgomery
    form, reduced). [dst] may alias either input slice. One counted
    [mont.mul], zero allocations. *)

val pow_nat : ctx -> t -> t -> t
(** [pow_nat ctx b e]: convenience [b^e mod p] over plain naturals
    (converts in and out; windowed ladder). *)

val equal : el -> el -> bool
