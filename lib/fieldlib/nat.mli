(** Arbitrary-precision natural numbers.

    The substrate the paper gets from GMP [2]; built from scratch here because
    the container has no bignum library. Values are immutable once returned.
    Representation: little-endian arrays of base-2^31 limbs, canonical (no
    high zero limbs); [zero] is the empty array. All arithmetic stays within
    OCaml's 63-bit native ints: a limb product plus carries is at most
    [2^62 - 1]. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative [n]. Raises [Invalid_argument] on
    negative input. *)

val to_int : t -> int
(** Raises [Failure] if the value exceeds [max_int]. *)

val to_int_opt : t -> int option

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val num_limbs : t -> int
val num_bits : t -> int
(** [num_bits zero = 0]; otherwise the index of the highest set bit plus 1. *)

val testbit : t -> int -> bool
val is_even : t -> bool

val add : t -> t -> t
val add_int : t -> int -> t

val sub : t -> t -> t
(** [sub a b] requires [a >= b]; raises [Invalid_argument] otherwise. *)

val sub_int : t -> int -> t

val mul : t -> t -> t
(** Schoolbook below [karatsuba_threshold] limbs, Karatsuba above. *)

val mul_int : t -> int -> t
(** Multiplier must lie in [0, 2^31). *)

val sqr : t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = b*q + r] and [0 <= r < b] (Knuth TAOCP
    vol. 2 Algorithm D). Raises [Division_by_zero] if [b] is zero. *)

val divmod_int : t -> int -> t * int
(** Divisor must lie in [1, 2^31). *)

val pow_int : t -> int -> t
(** [pow_int b e] for small exponents; no modular reduction. *)

(* Limb-level helpers used by Barrett reduction. *)

val shift_right_limbs : t -> int -> t
(** Drop the [k] low limbs (divide by [2^(31k)]). *)

val truncate_limbs : t -> int -> t
(** Keep only the [k] low limbs (reduce modulo [2^(31k)]). *)

val of_hex : string -> t
val to_hex : t -> string
val of_decimal : string -> t
val to_decimal : t -> string

(** {2 Byte codecs}

    Little-endian, packed straight into base-2^31 limbs: O(bytes), each
    byte touched once, and nothing allocated but the value returned. *)

val of_bytes_le : bytes -> t

val of_bytes_sub : bytes -> int -> int -> t
(** [of_bytes_sub b off len] decodes [b.(off .. off+len-1)] in place (no
    intermediate copy). *)

val to_bytes_le : t -> int -> bytes
(** [to_bytes_le n len] zero-pads to exactly [len] bytes; raises
    [Invalid_argument] if [n] does not fit. *)

val add_bytes_le : Buffer.t -> t -> int -> unit
(** [add_bytes_le buf n len] appends the [len]-byte encoding to [buf];
    raises as {!to_bytes_le}. *)

val load_bits_le : width:int -> int array -> bytes -> int -> bits:int -> unit
(** [load_bits_le ~width dst b off ~bits] decodes the low [bits] bits of
    the [ceil(bits/8)] bytes at [b.(off)] into the [width]-limb buffer
    [dst] (zero-padded; higher bits of the top byte are dropped). The
    value must fit [width] limbs. Allocation-free: the rejection-sampling
    kernel of [Chacha.Prg.field]. *)

val pp : Format.formatter -> t -> unit

(** {2 Tuning} *)

val set_karatsuba_threshold : int -> unit
(** Set the schoolbook/Karatsuba crossover (in limbs, >= 2). Swept by the
    bench ablation harness; the shipped default is the sweep winner. *)

val get_karatsuba_threshold : unit -> int

(** {2 Fixed-width in-place kernels}

    Scalar mirror of the packed {!Limb} kernels: plain [int array] limb
    buffers of caller-chosen width, little-endian, non-canonical (high zero
    limbs allowed). None of these allocate. *)

val to_limbs : width:int -> t -> int array
(** Padded little-endian copy; raises [Invalid_argument] if [t] needs more
    than [width] limbs. *)

val of_limbs : int array -> t
(** Canonicalizing copy of a limb buffer (one allocation). *)

val compare_limbs : width:int -> int array -> t -> int
(** Compare a [width]-limb buffer, read as a natural, with a natural. *)

val limb : t -> int -> int
(** [limb n i] is limb [i] (base 2^31), zero past the top. *)

val bits : t -> lo:int -> w:int -> int
(** [bits n ~lo ~w] is bits [lo, lo+w) of [n] as an int, [w <= 31]. *)

(** {2 Packed slices}

    Codecs to and from one fixed-width slice of a {!Limb.a} arena (the
    same Bigarray type). Each touches the limbs once; {!of_slice}
    allocates only its result. *)

type slice = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val to_slice : t -> slice -> int -> int -> unit
(** [to_slice n dst off w] writes [n] zero-padded into [w] limbs; raises
    [Invalid_argument] if it does not fit. *)

val of_slice : slice -> int -> int -> t

val slice_of_bytes : bytes -> int -> int -> slice -> int -> int -> bool
(** [slice_of_bytes b off len dst doff w] decodes the little-endian
    [b.(off .. off+len-1)] into the [w]-limb slice at [dst.(doff)],
    zero-padded. Returns [false] (slice contents unspecified) when the
    value needs more than [w] limbs. The caller bounds [off + len].
    Allocation-free. *)

val add_slice_bytes_le : Buffer.t -> slice -> int -> int -> int -> unit
(** [add_slice_bytes_le buf src off w len] appends the [len]-byte
    little-endian encoding of the [w]-limb slice at [src.(off)]; raises
    as {!to_bytes_le} when it does not fit. *)

val add_into : width:int -> int array -> int array -> int array -> int
(** [add_into ~width dst a b] sets [dst.(0..width-1) <- a + b] and returns
    the carry out (0 or 1). [dst] may alias [a] and/or [b]. *)

val sub_into : width:int -> int array -> int array -> int array -> int
(** [sub_into ~width dst a b] sets [dst.(0..width-1) <- a - b mod 2^(31w)]
    and returns the borrow out (0 or 1). Aliasing allowed as for
    {!add_into}. *)

val mul_into : width:int -> scratch:int array -> int array -> int array -> int array -> unit
(** [mul_into ~width ~scratch dst a b] sets [dst.(0..2*width-1)] to the full
    product of the [width]-limb inputs. [scratch] needs at least [2*width]
    limbs and must not alias [a] or [b]; [dst] may alias anything (including
    [scratch] itself). *)
