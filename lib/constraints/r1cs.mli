(** Zaatar's quadratic-form constraints (paper §4): each constraint j is

      p_A(W) * p_B(W) = p_C(W)

    with degree-1 [p_A], [p_B], [p_C] over (w0 = 1, w1 .. wn). This is the
    form the QAP encoding of Appendix A.1 consumes (later literature calls
    it R1CS). *)

open Fieldlib

type constr = { a : Lincomb.t; b : Lincomb.t; c : Lincomb.t }

type system = {
  field : Fp.ctx;
  num_vars : int; (** n *)
  num_z : int; (** n'; IO variables occupy n'+1 .. n *)
  constraints : constr array;
}

val num_constraints : system -> int
val num_io : system -> int

val check_wellformed : system -> unit
(** Raises [Invalid_argument] on out-of-range variables. *)

val eval_constr : Fp.ctx -> constr -> Fp.el array -> Fp.el
(** The residual [<a,w><b,w> - <c,w>]; zero iff the constraint holds. *)

val satisfied : Fp.ctx -> system -> Fp.el array -> bool
val first_violation : Fp.ctx -> system -> Fp.el array -> int option

val iteri : (int -> constr -> unit) -> system -> unit
(** Iterate over constraints with their row index. *)

val constr_vars : constr -> int list
(** Distinct variables ([>= 1]; the constant [w0] excluded) appearing in a
    row, sorted ascending. *)

val constr_is_trivial : constr -> bool
(** [true] when [A*B - C] is syntactically zero (all-zero row, or zero [A]
    or [B] with zero [C]): the row constrains nothing. *)

