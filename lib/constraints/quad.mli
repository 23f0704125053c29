(** Ginger's constraint formalism (paper §2.2): degree-2 polynomials over a
    finite field, each set to zero. A system additionally distinguishes the
    input/output variables (the X, Y of §2.1) from the unbound variables Z.

    Monomial keys [(i, j)] are normalized with [i <= j] and [i, j >= 1]:
    the constant-one variable never appears inside a quadratic monomial. *)

open Fieldlib

module MMap : Map.S with type key = int * int

type qpoly = {
  lin : Lincomb.t; (** linear part, constant included via variable 0 *)
  quad : Fp.el MMap.t; (** degree-2 monomials *)
}

type system = {
  field : Fp.ctx;
  num_vars : int; (** n: total variables, excluding the constant w0 *)
  num_z : int; (** n': unbound variables; IO variables are n'+1 .. n *)
  constraints : qpoly array;
}

val qpoly_zero : qpoly
val qpoly_add : Fp.ctx -> qpoly -> qpoly -> qpoly
val qpoly_scale : Fp.ctx -> Fp.el -> qpoly -> qpoly
val qpoly_sub : Fp.ctx -> qpoly -> qpoly -> qpoly
val qpoly_of_lincomb : Lincomb.t -> qpoly
val qpoly_is_linear : qpoly -> bool

val quad_add_term : Fp.ctx -> Fp.el MMap.t -> int * int -> Fp.el -> Fp.el MMap.t

val qpoly_mul_lin : Fp.ctx -> Lincomb.t -> Lincomb.t -> qpoly
(** Product of two linear combinations, expanded to monomials. *)

val qpoly_eval : Fp.ctx -> qpoly -> Fp.el array -> Fp.el
val qpoly_map_vars : (int -> int) -> qpoly -> qpoly
val qpoly_equal : qpoly -> qpoly -> bool

val satisfied : Fp.ctx -> system -> Fp.el array -> bool
(** Does the assignment (slot 0 = 1) satisfy every constraint? *)

val first_violation : Fp.ctx -> system -> Fp.el array -> int option

val bind_io : Fp.ctx -> system -> Fp.el array -> system
(** [bind_io ctx sys io] substitutes concrete values for the IO variables,
    producing the system C(X=x, Y=y) over Z only (§2.1). *)

val num_constraints : system -> int

val additive_terms : system -> int
(** K: total number of additive terms across all constraints (Figure 3). *)

val distinct_quadratic_terms : system -> int
(** K2: distinct degree-2 monomials appearing anywhere in the system;
    the pivot of the §4 cost comparison. *)

val distinct_quadratic_monomials : system -> (int * int) list
