(** The Ginger-to-Zaatar constraint transformation of §4: every *distinct*
    degree-2 monomial z_i z_j is replaced by a fresh variable m_ij defined
    by a new quadratic-form constraint z_i * z_j = m_ij, making every
    original constraint linear. Consequently

      |Z_zaatar| = |Z_ginger| + K2      |C_zaatar| = |C_ginger| + K2

    with K2 the number of distinct degree-2 monomials. Fresh variables are
    unbound, so they extend the Z region; original IO variables shift up by
    K2. *)

open Fieldlib

type t = {
  r1cs : R1cs.system;
  monomials : (int * int) array; (** original-index monomials, in product-variable order *)
  k2 : int;
  var_map : int -> int; (** original variable index -> new index *)
}

val apply : Quad.system -> t

val product_rows : t -> (int * (int * int)) list
(** [(row, (i, j))] for every product-definition row [z_i * z_j = m]:
    the Zlint backend's hook for auditing the K2 dedup accounting. *)

val extend_assignment : t -> Quad.system -> Fp.el array -> Fp.el array
(** Lift a satisfying assignment of the Ginger system to the Zaatar system
    by computing the product-variable values; preserves satisfiability in
    both directions. *)
