(** The baseline linear PCP of Ginger (§2.2), following Arora et al.: the
    proof vector is u = (z, z (x) z), so |u| = |Z| + |Z|^2 — the quadratic
    blow-up Zaatar removes.

    The verifier draws v in F^{|C|}, forms Q(v, Z) = sum_j v_j g_j(Z) over
    the *bound* constraints of C(X=x, Y=y), writes it as
    <gamma2, Z(x)Z> + <gamma1, Z> + gamma0, and checks
    pi2(gamma2) + pi1(gamma1) + gamma0 = 0 alongside linearity tests and
    the quadratic-correction test pi2(a (x) b) = pi1(a) pi1(b). All
    evaluation queries are self-corrected against blinds.

    This is Figure 3's left column and the baseline of the benches; it is
    run end-to-end only at small scales (the paper itself only estimates it
    at evaluation sizes). *)

open Fieldlib
open Constr

type params = { rho : int; rho_lin : int }

val paper_params : params
val test_params : params

val proof_vector : Fp.ctx -> Fp.el array -> Fp.el array * Fp.el array
(** [(z, z (x) z)], the outer product stored row-major. *)

val outer : Fp.ctx -> Fp.el array -> Fp.el array -> Fp.el array

val circuit_coeffs : Fp.ctx -> Quad.system -> Fp.el array -> Fp.el * Fp.el array * Fp.el array
(** [(gamma0, gamma1, gamma2)] of Q(v, Z) for a bound system. *)

type repetition = {
  lin_1 : (int * int * int) array;
  lin_2 : (int * int * int) array;
  iqa : int;
  iqb : int;
  iqab : int;
  iblind1 : int;
  iblind1' : int;
  iblind2 : int;
  ig1 : int;
  ig2 : int;
  iblind1c : int;
  iblind2c : int;
  gamma0 : Fp.el;
}

type queries = {
  q1 : Fp.Vec.t array; (** to pi1, length |Z| each, packed *)
  q2 : Fp.Vec.t array; (** to pi2, length |Z|^2 each *)
  reps : repetition array;
}

val gen_queries : ?params:params -> Fp.ctx -> Quad.system -> Chacha.Prg.t -> queries
(** The system must be bound (no IO variables); requires rho_lin >= 2 (two
    independent blinds). *)

type responses = { r1 : Fp.el array; r2 : Fp.el array }

val answer : Oracle.t -> queries -> responses
(** The oracle's [query_z]/[query_h] serve as pi1/pi2. *)

type verdict = Accept | Reject_linearity of int | Reject_quad_correction of int | Reject_circuit of int

val decide : Fp.ctx -> queries -> responses -> verdict
val accepts : verdict -> bool

val run : ?params:params -> Fp.ctx -> Quad.system -> Chacha.Prg.t -> Oracle.t -> verdict
