(** The QAP encoding of a quadratic-form constraint set (Appendix A.1).

    Fix distinguished points sigma_0 = 0, sigma_j = j (the arithmetic
    progression of §A.3). Define by interpolation degree-|C| polynomials
    with A_i(sigma_j) = a_ij, A_i(0) = 0 (likewise B, C), the divisor
    D(t) = prod_j (t - sigma_j), and

      P(t, W) = (sum_i W_i A_i(t)) (sum_i W_i B_i(t)) - sum_i W_i C_i(t).

    Claim A.1: D(t) divides P_w(t) iff the z part of w satisfies
    C(X=x, Y=y). The prover computes H = P_w / D (interpolate, multiply,
    divide — §A.3); the verifier evaluates every A_i, B_i, C_i and D at a
    random tau through barycentric Lagrange weights. Neither party ever
    materializes P(t, W). *)

open Fieldlib
open Constr

type t = {
  ctx : Fp.ctx;
  sys : R1cs.system;
  nc : int; (** |C| *)
  divisor : Polylib.Poly.t Lazy.t; (** prover side only *)
  interp : Polylib.Subproduct.interpolator Lazy.t; (** prover side only *)
}

exception Tau_collision
(** The random tau hit one of the sigma_j (probability (|C|+1)/|F|); the
    caller resamples. *)

val of_r1cs : R1cs.system -> t
(** Raises [Invalid_argument] if the system is empty or the field has
    fewer than |C|+1 elements (the sigma_j must be distinct). *)

val pw_poly : t -> Fp.el array -> Polylib.Poly.t
(** P_w(t) = A(t)B(t) - C(t). *)

val prover_h : t -> Fp.el array -> Fp.el array
(** Coefficients of H = P_w / D, padded to length |C|+1. Raises [Failure]
    if [w] does not satisfy the constraints (non-zero remainder). *)

val prover_h_forced : t -> Fp.el array -> Fp.el array
(** What a cheating prover would do with an unsatisfying assignment:
    divide and silently drop the remainder. Used by the adversarial tests
    and the soundness bench. *)

type queries = {
  tau : Fp.el;
  d_tau : Fp.el;
  a_tau : Fp.el array;
      (** evaluations A_i(tau) indexed by variable 0..n; the slice 1..num_z
          is the oracle query q_a, index 0 and the IO indices feed L_a *)
  b_tau : Fp.el array;
  c_tau : Fp.el array;
  qd : Fp.el array; (** (1, tau, ..., tau^{|C|}) *)
}

val queries : t -> tau:Fp.el -> queries
(** Barycentric evaluation of all A_i, B_i, C_i and D at tau, per §A.3:
    factorial-based weights (the two-operation recurrence), batch-inverted
    (tau - sigma_j). Raises {!Tau_collision} if tau lies on a sigma_j. *)

val z_slice : t -> Fp.el array -> Fp.el array
(** The Z-region of an evaluation vector: what is sent to the pi_z
    oracle. *)

val io_contribution : t -> Fp.el array -> Fp.el array -> Fp.el
(** [io_contribution qap evals io] is A'(tau) = A_0(tau) + sum_{i in IO}
    w_i A_i(tau) — three field operations per input/output element
    (§A.3). *)

val eval_rows : Fp.ctx -> (R1cs.constr -> Lincomb.t) -> R1cs.system -> int -> Fp.el array -> Fp.el array
(** Exposed for the test-suite. *)
