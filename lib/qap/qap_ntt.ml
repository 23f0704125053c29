(* QAP over roots of unity: the modern alternative to the paper's
   arithmetic-progression interpolation points (ablation; see DESIGN.md).

   The paper fixes sigma_j = j and pays O(M(n) log n) subproduct-tree
   algebra for the prover's interpolate-multiply-divide pipeline (§A.3).
   Pinocchio-era systems instead put the constraints at the n-th roots of
   unity of an FFT-friendly field:

     - interpolation is a size-n inverse NTT,
     - the divisor is D(t) = t^n - 1, so the exact division
       H = P_w / D is coefficient folding: h_i = c_{n+i}, with the
       divisibility witness c_i + c_{n+i} = 0,
     - the verifier's barycentric weights collapse to
       A_i(tau) = (tau^n - 1)/n * sum_j a_ij * w^j / (tau - w^j).

   The |C| constraints are padded to n = 2^k with trivial 0 = 0 rows
   (satisfied by every assignment, so soundness is unaffected). This
   module mirrors Qap's prover/verifier entry points; the ablation bench
   compares the two prover pipelines, and the test-suite checks that both
   agree with the constraint semantics. *)

open Fieldlib
open Constr

type t = {
  ctx : Fp.ctx;
  ntt : Polylib.Ntt.ctx;
  sys : R1cs.system;
  nc : int; (* original |C| *)
  n : int; (* padded domain size, a power of two *)
  log_n : int;
  omega : Fp.el; (* primitive n-th root of unity *)
  domain : Fp.el array; (* w^0 .. w^(n-1) *)
}

let next_pow2 n =
  let rec go p l = if p >= n then (p, l) else go (2 * p) (l + 1) in
  go 1 0

let of_r1cs (sys : R1cs.system) =
  let ctx = sys.R1cs.field in
  let ntt = Polylib.Ntt.create ctx in
  let nc = R1cs.num_constraints sys in
  if nc = 0 then invalid_arg "Qap_ntt.of_r1cs: empty system";
  let n, log_n = next_pow2 nc in
  let omega = Polylib.Ntt.root_of_order ntt log_n in
  let domain = Array.make n Fp.one in
  for j = 1 to n - 1 do
    domain.(j) <- Fp.mul ctx domain.(j - 1) omega
  done;
  { ctx; ntt; sys; nc; n; log_n; omega; domain }

(* ------------------------------------------------------------------ *)
(* Prover                                                              *)
(* ------------------------------------------------------------------ *)

let eval_rows q (row : R1cs.constr -> Lincomb.t) (w : Fp.el array) =
  let out = Array.make q.n Fp.zero in
  Array.iteri (fun j k -> out.(j) <- Lincomb.eval q.ctx (row k) w) q.sys.R1cs.constraints;
  out

(* Coefficients (length n) of the degree-<n polynomial interpolating the
   row evaluations over the domain: one inverse NTT. *)
let interpolate q evals = Polylib.Ntt.inverse q.ntt evals

let pw_coeffs q (w : Fp.el array) =
  let ctx = q.ctx in
  let a = Polylib.Poly.of_coeffs (interpolate q (eval_rows q (fun k -> k.R1cs.a) w)) in
  let b = Polylib.Poly.of_coeffs (interpolate q (eval_rows q (fun k -> k.R1cs.b) w)) in
  let c = Polylib.Poly.of_coeffs (interpolate q (eval_rows q (fun k -> k.R1cs.c) w)) in
  let ab = Polylib.Ntt.mul q.ntt a b in
  Polylib.Poly.sub ctx ab c

exception Not_divisible

(* Packed coefficients of P_w = A*B - C on the doubled domain: three
   inverse NTTs for the interpolations, two forwards + pointwise + one
   inverse for the product, everything in one flat arena per vector. The
   result vector has 2n slots; slots [n, 2n) are H, slots [0, n) must be
   the negated H when w satisfies the constraints. *)
let pw_packed q (w : Fp.el array) =
  let ctx = q.ctx in
  let sc = Fp.scratch_for ctx in
  let n = q.n in
  let n2 = 2 * n in
  let interp_packed row =
    let v = Fp.Vec.of_array ctx (eval_rows q row w) in
    Polylib.Ntt.inverse_vec q.ntt v;
    v
  in
  let a = interp_packed (fun k -> k.R1cs.a) in
  let b = interp_packed (fun k -> k.R1cs.b) in
  let c = interp_packed (fun k -> k.R1cs.c) in
  let fa = Fp.Vec.create ctx n2 in
  Fp.Vec.blit a 0 fa 0 n;
  let fb = Fp.Vec.create ctx n2 in
  Fp.Vec.blit b 0 fb 0 n;
  Polylib.Ntt.forward_vec q.ntt fa;
  Polylib.Ntt.forward_vec q.ntt fb;
  for i = 0 to n2 - 1 do
    Fp.Vec.mul ctx sc fa i fa i fb i
  done;
  Polylib.Ntt.inverse_vec q.ntt fa;
  (* P = AB - C; deg C < n touches only the low slots. *)
  for i = 0 to n - 1 do
    Fp.Vec.sub ctx sc fa i fa i c i
  done;
  fa

(* H = P_w / (t^n - 1) by coefficient folding; raises if the division is
   not exact (Claim A.1 analog: w does not satisfy the constraints). *)
let prover_h q (w : Fp.el array) : Fp.el array =
  Zobs.Span.with_ ~name:"qap_ntt.prover_h" (fun () ->
      let ctx = q.ctx in
      let sc = Fp.scratch_for ctx in
      let n = q.n in
      let p = pw_packed q w in
      (* exactness: p_i + p_{n+i} = 0 for all i < n, checked in place *)
      for i = 0 to n - 1 do
        Fp.Vec.add ctx sc p i p i p (n + i);
        if not (Fp.Vec.is_zero p i) then raise Not_divisible
      done;
      Array.init n (fun i -> Fp.Vec.get p (n + i)))

let prover_h_forced q (w : Fp.el array) : Fp.el array =
  Zobs.Span.with_ ~name:"qap_ntt.prover_h_forced" (fun () ->
      let p = pw_packed q w in
      Array.init q.n (fun i -> Fp.Vec.get p (q.n + i)))

(* Differential reference for the packed fast path: subproduct-tree
   interpolation over the same roots-of-unity domain, boxed Karatsuba
   product, Newton division by t^n - 1. Bit-identical H by construction;
   the test-suite and the bench's ntt-vs-lagrange experiment compare the
   two. *)
let prover_h_reference q (w : Fp.el array) : Fp.el array =
  let ctx = q.ctx in
  let interp evals = Polylib.Subproduct.interpolate_points ctx q.domain evals in
  let a = interp (eval_rows q (fun k -> k.R1cs.a) w) in
  let b = interp (eval_rows q (fun k -> k.R1cs.b) w) in
  let c = interp (eval_rows q (fun k -> k.R1cs.c) w) in
  let p = Polylib.Poly.(sub ctx (mul ctx a b) c) in
  let d = Polylib.Poly.(sub ctx (monomial Fp.one q.n) one) in
  let h, r = Polylib.Poly.div_rem_fast ctx p d in
  if not (Polylib.Poly.is_zero r) then raise Not_divisible;
  let out = Array.make q.n Fp.zero in
  Array.blit (Polylib.Poly.coeffs h) 0 out 0 (Polylib.Poly.degree h + 1);
  out

(* ------------------------------------------------------------------ *)
(* Verifier                                                            *)
(* ------------------------------------------------------------------ *)

type queries = {
  tau : Fp.el;
  d_tau : Fp.el; (* tau^n - 1 *)
  a_tau : Fp.el array; (* indexed by variable 0..num_vars *)
  b_tau : Fp.el array;
  c_tau : Fp.el array;
  qd : Fp.el array; (* 1, tau, ..., tau^(n-1) *)
}

exception Tau_collision

(* Everything between tau and the returned vectors runs on packed slots
   (the inverse differences, weights and accumulators), with the op
   counts of the boxed formulas: 3n + 2n + terms + (n - 1) fp.mul and two
   fp.inv. Only the four result vectors are boxed, once, at the end. *)
let queries q ~tau : queries =
  let ctx = q.ctx in
  let sc = Fp.scratch_for ctx in
  let n = q.n and nvars = q.sys.R1cs.num_vars in
  let dom = Fp.Vec.of_array ctx q.domain in
  (* scalar slots: 0 = tau, 1 = the weight scale, 2 = a coefficient,
     3 = a product *)
  let s = Fp.Vec.create ctx 4 in
  Fp.Vec.set s 0 tau;
  let inv_diffs = Fp.Vec.create ctx n in
  for j = 0 to n - 1 do
    Fp.Vec.sub ctx sc inv_diffs j s 0 dom j;
    if Fp.Vec.is_zero inv_diffs j then raise Tau_collision
  done;
  Fp.Vec.inv_all ctx sc inv_diffs;
  let tau_n = Fp.pow_int ctx tau n in
  let d_tau = Fp.sub ctx tau_n Fp.one in
  let n_inv = Fp.inv ctx (Fp.of_int ctx n) in
  Fp.Vec.set s 1 (Fp.mul ctx d_tau n_inv);
  (* weight_j = (tau^n - 1)/n * w^j / (tau - w^j), in place of 1/(tau - w^j) *)
  let weight = inv_diffs in
  for j = 0 to n - 1 do
    Fp.Vec.mul ctx sc weight j dom j weight j;
    Fp.Vec.mul ctx sc weight j s 1 weight j
  done;
  let a_tau = Fp.Vec.create ctx (nvars + 1) in
  let b_tau = Fp.Vec.create ctx (nvars + 1) in
  let c_tau = Fp.Vec.create ctx (nvars + 1) in
  Array.iteri
    (fun j (k : R1cs.constr) ->
      let accumulate dst lc =
        Lincomb.iter
          (fun i coef ->
            Fp.Vec.set s 2 coef;
            Fp.Vec.mul ctx sc s 3 s 2 weight j;
            Fp.Vec.add ctx sc dst i dst i s 3)
          lc
      in
      accumulate a_tau k.R1cs.a;
      accumulate b_tau k.R1cs.b;
      accumulate c_tau k.R1cs.c)
    q.sys.R1cs.constraints;
  let qd = Fp.Vec.create ctx n in
  Fp.Vec.set qd 0 Fp.one;
  for i = 1 to n - 1 do
    Fp.Vec.mul ctx sc qd i qd (i - 1) s 0
  done;
  {
    tau;
    d_tau;
    a_tau = Fp.Vec.to_array a_tau;
    b_tau = Fp.Vec.to_array b_tau;
    c_tau = Fp.Vec.to_array c_tau;
    qd = Fp.Vec.to_array qd;
  }

let z_slice q (evals : Fp.el array) = Array.sub evals 1 q.sys.R1cs.num_z

let io_contribution q (evals : Fp.el array) (io : Fp.el array) =
  let ctx = q.ctx and sys = q.sys in
  let nio = R1cs.num_io sys in
  if Array.length io <> nio then invalid_arg "Qap_ntt.io_contribution: bad io length";
  let acc = ref evals.(0) in
  for i = 0 to nio - 1 do
    acc := Fp.add ctx !acc (Fp.mul ctx io.(i) evals.(sys.R1cs.num_z + 1 + i))
  done;
  !acc
