(* The baseline linear PCP of Ginger (§2.2), built on Arora et al.'s
   construction: the proof vector is u = (z, z (x) z), |u| = |Z| + |Z|^2.

   The verifier draws v in F^|C| and forms the degree-2 polynomial
   Q(v, Z) = sum_j v_j g_j(Z) over the *bound* constraints g_j of
   C(X=x, Y=y); with Q(v, Z) = <gamma2, Z(x)Z> + <gamma1, Z> + gamma0 it
   checks pi2(gamma2) + pi1(gamma1) + gamma0 = 0, alongside linearity tests
   and the quadratic correction test pi2(a (x) b) = pi1(a) pi1(b). All
   evaluation queries are self-corrected against fresh blinds.

   This module exists as the paper's baseline: Figure 3's left column, the
   quadratic proof-vector size, and the small-scale end-to-end comparison in
   the benches. *)

open Fieldlib
open Constr

type params = { rho : int; rho_lin : int }

let paper_params = { rho = 8; rho_lin = 20 }
let test_params = { rho = 1; rho_lin = 2 }

(* Proof vector for an assignment z over the bound system: (z, z(x)z)
   row-major. *)
let proof_vector ctx (z : Fp.el array) =
  let n = Array.length z in
  let zz = Array.make (n * n) Fp.zero in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      zz.((i * n) + j) <- Fp.mul ctx z.(i) z.(j)
    done
  done;
  (z, zz)

let outer ctx (a : Fp.el array) (b : Fp.el array) =
  let n = Array.length a in
  let r = Array.make (n * n) Fp.zero in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      r.((i * n) + j) <- Fp.mul ctx a.(i) b.(j)
    done
  done;
  r

(* Circuit-query coefficients of Q(v, Z) for a bound system. *)
let circuit_coeffs ctx (bound : Quad.system) (v : Fp.el array) =
  let n = bound.Quad.num_z in
  let gamma0 = ref Fp.zero in
  let gamma1 = Array.make n Fp.zero in
  let gamma2 = Array.make (n * n) Fp.zero in
  Array.iteri
    (fun j (q : Quad.qpoly) ->
      let vj = v.(j) in
      List.iter
        (fun (var, c) ->
          let cv = Fp.mul ctx vj c in
          if var = 0 then gamma0 := Fp.add ctx !gamma0 cv
          else gamma1.(var - 1) <- Fp.add ctx gamma1.(var - 1) cv)
        (Lincomb.terms q.Quad.lin);
      Quad.MMap.iter
        (fun (a, b) c ->
          let cell = ((a - 1) * n) + (b - 1) in
          gamma2.(cell) <- Fp.add ctx gamma2.(cell) (Fp.mul ctx v.(j) c))
        q.Quad.quad)
    bound.Quad.constraints;
  (!gamma0, gamma1, gamma2)

type repetition = {
  lin_1 : (int * int * int) array; (* indices into pi1 queries *)
  lin_2 : (int * int * int) array; (* indices into pi2 queries *)
  (* quadratic correction: ((ia, ib), iab) with blinds *)
  iqa : int;
  iqb : int;
  iqab : int;
  iblind1 : int; (* q5 of lin_1.(0) *)
  iblind1' : int; (* q6 of lin_1.(0), used to blind b *)
  iblind2 : int; (* q5 of lin_2.(0) *)
  (* circuit test *)
  ig1 : int;
  ig2 : int;
  iblind1c : int; (* q5 of lin_1.(1) *)
  iblind2c : int; (* q5 of lin_2.(1) *)
  gamma0 : Fp.el;
}

type queries = {
  q1 : Fp.Vec.t array; (* to pi1, length |Z| each *)
  q2 : Fp.Vec.t array; (* to pi2, length |Z|^2 each *)
  reps : repetition array;
}

let c_queries_1 = Zobs.Counter.make "pcp_ginger.queries_1"
let c_queries_2 = Zobs.Counter.make "pcp_ginger.queries_2"

let gen_queries ?(params = paper_params) ctx (bound : Quad.system) (prg : Chacha.Prg.t) : queries =
  Zobs.Span.with_ ~name:"pcp_ginger.gen_queries" @@ fun () ->
  if params.rho_lin < 2 then invalid_arg "Pcp_ginger: rho_lin must be >= 2";
  let n = bound.Quad.num_z in
  let nc = Quad.num_constraints bound in
  let q1 = ref [] and q2 = ref [] and n1 = ref 0 and n2 = ref 0 in
  let push1 q = q1 := q :: !q1; incr n1; !n1 - 1 in
  let push2 q = q2 := q :: !q2; incr n2; !n2 - 1 in
  let get1 i = List.nth !q1 (!n1 - 1 - i) in
  let get2 i = List.nth !q2 (!n2 - 1 - i) in
  let sc = Fp.scratch_for ctx in
  let blinded (e : Fp.el array) b = Fp.Vec.sum ctx sc (Fp.Vec.of_array ctx e) b in
  let repetition () =
    let triple push len =
      let a = Chacha.Prg.field_vec ctx prg len in
      let b = Chacha.Prg.field_vec ctx prg len in
      let c = Fp.Vec.sum ctx sc a b in
      let ia = push a in
      let ib = push b in
      let ic = push c in
      (ia, ib, ic)
    in
    let lin_1 = Array.init params.rho_lin (fun _ -> triple push1 n) in
    let lin_2 = Array.init params.rho_lin (fun _ -> triple push2 (n * n)) in
    let iblind1, iblind1', _ = lin_1.(0) in
    let iblind2, _, _ = lin_2.(0) in
    let iblind1c, _, _ = lin_1.(1) in
    let iblind2c, _, _ = lin_2.(1) in
    (* quadratic correction *)
    let a = Chacha.Prg.field_array ctx prg n in
    let b = Chacha.Prg.field_array ctx prg n in
    let iqa = push1 (blinded a (get1 iblind1)) in
    let iqb = push1 (blinded b (get1 iblind1')) in
    let iqab = push2 (blinded (outer ctx a b) (get2 iblind2)) in
    (* circuit test *)
    let v = Chacha.Prg.field_array ctx prg nc in
    let gamma0, gamma1, gamma2 = circuit_coeffs ctx bound v in
    let ig1 = push1 (blinded gamma1 (get1 iblind1c)) in
    let ig2 = push2 (blinded gamma2 (get2 iblind2c)) in
    { lin_1; lin_2; iqa; iqb; iqab; iblind1; iblind1'; iblind2; ig1; ig2; iblind1c; iblind2c; gamma0 }
  in
  let reps = Array.init params.rho (fun _ -> repetition ()) in
  let q = { q1 = Array.of_list (List.rev !q1); q2 = Array.of_list (List.rev !q2); reps } in
  Zobs.Counter.add c_queries_1 (Array.length q.q1);
  Zobs.Counter.add c_queries_2 (Array.length q.q2);
  q

type responses = { r1 : Fp.el array; r2 : Fp.el array }

let answer (oracle : Oracle.t) (q : queries) : responses =
  Zobs.Span.with_ ~name:"pcp_ginger.answer" (fun () ->
      { r1 = Array.map oracle.Oracle.query_z q.q1; r2 = Array.map oracle.Oracle.query_h q.q2 })

type verdict = Accept | Reject_linearity of int | Reject_quad_correction of int | Reject_circuit of int

let decide ctx (q : queries) (r : responses) : verdict =
  let r1 = r.r1 and r2 = r.r2 in
  let rec go k =
    if k >= Array.length q.reps then Accept
    else begin
      let rep = q.reps.(k) in
      let lin_ok =
        Array.for_all (fun (i5, i6, i7) -> Fp.equal (Fp.add ctx r1.(i5) r1.(i6)) r1.(i7)) rep.lin_1
        && Array.for_all (fun (i5, i6, i7) -> Fp.equal (Fp.add ctx r2.(i5) r2.(i6)) r2.(i7)) rep.lin_2
      in
      if not lin_ok then Reject_linearity k
      else begin
        let p1a = Fp.sub ctx r1.(rep.iqa) r1.(rep.iblind1) in
        let p1b = Fp.sub ctx r1.(rep.iqb) r1.(rep.iblind1') in
        let p2ab = Fp.sub ctx r2.(rep.iqab) r2.(rep.iblind2) in
        if not (Fp.equal (Fp.mul ctx p1a p1b) p2ab) then Reject_quad_correction k
        else begin
          let g1 = Fp.sub ctx r1.(rep.ig1) r1.(rep.iblind1c) in
          let g2 = Fp.sub ctx r2.(rep.ig2) r2.(rep.iblind2c) in
          let total = Fp.add ctx (Fp.add ctx g2 g1) rep.gamma0 in
          if Fp.is_zero total then go (k + 1) else Reject_circuit k
        end
      end
    end
  in
  go 0

let accepts = function Accept -> true | _ -> false

let run ?(params = paper_params) ctx bound prg oracle =
  let q = gen_queries ~params ctx bound prg in
  let r = answer oracle q in
  decide ctx q r
