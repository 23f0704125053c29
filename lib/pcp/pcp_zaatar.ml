(* The QAP-based linear PCP of Figure 10.

   A correct proof oracle encodes (z, h) where z satisfies C(X=x, Y=y) and
   h holds the coefficients of H = P_w / D. Per repetition the verifier
   runs rho_lin linearity-test iterations against each oracle, then a
   divisibility correction test whose queries q_a, q_b, q_c, q_d are
   blinded by self-correction (q1 = qa + q5, ..., q4 = qd + q8).

   Queries are generated as explicit vectors so that the argument layer
   (lib/argument) can push the very same vectors through the commitment
   protocol; [decide] then consumes the prover's responses. *)

open Fieldlib
open Constr

type params = { rho : int; rho_lin : int }

(* §A.2: delta = 0.0294, rho_lin = 20, kappa = 0.177, rho = 8 gives
   soundness error kappa^rho < 9.6e-7. *)
let paper_params = { rho = 8; rho_lin = 20 }

(* Cheap parameters for tests that only exercise completeness or want a
   single-repetition rejection probability. *)
let test_params = { rho = 1; rho_lin = 2 }

let num_queries p = p.rho * ((6 * p.rho_lin) + 4)

(* One repetition's queries. Linearity triples index into the query arrays;
   the divisibility queries remember their blinds. *)
type repetition = {
  lin_z : (int * int * int) array; (* (i5, i6, i7): check pi(q5)+pi(q6)=pi(q7) *)
  lin_h : (int * int * int) array;
  iq1 : int;
  iq2 : int;
  iq3 : int; (* into z queries; blinded by q5 = first lin_z component *)
  iq4 : int; (* into h queries; blinded by q8 = first lin_h component *)
  iblind_z : int; (* q5 *)
  iblind_h : int; (* q8 *)
  qap_q : Qapb.queries;
}

(* One packed vector per query (DESIGN.md §18): generated, combined into
   the decommit vector, encoded and answered slot by slot. *)
type queries = {
  z_queries : Fp.Vec.t array;
  h_queries : Fp.Vec.t array;
  reps : repetition array;
}

(* Commit/decommit-side query volumes: what the batch amortizes (§2.2). *)
let c_queries_z = Zobs.Counter.make "pcp.queries_z"
let c_queries_h = Zobs.Counter.make "pcp.queries_h"

let fresh_tau ctx qap prg =
  let rec go () =
    let tau = Chacha.Prg.field ctx prg in
    match Qapb.queries qap ~tau with
    | q -> q
    | exception Qapb.Tau_collision -> go ()
  in
  go ()

let gen_queries ?(params = paper_params) (qap : Qapb.t) (prg : Chacha.Prg.t) : queries =
  Zobs.Span.with_ ~name:"pcp.gen_queries"
    ~attrs:[ ("rho", string_of_int params.rho); ("rho_lin", string_of_int params.rho_lin) ]
  @@ fun () ->
  let ctx = Qapb.ctx qap in
  let sc = Fp.scratch_for ctx in
  let n' = (Qapb.sys qap).R1cs.num_z in
  let hl = Qapb.h_len qap in
  (* Per repetition: 3 rho_lin linearity queries per oracle, plus the
     three blinded z queries and the one blinded h query. *)
  let empty = Fp.Vec.create ctx 0 in
  let zq = Array.make (params.rho * ((3 * params.rho_lin) + 3)) empty in
  let hq = Array.make (params.rho * ((3 * params.rho_lin) + 1)) empty in
  let nz = ref 0 and nh = ref 0 in
  let push_z q =
    zq.(!nz) <- q;
    incr nz;
    !nz - 1
  in
  let push_h q =
    hq.(!nh) <- q;
    incr nh;
    !nh - 1
  in
  let blinded (e : Fp.el array) b = Fp.Vec.sum ctx sc (Fp.Vec.of_array ctx e) b in
  let repetition () =
    let lin_triple push len =
      let q5 = Chacha.Prg.field_vec ctx prg len in
      let q6 = Chacha.Prg.field_vec ctx prg len in
      let i5 = push q5 in
      let i6 = push q6 in
      let i7 = push (Fp.Vec.sum ctx sc q5 q6) in
      (i5, i6, i7)
    in
    let lin_z = Array.init params.rho_lin (fun _ -> lin_triple push_z n') in
    let lin_h = Array.init params.rho_lin (fun _ -> lin_triple push_h hl) in
    let iblind_z, _, _ = lin_z.(0) in
    let iblind_h, _, _ = lin_h.(0) in
    let q5 = zq.(iblind_z) and q8 = hq.(iblind_h) in
    let qap_q = fresh_tau ctx qap prg in
    let iq1 = push_z (blinded (Qapb.z_slice qap qap_q.Qapb.a_tau) q5) in
    let iq2 = push_z (blinded (Qapb.z_slice qap qap_q.Qapb.b_tau) q5) in
    let iq3 = push_z (blinded (Qapb.z_slice qap qap_q.Qapb.c_tau) q5) in
    let iq4 = push_h (blinded qap_q.Qapb.qd q8) in
    { lin_z; lin_h; iq1; iq2; iq3; iq4; iblind_z; iblind_h; qap_q }
  in
  let reps = Array.init params.rho (fun _ -> repetition ()) in
  assert (!nz = Array.length zq && !nh = Array.length hq);
  let q = { z_queries = zq; h_queries = hq; reps } in
  Zobs.Counter.add c_queries_z (Array.length q.z_queries);
  Zobs.Counter.add c_queries_h (Array.length q.h_queries);
  q

(* Responses: one field element per query, in query order. *)
type responses = { z_resp : Fp.el array; h_resp : Fp.el array }

let answer (oracle : Oracle.t) (q : queries) : responses =
  Zobs.Span.with_ ~name:"pcp.answer" (fun () ->
      {
        z_resp = Array.map oracle.Oracle.query_z q.z_queries;
        h_resp = Array.map oracle.Oracle.query_h q.h_queries;
      })

type verdict = Accept | Reject_linearity of int | Reject_divisibility of int

(* [io] holds the bound input/output values (variables n'+1 .. n in
   order). *)
let decide (qap : Qapb.t) (q : queries) (r : responses) ~(io : Fp.el array) : verdict =
  Zobs.Span.with_ ~name:"pcp.decide" @@ fun () ->
  let ctx = Qapb.ctx qap in
  let rz = r.z_resp and rh = r.h_resp in
  let rec check_reps k =
    if k >= Array.length q.reps then Accept
    else begin
      let rep = q.reps.(k) in
      let lin_ok =
        Array.for_all
          (fun (i5, i6, i7) -> Fp.equal (Fp.add ctx rz.(i5) rz.(i6)) rz.(i7))
          rep.lin_z
        && Array.for_all
             (fun (i5, i6, i7) -> Fp.equal (Fp.add ctx rh.(i5) rh.(i6)) rh.(i7))
             rep.lin_h
      in
      if not lin_ok then Reject_linearity k
      else begin
        let qq = rep.qap_q in
        let la = Qapb.io_contribution qap qq.Qapb.a_tau io in
        let lb = Qapb.io_contribution qap qq.Qapb.b_tau io in
        let lc = Qapb.io_contribution qap qq.Qapb.c_tau io in
        let a_tau = Fp.add ctx (Fp.sub ctx rz.(rep.iq1) rz.(rep.iblind_z)) la in
        let b_tau = Fp.add ctx (Fp.sub ctx rz.(rep.iq2) rz.(rep.iblind_z)) lb in
        let c_tau = Fp.add ctx (Fp.sub ctx rz.(rep.iq3) rz.(rep.iblind_z)) lc in
        let h_tau = Fp.sub ctx rh.(rep.iq4) rh.(rep.iblind_h) in
        let lhs = Fp.mul ctx qq.Qapb.d_tau h_tau in
        let rhs = Fp.sub ctx (Fp.mul ctx a_tau b_tau) c_tau in
        if Fp.equal lhs rhs then check_reps (k + 1) else Reject_divisibility k
      end
    end
  in
  check_reps 0

let accepts v = match v with Accept -> true | Reject_linearity _ | Reject_divisibility _ -> false

(* Convenience end-to-end run against an oracle. *)
let run ?(params = paper_params) qap prg oracle ~io =
  let q = gen_queries ~params qap prg in
  let r = answer oracle q in
  decide qap q r ~io
