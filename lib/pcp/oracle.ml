(* The linear proof oracle pi = (pi_z, pi_h) (Zaatar, §3/§A.1) or
   pi = (pi_1, pi_2) (Ginger, §2.2): a pair of linear functions determined
   by vectors, queried with vectors of matching length.

   In the full argument system the verifier never talks to an oracle
   directly — the commitment protocol (lib/commit) forces the prover to
   simulate one. This module is the abstraction both layers share, plus the
   dishonest-oracle constructors used by the soundness test suite. *)

open Fieldlib

type t = {
  z_len : int;
  h_len : int;
  query_z : Fp.Vec.t -> Fp.el;
  query_h : Fp.Vec.t -> Fp.el;
}

let check_len name expected (q : Fp.Vec.t) =
  if Fp.Vec.length q <> expected then
    invalid_arg (Printf.sprintf "Oracle.%s: query length %d, expected %d" name (Fp.Vec.length q) expected)

(* The honest oracle for a proof vector (u_z, u_h): packed once, then
   each query is one packed dot. The scratch is looked up per query, not
   captured, because answers may be spread over domains. *)
let honest ctx (u_z : Fp.el array) (u_h : Fp.el array) =
  let vz = Fp.Vec.of_array ctx u_z and vh = Fp.Vec.of_array ctx u_h in
  {
    z_len = Array.length u_z;
    h_len = Array.length u_h;
    query_z =
      (fun q ->
        check_len "query_z" (Array.length u_z) q;
        Fp.Vec.dot ctx (Fp.scratch_for ctx) q vz);
    query_h =
      (fun q ->
        check_len "query_h" (Array.length u_h) q;
        Fp.Vec.dot ctx (Fp.scratch_for ctx) q vh);
  }

(* A linear oracle whose z part encodes the wrong vector: commits to
   (z', h) — caught by the divisibility test. *)
let wrong_vector ctx (u_z : Fp.el array) (u_h : Fp.el array) = honest ctx u_z u_h

(* A non-linear oracle: behaves like [inner] except that it adds a
   query-dependent perturbation. Caught by the linearity tests. *)
let nonlinear ctx (inner : t) =
  let poison q =
    (* A deterministic non-linear function of the query: sum of squares. *)
    let acc = ref Fp.zero in
    for i = 0 to Fp.Vec.length q - 1 do
      acc := Fp.add ctx !acc (Fp.sqr ctx (Fp.Vec.get q i))
    done;
    !acc
  in
  {
    inner with
    query_z = (fun q -> Fp.add ctx (inner.query_z q) (poison q));
  }

(* An oracle that answers a fixed fraction of queries with garbage. *)
let flaky ctx (inner : t) prg ~flake_prob_percent =
  let maybe_garble v =
    if Chacha.Prg.int_below prg 100 < flake_prob_percent then
      Fp.add ctx v (Chacha.Prg.field_nonzero ctx prg)
    else v
  in
  {
    inner with
    query_z = (fun q -> maybe_garble (inner.query_z q));
    query_h = (fun q -> maybe_garble (inner.query_h q));
  }
