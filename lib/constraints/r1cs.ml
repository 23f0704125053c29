(* Zaatar's quadratic-form constraints (§4): each constraint j is
   p_A(W) * p_B(W) = p_C(W) with degree-1 p_A, p_B, p_C. This is the shape
   the QAP encoding of Appendix A.1 consumes (and what later literature
   calls R1CS). Rows are sparse linear combinations over (w0=1, w1..wn). *)

open Fieldlib

type constr = { a : Lincomb.t; b : Lincomb.t; c : Lincomb.t }

type system = {
  field : Fp.ctx;
  num_vars : int; (* n *)
  num_z : int; (* n'; IO variables occupy n'+1 .. n *)
  constraints : constr array;
}

let num_constraints sys = Array.length sys.constraints
let num_io sys = sys.num_vars - sys.num_z

let check_wellformed sys =
  Array.iter
    (fun { a; b; c } ->
      List.iter
        (fun lc ->
          if Lincomb.max_var lc > sys.num_vars then invalid_arg "R1cs: variable out of range")
        [ a; b; c ])
    sys.constraints;
  if sys.num_z > sys.num_vars then invalid_arg "R1cs: num_z > num_vars"

let eval_constr ctx k (w : Fp.el array) =
  let va = Lincomb.eval ctx k.a w in
  let vb = Lincomb.eval ctx k.b w in
  let vc = Lincomb.eval ctx k.c w in
  Fp.sub ctx (Fp.mul ctx va vb) vc

let satisfied ctx sys (w : Fp.el array) =
  if Array.length w <> sys.num_vars + 1 then invalid_arg "R1cs.satisfied: bad assignment length";
  if not (Fp.equal w.(0) Fp.one) then invalid_arg "R1cs.satisfied: w0 must be 1";
  Array.for_all (fun k -> Fp.is_zero (eval_constr ctx k w)) sys.constraints

let first_violation ctx sys (w : Fp.el array) =
  let n = Array.length sys.constraints in
  let rec go j =
    if j >= n then None
    else if Fp.is_zero (eval_constr ctx sys.constraints.(j) w) then go (j + 1)
    else Some j
  in
  go 0

let iteri f sys = Array.iteri f sys.constraints

(* Distinct variables (>= 1; the constant w0 excluded) of one constraint,
   sorted ascending — the row's support in the constraint dependency graph
   that Zlint's backend analyses walk. *)
let constr_vars { a; b; c } =
  List.concat_map (fun lc -> List.filter_map (fun (v, _) -> if v > 0 then Some v else None) (Lincomb.terms lc)) [ a; b; c ]
  |> List.sort_uniq compare

(* A row that every assignment satisfies: A*B - C is syntactically zero.
   Detects the all-zero row and the zero-product forms (A or B zero with C
   zero); constant-only rows are the caller's business (they are either
   trivial or unsatisfiable depending on the constants). *)
let constr_is_trivial { a; b; c } =
  Lincomb.is_zero c && (Lincomb.is_zero a || Lincomb.is_zero b)
