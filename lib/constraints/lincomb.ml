(* Sparse linear combinations over constraint variables.

   Variable indexing convention used across the whole system: index 0 is the
   constant-one pseudo-variable w_0 (Appendix A.1), real variables are
   1..n. An assignment is an array of length n+1 whose slot 0 holds 1. *)

open Fieldlib

module IMap = Map.Make (Int)

type t = Fp.el IMap.t
(* No zero coefficients stored. The constant term is the coefficient of
   variable 0. *)

let zero : t = IMap.empty
let is_zero (t : t) = IMap.is_empty t

let of_var v = IMap.singleton v Fp.one
let of_const c = if Fp.is_zero c then IMap.empty else IMap.singleton 0 c
let const_part (t : t) = match IMap.find_opt 0 t with Some c -> c | None -> Fp.zero

let coeff (t : t) v = match IMap.find_opt v t with Some c -> c | None -> Fp.zero

let add_term ctx (t : t) v c =
  if Fp.is_zero c then t
  else
    IMap.update v
      (function
        | None -> Some c
        | Some c0 ->
          let s = Fp.add ctx c0 c in
          if Fp.is_zero s then None else Some s)
      t

let add ctx (a : t) (b : t) : t = IMap.fold (fun v c acc -> add_term ctx acc v c) b a

let scale ctx c (a : t) : t =
  if Fp.is_zero c then zero else IMap.map (fun x -> Fp.mul ctx c x) a

let neg ctx (a : t) : t = IMap.map (Fp.neg ctx) a
let sub ctx (a : t) (b : t) : t = add ctx a (neg ctx b)

let is_const (t : t) = IMap.for_all (fun v _ -> v = 0) t

let as_const (t : t) = if is_const t then Some (const_part t) else None

let terms (t : t) = IMap.bindings t
(* Sorted by variable index; includes the index-0 constant if present. *)

let iter f (t : t) = IMap.iter f t

let num_terms (t : t) = IMap.cardinal t

let eval ctx (t : t) (w : Fp.el array) =
  IMap.fold (fun v c acc -> Fp.add ctx acc (Fp.mul ctx c w.(v))) t Fp.zero

let map_vars f (t : t) : t =
  IMap.fold (fun v c acc -> IMap.add (f v) c acc) t IMap.empty

let max_var (t : t) = IMap.fold (fun v _ acc -> max v acc) t 0

let equal (a : t) (b : t) = IMap.equal Fp.equal a b

let pp fmt (t : t) =
  if is_zero t then Format.pp_print_string fmt "0"
  else begin
    let first = ref true in
    IMap.iter
      (fun v c ->
        if not !first then Format.pp_print_string fmt " + ";
        first := false;
        if v = 0 then Fp.pp fmt c else Format.fprintf fmt "%a*w%d" Fp.pp c v)
      t
  end
