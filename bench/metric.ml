(* Bench metrics and their gates (DESIGN.md §12). Every number an
   experiment reports is one [t]: a dotted path, a value and the kind of
   gate it answers to. BENCH_run.json nests the values by path, --baseline
   looks each gated path up in a committed run, and the absolute bands of
   --check-model, --check-ledger and the always-on checks read the value
   alone; [breaches] evaluates all of them. Booleans are 1/0. *)

type kind =
  | Info (* recorded, never gated *)
  | Exact (* equal to the baseline's value *)
  | Drift of float * float (* value / baseline inside [lo, hi]; lo = 0 is one-sided *)
  | Band of float * float (* value inside [lo, hi]; a ceiling is Band (neg_infinity, c) *)

(* The flag that arms a gate: Always needs none, Baseline is --baseline
   (the only arm of Exact and Drift, which need a baseline to compare
   with), Check_model and Check_ledger are their flags. *)
type gate = Always | Baseline | Check_model | Check_ledger

(* [msg], when not empty, replaces the generic breach message. *)
type t = { path : string; value : float; kind : kind; gate : gate; msg : string }

let info path value = { path; value; kind = Info; gate = Always; msg = "" }
let exact path value = { path; value; kind = Exact; gate = Baseline; msg = "" }
let drift (lo, hi) path value = { path; value; kind = Drift (lo, hi); gate = Baseline; msg = "" }
let band ?(msg = "") gate (lo, hi) path value = { path; value; kind = Band (lo, hi); gate; msg }
let of_bool b = if b then 1.0 else 0.0

(* An always-on check that [path] equals [want]; a miss fails the run
   with [msg] once the summary is on disk. *)
let expect msg path want value = band ~msg Always (want, want) path value
let check msg path ok = expect msg path 1.0 (of_bool ok)

(* The numbers in [json] as metrics under [prefix], each made by [mk]. *)
let rec of_json mk prefix = function
  | Zobs.Json.Num v -> [ mk prefix v ]
  | Zobs.Json.Obj kvs -> List.concat_map (fun (k, j) -> of_json mk (prefix ^ "." ^ k) j) kvs
  | _ -> []

let keys path = String.split_on_char '.' path

(* The metrics as JSON members nested by path, in first-seen order; a
   repeated path (a value under two gates) is written once. *)
let to_json metrics =
  let open Zobs.Json in
  let rec insert kvs keys v =
    match (keys, List.assoc_opt (List.hd keys) kvs) with
    | [ k ], None -> kvs @ [ (k, Num v) ]
    | k :: rest, None -> kvs @ [ (k, Obj (insert [] rest v)) ]
    | k :: (_ :: _ as rest), Some (Obj sub) ->
      List.map (fun (k', x) -> if k' = k then (k, Obj (insert sub rest v)) else (k', x)) kvs
    | _ -> kvs
  in
  List.fold_left (fun kvs m -> insert kvs (keys m.path) m.value) [] metrics

(* The number at [path] in [json]; None for an absent path or an inner node. *)
let lookup json path =
  let node = List.fold_left (fun j k -> Option.bind j (Zobs.Json.member k)) (Some json) (keys path) in
  Option.bind node Zobs.Json.to_num

(* Every breach of an armed gate, in metric order, each with its gate.
   Always is armed on every run, Baseline iff a [baseline] run is given
   (whose "config" must then equal [config] key by key), the others iff
   listed in [gates]. NaN fails every kind. *)
let breaches ?baseline ~gates ~config metrics =
  let open Printf in
  let armed = function
    | Always -> true
    | Baseline -> baseline <> None
    | g -> List.mem g gates
  in
  let inside (lo, hi) x = x >= lo && x <= hi in
  let verdict base m =
    match (m.kind, base) with
    | Info, _ -> None
    | (Exact | Drift _), None -> Some (sprintf "%s missing from the baseline" m.path)
    | Band _, None when m.gate = Baseline -> Some (sprintf "%s missing from the baseline" m.path)
    | Band (lo, hi), _ when inside (lo, hi) m.value -> None
    | Band (lo, hi), _ -> Some (sprintf "%s = %g outside [%g, %g]" m.path m.value lo hi)
    | Exact, Some b when m.value = b -> None
    | Exact, Some b -> Some (sprintf "%s: %g here, %g in baseline" m.path m.value b)
    | Drift (lo, hi), Some b when inside (lo, hi) (m.value /. b) -> None
    | Drift (lo, hi), Some b ->
      Some (sprintf "%s: %g vs. baseline %g drifts outside [%g, %g]x" m.path m.value b lo hi)
  in
  let prefix = function
    | Always -> ""
    | Baseline -> "baseline: "
    | Check_model -> "cost model breach: "
    | Check_ledger -> "--check-ledger: "
  in
  let config_breaches =
    match Option.map (Zobs.Json.member "config") baseline with
    | None -> []
    | Some None -> [ "the baseline has no config section" ]
    | Some (Some bc) ->
      List.filter_map
        (fun (k, v) ->
          match Zobs.Json.member k bc with
          | Some v' when v' = v -> None
          | Some v' ->
            Some
              (sprintf "config mismatch: %s = %s here, %s in baseline" k (Zobs.Json.to_string v)
                 (Zobs.Json.to_string v'))
          | None -> Some (sprintf "config key %s missing from baseline" k))
        (match config with Zobs.Json.Obj kvs -> kvs | _ -> [])
  in
  List.map (fun s -> (Baseline, "baseline: " ^ s)) config_breaches
  @ List.filter_map
      (fun m ->
        if not (armed m.gate) then None
        else
          Option.map
            (fun s -> (m.gate, if m.msg <> "" then m.msg else prefix m.gate ^ s))
            (verdict (Option.bind baseline (fun b -> lookup b m.path)) m))
      metrics
