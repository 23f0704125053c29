(* The benchmark's own spans, recorded around each call it makes into a
   library layer (nothing inside lib/ is touched). A span keeps its name,
   start, end, parent and the id of the op it belongs to, plus the minor
   words its domain allocated inside it. Spans stay in memory until the
   run ends; [write_chrome] then dumps them as a Chrome trace. With
   [enabled] off, [span] is a plain call. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int; (* 0 = the op's root *)
  tid : int;
  t0 : float;
  t1 : float;
  words : float;
}

let enabled = ref false
let mu = Mutex.create ()
let spans : span list ref = ref []
let next_id = Atomic.make 1

type frame = { fid : int; fop : int }

let stack : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let record s =
  Mutex.lock mu;
  spans := s :: !spans;
  Mutex.unlock mu

let enter ~op name f =
  let st = Domain.DLS.get stack in
  let parent = match !st with fr :: _ -> fr.fid | [] -> 0 in
  let id = Atomic.fetch_and_add next_id 1 in
  st := { fid = id; fop = op } :: !st;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    let words = Gc.minor_words () -. w0 in
    (match !st with _ :: rest -> st := rest | [] -> ());
    record { id; name; op; parent; tid = (Domain.self () :> int); t0; t1; words }
  in
  Fun.protect ~finally:finish f

(* The root span of op [op]; every span opened inside it shares the id. *)
let op_span ~op name f = if !enabled then enter ~op name f else f ()

let span name f =
  if not !enabled then f ()
  else
    let op = match !(Domain.DLS.get stack) with fr :: _ -> fr.fop | [] -> 0 in
    enter ~op name f

let all () =
  Mutex.lock mu;
  let l = !spans in
  Mutex.unlock mu;
  List.rev l

(* Per span name: (self seconds, minor words, calls) summed over the spans
   of the ops [keep] selects. Self time is a span's duration minus the
   time its children cover; children of one span never overlap (each
   domain's spans nest strictly). *)
let by_name ?(keep = fun _ -> true) () =
  let l = List.filter (fun s -> keep s.op) (all ()) in
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 +. (s.t1 -. s.t0)))
    l;
  let agg = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      let t, w, n = Option.value (Hashtbl.find_opt agg s.name) ~default:(0.0, 0.0, 0) in
      Hashtbl.replace agg s.name (t +. self, w +. s.words, n + 1))
    l;
  agg

let write_chrome path =
  let l = all () in
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity l in
  let us t = Zobs.Json.Num (Float.round ((t -. origin) *. 1e6)) in
  let ev s =
    Zobs.Json.Obj
      [
        ("name", Zobs.Json.Str s.name);
        ("ph", Zobs.Json.Str "X");
        ("ts", us s.t0);
        ("dur", Zobs.Json.Num (Float.round ((s.t1 -. s.t0) *. 1e6)));
        ("pid", Zobs.Json.Num 1.0);
        ("tid", Zobs.Json.Num (float_of_int s.tid));
        ( "args",
          Zobs.Json.Obj
            [
              ("id", Zobs.Json.Num (float_of_int s.id));
              ("op", Zobs.Json.Num (float_of_int s.op));
              ("parent", Zobs.Json.Num (float_of_int s.parent));
              ("minor_words", Zobs.Json.Num s.words);
            ] );
      ]
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc
    (Zobs.Json.to_string
       (Zobs.Json.Obj
          [ ("traceEvents", Zobs.Json.Arr (List.map ev l)); ("displayTimeUnit", Zobs.Json.Str "ms") ]))
