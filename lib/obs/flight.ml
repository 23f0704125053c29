(* Zscope flight recorder (DESIGN.md §15): a bounded per-session event
   ring. The farm attaches one recorder to every Prover_session and feeds
   it lifecycle marks, frame read/write completions, state-machine phase
   timings, setup-cache traffic, ledger op deltas and timeout/shed events.
   The ring is tiny (hundreds of fixed-size entries), always on, and never
   allocates past its capacity — when a session goes wrong the last [cap]
   things it did are already in memory, ready to dump as a Chrome-trace
   sidecar (Perfetto/trace-merge compatible) plus a JSONL forensic bundle.

   Concurrency: a recorder is written either from the farm's event loop or
   from the Pool worker currently computing that session's frames — never
   both at once (Pool.map is a synchronous barrier), so no lock is taken
   on the record path. Readers (dumps) run on the loop after the session
   closed. *)

type kind =
  | Mark of string  (* lifecycle: "accepted", "finished", ... *)
  | Phase of string  (* one state-machine step, named by its wire phase *)
  | Read  (* a complete frame drained off the socket *)
  | Write  (* a framed reply fully flushed to the socket *)
  | Cache_hit
  | Cache_miss
  | Shed
  | Timeout
  | Ledger_delta of (string * int) list  (* Figure-3 op deltas, nonzero rows *)

type entry = {
  e_ts : float;  (* absolute seconds at record time *)
  e_dur : float;  (* seconds; 0 for instantaneous events *)
  e_kind : kind;
  e_detail : string;  (* phase name, digest, error cause, ... *)
  e_n : int;  (* byte/count payload; 0 when meaningless *)
}

type t = {
  cap : int;
  ring : entry array;  (* slot i holds entry number i mod cap *)
  mutable n : int;  (* entries ever recorded *)
}

let default_cap = 256

let dummy = { e_ts = 0.0; e_dur = 0.0; e_kind = Mark ""; e_detail = ""; e_n = 0 }

let create ?(cap = default_cap) () = { cap = max 1 cap; ring = Array.make (max 1 cap) dummy; n = 0 }

let record t ?(dur = 0.0) ?(detail = "") ?(n = 0) kind =
  t.ring.(t.n mod t.cap) <- { e_ts = Unix.gettimeofday (); e_dur = dur; e_kind = kind; e_detail = detail; e_n = n };
  t.n <- t.n + 1

let count t = t.n
let dropped t = max 0 (t.n - t.cap)

(* Oldest-first surviving entries. *)
let entries t =
  let kept = min t.n t.cap in
  List.init kept (fun i -> t.ring.((t.n - kept + i) mod t.cap))

let kind_label = function
  | Mark _ -> "mark"
  | Phase _ -> "phase"
  | Read -> "frame.read"
  | Write -> "frame.write"
  | Cache_hit -> "cache.hit"
  | Cache_miss -> "cache.miss"
  | Shed -> "shed"
  | Timeout -> "timeout"
  | Ledger_delta _ -> "ledger"

(* The event name shown on the trace timeline: phase steps get their wire
   phase ("phase.commit"), marks their label, everything else the kind. *)
let event_name e =
  match e.e_kind with
  | Mark m -> if m = "" then "mark" else "mark." ^ m
  | Phase p -> "phase." ^ p
  | k -> kind_label k

let attrs_of e =
  (if e.e_detail = "" then [] else [ ("detail", e.e_detail) ])
  @ (if e.e_n = 0 then [] else [ ("bytes", string_of_int e.e_n) ])
  @
  match e.e_kind with
  | Ledger_delta ops ->
    List.map (fun (op, v) -> ("op." ^ op, string_of_int v)) ops
  | _ -> []

(* Convert the ring to Span.events so the existing Chrome-trace writer
   renders the sidecar: one depth-0 "session" envelope spanning the whole
   recording, each entry a depth-1 child (duration events keep their
   measured dur; instants render as zero-width slices). *)
let to_span_events ?(tid = 0) t =
  match entries t with
  | [] -> []
  | es ->
    let t0 = (List.hd es).e_ts in
    let last = List.fold_left (fun _ e -> e) (List.hd es) es in
    let t1 = Float.max (last.e_ts +. last.e_dur) t0 in
    let session =
      {
        Span.name = "session";
        attrs = [ ("events", string_of_int (count t)); ("dropped", string_of_int (dropped t)) ];
        ts = t0;
        dur = t1 -. t0;
        excl = 0.0;
        tid;
        depth = 0;
      }
    in
    session
    :: List.map
         (fun e ->
           {
             Span.name = event_name e;
             attrs = attrs_of e;
             (* A phase step's duration is compute time that ended at
                record time; start it where the work started. *)
             ts = e.e_ts -. e.e_dur;
             dur = e.e_dur;
             excl = e.e_dur;
             tid;
             depth = 1;
           })
         es

(* JSONL forensic bundle: one header line (caller-supplied metadata plus
   ring totals), then one line per surviving entry, timestamps relative to
   the first entry. Every line is a standalone JSON object so `jq` and the
   CI assertions can stream it. *)
let jsonl ~header t =
  let b = Buffer.create 1024 in
  let line j =
    Buffer.add_string b (Json.to_string j);
    Buffer.add_char b '\n'
  in
  let es = entries t in
  let t0 = match es with [] -> 0.0 | e :: _ -> e.e_ts in
  line
    (Json.Obj
       (("kind", Json.Str "session")
       :: header
       @ [
           ("events", Json.Num (float_of_int (count t)));
           ("dropped", Json.Num (float_of_int (dropped t)));
           ("t0_s", Json.Num t0);
         ]));
  List.iter
    (fun e ->
      let extra =
        match e.e_kind with
        | Ledger_delta ops ->
          [ ("ops", Json.Obj (List.map (fun (op, v) -> (op, Json.Num (float_of_int v))) ops)) ]
        | _ -> []
      in
      line
        (Json.Obj
           ([
              ("kind", Json.Str "event");
              ("type", Json.Str (event_name e));
              ("ts_ms", Json.Num ((e.e_ts -. t0) *. 1000.0));
            ]
           @ (if e.e_dur > 0.0 then [ ("dur_ms", Json.Num (e.e_dur *. 1000.0)) ] else [])
           @ (if e.e_detail = "" then [] else [ ("detail", Json.Str e.e_detail) ])
           @ (if e.e_n = 0 then [] else [ ("bytes", Json.Num (float_of_int e.e_n)) ])
           @ extra)))
    es;
  Buffer.contents b

let write_jsonl ~header t path =
  let oc = open_out path in
  output_string oc (jsonl ~header t);
  close_out oc

(* The Perfetto-mergeable sidecar: a per-connection Chrome trace that
   `zaatar trace-merge` takes as the prover's side, stamped with the
   session's own trace id (not the process-global one, which is
   meaningless under concurrency). *)
let write_sidecar ?(pid = 1) ?(process_name = "prover") ~trace_id t path =
  Sink.write_chrome_trace ~pid ~process_name ~trace_id ~events:(to_span_events t) path
