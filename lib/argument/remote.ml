(* The verifier-side socket driver for the split verifier/prover
   argument: the same Verifier_session state machine as the in-process
   loopback, pumped over a Znet connection instead of a function call.
   `zaatar run --connect` wraps [run_connect]; the prover side is the farm
   (lib/farm).

   Observability: every wire operation runs under a net.send/net.recv Zobs
   span; receive waits also feed per-phase wire.latency_us histograms. *)

open Fieldlib
open Argument

let phases = [ "hello"; "commit"; "query"; "answer"; "verdict" ]

let h_latency =
  List.map (fun ph -> (ph, Zobs.Histogram.make ("wire.latency_us." ^ ph))) phases

let observe_latency phase us =
  match List.assoc_opt phase h_latency with
  | Some h -> Zobs.Histogram.observe h us
  | None -> ()

let send conn codec msg =
  let b = Zwire.encode ~codec msg in
  let phase = Zwire.phase_of_msg msg in
  Zobs.Span.with_ ~name:"net.send" ~attrs:[ ("phase", phase) ] (fun () -> Znet.send conn b)

(* One framed receive + decode. The latency histogram sees the whole wait —
   peer think time plus network — which is exactly what a stalled phase
   looks like from this side of the wire. *)
let recv conn codec =
  let t0 = Unix.gettimeofday () in
  let raw = Zobs.Span.with_ ~name:"net.recv" (fun () -> Znet.recv conn) in
  let m = Zwire.decode ~codec raw in
  observe_latency (Zwire.phase_of_msg m) (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
  m

let run_conn ?(config = default_config) ?trace_id (comp : computation) ~(prg : Chacha.Prg.t)
    ~(inputs : Fp.el array array) (conn : Znet.conn) : batch_result =
  Zobs.Span.with_ ~name:"argument.run_remote"
    ~attrs:[ ("instances", string_of_int (Array.length inputs)) ]
  @@ fun () ->
  let vs = Verifier_session.create ~config ?trace_id comp ~prg ~inputs in
  let codec = Verifier_session.codec vs in
  send conn codec (Verifier_session.initial vs);
  let rec pump () =
    match Verifier_session.on_msg vs (recv conn codec) with
    | `Send m ->
      send conn codec m;
      pump ()
    | `Finished (Some m) -> send conn codec m
    | `Finished None -> ()
  in
  pump ();
  Verifier_session.result vs

let run_connect ?config ?trace_id ?timeout_ms ~addr (comp : computation) ~prg ~inputs :
    batch_result =
  let conn = Znet.connect ?timeout_ms addr in
  Fun.protect
    ~finally:(fun () -> Znet.close conn)
    (fun () -> run_conn ?config ?trace_id comp ~prg ~inputs conn)
