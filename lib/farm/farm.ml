(* Zfarm: the concurrent multi-tenant prover farm behind `zaatar serve`
   (DESIGN.md §14).

   A loop that serves one connection at a time holds every later verifier
   hostage to the current one: a peer that thinks for a second between
   messages costs the whole service a second. Here one event loop multiplexes many
   in-flight Prover_session state machines over select/nonblocking
   sockets — a session only occupies the CPU while a complete frame of its
   is being processed — and ready frames are grouped by computation digest
   and fanned out over the Pool domain workers, so same-program instances
   batch across connections exactly as the paper batches them within one
   verifier.

   Setup amortization across users: the compiled QAP (divisor polynomial,
   subproduct trees, NTT twiddle plans) is a pure function of the
   constraint-system digest, so it lives in a byte-bounded per-digest LRU
   ({!Setup_cache}) and is built (and prewarmed) once per program, not
   once per connection.

   Admission control: at most [max_sessions] sessions are in flight;
   [accept_queue] more connections park unread until a slot frees; beyond
   that — or when a parked connection outwaits the session timeout — the
   farm sheds load with a wire [busy retry-after] Error_msg instead of
   letting the kernel backlog time verifiers out silently. Everything is
   accounted in the always-on Svcstats (shed, cache hit/miss, queue depth,
   session-latency percentiles) and rendered by the Prometheus/JSON
   endpoint. *)

open Fieldlib
open Argsys

type config = {
  arg_config : Argument.config;
  max_sessions : int;
  accept_queue : int;  (* parked connections beyond [max_sessions] before shedding *)
  session_timeout_ms : int;
  setup_cache_bytes : int;  (* LRU bound; 0 disables the cache *)
  busy_retry_ms : int;  (* retry-after hint carried in the shed reply *)
  trace_dir : string option;  (* per-session sidecars + forensic bundles *)
  slow_session_ms : int;  (* forensic-dump latency threshold; 0 disables *)
  flight_cap : int;  (* flight-recorder ring entries per session; 0 disables *)
  profile_hz : int;  (* sampling-profiler tick rate; 0 disables *)
}

let default =
  {
    arg_config = Argument.default_config;
    max_sessions = 64;
    accept_queue = 128;
    session_timeout_ms = 30_000;
    setup_cache_bytes = 64 * 1024 * 1024;
    busy_retry_ms = 250;
    trace_dir = None;
    slow_session_ms = 0;
    flight_cap = Zobs.Flight.default_cap;
    profile_hz = Zobs.Profiler.default_hz;
  }

(* Resident-size estimate for one cached QAP: the NTT backend keeps the
   evaluation domain and padded scratch shapes (twiddle plans are
   process-global); Lagrange keeps the divisor and the O(nc log nc)
   subproduct/interpolation trees. Estimates only steer LRU eviction. *)
let approx_qap_bytes qap =
  let el_bytes = ((Nat.num_bits (Fp.modulus (Qapb.ctx qap)) + 7) / 8) + 32 in
  let nc = Qapb.nc qap in
  let log2 =
    let rec go p l = if p >= nc then l else go (2 * p) (l + 1) in
    go 1 0
  in
  match Qapb.backend qap with
  | Qapb.Ntt -> ((2 * Qapb.h_len qap) + nc) * el_bytes
  | Qapb.Lagrange | Qapb.Auto -> nc * (log2 + 6) * el_bytes

let c_sessions = Zobs.Counter.make "farm.sessions"
let c_shed = Zobs.Counter.make "farm.shed"
let c_setup_built = Zobs.Counter.make "farm.setup.built"
let h_session_ms = Zobs.Histogram.make "farm.session_ms"

(* ------------------------------------------------------------------ *)
(* Metrics endpoint                                                    *)
(* ------------------------------------------------------------------ *)

let metrics_render () = Zobs.Prometheus.render ~extra:(Znet.Svcstats.prometheus ()) ()
let metrics_json () = Zobs.Json.to_string (Znet.Svcstats.json ())

(* Routes: /metrics (Prometheus text, also served at /), /json, /healthz
   (built into Metrics_http; [ready] gates it — the farm flips it once its
   event loop is live), and /profile (folded stacks from the sampling
   profiler when one runs, else the completed-span folding). *)
let start_metrics ?ready ?profile addr =
  let profile_body () =
    match profile with Some f -> f () | None -> Zobs.Sink.folded_stacks ()
  in
  Znet.Metrics_http.start ?healthz:ready addr ~render:(fun path ->
      match path with
      | "/metrics" | "/" -> Some ("text/plain; version=0.0.4", metrics_render ())
      | "/json" -> Some ("application/json", metrics_json ())
      | "/profile" -> Some ("text/plain", profile_body ())
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type session = {
  conn : Znet.conn;
  reader : Znet.Frame_reader.t;
  ps : Argument.Prover_session.t;
  stats : Znet.Svcstats.conn;
  sid : int;
  outq : (bytes * int ref) Queue.t;  (* framed bytes, write offset *)
  flight : Zobs.Flight.t option;  (* per-session event ring; None when disabled *)
  mutable digest : string;  (* batching key once the Hello named it *)
  mutable trace_id : string;  (* the id this session's Hello carried *)
  mutable deadline : float;
  mutable closing : [ `No | `Ok | `Err of string ];
  mutable inbox : bytes list;  (* complete frames awaiting compute, oldest first *)
}

(* Record into a session's flight ring (a no-op with the recorder off).
   Safe without a lock: the ring is touched either by the loop or by the
   one Pool worker computing this session, never both at once. *)
let frec s ?dur ?detail ?n kind =
  match s.flight with Some fl -> Zobs.Flight.record fl ?dur ?detail ?n kind | None -> ()

(* What one compute job did to its session; applied back on the loop. *)
type job_out = {
  j_replies : bytes list;  (* framed, send order *)
  j_final : [ `Open | `Done_ok | `Done_err of string ];
  j_decode_err : bool;
}

let serve ?(config = default) ~lookup ?(seed = "zaatar prover") ?max_conns
    ?(stop = fun () -> false) ?metrics_listen ?(log : string -> unit = prerr_endline)
    (addr : string) : unit =
  let srv = Znet.listen ~backlog:(config.max_sessions + config.accept_queue + 16) addr in
  Znet.set_server_nonblocking srv;
  (* Readiness for /healthz: flips once the event loop is about to run, so
     a 200 means the accept loop really is live, not just the socket
     bound. *)
  let live = Atomic.make false in
  (* The always-on sampling profiler: span stacks are maintained in the
     cheap stacks-only mode whenever the ticker runs (Profiler.start
     enables it), and /profile serves the folded stacks. *)
  let profiler =
    if config.profile_hz > 0 then Some (Zobs.Profiler.make ~hz:config.profile_hz ()) else None
  in
  (match profiler with Some p -> Zobs.Profiler.start p | None -> ());
  let metrics =
    Option.map
      (start_metrics
         ~ready:(fun () -> Atomic.get live)
         ?profile:(Option.map (fun p () -> Zobs.Profiler.folded p) profiler))
      metrics_listen
  in
  (match metrics with
  | Some m -> log (Printf.sprintf "metrics on %s" (Znet.Metrics_http.bound_addr m))
  | None -> ());
  (* Logged after "metrics on": a caller that has read this line can read
     the metrics address too. *)
  log (Printf.sprintf "listening on %s" (Znet.bound_addr srv));
  let cache =
    if config.setup_cache_bytes > 0 then
      Some (Setup_cache.create ~bound_bytes:config.setup_cache_bytes)
    else None
  in
  (* The per-digest setup hook is built per session so cache outcomes land
     in that session's flight ring as well as the global Svcstats. *)
  let setup_for flight =
    Option.map
      (fun cache digest (comp : Argument.computation) ->
        let qap, outcome =
          Setup_cache.find cache digest (fun () ->
              let q =
                Qapb.of_r1cs ~backend:config.arg_config.Argument.qap_backend
                  comp.Argument.r1cs
              in
              Qapb.prewarm q;
              Zobs.Counter.incr c_setup_built;
              (q, approx_qap_bytes q))
        in
        (match outcome with
        | `Hit ->
          Znet.Svcstats.record_cache_hit ();
          Option.iter (fun fl -> Zobs.Flight.record fl ~detail:digest Zobs.Flight.Cache_hit) flight
        | `Miss ->
          Znet.Svcstats.record_cache_miss ();
          Option.iter (fun fl -> Zobs.Flight.record fl ~detail:digest Zobs.Flight.Cache_miss) flight);
        qap)
      cache
  in
  let sessions : (Unix.file_descr, session) Hashtbl.t = Hashtbl.create 64 in
  let parked : (Znet.conn * float) Queue.t = Queue.create () in
  let closed_count = ref 0 in
  let timeout_s = float_of_int config.session_timeout_ms /. 1000.0 in
  let now () = Unix.gettimeofday () in
  let set_queue_depth () = Znet.Svcstats.set_queue_depth (Queue.length parked) in
  let shed conn =
    Znet.Svcstats.record_shed ();
    Zobs.Counter.incr c_shed;
    let b = Znet.frame (Zwire.encode (Zwire.busy_msg ~retry_after_ms:config.busy_retry_ms)) in
    (* Best effort: a fresh socket's send buffer swallows the small frame;
       if the peer is already gone there is nobody to tell. *)
    (try ignore (Znet.write_some conn b ~off:0) with Znet.Net_error _ -> ());
    Znet.close conn;
    Zobs.Log.warn ~fields:[ Zobs.Log.str "peer" (Znet.peer conn) ] "connection shed";
    log "connection shed"
  in
  let admit conn =
    Znet.set_nonblocking conn;
    let stats = Znet.Svcstats.begin_conn ~peer:(Znet.peer conn) in
    Zobs.Counter.incr c_sessions;
    let flight =
      if config.flight_cap > 0 then Some (Zobs.Flight.create ~cap:config.flight_cap ())
      else None
    in
    let s =
      {
        conn;
        reader = Znet.Frame_reader.create ();
        ps =
          Argument.Prover_session.create ~config:config.arg_config ?setup:(setup_for flight)
            ~lookup
            (* A fresh PRG per session: only adversarial strategies draw
               from it, and no session's transcript may depend on its
               predecessors'. *)
            ~prg:(Chacha.Prg.create ~seed ())
            ();
        stats;
        sid = stats.Znet.Svcstats.id;
        outq = Queue.create ();
        flight;
        digest = "";
        trace_id = "";
        deadline = now () +. timeout_s;
        closing = `No;
        inbox = [];
      }
    in
    frec s ~detail:(Znet.peer conn) (Zobs.Flight.Mark "accepted");
    Hashtbl.replace sessions (Znet.fd conn) s;
    Zobs.Log.info
      ~fields:[ Zobs.Log.int "conn" s.sid; Zobs.Log.str "peer" (Znet.peer conn) ]
      "connection accepted"
  in
  (* Dump the flight ring: always a Chrome-trace sidecar
     (prover_connN.json, which trace-merge takes as the prover's side),
     plus the JSONL forensic bundle when the session erred or outran
     --slow-session-ms. *)
  let dump_flight s ~duration_ms =
    match (config.trace_dir, s.flight) with
    | Some dir, Some fl when Zobs.Flight.count fl > 0 ->
      let sidecar = Filename.concat dir (Printf.sprintf "prover_conn%d.json" s.sid) in
      Zobs.Flight.write_sidecar ~pid:1 ~process_name:"prover" ~trace_id:s.trace_id fl sidecar;
      log (Printf.sprintf "trace written to %s" sidecar);
      let errored = match s.closing with `Err _ -> true | _ -> false in
      let slow = config.slow_session_ms > 0 && duration_ms >= float_of_int config.slow_session_ms in
      if errored || slow then begin
        let header =
          let open Zobs.Json in
          [
            ("sid", Num (float_of_int s.sid));
            ("peer", Str (Znet.peer s.conn));
            ("digest", Str s.digest);
            ("trace_id", Str s.trace_id);
            ("outcome", Str (if errored then "error" else "slow"));
            ("cause", Str (match s.closing with `Err m -> m | _ -> ""));
            ("duration_ms", Num duration_ms);
            ("slow_session_ms", Num (float_of_int config.slow_session_ms));
          ]
        in
        let path = Filename.concat dir (Printf.sprintf "forensic_conn%d.jsonl" s.sid) in
        Zobs.Flight.write_jsonl ~header fl path;
        Zobs.Log.warn
          ~fields:
            [
              Zobs.Log.int "conn" s.sid;
              Zobs.Log.str "outcome" (if errored then "error" else "slow");
              Zobs.Log.str "path" path;
            ]
          "forensic bundle written";
        log (Printf.sprintf "forensic written to %s" path)
      end
    | _ -> ()
  in
  let finish s =
    Hashtbl.remove sessions (Znet.fd s.conn);
    Znet.close s.conn;
    incr closed_count;
    let fields more =
      Zobs.Log.int "conn" s.sid
      :: Zobs.Log.str "peer" (Znet.peer s.conn)
      :: Zobs.Log.str "digest" s.digest
      :: more
    in
    (match s.closing with
    | `Ok | `No ->
      Znet.Svcstats.end_conn s.stats `Ok;
      Zobs.Log.info ~fields:(fields []) "session complete";
      log "session complete"
    | `Err m ->
      Znet.Svcstats.end_conn s.stats (`Error m);
      Zobs.Log.error ~fields:(fields [ Zobs.Log.str "cause" m ]) "session error";
      log ("session error: " ^ m));
    let duration_ms = Znet.Svcstats.duration_s s.stats *. 1000.0 in
    frec s
      ~detail:(match s.closing with `Err m -> m | _ -> "ok")
      (Zobs.Flight.Mark "finished");
    dump_flight s ~duration_ms;
    Zobs.Histogram.observe h_session_ms (int_of_float duration_ms)
  in
  let fail_session s msg = if s.closing = `No then s.closing <- `Err msg in
  (* Flush a session's out-queue as far as the socket allows. *)
  let flush s =
    try
      let progress = ref true in
      while !progress && not (Queue.is_empty s.outq) do
        let buf, off = Queue.peek s.outq in
        let n = Znet.write_some s.conn buf ~off:!off in
        if n = 0 then progress := false
        else begin
          off := !off + n;
          s.deadline <- now () +. timeout_s;
          if !off = Bytes.length buf then begin
            frec s ~n:(Bytes.length buf) Zobs.Flight.Write;
            ignore (Queue.pop s.outq)
          end
        end
      done
    with Znet.Net_error e ->
      Queue.clear s.outq;
      fail_session s (Znet.error_to_string e)
  in
  (* Drain readable bytes into complete frames; protocol work happens in
     the compute pass, not here. *)
  let drain_reads s =
    try
      let continue = ref (s.closing = `No) in
      while !continue do
        match Znet.Frame_reader.step s.reader s.conn with
        | `Frame payload ->
          s.deadline <- now () +. timeout_s;
          frec s ~n:(Bytes.length payload) Zobs.Flight.Read;
          s.inbox <- s.inbox @ [ payload ]
        | `Awaiting -> continue := false
        | `Eof ->
          continue := false;
          if s.inbox = [] && Queue.is_empty s.outq then
            fail_session s (Znet.error_to_string (Znet.Closed (Znet.peer s.conn ^ " closed the connection")))
      done
    with Znet.Net_error e ->
      (match e with Znet.Timeout _ -> Znet.Svcstats.record_timeout () | _ -> ());
      fail_session s (Znet.error_to_string e)
  in
  (* Run one session's queued frames through its state machine. Runs on a
     Pool worker: everything it touches is session-local (or the shared
     read-only cached QAP), and outcomes are applied back on the loop. *)
  let compute (s : session) : session * job_out =
    let replies = ref [] in
    let enqueue reply =
      let b = Zwire.encode ?codec:(Argument.Prover_session.codec s.ps) reply in
      Znet.Svcstats.record_sent s.stats ~phase:(Zwire.phase_of_msg reply) (Bytes.length b);
      replies := Znet.frame b :: !replies
    in
    let rec go inbox =
      match inbox with
      | [] -> { j_replies = List.rev !replies; j_final = `Open; j_decode_err = false }
      | raw :: rest -> (
        match
          let m = Zwire.decode ?codec:(Argument.Prover_session.codec s.ps) raw in
          let phase = Zwire.phase_of_msg m in
          Znet.Svcstats.record_recv s.stats ~phase (Bytes.length raw);
          (match m with
          | Zwire.Hello h ->
            s.digest <- h.Zwire.digest;
            (* Prover_session only sets the process-global trace id, which
               is meaningless with many sessions in flight — keep this
               session's own id for its sidecar. *)
            s.trace_id <- h.Zwire.trace_id;
            Znet.Svcstats.set_digest s.stats h.Zwire.digest
          | _ -> ());
          let t0 = Unix.gettimeofday () in
          let r = Argument.Prover_session.on_msg s.ps m in
          let dur = Unix.gettimeofday () -. t0 in
          Znet.Svcstats.record_phase_time s.stats ~phase dur;
          frec s ~dur ~detail:phase (Zobs.Flight.Phase phase);
          r
        with
        | `Send reply ->
          enqueue reply;
          go rest
        | `Finished (Some reply) ->
          enqueue reply;
          { j_replies = List.rev !replies; j_final = `Done_ok; j_decode_err = false }
        | `Finished None ->
          { j_replies = List.rev !replies; j_final = `Done_ok; j_decode_err = false }
        | exception Argument.Session_error m ->
          enqueue (Zwire.Error_msg m);
          { j_replies = List.rev !replies; j_final = `Done_err m; j_decode_err = false }
        | exception Zwire.Decode_error e ->
          let m = "malformed message: " ^ Zwire.error_to_string e in
          enqueue (Zwire.Error_msg m);
          { j_replies = List.rev !replies; j_final = `Done_err m; j_decode_err = true }
        | exception Invalid_argument m ->
          let m = "invalid parameters: " ^ m in
          enqueue (Zwire.Error_msg m);
          { j_replies = List.rev !replies; j_final = `Done_err m; j_decode_err = false })
    in
    (* Ledger op deltas over this frame batch, recorded to the flight ring.
       The counters are process-wide merged views, so under concurrent
       same-phase batches a delta can include a neighbour's ops — exact
       when one session computes at a time, indicative otherwise. Only
       live when tracing is on (the counters are gated). *)
    let ops0 = if Zobs.enabled () then Some (Zobs.Ledger.snapshot ()) else None in
    let out = go s.inbox in
    (match ops0 with
    | Some ops0 ->
      let d = Zobs.Ledger.sub_ops (Zobs.Ledger.snapshot ()) ops0 in
      let nz = List.filter (fun (_, v) -> v <> 0) (Zobs.Ledger.ops_to_list d) in
      if nz <> [] then frec s (Zobs.Flight.Ledger_delta nz)
    | None -> ());
    (s, out)
  in
  let apply_job (s, out) =
    s.inbox <- [];
    List.iter (fun b -> Queue.add (b, ref 0) s.outq) out.j_replies;
    if out.j_decode_err then Znet.Svcstats.record_decode_error ();
    (match out.j_final with
    | `Open -> ()
    | `Done_ok -> if s.closing = `No then s.closing <- `Ok
    | `Done_err m -> fail_session s m);
    flush s
  in
  (* Cross-connection batching: ready sessions grouped by digest, each
     group fanned out over the Pool domains in one map. *)
  let compute_pass () =
    let ready =
      Hashtbl.fold (fun _ s acc -> if s.inbox <> [] then s :: acc else acc) sessions []
      |> List.sort (fun a b -> compare a.sid b.sid)
    in
    if ready <> [] then begin
      let groups : (string, session list ref) Hashtbl.t = Hashtbl.create 4 in
      let order = ref [] in
      List.iter
        (fun s ->
          match Hashtbl.find_opt groups s.digest with
          | Some l -> l := s :: !l
          | None ->
            Hashtbl.replace groups s.digest (ref [ s ]);
            order := s.digest :: !order)
        ready;
      List.iter
        (fun d ->
          let group = Array.of_list (List.rev !(Hashtbl.find groups d)) in
          Dompool.Pool.map ~domains:config.arg_config.Argument.domains compute group
          |> Array.iter apply_job)
        (List.rev !order)
    end
  in
  let session_slots_free () = Hashtbl.length sessions < config.max_sessions in
  let promote_parked () =
    while session_slots_free () && not (Queue.is_empty parked) do
      let conn, _ = Queue.pop parked in
      admit conn
    done;
    set_queue_depth ()
  in
  let accept_pass () =
    let continue = ref true in
    while !continue do
      match Znet.accept_nonblock srv with
      | None -> continue := false
      | Some conn ->
        (* Parked connections keep FIFO priority over newcomers. *)
        if Queue.is_empty parked && session_slots_free () then admit conn
        else if Queue.length parked < config.accept_queue then begin
          Queue.add (conn, now ()) parked;
          set_queue_depth ()
        end
        else shed conn
    done
  in
  let expire () =
    let t = now () in
    (* Parked connections that outwaited the timeout are shed, not served. *)
    let keep = Queue.create () in
    Queue.iter
      (fun (conn, since) -> if t -. since > timeout_s then shed conn else Queue.add (conn, since) keep)
      parked;
    if Queue.length keep <> Queue.length parked then begin
      Queue.clear parked;
      Queue.transfer keep parked;
      set_queue_depth ()
    end;
    Hashtbl.fold (fun _ s acc -> if s.deadline < t then s :: acc else acc) sessions []
    |> List.iter (fun s ->
           Znet.Svcstats.record_timeout ();
           frec s Zobs.Flight.Timeout;
           fail_session s "session timeout";
           Queue.clear s.outq;
           finish s)
  in
  let reap_closed () =
    Hashtbl.fold
      (fun _ s acc -> if s.closing <> `No && Queue.is_empty s.outq then s :: acc else acc)
      sessions []
    |> List.iter finish
  in
  let done_serving () =
    stop ()
    || match max_conns with
       | Some n -> !closed_count >= n && Hashtbl.length sessions = 0 && Queue.is_empty parked
       | None -> false
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set live false;
      (match profiler with Some p -> Zobs.Profiler.stop p | None -> ());
      Hashtbl.iter (fun _ s -> Znet.close s.conn) sessions;
      Queue.iter (fun (c, _) -> Znet.close c) parked;
      Znet.close_server srv;
      match metrics with Some m -> Znet.Metrics_http.stop m | None -> ())
    (fun () ->
      Atomic.set live true;
      while not (done_serving ()) do
        let t = now () in
        let reads = ref [ Znet.server_fd srv ] in
        let writes = ref [] in
        let next_deadline = ref (t +. 0.25) in
        Hashtbl.iter
          (fun fd s ->
            if s.closing = `No then reads := fd :: !reads;
            if not (Queue.is_empty s.outq) then writes := fd :: !writes;
            if s.deadline < !next_deadline then next_deadline := s.deadline)
          sessions;
        Queue.iter
          (fun (_, since) ->
            let d = since +. timeout_s in
            if d < !next_deadline then next_deadline := d)
          parked;
        let timeout = Float.max 0.01 (!next_deadline -. t) in
        let rs, ws, _ =
          try Unix.select !reads !writes [] timeout
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        let t_wake = now () in
        if List.mem (Znet.server_fd srv) rs then accept_pass ();
        List.iter
          (fun fd ->
            match Hashtbl.find_opt sessions fd with Some s -> drain_reads s | None -> ())
          rs;
        compute_pass ();
        List.iter
          (fun fd ->
            match Hashtbl.find_opt sessions fd with Some s -> flush s | None -> ())
          ws;
        reap_closed ();
        expire ();
        promote_parked ();
        (* Event-loop health: how long this iteration parked in select vs
           worked, and how many fds the wakeup brought. *)
        Znet.Svcstats.record_loop_iter ~busy_s:(now () -. t_wake) ~wait_s:(t_wake -. t)
          ~ready:(List.length rs + List.length ws)
      done)
