(* Zscope (DESIGN.md §15): the farm-native observability layer. Unit
   coverage for the session-latency percentile edge cases (empty ring,
   single sample, wraparound at --recent-cap, shed connections excluded),
   the event-loop health accounting and its renderers, the bounded flight
   recorder ring with its JSONL/Chrome-trace dumps, the sampling wall-clock
   profiler, and the /healthz + /profile HTTP routes. The farm end-to-end
   run lives in Test_farm. *)

let contains = Test_serve.contains
let feq = Alcotest.float 1e-6

(* latency checks add 10s-of-ms onto epoch-scale floats: one ulp of
   Unix.gettimeofday () is ~0.25 µs, so compare at 1 µs-in-ms grain *)
let leq = Alcotest.float 1e-3

(* ------------------------------------------------------------------ *)
(* Svcstats: session-latency percentiles                               *)
(* ------------------------------------------------------------------ *)

(* A finished connection with an exact, synthetic duration: [finished] is
   mutable precisely so tests can pin latencies deterministically. *)
let finished_conn ~ms =
  let c = Znet.Svcstats.begin_conn ~peer:"t" in
  Znet.Svcstats.end_conn c `Ok;
  c.Znet.Svcstats.finished <- Some (c.Znet.Svcstats.started +. (ms /. 1000.0));
  c

let test_latency_percentiles () =
  Znet.Svcstats.reset ();
  (* empty ring: all percentiles are 0, not an exception *)
  let p50, p95, p99 = Znet.Svcstats.latency_ms () in
  Alcotest.(check leq) "empty p50" 0.0 p50;
  Alcotest.(check leq) "empty p95" 0.0 p95;
  Alcotest.(check leq) "empty p99" 0.0 p99;
  (* one sample: every percentile is that sample *)
  ignore (finished_conn ~ms:42.0);
  let p50, p95, p99 = Znet.Svcstats.latency_ms () in
  Alcotest.(check leq) "single p50" 42.0 p50;
  Alcotest.(check leq) "single p95" 42.0 p95;
  Alcotest.(check leq) "single p99" 42.0 p99;
  (* active (unfinished) connections contribute nothing *)
  let _active = Znet.Svcstats.begin_conn ~peer:"t" in
  let p50', _, _ = Znet.Svcstats.latency_ms () in
  Alcotest.(check leq) "active conn excluded" 42.0 p50';
  (* ring wraparound: cap 4, six completions — only the newest four
     (30..60 ms) survive, and nearest-rank picks p50=40, p95=p99=60 *)
  Znet.Svcstats.reset ();
  Znet.Svcstats.set_recent_cap 4;
  List.iter (fun ms -> ignore (finished_conn ~ms)) [ 10.0; 20.0; 30.0; 40.0; 50.0; 60.0 ];
  let p50, p95, p99 = Znet.Svcstats.latency_ms () in
  Alcotest.(check leq) "wraparound p50 over newest four" 40.0 p50;
  Alcotest.(check leq) "wraparound p95" 60.0 p95;
  Alcotest.(check leq) "wraparound p99" 60.0 p99;
  (* shed connections never enter the ring: the percentiles are unmoved
     and the shed counter accounts them separately *)
  Znet.Svcstats.record_shed ();
  Znet.Svcstats.record_shed ();
  let p50', p95', _ = Znet.Svcstats.latency_ms () in
  Alcotest.(check leq) "shed excluded from p50" p50 p50';
  Alcotest.(check leq) "shed excluded from p95" p95 p95';
  let shed, _, _, _ = Znet.Svcstats.farm_totals () in
  Alcotest.(check int) "shed accounted" 2 shed;
  Znet.Svcstats.reset ()

(* ------------------------------------------------------------------ *)
(* Svcstats: event-loop health                                         *)
(* ------------------------------------------------------------------ *)

let jnum j k =
  match Option.bind (Zobs.Json.member k j) Zobs.Json.to_num with
  | Some v -> v
  | None -> Alcotest.failf "missing numeric field %s" k

let test_loop_health () =
  Znet.Svcstats.reset ();
  Znet.Svcstats.set_queue_depth 3;
  Znet.Svcstats.record_loop_iter ~busy_s:0.002 ~wait_s:0.008 ~ready:3;
  Znet.Svcstats.record_loop_iter ~busy_s:0.001 ~wait_s:0.004 ~ready:1;
  let iters, busy, wait, ready = Znet.Svcstats.loop_totals () in
  Alcotest.(check int) "iterations" 2 iters;
  Alcotest.(check int) "ready fds total" 4 ready;
  Alcotest.(check feq) "busy seconds" 0.003 busy;
  Alcotest.(check feq) "wait seconds" 0.012 wait;
  let j = Znet.Svcstats.json () in
  let loop =
    match Zobs.Json.member "loop" j with
    | Some l -> l
    | None -> Alcotest.fail "/json has no loop object"
  in
  Alcotest.(check feq) "utilization = busy/(busy+wait)" 0.2 (jnum loop "utilization");
  Alcotest.(check feq) "ready_avg" 2.0 (jnum loop "ready_avg");
  Alcotest.(check feq) "iterations in json" 2.0 (jnum loop "iterations");
  let trend =
    match Option.bind (Zobs.Json.member "queue_depth_trend" loop) Zobs.Json.to_arr with
    | Some l -> l
    | None -> Alcotest.fail "no queue_depth_trend"
  in
  Alcotest.(check int) "trend holds one sample per iteration" 2 (List.length trend);
  List.iter
    (fun d -> Alcotest.(check (option feq)) "trend sampled the gauge" (Some 3.0) (Zobs.Json.to_num d))
    trend;
  let prom = Znet.Svcstats.prometheus () in
  List.iter
    (fun series -> Alcotest.(check bool) (series ^ " exposed") true (contains prom series))
    [
      "zaatar_loop_iterations_total 2";
      "zaatar_loop_busy_seconds_total";
      "zaatar_loop_utilization 0.2";
      "zaatar_loop_ready_fds_total 4";
      "zaatar_loop_iter_us_bucket";
      "zaatar_loop_iter_us_count 2";
      "zaatar_loop_ready_fds_p99";
    ];
  Znet.Svcstats.reset ();
  let iters, _, _, _ = Znet.Svcstats.loop_totals () in
  Alcotest.(check int) "reset clears loop state" 0 iters

(* ------------------------------------------------------------------ *)
(* Flight recorder ring                                                *)
(* ------------------------------------------------------------------ *)

let test_flight_ring () =
  let fl = Zobs.Flight.create ~cap:4 () in
  Alcotest.(check int) "fresh ring is empty" 0 (Zobs.Flight.count fl);
  Alcotest.(check int) "no entries yet" 0 (List.length (Zobs.Flight.entries fl));
  Zobs.Flight.record fl ~detail:"127.0.0.1:9" (Zobs.Flight.Mark "accepted");
  Zobs.Flight.record fl ~n:100 Zobs.Flight.Read;
  Zobs.Flight.record fl ~dur:0.005 ~detail:"commit" (Zobs.Flight.Phase "commit");
  Zobs.Flight.record fl ~n:50 Zobs.Flight.Write;
  Zobs.Flight.record fl ~detail:"abc" Zobs.Flight.Cache_hit;
  Zobs.Flight.record fl Zobs.Flight.Timeout;
  Alcotest.(check int) "count is total ever recorded" 6 (Zobs.Flight.count fl);
  Alcotest.(check int) "two fell off the ring" 2 (Zobs.Flight.dropped fl);
  let es = Zobs.Flight.entries fl in
  Alcotest.(check int) "cap entries survive" 4 (List.length es);
  Alcotest.(check (list string)) "oldest-first, oldest two gone"
    [ "phase.commit"; "frame.write"; "cache.hit"; "timeout" ]
    (List.map Zobs.Flight.event_name es)

let test_flight_dumps () =
  let fl = Zobs.Flight.create ~cap:8 () in
  Zobs.Flight.record fl ~detail:"peer" (Zobs.Flight.Mark "accepted");
  Zobs.Flight.record fl ~dur:0.002 (Zobs.Flight.Phase "hello");
  Zobs.Flight.record fl (Zobs.Flight.Ledger_delta [ ("e", 12); ("f", 3) ]);
  Zobs.Flight.record fl ~detail:"ok" (Zobs.Flight.Mark "finished");
  (* JSONL: header line + one line per entry, each standalone JSON *)
  let body = Zobs.Flight.jsonl ~header:[ ("sid", Zobs.Json.Num 7.0) ] fl in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' body) in
  Alcotest.(check int) "header + 4 events" 5 (List.length lines);
  let parsed = List.map Zobs.Json.parse lines in
  let header = List.hd parsed in
  let jstr j k = Option.bind (Zobs.Json.member k j) Zobs.Json.to_str in
  Alcotest.(check (option string)) "header kind" (Some "session") (jstr header "kind");
  Alcotest.(check feq) "header sid" 7.0 (jnum header "sid");
  Alcotest.(check feq) "header events" 4.0 (jnum header "events");
  Alcotest.(check feq) "header dropped" 0.0 (jnum header "dropped");
  List.iter
    (fun l -> Alcotest.(check (option string)) "event kind" (Some "event") (jstr l "kind"))
    (List.tl parsed);
  let ledger_line = List.nth parsed 3 in
  (match Option.bind (Zobs.Json.member "ops" ledger_line) (Zobs.Json.member "e") with
  | Some v -> Alcotest.(check (option feq)) "ledger delta op" (Some 12.0) (Zobs.Json.to_num v)
  | None -> Alcotest.fail "ledger event lost its ops object");
  (* Chrome-trace sidecar: parses, keeps the caller's trace id, renders
     the session envelope plus one slice per entry *)
  let dir = Test_serve.temp_dir () in
  let path = Filename.concat dir "sidecar.json" in
  Zobs.Flight.write_sidecar ~trace_id:"zscope-test-id" fl path;
  let j = Zobs.Json.parse (Test_serve.read_file path) in
  (match Option.bind (Zobs.Json.member "otherData" j) (Zobs.Json.member "trace_id") with
  | Some id ->
    Alcotest.(check (option string)) "sidecar trace id" (Some "zscope-test-id")
      (Zobs.Json.to_str id)
  | None -> Alcotest.fail "sidecar has no trace id");
  match Option.bind (Zobs.Json.member "traceEvents" j) Zobs.Json.to_arr with
  | Some evs ->
    (* process_name metadata + session envelope + one slice per entry *)
    Alcotest.(check int) "metadata + envelope + 4 slices" 6 (List.length evs)
  | None -> Alcotest.fail "sidecar has no traceEvents"

(* ------------------------------------------------------------------ *)
(* Sampling profiler                                                   *)
(* ------------------------------------------------------------------ *)

let test_profiler_samples_live_stacks () =
  (* Full tracing stays OFF: the profiler's own enable_stacks must be
     enough for Span.with_ to maintain the live stacks it samples. *)
  Alcotest.(check bool) "tracing off" false (Zobs.enabled ());
  let p = Zobs.Profiler.make ~hz:250 () in
  Alcotest.(check bool) "not running before start" false (Zobs.Profiler.running p);
  Zobs.Profiler.start p;
  Fun.protect
    ~finally:(fun () ->
      Zobs.Profiler.stop p;
      Zobs.Registry.disable_stacks ())
  @@ fun () ->
  Alcotest.(check bool) "running after start" true (Zobs.Profiler.running p);
  Zobs.Span.with_ ~name:"zscope.outer" (fun () ->
      Zobs.Span.with_ ~name:"zscope.probe" (fun () ->
          let deadline = Unix.gettimeofday () +. 10.0 in
          while
            (Zobs.Profiler.stats p).Zobs.Profiler.s_busy = 0
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.002
          done));
  let st = Zobs.Profiler.stats p in
  Alcotest.(check bool) "ticker ticked" true (st.Zobs.Profiler.s_ticks > 0);
  Alcotest.(check bool) "open span seen" true (st.Zobs.Profiler.s_busy > 0);
  let f = Zobs.Profiler.folded p in
  Alcotest.(check bool) "folded holds the nested path" true
    (contains f "zscope.outer;zscope.probe ");
  Zobs.Profiler.stop p;
  Alcotest.(check bool) "stopped" false (Zobs.Profiler.running p);
  let ticks_at_stop = (Zobs.Profiler.stats p).Zobs.Profiler.s_ticks in
  Unix.sleepf 0.02;
  Alcotest.(check int) "no ticks after stop" ticks_at_stop
    (Zobs.Profiler.stats p).Zobs.Profiler.s_ticks;
  Zobs.Profiler.reset p;
  Alcotest.(check int) "reset clears samples" 0 (Zobs.Profiler.stats p).Zobs.Profiler.s_distinct

(* ------------------------------------------------------------------ *)
(* /healthz + /profile                                                 *)
(* ------------------------------------------------------------------ *)

let test_healthz_and_profile_routes () =
  let ready = ref false in
  let m =
    Zfarm.Farm.start_metrics ~ready:(fun () -> !ready)
      ~profile:(fun () -> "probe;leaf 3\n")
      "127.0.0.1:0"
  in
  Fun.protect ~finally:(fun () -> Znet.Metrics_http.stop m) @@ fun () ->
  let addr = Znet.Metrics_http.bound_addr m in
  let code, body = Znet.Metrics_http.get addr "/healthz" in
  Alcotest.(check int) "not ready: 503" 503 code;
  Alcotest.(check string) "starting body" "starting\n" body;
  ready := true;
  let code, body = Znet.Metrics_http.get addr "/healthz" in
  Alcotest.(check int) "ready: 200" 200 code;
  Alcotest.(check string) "ok body" "ok\n" body;
  let code, body = Znet.Metrics_http.get addr "/profile" in
  Alcotest.(check int) "/profile serves" 200 code;
  Alcotest.(check string) "live profiler folded stacks" "probe;leaf 3\n" body;
  let code, _ = Znet.Metrics_http.get addr "/nope" in
  Alcotest.(check int) "unknown route 404" 404 code

let suite =
  [
    Alcotest.test_case "svcstats: latency percentile edge cases" `Quick test_latency_percentiles;
    Alcotest.test_case "svcstats: event-loop health accounting" `Quick test_loop_health;
    Alcotest.test_case "flight: bounded ring keeps the newest entries" `Quick test_flight_ring;
    Alcotest.test_case "flight: JSONL bundle and Chrome-trace sidecar" `Quick test_flight_dumps;
    Alcotest.test_case "profiler: samples live span stacks, tracing off" `Slow
      test_profiler_samples_live_stacks;
    Alcotest.test_case "metrics http: /healthz readiness and /profile" `Quick
      test_healthz_and_profile_routes;
  ]
