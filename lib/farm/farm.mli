(** Zfarm: the concurrent multi-tenant prover farm behind [zaatar serve]
    (DESIGN.md §14).

    One event loop multiplexes many in-flight {!Argsys.Argument.Prover_session}
    state machines over [select]/nonblocking sockets — slow verifiers never
    stall fast ones — while ready frames are grouped by computation digest
    and fanned out over the Pool domain workers. Per-digest setup (the
    compiled QAP with its divisor, subproduct trees and twiddle plans)
    lives in a byte-bounded LRU ({!Setup_cache}), amortizing the paper's
    per-batch setup across {i users}. Admission control parks up to
    [accept_queue] connections beyond [max_sessions] and sheds the rest
    with a wire [busy retry-after] reply ({!Zwire.busy_msg}).

    This is the repo's one prover serve loop. It pumps the same state
    machines over the same codec as the in-process loopback
    ({!Argsys.Argument.run_batch}), which stays the transcript reference:
    per-session byte streams and verdicts are identical. [max_sessions = 1]
    with the setup cache off serves one connection at a time. *)

type config = {
  arg_config : Argsys.Argument.config;
  max_sessions : int;  (** in-flight session cap *)
  accept_queue : int;
      (** connections parked (accepted, unread) beyond [max_sessions]
          before shedding begins *)
  session_timeout_ms : int;  (** per-session inactivity deadline *)
  setup_cache_bytes : int;  (** LRU byte bound (--setup-cache-mb at the CLI); 0 disables the cache *)
  busy_retry_ms : int;  (** retry-after hint carried in the shed reply *)
  trace_dir : string option;
      (** write per-session Chrome-trace sidecars ([prover_connN.json],
          mergeable by [zaatar trace-merge]) and forensic JSONL bundles
          ([forensic_connN.jsonl]) here *)
  slow_session_ms : int;
      (** sessions lasting at least this long also get a forensic bundle
          (0 disables the slow-session trigger) *)
  flight_cap : int;
      (** per-session flight-recorder ring capacity (events); 0 disables
          the recorder entirely *)
  profile_hz : int;
      (** sampling wall-clock profiler tick rate backing [/profile] and
          [zaatar profile --live]; 0 disables the sampler *)
}

val default : config
(** {!Argsys.Argument.default_config}, 64 sessions, 128-deep accept queue,
    30 s timeout, 64 MiB cache. *)

val approx_qap_bytes : Qapb.t -> int
(** The resident-size estimate steering LRU eviction. *)

val serve :
  ?config:config ->
  lookup:(string -> Argsys.Argument.computation option) ->
  ?seed:string ->
  ?max_conns:int ->
  ?stop:(unit -> bool) ->
  ?metrics_listen:string ->
  ?log:(string -> unit) ->
  string ->
  unit
(** Bind ["HOST:PORT"] (port 0 picks an ephemeral port), log
    ["listening on HOST:PORT"] (after ["metrics on HOST:PORT"] when
    [metrics_listen] is given), and run the event loop until [stop]
    returns true or — when [max_conns] is given — that many sessions have
    closed and none remain in flight (the CLI maps [--once] to
    [max_conns:1]). A fresh per-session PRG derives from [seed]; session
    errors are logged and accounted, never fatal to the loop.
    [metrics_listen] starts the Prometheus/JSON endpoint
    ({!start_metrics}) alongside, with [/healthz] turning
    200 once the event loop is live and [/profile] serving the sampling
    profiler's folded stacks.

    Each session carries a bounded flight recorder (phase transitions,
    frame reads/writes, cache hits/misses, ledger deltas, shed/timeout
    marks). With [config.trace_dir] set, every finished session dumps a
    Chrome-trace sidecar stamped with the verifier's trace id; sessions
    that error — or outlast [config.slow_session_ms] — additionally dump
    a JSONL forensic bundle. *)

(** {1 Metrics endpoint} *)

val metrics_json : unit -> string
(** JSON snapshot of the server + per-connection {!Znet.Svcstats}. *)

val start_metrics :
  ?ready:(unit -> bool) -> ?profile:(unit -> string) -> string -> Znet.Metrics_http.t
(** Start the metrics HTTP server on ["HOST:PORT"] (port 0 picks an
    ephemeral port — read it back with {!Znet.Metrics_http.bound_addr}).
    Serves [/metrics] (Prometheus text: per-connection Svcstats series
    followed by every global Zobs counter/histogram/span aggregate; also
    at [/]), [/json], [/healthz] (readiness: 200 ["ok"] while [ready] —
    default always — holds, 503 otherwise) and [/profile] (folded stacks:
    the live sampling profiler's when the server passes [profile], else
    the completed-span folding). *)
