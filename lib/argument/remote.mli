(** The verifier-side socket driver for the split verifier/prover argument:
    the {!Argument.Verifier_session} state machine pumped over a {!Znet}
    connection (DESIGN.md §9). [zaatar run --connect] is a thin wrapper;
    the prover side is the farm ([Zfarm.Farm.serve], DESIGN.md §14).

    Wire operations run under [net.send]/[net.recv] Zobs spans and feed
    per-phase [wire.latency_us.<phase>] histograms. *)

open Fieldlib

val run_conn :
  ?config:Argument.config ->
  ?trace_id:string ->
  Argument.computation ->
  prg:Chacha.Prg.t ->
  inputs:Fp.el array array ->
  Znet.conn ->
  Argument.batch_result
(** Drive a verifier session over an existing connection. The prover-side
    metrics in the result are empty — they live in the remote process.
    [trace_id] is carried to the prover in the Hello (see
    {!Argument.Verifier_session.create}). *)

val run_connect :
  ?config:Argument.config ->
  ?trace_id:string ->
  ?timeout_ms:int ->
  addr:string ->
  Argument.computation ->
  prg:Chacha.Prg.t ->
  inputs:Fp.el array array ->
  Argument.batch_result
(** Connect to a prover at ["HOST:PORT"] and run the batch. The connection
    is closed on all paths. Raises [Znet.Net_error] on transport failure
    and {!Argument.Session_error} on protocol violations (including an
    [Error_msg] from the prover). *)
