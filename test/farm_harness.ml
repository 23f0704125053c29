(* Run a prover farm in its own domain for socket tests. The farm is the
   one serve loop; [Argument.run_batch], the in-process loopback, is the
   oracle its sessions are checked against. *)

open Argsys

(* Collect the farm's log lines and wait for the "<prefix>ADDR" ones that
   announce the ephemeral ports. *)
type log_capture = { mu : Mutex.t; mutable lines : string list }

let capture () = { mu = Mutex.create (); lines = [] }

let log_to c s =
  Mutex.lock c.mu;
  c.lines <- s :: c.lines;
  Mutex.unlock c.mu

let wait_for c prefix =
  let k = String.length prefix in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    Mutex.lock c.mu;
    let hit =
      List.find_map
        (fun l ->
          if String.length l > k && String.sub l 0 k = prefix then
            Some (String.sub l k (String.length l - k))
          else None)
        c.lines
    in
    Mutex.unlock c.mu;
    match hit with
    | Some addr -> addr
    | None ->
      if Unix.gettimeofday () > deadline then Alcotest.failf "farm never logged %S" prefix;
      Unix.sleepf 0.01;
      go ()
  in
  go ()

let test_fconfig = { Zfarm.Farm.default with arg_config = Argument.test_config }

(* Runs [body addr] against a farm serving [max_conns] sessions and
   returns its result only after the farm loop has finished every session
   and exited: the server's own completion signal, after which Svcstats
   is final. If [body] raises, the loop is stopped before the join, so a
   failed test cannot hang on sessions that never arrive. Pass [cap] to
   read other log lines (e.g. "metrics on "). *)
let with_farm ?(fconfig = test_fconfig) ?(cap = capture ()) ?metrics_listen ~lookup ~max_conns
    body =
  Znet.Svcstats.reset ();
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Zfarm.Farm.serve ~config:fconfig ~lookup ~max_conns
          ~stop:(fun () -> Atomic.get stop)
          ?metrics_listen ~log:(log_to cap) "127.0.0.1:0")
  in
  match body (wait_for cap "listening on ") with
  | r ->
    Domain.join server;
    r
  | exception e ->
    Atomic.set stop true;
    Domain.join server;
    raise e
