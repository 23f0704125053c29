(* The benchmark program (perfbench/README.md): runs one workload for about
   --seconds, checks every op, and prints its metrics, the last line being
   one JSON object. perfbench/run.py builds this and is the entry point.

     zbench --workload W --seed N --seconds S --trace 0|1 --out DIR --zaatar EXE *)

open Common

let workloads = [ "verify-b1"; "prove-b16"; "farm-mixed"; "toolchain" ]

let usage () =
  prerr_endline
    "usage: zbench --workload (verify-b1|prove-b16|farm-mixed|toolchain) --seed N --seconds S \
     --trace 0|1 --out DIR --zaatar EXE";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let out = ref "" and zaatar = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | "--zaatar" :: v :: rest -> zaatar := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some n, Some s, Some t when s > 0.0 && List.mem !workload workloads && !out <> "" -> (n, s, t)
    | _ -> usage ()
  in
  (* A signal still runs the at_exit hooks that stop the farm server. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let workload = !workload in
  (* The host-speed probe runs through the whole of an untraced run,
     set-up included; a traced run is not scaled. farm-mixed's work runs in
     the serve process, which the probe cannot interrupt, so it samples
     from a domain of its own there. *)
  if not trace then if workload = "farm-mixed" then Probe.start_sidecar () else Probe.start ();
  let r =
    match workload with
    | "farm-mixed" -> Farm_mixed.run ~seed ~seconds ~trace ~out:!out ~zaatar:!zaatar
    | "toolchain" -> Toolchain.run ~workload ~seed ~seconds ~trace
    | w -> Batch.run ~workload ~seed ~seconds ~trace (Option.get (Batch.spec_of w))
  in
  Probe.stop ();
  let metrics =
    if not trace then r.metrics
    else begin
      let path = Filename.concat !out (Printf.sprintf "trace-%s-%d.json" workload seed) in
      Tracer.write_chrome path;
      Printf.printf "trace written to %s\n" path;
      List.map
        (fun (name, unit) ->
          match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
          | Some (_, v, u) when u = unit -> (name, v, u)
          | Some (_, _, u) -> failwith (Printf.sprintf "%s: unit %s, declared %s" name u unit)
          | None -> (name, 0.0, unit))
        per_layer
    end
  in
  Printf.printf "workload %s  seed %d  %s run\n" workload seed (if trace then "traced" else "untraced");
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14.4f %s\n" n v u) (metrics @ r.report);
  Printf.printf "  %-28s %14d\n  %-28s %14d\n" "attempted" r.attempted "failed" r.failed;
  (* Shortest decimal that reads back as the same float: every digit as
     measured, none invented. *)
  let number v =
    let v = if Float.is_finite v then v else 0.0 in
    let rec go p =
      let s = Printf.sprintf "%.*g" p v in
      if p >= 17 || float_of_string s = v then s else go (p + 1)
    in
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else go 1
  in
  (* A non-finite value (no samples: every op failed) prints as 0 and
     marks the result incorrect. *)
  let correct =
    r.failed = 0 && r.checks_ok && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct
    r.attempted r.failed
    (String.concat ","
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" n (number v) u)
          metrics))
