(* The bench's metric gates (bench/metric.ml) on synthetic run and
   baseline JSON: each kind at and past its edges, NaN, a gated path the
   baseline lacks, configuration mismatches, and the nested-path JSON
   round trip the summary and the --baseline lookup share. *)

let config ?(quick = false) ?(backend = "auto") () =
  Zobs.Json.Obj
    [
      ("rho", Zobs.Json.Num 3.0);
      ("quick", Zobs.Json.Bool quick);
      ("qap_backend", Zobs.Json.Str backend);
    ]

(* A committed run holding [metrics], as BENCH_run.json would. *)
let baseline ?(cfg = config ()) metrics =
  Zobs.Json.parse (Zobs.Json.to_string (Zobs.Json.Obj (("config", cfg) :: Metric.to_json metrics)))

let breaches ?base ?(gates = []) metrics =
  List.map snd (Metric.breaches ?baseline:base ~gates ~config:(config ()) metrics)

let passes ?base ?gates m = breaches ?base ?gates [ m ] = []
let fails ?base ?gates m = not (passes ?base ?gates m)

(* One gated value against a baseline that recorded [was] at its path. *)
let against was m = baseline [ Metric.info m.Metric.path was ]

let tests =
  [
    Alcotest.test_case "exact: equal passes, unequal fails" `Quick (fun () ->
        let m = Metric.exact "network.bytes_sent" 18140.0 in
        Alcotest.(check bool) "equal" true (passes ~base:(against 18140.0 m) m);
        Alcotest.(check bool) "one byte off" true (fails ~base:(against 18141.0 m) m);
        Alcotest.(check bool) "unarmed without a baseline" true (passes m));
    Alcotest.test_case "drift: both edges pass, one-sided has no floor" `Quick (fun () ->
        let two v = Metric.drift (0.25, 4.0) "farm.speedup" v in
        let base = against 2.0 (two 0.0) in
        List.iter
          (fun (v, ok) ->
            Alcotest.(check bool) (Printf.sprintf "two-sided %g" v) ok (passes ~base (two v)))
          [ (0.5, true); (8.0, true); (0.49, false); (8.01, false) ];
        let one v = Metric.drift (0.0, 4.0) "lint.apps.pam.backend_s" v in
        let base = against 2.0 (one 0.0) in
        List.iter
          (fun (v, ok) ->
            Alcotest.(check bool) (Printf.sprintf "one-sided %g" v) ok (passes ~base (one v)))
          [ (0.0, true); (2.0 /. 4.01, true); (8.0, true); (8.02, false) ]);
    Alcotest.test_case "band: edges are inside, a ceiling has no floor" `Quick (fun () ->
        let gates = [ Metric.Check_model ] in
        let b v = Metric.band Metric.Check_model (0.2, 5.0) "model.apps.pam.phases.total.delta" v in
        List.iter
          (fun (v, ok) -> Alcotest.(check bool) (Printf.sprintf "band %g" v) ok (passes ~gates (b v)))
          [ (0.2, true); (5.0, true); (0.19, false); (5.01, false) ];
        Alcotest.(check bool) "unarmed band" true (passes (b 1000.0));
        let c v = Metric.band Metric.Check_ledger (neg_infinity, 120.0) "alloc.fp.mul.words_per_op" v in
        let gates = [ Metric.Check_ledger ] in
        Alcotest.(check bool) "at ceiling" true (passes ~gates (c 120.0));
        Alcotest.(check bool) "below zero" true (passes ~gates (c (-1.0)));
        Alcotest.(check bool) "over ceiling" true (fails ~gates (c 120.1)));
    Alcotest.test_case "always-on checks fire without flags, with their message" `Quick (fun () ->
        let msg = "wire: sent (1) and received (2) bytes do not balance" in
        Alcotest.(check (list string)) "failed check" [ msg ]
          (breaches [ Metric.check msg "network.balanced" false ]);
        Alcotest.(check (list string)) "held check" [] (breaches [ Metric.check msg "network.balanced" true ]);
        Alcotest.(check bool) "expect zero" true
          (fails (Metric.expect "lint: errors" "lint.errors" 0.0 1.0)));
    Alcotest.test_case "NaN fails every kind" `Quick (fun () ->
        let base = baseline [ Metric.info "x" 1.0 ] in
        List.iter
          (fun (label, m) ->
            Alcotest.(check bool) label true (fails ~base ~gates:[ Metric.Check_model ] m))
          [
            ("exact", Metric.exact "x" nan);
            ("drift", Metric.drift (0.25, 4.0) "x" nan);
            ("one-sided drift", Metric.drift (0.0, 4.0) "x" nan);
            ("band", Metric.band Metric.Check_model (neg_infinity, infinity) "x" nan);
            ("check", Metric.expect "nan" "x" 0.0 nan);
          ];
        Alcotest.(check bool) "0/0 drift ratio" true
          (fails ~base:(against 0.0 (Metric.exact "y" 0.0)) (Metric.drift (0.25, 4.0) "y" 0.0)));
    Alcotest.test_case "a gated path missing from the baseline fails" `Quick (fun () ->
        let base = baseline [ Metric.info "network.bytes_sent" 1.0 ] in
        List.iter
          (fun m -> Alcotest.(check bool) m.Metric.path true (fails ~base m))
          [
            Metric.exact "network.bytes_recv" 1.0;
            Metric.drift (0.25, 4.0) "farm.speedup" 1.0;
            Metric.band Metric.Baseline (neg_infinity, 1.03) "obs_overhead.overhead_ratio" 1.0;
          ];
        Alcotest.(check bool) "info is never looked up" true
          (passes ~base (Metric.info "network.bytes_recv" 1.0)));
    Alcotest.test_case "config mismatch names the key" `Quick (fun () ->
        let m = Metric.exact "x" 1.0 in
        Alcotest.(check (list string)) "same config" [] (breaches ~base:(baseline [ m ]) [ m ]);
        Alcotest.(check (list string)) "quick"
          [ "baseline: config mismatch: quick = false here, true in baseline" ]
          (breaches ~base:(baseline ~cfg:(config ~quick:true ()) [ m ]) [ m ]);
        Alcotest.(check (list string)) "qap_backend"
          [ "baseline: config mismatch: qap_backend = \"auto\" here, \"lagrange\" in baseline" ]
          (breaches ~base:(baseline ~cfg:(config ~backend:"lagrange" ()) [ m ]) [ m ]);
        let partial = Zobs.Json.Obj [ ("rho", Zobs.Json.Num 3.0); ("quick", Zobs.Json.Bool false) ] in
        Alcotest.(check (list string)) "missing key"
          [ "baseline: config key qap_backend missing from baseline" ]
          (breaches ~base:(baseline ~cfg:partial [ m ]) [ m ]));
    Alcotest.test_case "nested paths: write, parse back, look up" `Quick (fun () ->
        let ms =
          [
            Metric.info "experiments.model" 1.5;
            Metric.exact "lint.apps.pam.rows" 927.0;
            Metric.drift (0.0, 4.0) "lint.apps.pam.backend_s" 0.0095;
            Metric.exact "lint.apps.lcs.rows" 312.0;
            Metric.exact "lint.errors" 0.0;
            Metric.expect "lint: errors" "lint.errors" 0.0 0.0;
            Metric.info "alloc.fp.mul.words_per_op" 76.0;
            Metric.info "alloc.fp.mul_lazy.words_per_op" 9.0;
            Metric.check "agree" "multiexp.kernels_agree" true;
          ]
        in
        let j = Zobs.Json.parse (Zobs.Json.to_string (Zobs.Json.Obj (Metric.to_json ms))) in
        List.iter
          (fun (m : Metric.t) ->
            Alcotest.(check (option (float 0.0))) m.path (Some m.value) (Metric.lookup j m.path))
          ms;
        let apps = Option.bind (Zobs.Json.member "lint" j) (Zobs.Json.member "apps") in
        let names = match apps with Some (Zobs.Json.Obj kvs) -> List.map fst kvs | _ -> [] in
        Alcotest.(check (list string)) "rows keyed by app" [ "pam"; "lcs" ] names;
        Alcotest.(check (option (float 0.0))) "inner node" None (Metric.lookup j "lint.apps.pam");
        Alcotest.(check (option (float 0.0))) "absent" None (Metric.lookup j "lint.apps.apsp.rows");
        Alcotest.(check (list string)) "the run against itself" []
          (breaches ~base:(baseline ms) ms));
  ]

let suite = tests
