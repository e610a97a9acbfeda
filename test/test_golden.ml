(* Seed-determinism golden test: one small config per registered algorithm
   with its full Metrics.summary (and message count) pinned to the values
   the seed produced when this test was written. Any change to the PRNG,
   the event engine's ordering, the delay model, the clock models, or an
   algorithm's message protocol shifts these numbers immediately and by
   far more than the tolerance; the tolerance (1e-9) only absorbs
   last-ulp libm differences across platforms.

   Config: ring:8, kappa 0.5, drift split (nodes 0-3 fast, 4-7 slow) so
   every algorithm — including the gradient deadband — actually corrects,
   horizon 80, seed 7.

   If a change is *supposed* to alter simulation results, regenerate the
   table below with exactly this config and say so in the commit. *)

module Topology = Gcs_graph.Topology
module Drift = Gcs_clock.Drift
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics

let golden : (Algorithm.kind * Metrics.summary * int) list =
  [
    ( Algorithm.Free_run,
      {
        Metrics.max_global = 0x1.999999999998p-1;
        max_local = 0x1.999999999998p-1;
        mean_local = 0x1.0000000000004p-1;
        p99_local = 0x1.96872b020c4b3p-1;
        final_global = 0x1.999999999998p-1;
        final_local = 0x1.999999999998p-1;
        samples_used = 61;
      },
      0 );
    ( Algorithm.Max_sync,
      {
        Metrics.max_global = 0x1.75c3b4f9cccp-2;
        max_local = 0x1.13c50d8d6dd8p-2;
        mean_local = 0x1.82378afa84ab4p-3;
        p99_local = 0x1.1055329e4b333p-2;
        final_global = 0x1.6577ccf8904p-2;
        final_local = 0x1.0e0aa0a9897p-2;
        samples_used = 61;
      },
      1288 );
    ( Algorithm.Max_slew_sync,
      {
        Metrics.max_global = 0x1.a5c934682788p-2;
        max_local = 0x1.340e4f08af1p-2;
        mean_local = 0x1.ba47b184bb322p-3;
        p99_local = 0x1.2de971d994719p-2;
        final_global = 0x1.7290fb1a9cbp-2;
        final_local = 0x1.1d80e1f6643p-2;
        samples_used = 61;
      },
      1288 );
    ( Algorithm.Tree_sync,
      {
        Metrics.max_global = 0x1.8a3d70a3d708p-1;
        max_local = 0x1.da5be824ac98p-2;
        mean_local = 0x1.794de76c3218dp-2;
        p99_local = 0x1.d4370af591f99p-2;
        final_global = 0x1.6796bdc1113p-1;
        final_local = 0x1.a279842388bp-2;
        samples_used = 61;
      },
      1119 );
    ( Algorithm.Gradient_sync,
      {
        Metrics.max_global = 0x1.50c48e1dda6p-2;
        max_local = 0x1.08d71a5a1e8p-2;
        mean_local = 0x1.7d55a1e437de9p-3;
        p99_local = 0x1.05e86cb205db3p-2;
        final_global = 0x1.50c48e1dda6p-2;
        final_local = 0x1.08d71a5a1e8p-2;
        samples_used = 61;
      },
      1288 );
    (* Identical to the Gradient_sync row by design: on a degree-2 ring the
       trim count is 0 and the clamp window (+/- (2f+1)kappa = 1.5) never
       binds in a benign run, so the filter must be exactly inert. A
       divergence here means the ft variant perturbs faultless behaviour. *)
    ( Algorithm.Ft_gradient_sync 1,
      {
        Metrics.max_global = 0x1.50c48e1dda6p-2;
        max_local = 0x1.08d71a5a1e8p-2;
        mean_local = 0x1.7d55a1e437de9p-3;
        p99_local = 0x1.05e86cb205db3p-2;
        final_global = 0x1.50c48e1dda6p-2;
        final_local = 0x1.08d71a5a1e8p-2;
        samples_used = 61;
      },
      1288 );
    (* Also identical to the Gradient_sync row by design: edges present at
       startup are born settled (see Dynamic_gradient), so on a static
       network the fresh-edge discount never engages and the dynamic
       variant must reproduce the static gradient bit for bit. A
       divergence here means the edge-age machinery perturbs unchurned
       runs. *)
    ( Algorithm.Dynamic_gradient_sync,
      {
        Metrics.max_global = 0x1.50c48e1dda6p-2;
        max_local = 0x1.08d71a5a1e8p-2;
        mean_local = 0x1.7d55a1e437de9p-3;
        p99_local = 0x1.05e86cb205db3p-2;
        final_global = 0x1.50c48e1dda6p-2;
        final_local = 0x1.08d71a5a1e8p-2;
        samples_used = 61;
      },
      1288 );
  ]

let spec = Spec.make ~kappa:0.5 ()

let run_one ?override ?delay_kind ?fault_plan algo =
  let cfg =
    Runner.config ~spec ~algo ?override ?delay_kind ?fault_plan
      ~drift_of_node:(fun v ->
        if v < 4 then Drift.Extreme_high else Drift.Extreme_low)
      ~horizon:80. ~seed:7 (Topology.ring 8)
  in
  Runner.run cfg

let check_summary (r : Runner.result) expected messages =
  let s = r.Runner.summary in
  let f = Alcotest.(check (float 1e-9)) in
  f "max_global" expected.Metrics.max_global s.Metrics.max_global;
  f "max_local" expected.Metrics.max_local s.Metrics.max_local;
  f "mean_local" expected.Metrics.mean_local s.Metrics.mean_local;
  f "p99_local" expected.Metrics.p99_local s.Metrics.p99_local;
  f "final_global" expected.Metrics.final_global s.Metrics.final_global;
  f "final_local" expected.Metrics.final_local s.Metrics.final_local;
  Alcotest.(check int) "samples_used" expected.Metrics.samples_used
    s.Metrics.samples_used;
  Alcotest.(check int) "messages" messages r.Runner.messages

let check_algo (algo, expected, messages) () =
  check_summary (run_one algo) expected messages

(* The gradient variants that are not registry kinds and run only through
   [Runner.config ~override], pinned on the same config. They share the
   neighbor-sync machinery of the registered gradient, so these rows pin
   what that machinery does for the round-trip estimate source, per-port
   flight guesses and kappas, and the external anchor's extra offset and
   slowed base pace. With every edge's bounds equal to [spec.delay] the
   per-edge kappa (2.16) is never reached on this ring, so that hetero row
   equals the free-run row; the mixed row tightens the odd edges — the two
   drift-split boundaries among them — so the per-port trigger engages. *)
let hetero_mixed_bounds e =
  if e mod 2 = 1 then Gcs_sim.Delay_model.bounds ~d_min:0.9 ~d_max:1.1
  else spec.Spec.delay

let variants : (string * (unit -> Runner.result) * Metrics.summary * int) list
    =
  [
    ( "gradient-rtt",
      (fun () ->
        run_one ~override:Gcs_core.Gradient_rtt.algorithm
          Algorithm.Gradient_sync),
      {
        Metrics.max_global = 0x1.4d7e38fe50c8p-1;
        max_local = 0x1.ab4548d4d0ap-2;
        mean_local = 0x1.303e5479ea303p-2;
        p99_local = 0x1.a5206ba5b5fcdp-2;
        final_global = 0x1.4d7e38fe50c8p-1;
        final_local = 0x1.78199026e85p-2;
        samples_used = 61;
      },
      2560 );
    ( "gradient-hetero",
      (fun () ->
        run_one
          ~override:
            (Gcs_core.Gradient_hetero.algorithm ~edge_bounds:(fun _ ->
                 spec.Spec.delay))
          Algorithm.Gradient_sync),
      {
        Metrics.max_global = 0x1.999999999998p-1;
        max_local = 0x1.999999999998p-1;
        mean_local = 0x1.0000000000004p-1;
        p99_local = 0x1.96872b020c4b3p-1;
        final_global = 0x1.999999999998p-1;
        final_local = 0x1.999999999998p-1;
        samples_used = 61;
      },
      1288 );
    ( "gradient-hetero (mixed edges)",
      (fun () ->
        run_one
          ~override:
            (Gcs_core.Gradient_hetero.algorithm
               ~edge_bounds:hetero_mixed_bounds)
          ~delay_kind:(Runner.Per_edge_delays hetero_mixed_bounds)
          Algorithm.Gradient_sync),
      {
        Metrics.max_global = 0x1.999999999998p-1;
        max_local = 0x1.0e7a82069c64p-1;
        mean_local = 0x1.a3546ed3c28p-2;
        p99_local = 0x1.0b68136f0f126p-1;
        final_global = 0x1.999999999998p-1;
        final_local = 0x1.d8fb647630fp-2;
        samples_used = 61;
      },
      1288 );
    ( "external-gradient",
      (fun () ->
        let anchors v =
          if v = 0 then Some Gcs_core.External_sync.perfect_reference
          else None
        in
        run_one
          ~override:(Gcs_core.External_sync.algorithm ~anchors)
          Algorithm.Gradient_sync),
      {
        Metrics.max_global = 0x1.2e40a76a11cp+0;
        max_local = 0x1.3e22b567fb4p-1;
        mean_local = 0x1.9173c362ee144p-2;
        p99_local = 0x1.2ab3c44d5147fp-1;
        final_global = 0x1.27ee666af95p+0;
        final_local = 0x1.1dbf2390dff8p-1;
        samples_used = 61;
      },
      1288 );
  ]

(* Recovery without a state wipe: the engine re-runs [on_init] on the live
   handlers instead of rebuilding them, so this pins which per-node state
   an algorithm allocates there (the faulted row below wipes, and so goes
   through fresh handlers). *)
let test_nowipe_recovery_pinned () =
  let plan =
    match Gcs_sim.Fault_plan.of_string "crash@50:node=5; recover@60:node=5" with
    | Ok p -> p
    | Error msg -> Alcotest.failf "non-wipe fault plan did not parse: %s" msg
  in
  let r = run_one ~fault_plan:plan Algorithm.Gradient_sync in
  check_summary r
    {
      Metrics.max_global = 0x1.5be4f5b07588p-2;
      max_local = 0x1.03f3f8eca018p-2;
      mean_local = 0x1.7969b56b2a049p-3;
      p99_local = 0x1.fb9e377b0af33p-3;
      final_global = 0x1.430f8ad1fdep-2;
      final_local = 0x1.e6a0f592b02p-3;
      samples_used = 61;
    }
    1268;
  Alcotest.(check int) "dropped_faults" 19 r.Runner.dropped_faults

(* The same config under a standard fault battery (partition-heal, crash with
   state wipe, a corruption window), pinned like the rows above. This extends
   the determinism pin to the fault-injection path: the dedicated fault PRNG
   streams, liveness gating, delivery-side tampering, and the recovery
   metrics all have to reproduce these numbers bit-for-bit — on any machine
   and under any Parallel_run sharding. *)
let faulted_plan () =
  match
    Gcs_sim.Fault_plan.of_string
      "partition@20:cut=0; heal@40:cut=0; crash@50:node=5; \
       recover@60:node=5:wipe; corrupt@30..45:p=0.3:mag=1"
  with
  | Ok p -> p
  | Error msg -> Alcotest.failf "golden fault plan did not parse: %s" msg

let test_faulted_run_pinned () =
  let cfg =
    Runner.config
      ~spec:(Spec.make ~kappa:0.5 ())
      ~algo:Algorithm.Gradient_sync
      ~drift_of_node:(fun v ->
        if v < 4 then Drift.Extreme_high else Drift.Extreme_low)
      ~horizon:80. ~seed:7 ~fault_plan:(faulted_plan ()) (Topology.ring 8)
  in
  let r = Runner.run cfg in
  let s = r.Runner.summary in
  let f = Alcotest.(check (float 1e-9)) in
  f "max_global" 0x1.30636152c2f8p-1 s.Metrics.max_global;
  f "max_local" 0x1.79e4614cb36p-2 s.Metrics.max_local;
  f "mean_local" 0x1.04974d4b884f8p-2 s.Metrics.mean_local;
  f "p99_local" 0x1.75af4f277edcdp-2 s.Metrics.p99_local;
  f "final_global" 0x1.ccd04ca04d7p-2 s.Metrics.final_global;
  f "final_local" 0x1.4651fd5e2adp-2 s.Metrics.final_local;
  Alcotest.(check int) "samples_used" 61 s.Metrics.samples_used;
  Alcotest.(check int) "messages" 1268 r.Runner.messages;
  Alcotest.(check int) "dropped (loss law)" 0 r.Runner.dropped;
  Alcotest.(check int) "dropped_faults" 105 r.Runner.dropped_faults;
  match r.Runner.fault_report with
  | None -> Alcotest.fail "no fault report"
  | Some rep ->
      let module Fm = Gcs_core.Fault_metrics in
      Alcotest.(check int) "corrupted" 66 rep.Fm.corrupted;
      Alcotest.(check int) "duplicated" 0 rep.Fm.duplicated;
      let expected =
        [
          ("partition", 0x1p-1, 0x1.0211f997fa68p-2, Some 0x0p+0);
          ("corrupt", 0x1p-1, 0x1.0211f997fa68p-2, Some 0x0p+0);
          ("crash:5 (wipe)", 0x1p-1, 0x1.0d9b3620617p-2, Some 0x0p+0);
        ]
      in
      Alcotest.(check int) "episode count" (List.length expected)
        (List.length rep.Fm.episodes);
      List.iter
        (fun (label, band, transient, resync) ->
          match
            List.find_opt (fun e -> e.Fm.label = label) rep.Fm.episodes
          with
          | None -> Alcotest.failf "missing episode %s" label
          | Some e ->
              f (label ^ " band") band e.Fm.band;
              f (label ^ " transient") transient e.Fm.worst_transient;
              Alcotest.(check (option (float 1e-9)))
                (label ^ " resync") resync e.Fm.time_to_resync)
        expected

(* The same config under Byzantine injection: an equivocating liar plus a
   random-lie window, run through the ft gradient. Pins the lie rewrite
   path bit-for-bit — the dedicated per-liar lie PRNG streams, the
   source-side tamper hook, the estimate filter, the lied-message counter,
   and the correct-node-only metrics. The liars' own clocks still run the
   protocol (only their outgoing beacons lie), which is why the correct
   summary matches the overall one here: no correct node is dragged
   anywhere near the lies. *)
let byzantine_plan () =
  match
    Gcs_sim.Fault_plan.of_string
      "byz@20..60:node=5:equiv=3; byz@30..50:node=2:mag=2"
  with
  | Ok p -> p
  | Error msg -> Alcotest.failf "golden byzantine plan did not parse: %s" msg

let test_byzantine_run_pinned () =
  let cfg =
    Runner.config
      ~spec:(Spec.make ~kappa:0.5 ())
      ~algo:(Algorithm.Ft_gradient_sync 1)
      ~drift_of_node:(fun v ->
        if v < 4 then Drift.Extreme_high else Drift.Extreme_low)
      ~horizon:80. ~seed:7 ~fault_plan:(byzantine_plan ()) (Topology.ring 8)
  in
  let r = Runner.run cfg in
  let s = r.Runner.summary in
  let f = Alcotest.(check (float 1e-9)) in
  f "max_global" 0x1.a8e496ebfbfcp-1 s.Metrics.max_global;
  f "max_local" 0x1.f44e969b3acp-2 s.Metrics.max_local;
  f "mean_local" 0x1.12d57f9ad1527p-2 s.Metrics.mean_local;
  f "p99_local" 0x1.ee29b96c20219p-2 s.Metrics.p99_local;
  f "final_global" 0x1.d0be286f8bp-2 s.Metrics.final_global;
  f "final_local" 0x1.177eac50f25p-2 s.Metrics.final_local;
  Alcotest.(check int) "samples_used" 61 s.Metrics.samples_used;
  Alcotest.(check int) "messages" 1288 r.Runner.messages;
  match r.Runner.fault_report with
  | None -> Alcotest.fail "no fault report"
  | Some rep ->
      let module Fm = Gcs_core.Fault_metrics in
      Alcotest.(check int) "lied" 120 rep.Fm.lied;
      (match rep.Fm.correct with
      | None -> Alcotest.fail "no correct-node summary"
      | Some c ->
          f "correct max_local" 0x1.f44e969b3acp-2 c.Metrics.max_local;
          f "correct max_global" 0x1.a8e496ebfbfcp-1 c.Metrics.max_global;
          Alcotest.(check int) "correct samples" 61 c.Metrics.samples_used);
      let expected =
        [
          ("byz:5 (equiv)", 20., Some 60., 0x1.f44e969b3acp-2);
          ("byz:2 (mag)", 30., Some 50., 0x1.3a8ecc7fad6p-2);
        ]
      in
      Alcotest.(check int) "episode count" (List.length expected)
        (List.length rep.Fm.episodes);
      List.iter
        (fun (label, start, stop, transient) ->
          match
            List.find_opt (fun e -> e.Fm.label = label) rep.Fm.episodes
          with
          | None -> Alcotest.failf "missing episode %s" label
          | Some e ->
              f (label ^ " start") start e.Fm.start;
              Alcotest.(check (option (float 1e-9)))
                (label ^ " stop") stop e.Fm.stop;
              f (label ^ " transient") transient e.Fm.worst_transient)
        expected

(* The same config under declarative topology churn, run through the
   dynamic gradient: an explicit down/up pair plus a flap window, compiled
   to a fault plan with the config's own seed. Pins the churn compilation
   path (flap PRNG streams included) and the dynamic algorithm's fresh-edge
   behaviour bit-for-bit, and requires region-parallel execution to
   reproduce the serial event log byte for byte. *)
let churned_plan () =
  let churn =
    match
      Gcs_sim.Churn_plan.of_string
        "edge-down@20:edges=2-3; edge-up@50:edges=2-3; \
         flap@10..60:up=8:down=4:edges=6-7"
    with
    | Ok p -> p
    | Error msg -> Alcotest.failf "golden churn plan did not parse: %s" msg
  in
  match
    Gcs_sim.Churn_plan.compile churn ~graph:(Topology.ring 8) ~seed:7
      ~horizon:80.
  with
  | Some p -> p
  | None -> Alcotest.fail "golden churn plan compiled to nothing"

let test_churned_run_pinned () =
  let module Capture = Gcs_obs.Capture in
  let module Event_log = Gcs_obs.Event_log in
  let cfg ?obs ?(regions = 1) () =
    Runner.config
      ~spec:(Spec.make ~kappa:0.5 ())
      ~algo:Algorithm.Dynamic_gradient_sync
      ~drift_of_node:(fun v ->
        if v < 4 then Drift.Extreme_high else Drift.Extreme_low)
      ~horizon:80. ~seed:7 ~fault_plan:(churned_plan ()) ?obs ~regions
      (Topology.ring 8)
  in
  let r = Runner.run (cfg ()) in
  let s = r.Runner.summary in
  let f = Alcotest.(check (float 1e-9)) in
  f "max_global" 0x1.0c68dbfd7a7p-1 s.Metrics.max_global;
  f "max_local" 0x1.b502cbf9605p-2 s.Metrics.max_local;
  f "mean_local" 0x1.08a76b750a5c8p-2 s.Metrics.mean_local;
  f "p99_local" 0x1.b502cbf9605p-2 s.Metrics.p99_local;
  f "final_global" 0x1.84f9941f34dp-2 s.Metrics.final_global;
  f "final_local" 0x1.12d45ea862dp-2 s.Metrics.final_local;
  Alcotest.(check int) "samples_used" 61 s.Metrics.samples_used;
  Alcotest.(check int) "messages" 1288 r.Runner.messages;
  Alcotest.(check int) "dropped_faults" 115 r.Runner.dropped_faults;
  (* Event-log byte identity across region counts, under churn. *)
  let obs = { Capture.none with Capture.events = true } in
  let log_string (res : Runner.result) =
    match res.Runner.obs.Capture.event_log with
    | Some log -> Event_log.to_string log
    | None -> Alcotest.fail "event log missing"
  in
  let serial_log = log_string (Runner.run (cfg ~obs ())) in
  Alcotest.(check bool) "serial log nonempty" true
    (String.length serial_log > 0);
  List.iter
    (fun regions ->
      let live = Runner.prepare (cfg ~obs ~regions ()) in
      let eff = Gcs_sim.Engine.regions live.Runner.engine in
      let par = Runner.complete live in
      Alcotest.(check int)
        (Printf.sprintf "x%d: ran parallel" regions)
        regions eff;
      Alcotest.(check bool)
        (Printf.sprintf "x%d: event log byte-identical" regions)
        true
        (String.equal serial_log (log_string par)))
    [ 2; 4 ]

let test_covers_registry () =
  (* A newly registered algorithm must get a golden row. *)
  Alcotest.(check int) "every registered algorithm is pinned"
    (List.length Algorithm.all_kinds)
    (List.length golden);
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Algorithm.kind_name kind ^ " pinned")
        true
        (List.exists (fun (k, _, _) -> k = kind) golden))
    Algorithm.all_kinds

let suite =
  Alcotest.test_case "golden table covers the registry" `Quick
    test_covers_registry
  :: Alcotest.test_case "faulted run pinned: gradient" `Quick
       test_faulted_run_pinned
  :: Alcotest.test_case "byzantine run pinned: ft-gradient" `Quick
       test_byzantine_run_pinned
  :: Alcotest.test_case "churned run pinned: dynamic-gradient" `Quick
       test_churned_run_pinned
  :: Alcotest.test_case "non-wipe recovery pinned: gradient" `Quick
       test_nowipe_recovery_pinned
  :: List.map
       (fun (name, run, expected, messages) ->
         Alcotest.test_case
           (Printf.sprintf "variant pinned: %s" name)
           `Quick
           (fun () -> check_summary (run ()) expected messages))
       variants
  @ List.map
       (fun ((algo, _, _) as row) ->
         Alcotest.test_case
           (Printf.sprintf "summary pinned: %s" (Algorithm.kind_name algo))
           `Quick (check_algo row))
       golden
