module Topology = Gcs_graph.Topology
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics
module Gh = Gcs_core.Gradient_hetero
module Gs = Gcs_core.Gradient_sync
module Dm = Gcs_sim.Delay_model

let fast = Gh.fast_trigger_hetero

let check = Alcotest.(check bool)

let test_empty () = check "no neighbors" false (fast ~kappas:[||] ~offsets:[||])

let test_uniform_kappas_match_homogeneous =
  QCheck.Test.make
    ~name:"hetero trigger with equal kappas = homogeneous trigger" ~count:1000
    QCheck.(list_of_size (Gen.int_range 1 6) (float_range (-10.) 10.))
    (fun offsets ->
      let o = Array.of_list offsets in
      let k = Array.make (Array.length o) 1.5 in
      fast ~kappas:k ~offsets:o = Gs.fast_trigger ~kappa:1.5 ~offsets:o)

let test_per_edge_scaling () =
  (* A neighbor ahead by 2 across a kappa=1 edge triggers; the same gap
     across a kappa=3 edge does not. *)
  check "tight edge triggers" true (fast ~kappas:[| 1. |] ~offsets:[| -2. |]);
  check "loose edge tolerates" false (fast ~kappas:[| 3. |] ~offsets:[| -2. |])

let test_loose_laggard_does_not_block () =
  (* Ahead by 2 on a kappa=1 edge; behind by 2 on a kappa=3 edge: the
     laggard is within its own edge's tolerance, so level 0 holds. *)
  check "loose laggard within tolerance" true
    (fast ~kappas:[| 1.; 3. |] ~offsets:[| -2.; 2. |])

let test_tight_laggard_blocks () =
  (* Same gaps but the laggard sits on a tight edge: level 0 blocked
     (behind 2 > kappa 1) and level 1 needs ahead >= 3 kappa = 3. *)
  check "tight laggard blocks" false
    (fast ~kappas:[| 1.; 1. |] ~offsets:[| -2.; 2. |])

let line_with_bad_edge ~bad_u =
  let graph = Topology.line 9 in
  let bad_edge = 4 in
  let edge_bounds e =
    if e = bad_edge then Dm.bounds ~d_min:0.1 ~d_max:(0.1 +. bad_u)
    else Dm.bounds ~d_min:0.9 ~d_max:1.1
  in
  (graph, bad_edge, edge_bounds)

let run_hetero ~bad_u =
  let graph, bad_edge, edge_bounds = line_with_bad_edge ~bad_u in
  let spec = Spec.make ~d_min:0.1 ~d_max:(0.1 +. bad_u) ~beacon_period:2. () in
  let cfg =
    Runner.config ~spec ~algo:Algorithm.Gradient_sync
      ~override:(Gh.algorithm ~edge_bounds)
      ~delay_kind:(Runner.Per_edge_delays edge_bounds) ~horizon:500. ~seed:39
      graph
  in
  let r = Runner.run cfg in
  let worst_good = ref 0. and worst_bad = ref 0. in
  Array.iter
    (fun (s : Metrics.sample) ->
      if s.Metrics.time >= cfg.Runner.warmup then
        Array.iteri
          (fun e x ->
            if e = bad_edge then worst_bad := Float.max !worst_bad x
            else worst_good := Float.max !worst_good x)
          (Metrics.local_skew_edges graph s.Metrics.values))
    r.Runner.samples;
  (!worst_good, !worst_bad)

let test_good_edges_insulated () =
  (* Good-edge skew must not grow when the bad edge gets worse. *)
  let good_1, _ = run_hetero ~bad_u:1. in
  let good_4, _ = run_hetero ~bad_u:4. in
  check
    (Printf.sprintf "insulated (%.3f vs %.3f)" good_1 good_4)
    true
    (good_4 < 2. *. good_1 +. 0.2)

let test_bad_edge_cost_localized () =
  let good, bad = run_hetero ~bad_u:4. in
  check "bad edge pays more than good edges" true (bad > good);
  (* ... but still bounded by its own kappa-scale budget. *)
  let bad_kappa = Spec.default_kappa ~u:4. ~rho:0.01 ~beacon_period:2. in
  check "bad edge within its own budget" true (bad < 2. *. bad_kappa)

let test_runs_on_any_topology () =
  let graph = Topology.grid ~rows:3 ~cols:3 in
  let edge_bounds _ = Dm.bounds ~d_min:0.5 ~d_max:1.5 in
  let cfg =
    Runner.config ~spec:(Spec.make ()) ~algo:Algorithm.Gradient_sync
      ~override:(Gh.algorithm ~edge_bounds)
      ~delay_kind:(Runner.Per_edge_delays edge_bounds) ~horizon:200. ~seed:41
      graph
  in
  let r = Runner.run cfg in
  check "sane skew" true (r.Runner.summary.Metrics.max_local < 10.)

let test_uniform_edges_match_gradient () =
  (* With every edge's bounds equal to the spec's delay band, each per-edge
     kappa and flight guess equals the spec's own, so the hetero variant
     must reproduce the plain gradient bit for bit — also across a crash
     shorter than the staleness limit and recovered without a wipe. *)
  let spec = Spec.make ~d_min:0.9 ~d_max:1.1 () in
  let plan =
    match Gcs_sim.Fault_plan.of_string "crash@50:node=5; recover@52:node=5" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let run ?override () =
    let cfg =
      Runner.config ~spec ~algo:Algorithm.Gradient_sync ?override
        ~fault_plan:plan
        ~drift_of_node:(fun v ->
          if v < 4 then Gcs_clock.Drift.Extreme_high
          else Gcs_clock.Drift.Extreme_low)
        ~horizon:80. ~seed:7 (Topology.ring 8)
    in
    Runner.run cfg
  in
  let plain = run () in
  let hetero =
    run ~override:(Gh.algorithm ~edge_bounds:(fun _ -> spec.Spec.delay)) ()
  in
  check "skew engages the trigger" true
    (plain.Runner.summary.Metrics.max_local > spec.Spec.kappa);
  check "same summary" true (plain.Runner.summary = hetero.Runner.summary);
  Alcotest.(check int) "same messages" plain.Runner.messages
    hetero.Runner.messages

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "per-edge scaling" `Quick test_per_edge_scaling;
    Alcotest.test_case "loose laggard" `Quick test_loose_laggard_does_not_block;
    Alcotest.test_case "tight laggard" `Quick test_tight_laggard_blocks;
    Alcotest.test_case "good edges insulated" `Quick test_good_edges_insulated;
    Alcotest.test_case "bad edge localized" `Quick test_bad_edge_cost_localized;
    Alcotest.test_case "any topology" `Quick test_runs_on_any_topology;
    Alcotest.test_case "uniform edges = gradient" `Quick
      test_uniform_edges_match_gradient;
    QCheck_alcotest.to_alcotest test_uniform_kappas_match_homogeneous;
  ]
