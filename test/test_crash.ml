module Spec = Gcs_core.Spec
module Topology = Gcs_graph.Topology
module Drift = Gcs_clock.Drift
module Oe = Gcs_core.Offset_estimator
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics
module Fault_plan = Gcs_sim.Fault_plan

let graph = Topology.ring 16
let drift v = if v < 8 then Drift.Extreme_high else Drift.Extreme_low

let horizon = 1000.

(* Crash-stop each listed node for good at its time, then summarize the
   nodes that never crash over the final quarter. *)
let run ?(spec = Spec.make ()) crashes =
  let fault_plan =
    Fault_plan.of_events
      (List.map (fun (node, at) -> Fault_plan.Node_crash { at; node }) crashes)
  in
  let result =
    Runner.run
      (Runner.config ~spec ~drift_of_node:drift ~fault_plan ~horizon
         ~warmup:0. ~seed:89 graph)
  in
  let alive v = not (List.mem_assoc v crashes) in
  ( result,
    Metrics.summarize ~alive graph result.Runner.samples
      ~after:(0.75 *. horizon) )

let test_estimator_expiry () =
  let e = Oe.create () in
  Oe.update e ~h_local:10. ~remote_value:100. ~elapsed_guess:0.;
  Alcotest.(check bool) "fresh estimate available" true
    (Oe.offset ~max_age:4. e ~h_local:12. ~own_value:0. <> None);
  Alcotest.(check bool) "stale estimate expired" true
    (Oe.offset ~max_age:4. e ~h_local:15. ~own_value:0. = None);
  Alcotest.(check bool) "no max_age keeps it" true
    (Oe.offset e ~h_local:1000. ~own_value:0. <> None)

let test_out_of_range_rejected () =
  match run [ (99, 10.) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted bogus node id"

let test_no_crashes_baseline () =
  let r, tail = run [] in
  Alcotest.(check int) "no fault drops" 0 r.Runner.dropped_faults;
  Alcotest.(check bool) "sane skew" true (tail.Metrics.max_local < 5.)

let test_survivors_unaffected_with_expiry () =
  let _, baseline = run [] in
  let _, crashed = run [ (12, 200.) ] in
  Alcotest.(check bool)
    (Printf.sprintf "live skew preserved (%.3f vs %.3f)"
       crashed.Metrics.max_local baseline.Metrics.max_local)
    true
    (crashed.Metrics.max_local < baseline.Metrics.max_local +. 0.5)

let test_phantom_hurts_without_expiry () =
  let _, with_expiry = run [ (12, 200.) ] in
  let _, without =
    run ~spec:(Spec.make ~staleness_limit:1e9 ()) [ (12, 200.) ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "phantom costs skew (%.3f vs %.3f)"
       without.Metrics.max_local with_expiry.Metrics.max_local)
    true
    (without.Metrics.max_local > with_expiry.Metrics.max_local +. 0.2)

let test_crashed_node_sends_nothing_after () =
  (* A crash-stopped node sends nothing, and everything addressed to it is
     counted as a fault drop: fault drops must be positive and grow with
     earlier crash times. The loss-law counter stays untouched. *)
  let late, _ = run [ (12, 900.) ] in
  let early, _ = run [ (12, 100.) ] in
  Alcotest.(check bool) "fault drops recorded" true
    (late.Runner.dropped_faults > 0);
  Alcotest.(check int) "no loss-law drops" 0 late.Runner.dropped;
  Alcotest.(check bool) "earlier crash, more drops" true
    (early.Runner.dropped_faults > late.Runner.dropped_faults)

let suite =
  [
    Alcotest.test_case "estimator expiry" `Quick test_estimator_expiry;
    Alcotest.test_case "out of range" `Quick test_out_of_range_rejected;
    Alcotest.test_case "no crashes" `Quick test_no_crashes_baseline;
    Alcotest.test_case "survivors ok with expiry" `Quick test_survivors_unaffected_with_expiry;
    Alcotest.test_case "phantom without expiry" `Quick test_phantom_hurts_without_expiry;
    Alcotest.test_case "silenced after crash" `Quick test_crashed_node_sends_nothing_after;
  ]
