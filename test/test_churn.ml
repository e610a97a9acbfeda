module Topology = Gcs_graph.Topology
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics
module Churn_plan = Gcs_sim.Churn_plan

let spec = Spec.make ()

(* Down-intervals of every edge of [graph] under [flap_duty], read back
   from the compiled plan's up-intervals. *)
let down_windows ~duty ~mean_down ~horizon ~seed graph =
  match
    Churn_plan.compile
      (Churn_plan.flap_duty ~duty ~mean_down ~horizon)
      ~graph ~seed ~horizon
  with
  | None -> []
  | Some plan ->
      List.map
        (fun (_, ups) ->
          let rec gaps from = function
            | [] -> if from < horizon then [ (from, horizon) ] else []
            | (a, b) :: rest ->
                if a > from then (from, a) :: gaps b rest else gaps b rest
          in
          gaps 0. ups)
        (Churn_plan.up_windows plan ~graph ~horizon)

let test_windows_disjoint_sorted =
  QCheck.Test.make ~name:"churn windows are sorted, disjoint, in-horizon"
    ~count:100 QCheck.small_nat
    (fun seed ->
      let rec ok prev = function
        | [] -> true
        | (start, stop) :: rest ->
            prev <= start && start < stop && stop <= 200. && ok stop rest
      in
      List.for_all (ok 0.)
        (down_windows ~duty:0.3 ~mean_down:5. ~horizon:200. ~seed
           (Topology.ring 6)))

let test_windows_zero_duty () =
  Alcotest.(check int) "no processes" 0
    (List.length
       (Churn_plan.processes
          (Churn_plan.flap_duty ~duty:0. ~mean_down:5. ~horizon:100.)));
  Alcotest.(check int) "no windows" 0
    (List.length
       (down_windows ~duty:0. ~mean_down:5. ~horizon:100. ~seed:1
          (Topology.ring 6)))

let test_windows_duty_fraction () =
  (* Long-run down fraction should approximate the duty parameter. *)
  let down =
    List.fold_left
      (fun acc (a, b) -> acc +. (b -. a))
      0.
      (List.concat
         (down_windows ~duty:0.3 ~mean_down:10. ~horizon:100_000. ~seed:3
            (Topology.line 2)))
  in
  let fraction = down /. 100_000. in
  Alcotest.(check bool)
    (Printf.sprintf "fraction %.3f near 0.3" fraction)
    true
    (Float.abs (fraction -. 0.3) < 0.05)

let test_config_validation () =
  (match Churn_plan.flap_duty ~duty:1.0 ~mean_down:10. ~horizon:600. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted duty = 1");
  match Churn_plan.flap_duty ~duty:0.2 ~mean_down:0. ~horizon:600. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted zero mean_down"

(* Gradient sync on [graph] under [flap_duty ~duty ~mean_down:10.] for
   600 time units: the summary over the final half, and the share of
   messages lost to the churn. *)
let churned ~duty ~seed graph =
  let horizon = 600. in
  let fault_plan =
    Churn_plan.compile
      (Churn_plan.flap_duty ~duty ~mean_down:10. ~horizon)
      ~graph ~seed ~horizon
  in
  let r =
    Runner.run
      (Runner.config ~spec ?fault_plan ~horizon ~warmup:0. ~seed graph)
  in
  ( Metrics.summarize graph r.Runner.samples ~after:(0.5 *. horizon),
    float_of_int r.Runner.dropped_faults /. float_of_int r.Runner.messages )

let test_realized_drop_rate_tracks_duty () =
  let _, rate = churned ~duty:0.25 ~seed:5 (Topology.ring 16) in
  Alcotest.(check bool)
    (Printf.sprintf "drop rate %.3f near duty" rate)
    true
    (Float.abs (rate -. 0.25) < 0.08)

let test_graceful_degradation () =
  (* Gradient sync under 30% churn must stay within a small factor of its
     loss-free skew — soft state coasts through outages. *)
  let graph = Topology.ring 16 in
  let quiet, _ = churned ~duty:0. ~seed:7 graph in
  let noisy, _ = churned ~duty:0.3 ~seed:7 graph in
  Alcotest.(check bool) "degrades gracefully" true
    (noisy.Metrics.max_local < 2.5 *. quiet.Metrics.max_local)

let test_uniform_loss_in_runner () =
  let graph = Topology.ring 10 in
  let run loss =
    Runner.run
      (Runner.config ~spec ~algo:Algorithm.Gradient_sync ~loss ~horizon:200.
         ~seed:9 graph)
  in
  let none = run Runner.No_loss in
  let half = run (Runner.Uniform_loss 0.5) in
  let all = run (Runner.Uniform_loss 1.0) in
  Alcotest.(check int) "no loss drops nothing" 0 none.Runner.dropped;
  Alcotest.(check bool) "half loss drops about half" true
    (let f =
       float_of_int half.Runner.dropped /. float_of_int half.Runner.messages
     in
     Float.abs (f -. 0.5) < 0.1);
  Alcotest.(check int) "total loss delivers nothing"
    all.Runner.messages all.Runner.dropped

let test_total_loss_equals_free_run () =
  (* With every message dropped, the gradient algorithm can never see a
     neighbor: behaviour must degrade to free-running clocks. *)
  let graph = Topology.ring 10 in
  let run ~algo ~loss =
    (Runner.run
       (Runner.config ~spec ~algo ~loss ~horizon:300. ~seed:11 graph))
      .Runner.summary
  in
  let deaf = run ~algo:Algorithm.Gradient_sync ~loss:(Runner.Uniform_loss 1.0) in
  let free = run ~algo:Algorithm.Free_run ~loss:Runner.No_loss in
  Alcotest.(check (float 1e-9)) "same skew as free-run"
    free.Metrics.max_global deaf.Metrics.max_global

let test_loss_validation () =
  let graph = Topology.ring 6 in
  match Runner.config ~loss:(Runner.Uniform_loss 1.5) graph with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted loss > 1"

let suite =
  [
    Alcotest.test_case "windows zero duty" `Quick test_windows_zero_duty;
    Alcotest.test_case "windows duty fraction" `Quick test_windows_duty_fraction;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "drop rate tracks duty" `Quick test_realized_drop_rate_tracks_duty;
    Alcotest.test_case "graceful degradation" `Quick test_graceful_degradation;
    Alcotest.test_case "uniform loss" `Quick test_uniform_loss_in_runner;
    Alcotest.test_case "total loss = free run" `Quick test_total_loss_equals_free_run;
    Alcotest.test_case "loss validation" `Quick test_loss_validation;
    QCheck_alcotest.to_alcotest test_windows_disjoint_sorted;
  ]
