module Engine = Gcs_sim.Engine
module Delay_model = Gcs_sim.Delay_model
module Topology = Gcs_graph.Topology
module Drift = Gcs_clock.Drift
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics

type move = {
  fast_side : [ `Left | `Right | `None ];
  bias : [ `Forward | `Backward | `Neutral ];
}

let all_moves =
  List.concat_map
    (fun fast_side ->
      List.map
        (fun bias -> { fast_side; bias })
        [ `Forward; `Backward; `Neutral ])
    [ `Left; `Right; `None ]

type config = {
  spec : Spec.t;
  n : int;
  algo : Algorithm.kind;
  segments : int;
  segment_len : float;
  beam : int;
  seed : int;
}

type outcome = {
  forced_local : float;
  forced_global : float;
  plan : move list;
  evaluations : int;
}

let default_config ?(spec = Spec.make ()) ?(algo = Algorithm.Gradient_sync)
    ?(segments = 6) ?segment_len ?(beam = 12) ?(seed = 42) ~n () =
  if n < 2 then invalid_arg "Search.default_config: n must be >= 2";
  if segments < 1 then invalid_arg "Search.default_config: segments >= 1";
  if beam < 1 then invalid_arg "Search.default_config: beam >= 1";
  let segment_len =
    match segment_len with
    | Some l -> l
    | None ->
        4. *. float_of_int n *. spec.Spec.delay.Delay_model.d_max
        |> Float.max (4. *. spec.Spec.beacon_period)
  in
  { spec; n; algo; segments; segment_len; beam; seed }

(* Wire a move schedule into a prepared run: the delay chooser follows the
   current move's bias, and each segment boundary re-splits the node set
   into a fast and a slow half. Boundary [i]'s control reads its move from
   [slots.(i)] when it fires, so a caller may fill the slots while the run
   is paused (the explorer does, in each fork); an empty slot leaves the
   run untouched, since [set_node_rate] re-keys timers even when no rate
   changes. Everything the moves need (spec, node count) comes from the
   live run's own config, so the same installer drives the beam search,
   the explorer and counterexample replay/shrinking (Gcs_check), where
   the run config was rebuilt from a store key. *)
let install (live : Runner.live) ~segment_len slots =
  let rc = live.Runner.cfg in
  let spec = rc.Runner.spec in
  let n = Gcs_graph.Graph.n rc.Runner.graph in
  let b = spec.Spec.delay in
  let mid = 0.5 *. (b.Delay_model.d_min +. b.Delay_model.d_max) in
  let current = ref { fast_side = `None; bias = `Neutral } in
  live.Runner.chooser :=
    Some
      (fun ~edge:_ ~src ~dst ~now:_ ->
        let forward = dst > src in
        match (!current).bias with
        | `Neutral -> mid
        | `Forward -> if forward then b.Delay_model.d_max else b.Delay_model.d_min
        | `Backward -> if forward then b.Delay_model.d_min else b.Delay_model.d_max);
  let midpoint = (n - 1) / 2 in
  let apply_move move =
    current := move;
    for v = 0 to n - 1 do
      let fast =
        match move.fast_side with
        | `None -> false
        | `Left -> v <= midpoint
        | `Right -> v > midpoint
      in
      Engine.set_node_rate live.Runner.engine ~node:v
        ~rate:(if fast then Spec.vartheta spec else 1.)
    done
  in
  Array.iteri
    (fun i _ ->
      Engine.schedule_control live.Runner.engine
        ~at:(float_of_int i *. segment_len)
        (fun () -> Option.iter apply_move slots.(i)))
    slots

let slots plan = Array.of_list (List.map Option.some plan)

(* Play a move sequence deterministically and return (local, global) skew
   maxima over the final segment. With a fault plan carrying Byzantine
   nodes, the maxima are taken over correct nodes only — the adversary is
   scored on the damage its lies force between honest clocks, not on the
   arbitrary values its own clock advertises. *)
let evaluate ?fault_plan cfg plan =
  let graph = Topology.line cfg.n in
  let horizon = float_of_int (List.length plan) *. cfg.segment_len in
  let run_cfg =
    Runner.config ~spec:cfg.spec ~algo:cfg.algo
      ~drift_of_node:(fun _ -> Drift.Constant 1.)
      ~delay_kind:Runner.Controlled_delays ~horizon
      ~sample_period:(Float.max 0.5 (cfg.segment_len /. 50.))
      ~warmup:0. ~seed:cfg.seed ?fault_plan graph
  in
  let live = Runner.prepare run_cfg in
  install live ~segment_len:cfg.segment_len (slots plan);
  let result = Runner.complete live in
  let tail_start = horizon -. cfg.segment_len in
  let byzantine =
    match fault_plan with
    | None -> []
    | Some p -> Gcs_sim.Fault_plan.byzantine_nodes p
  in
  if byzantine = [] then begin
    let tail =
      Metrics.summarize graph result.Runner.samples ~after:tail_start
    in
    (tail.Metrics.max_local, tail.Metrics.max_global)
  end
  else begin
    let is_byz = Array.make cfg.n false in
    List.iter (fun v -> if v < cfg.n then is_byz.(v) <- true) byzantine;
    match
      Metrics.summarize_opt
        ~alive:(fun v -> not is_byz.(v))
        graph result.Runner.samples ~after:tail_start
    with
    | Some tail -> (tail.Metrics.max_local, tail.Metrics.max_global)
    | None -> (0., 0.)
  end

let search ?fault_plan cfg =
  let evaluations = ref 0 in
  let score plan =
    incr evaluations;
    evaluate ?fault_plan cfg plan
  in
  (* Beam search over prefixes, scored by the skew at the prefix's end. *)
  let initial = [ (0., 0., []) ] in
  let expand beam_entries =
    let candidates =
      List.concat_map
        (fun (_, _, prefix) ->
          List.map
            (fun move ->
              let plan = prefix @ [ move ] in
              let local, global = score plan in
              (local, global, plan))
            all_moves)
        beam_entries
    in
    let sorted =
      List.sort
        (fun (l1, _, _) (l2, _, _) -> Float.compare l2 l1)
        candidates
    in
    let rec take k = function
      | [] -> []
      | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
    in
    take (min cfg.beam (List.length sorted)) sorted
  in
  let rec go depth beam_entries =
    if depth >= cfg.segments then beam_entries
    else go (depth + 1) (expand beam_entries)
  in
  match go 0 initial with
  | (local, global, plan) :: _ ->
      {
        forced_local = local;
        forced_global = global;
        plan;
        evaluations = !evaluations;
      }
  | [] -> { forced_local = 0.; forced_global = 0.; plan = []; evaluations = 0 }

(* ---------------------------------------------------------------- *)
(* Byzantine strategy co-optimization                               *)

module Fault_plan = Gcs_sim.Fault_plan

type byz_outcome = {
  forced_correct_local : float;
  byz_plan : Fault_plan.t;
  byz_moves : move list;
  byz_evaluations : int;
}

let byz_search ?(f = 1) ?magnitude cfg =
  if f < 1 || f >= cfg.n then
    invalid_arg "Search.byz_search: need 1 <= f < n";
  let magnitude =
    match magnitude with
    | Some m -> m
    | None -> 20. *. cfg.spec.Spec.kappa
  in
  let horizon = float_of_int cfg.segments *. cfg.segment_len in
  let neutral =
    List.init cfg.segments (fun _ -> { fast_side = `None; bias = `Neutral })
  in
  (* Candidate liar placements: [f] nodes at a fixed stride, tried at a
     few phase offsets (an end, the middle of a stride, the stride edge).
     Exhausting all (n choose f) placements buys little: on a line the
     damage depends on where the liars cut the gradient, which the phase
     sweep already varies. *)
  let stride = max 1 (cfg.n / f) in
  let placements =
    List.sort_uniq compare
      (List.map
         (fun off ->
           List.sort_uniq compare
             (List.init f (fun i -> (off + (i * stride)) mod cfg.n)))
         [ 0; stride / 2; max 0 (stride - 1) ])
  in
  let drift_rate = 2. *. magnitude /. horizon in
  let strategies =
    [
      Fault_plan.Lie_equivocate magnitude;
      Fault_plan.Lie_constant magnitude;
      Fault_plan.Lie_constant (-.magnitude);
      Fault_plan.Lie_drifting drift_rate;
      Fault_plan.Lie_drifting (-.drift_rate);
      Fault_plan.Lie_random magnitude;
    ]
  in
  let plans =
    List.concat_map
      (fun nodes ->
        List.map
          (fun strategy ->
            Fault_plan.of_events
              (List.map
                 (fun node ->
                   Fault_plan.Byzantine
                     { from_ = 0.; until = horizon; node; strategy })
                 nodes))
          strategies)
      placements
  in
  (* Stage 1: rank lying strategies under neutral delays and rates. *)
  let evaluations = ref 0 in
  let best_local, best_plan =
    List.fold_left
      (fun (bl, bp) p ->
        incr evaluations;
        let local, _ = evaluate ~fault_plan:p cfg neutral in
        if local > bl then (local, p) else (bl, bp))
      (neg_infinity, List.hd plans)
      plans
  in
  (* Stage 2: co-optimize the delay/rate move sequence against the best
     lying strategy — the beam search now scores correct-correct skew. *)
  let o = search ~fault_plan:best_plan cfg in
  let forced_correct_local, byz_moves =
    if o.forced_local > best_local then (o.forced_local, o.plan)
    else (best_local, neutral)
  in
  {
    forced_correct_local;
    byz_plan = best_plan;
    byz_moves;
    byz_evaluations = !evaluations + o.evaluations;
  }
