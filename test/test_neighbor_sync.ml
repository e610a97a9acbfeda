(* The shared neighbor-sync loop, driven by hand: one node of a ring:3 with
   a rate-1 hardware clock (so hardware time = real time), a recording
   api, and events fed directly to its handlers. These pin the loop's
   per-event contract for every variant built on it — above all that a
   re-run [on_init] (a recovery without a state wipe) forgets the
   estimates gathered before it. *)

module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Message = Gcs_core.Message
module Logical_clock = Gcs_clock.Logical_clock
module Hardware_clock = Gcs_clock.Hardware_clock
module Engine = Gcs_sim.Engine
module Dm = Gcs_sim.Delay_model

let spec = Spec.make ~kappa:0.5 ()
let fast_mult = 1. +. spec.Spec.mu

type node = {
  now : float ref;
  lc : Logical_clock.t;
  handlers : Message.t Engine.handlers;
  api : Message.t Engine.api;
  sent : (int * Message.t) list ref;
}

let make (algo : Algorithm.t) =
  let now = ref 0. in
  let hardware = Hardware_clock.create ~t0:0. ~rate:1. () in
  let lc = Logical_clock.create ~hardware ~now:0. ~value:0. ~mult:1. in
  let ctx =
    {
      Algorithm.spec;
      graph = Gcs_graph.Topology.ring 3;
      logical = [| lc; lc; lc |];
      now = (fun () -> !now);
    }
  in
  let sent = ref [] in
  let api =
    {
      Engine.node = 0;
      ports = 2;
      hardware = (fun () -> !now);
      send = (fun ~port msg -> sent := (port, msg) :: !sent);
      set_timer = (fun ~h:_ ~tag:_ -> ());
      rng = Gcs_util.Prng.create ~seed:1;
    }
  in
  { now; lc; handlers = algo.Algorithm.prepare ctx 0; api; sent }

let mult n = Logical_clock.mult n.lc
let init n = n.handlers.Engine.on_init n.api
let recheck n = n.handlers.Engine.on_timer n.api ~tag:Algorithm.timer_recheck
let beacon_timer n = n.handlers.Engine.on_timer n.api ~tag:Algorithm.timer_beacon

(* A beacon on port 0 that puts the neighbor 1.2 ahead: above kappa 0.5,
   the max-slew threshold and the tight hetero kappa, and inside the ft
   window 1.5. The flight guess is 1 for the spec band and the tight
   band alike. *)
let lead_by_beacon n =
  n.now := 1.;
  let own = Logical_clock.value n.lc ~now:1. in
  n.handlers.Engine.on_message n.api ~port:0
    (Message.Beacon { value = own +. 1.2 -. 1. })

let beacon_variants =
  let tight _ = Dm.bounds ~d_min:0.9 ~d_max:1.1 in
  [
    Gcs_core.Gradient_sync.algorithm;
    Gcs_core.Max_slew.algorithm;
    Gcs_core.Ft_gradient.algorithm 1;
    Gcs_core.Dynamic_gradient.algorithm;
    Gcs_core.Gradient_hetero.algorithm ~edge_bounds:tight;
  ]

let test_recovery_forgets_estimates () =
  List.iter
    (fun algo ->
      let name = algo.Algorithm.name in
      let n = make algo in
      init n;
      lead_by_beacon n;
      Alcotest.(check (float 0.)) (name ^ ": leader triggers") fast_mult
        (mult n);
      (* Non-wipe recovery one time unit later, well inside the staleness
         limit: the old estimate would still count if it were kept. *)
      n.now := 2.;
      init n;
      recheck n;
      Alcotest.(check (float 0.)) (name ^ ": estimate forgotten") 1. (mult n))
    beacon_variants

let test_rtt_recovery () =
  let n = make Gcs_core.Gradient_rtt.algorithm in
  let probes () =
    List.filter_map
      (fun (port, msg) ->
        match msg with
        | Message.Probe { seq; h_send } -> Some (port, seq, h_send)
        | _ -> None)
      !(n.sent)
  in
  init n;
  n.now := 1.;
  beacon_timer n;
  let seq, h_send =
    match probes () with
    | (_, seq, h_send) :: _ -> (seq, h_send)
    | [] -> Alcotest.fail "no probe sent"
  in
  Alcotest.(check int) "first probe" 1 seq;
  (* A reply after a 0.2 round trip, from a clock 1.2 ahead. *)
  n.now := 1.2;
  let own = Logical_clock.value n.lc ~now:1.2 in
  let reply =
    Message.Probe_reply { seq; h_send; remote_value = own +. 1.2 -. 0.1 }
  in
  n.handlers.Engine.on_message n.api ~port:0 reply;
  Alcotest.(check (float 0.)) "leader triggers" fast_mult (mult n);
  n.now := 2.;
  init n;
  recheck n;
  Alcotest.(check (float 0.)) "estimate forgotten" 1. (mult n);
  (* The per-port marks were reset too, so the same reply counts again. *)
  n.handlers.Engine.on_message n.api ~port:0 reply;
  Alcotest.(check (float 0.)) "marks reset" fast_mult (mult n);
  n.sent := [];
  beacon_timer n;
  Alcotest.(check (list int)) "sequence keeps rising across recovery"
    [ 2; 2 ]
    (List.map (fun (_, s, _) -> s) (probes ()))

let test_external_base_pace () =
  let anchors v =
    if v = 0 then Some Gcs_core.External_sync.perfect_reference else None
  in
  let n = make (Gcs_core.External_sync.algorithm ~anchors) in
  init n;
  let base = 1. -. (spec.Spec.mu /. 2.) in
  Alcotest.(check (float 0.)) "on_init sets the base pace" base (mult n);
  (* The logical clock now runs below real time, so the reference is
     ahead: the extra offset alone triggers. *)
  n.now := 20.;
  recheck n;
  Alcotest.(check (float 0.)) "reference ahead triggers" fast_mult (mult n)

let suite =
  [
    Alcotest.test_case "non-wipe recovery forgets estimates" `Quick
      test_recovery_forgets_estimates;
    Alcotest.test_case "rtt recovery" `Quick test_rtt_recovery;
    Alcotest.test_case "external base pace and reference" `Quick
      test_external_base_pace;
  ]
