module Logical_clock = Gcs_clock.Logical_clock

type reference = { error : float -> float }

let perfect_reference = { error = (fun _ -> 0.) }

let noisy_reference ~bias ~wander ~period ~phase =
  if period <= 0. then invalid_arg "External_sync: period must be > 0";
  {
    error =
      (fun t -> bias +. (wander *. sin ((2. *. Float.pi *. t /. period) +. phase)));
  }

let query r ~now = now +. r.error now

let algorithm ~anchors =
  {
    Algorithm.name = "external-gradient";
    prepare =
      (fun ctx ->
        let spec = ctx.spec in
        (* The zeta-slowdown of the external-synchronization construction:
           every node's default pace is deliberately below real time, so
           that the virtual reference node is never the slowest clock and
           anchored nodes can pull the whole network toward true time
           through the ordinary fast trigger. *)
        let base_mult = Float.max 0.5 (1. -. (spec.mu /. 2.)) in
        let source = Neighbor_sync.beacon spec in
        let fast ~ports:_ offsets =
          Gradient_sync.fast_trigger ~kappa:spec.kappa ~offsets
        in
        fun v ->
          let lc = ctx.logical.(v) in
          let reference =
            Option.map
              (fun r () ->
                let now = ctx.now () in
                Logical_clock.value lc ~now -. query r ~now)
              (anchors v)
          in
          Neighbor_sync.node ~base_mult ?reference ~source ~fast ctx v);
  }
