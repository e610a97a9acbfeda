let algorithm =
  {
    Algorithm.name = "gradient-rtt";
    prepare =
      (fun ctx ->
        let kappa = ctx.spec.kappa in
        Neighbor_sync.node ~source:Neighbor_sync.Rtt
          ~fast:(fun ~ports:_ offsets ->
            Gradient_sync.fast_trigger ~kappa ~offsets)
          ctx);
  }
