let algorithm =
  {
    Algorithm.name = "max-slew";
    prepare =
      (fun ctx ->
        let threshold = Spec.estimate_error_bound ctx.spec in
        let behind o = -.o > threshold in
        Neighbor_sync.node ~source:(Neighbor_sync.beacon ctx.spec)
          ~fast:(fun ~ports:_ offsets -> Array.exists behind offsets)
          ctx);
  }
