module Shortest_path = Gcs_graph.Shortest_path

let fresh_allowance spec ~diameter = Bounds.gradient_global_upper spec ~diameter

let tighten_rate (spec : Spec.t) =
  let cap = 0.125 *. spec.mu in
  let closing = spec.mu -. (2. *. spec.rho) in
  if closing > 0. then Float.min cap (0.25 *. closing) else cap

(* Shrink an offset estimate toward zero by the port's current allowance:
   a fresh neighbor is invisible to the trigger until it drifts beyond
   what a fresh edge is still entitled to. *)
let discount ~allow o =
  if o > allow then o -. allow else if o < -.allow then o +. allow else 0.

let algorithm =
  {
    Algorithm.name = "dynamic-gradient";
    prepare =
      (fun ctx ->
        let spec = ctx.spec in
        let allow0 =
          fresh_allowance spec ~diameter:(Shortest_path.diameter ctx.graph)
        in
        let tighten = tighten_rate spec in
        let source = Neighbor_sync.beacon spec in
        let fast ~ports:_ offsets =
          Gradient_sync.fast_trigger ~kappa:spec.kappa ~offsets
        in
        fun v ->
          (* [neg_infinity] = the edge existed at startup, when all clocks
             began synchronized — it is born settled (allowance 0), not
             fresh. Only an edge that (re)forms after a silence longer than
             the staleness limit gets the fresh allowance, with its age
             restarting at that beacon. *)
          let live_since = ref [||] and last_heard = ref [||] in
          Neighbor_sync.node ~source ~fast
            ~init:(fun ports ->
              live_since := Array.make ports neg_infinity;
              last_heard := Array.make ports 0.)
            ~heard:(fun ~port ~h ->
              (* A gap longer than the staleness limit since the port last
                 spoke — counted from process start, so an edge first
                 heard from late in the run is fresh too — means the edge
                 has just (re)formed: its age restarts now. *)
              if h -. !last_heard.(port) > spec.staleness_limit then
                !live_since.(port) <- h;
              !last_heard.(port) <- h)
            ~adjust:(fun ~port ~h o ->
              let age = h -. !live_since.(port) in
              discount ~allow:(Float.max 0. (allow0 -. (tighten *. age))) o)
            ctx v);
  }
