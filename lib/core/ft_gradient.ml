(* Two-stage estimate filter.

   Stage 1 *discards* every estimate outside the plausibility window
   [-w, w], w = (2f+1)*kappa. Discarding — rather than clamping — is what
   makes outrageous lies harmless rather than merely damped: an estimate
   pinned at the window edge would keep satisfying the fast trigger's
   "behind <= level" test forever (letting an ahead-lie drag a node away
   from its genuine neighbors without limit), whereas a discarded one is
   simply a silent neighbor. An outrageous liar is thereby exactly as
   harmful as a crashed node, and an in-window liar is bounded by [w] by
   construction: it can pin "behind" at [w] and stall the fast trigger,
   but only until the genuine skew itself reaches level [w]. [w] must be
   an odd multiple of kappa — the trigger fires at levels (2s+1)*kappa,
   so a window between the levels would leave the stalled trigger no
   level to fire at.

   Stage 2 trims the [f] highest and [f] lowest survivors, Bund-et-al
   style, but only down to a floor of 2f+1 — the connectivity their
   fault-tolerant gradient analysis requires. Below that the trigger's
   extremes may be a *single* genuine neighbor, and trimming would erase
   exactly the signal the gradient update needs (a node that can no
   longer see its one genuine leader will not chase it, and that skew has
   no other bound). On sparse topologies (lines, rings, grids: degree <=
   4) the trim is therefore inert and the window carries the weight; in
   dense neighborhoods it removes in-window lies before they can stall
   anything at all. *)
let filter_offsets ~f ~kappa offsets =
  let w = float_of_int ((2 * f) + 1) *. kappa in
  let kept = Array.make (Array.length offsets) 0. in
  let n = ref 0 in
  for i = 0 to Array.length offsets - 1 do
    let o = offsets.(i) in
    if Float.abs o <= w then begin
      kept.(!n) <- o;
      incr n
    end
  done;
  let n = !n in
  let kept = if n = Array.length kept then kept else Array.sub kept 0 n in
  let t = max 0 (min f ((n - (2 * f) - 1) / 2)) in
  if t = 0 then kept
  else begin
    Array.sort Float.compare kept;
    Array.sub kept t (n - (2 * t))
  end

let algorithm f =
  if f < 0 then invalid_arg "Ft_gradient.algorithm: f must be >= 0";
  {
    Algorithm.name = Printf.sprintf "ft-gradient-%d" f;
    prepare =
      (fun ctx ->
        let kappa = ctx.spec.kappa in
        Neighbor_sync.node ~source:(Neighbor_sync.beacon ctx.spec)
          ~fast:(fun ~ports:_ offsets ->
            Gradient_sync.fast_trigger ~kappa
              ~offsets:(filter_offsets ~f ~kappa offsets))
          ctx);
  }
