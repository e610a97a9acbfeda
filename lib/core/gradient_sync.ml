(* Largest relevant level is bounded by max offset / kappa, so the trigger
   loops terminate quickly in practice. *)
let exists_level ~limit pred =
  let rec go s = if float_of_int s > limit then false else pred s || go (s + 1) in
  go 0

let extremes offsets =
  (* ahead = how far the most-ahead neighbor leads us;
     behind = how far the most-behind neighbor trails us. *)
  Array.fold_left
    (fun (ahead, behind) o -> (Float.max ahead (-.o), Float.max behind o))
    (neg_infinity, neg_infinity)
    offsets

let fast_trigger ~kappa ~offsets =
  if Array.length offsets = 0 then false
  else begin
    let ahead, behind = extremes offsets in
    ahead >= kappa
    && exists_level ~limit:(ahead /. kappa) (fun s ->
           let level = float_of_int ((2 * s) + 1) *. kappa in
           ahead >= level && behind <= level)
  end

let slow_trigger ~kappa ~offsets =
  if Array.length offsets = 0 then true
  else begin
    let ahead, behind = extremes offsets in
    exists_level ~limit:((behind /. kappa) +. 1.) (fun s ->
        let level = float_of_int (2 * s) *. kappa in
        behind >= level && ahead <= level)
  end

let algorithm =
  {
    Algorithm.name = "gradient";
    prepare =
      (fun ctx ->
        let kappa = ctx.spec.kappa in
        Neighbor_sync.node ~source:(Neighbor_sync.beacon ctx.spec)
          ~fast:(fun ~ports:_ offsets -> fast_trigger ~kappa ~offsets)
          ctx);
  }
