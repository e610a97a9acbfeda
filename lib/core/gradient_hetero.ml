module Delay_model = Gcs_sim.Delay_model
module Graph = Gcs_graph.Graph

let fast_trigger_hetero ~kappas ~offsets =
  let n = Array.length offsets in
  if n = 0 then false
  else begin
    assert (Array.length kappas = n);
    (* Largest level at which some neighbor can still be "ahead enough". *)
    let max_level = ref 0 in
    for i = 0 to n - 1 do
      let ahead = -.offsets.(i) in
      if ahead >= kappas.(i) then begin
        let s = int_of_float ((ahead /. kappas.(i)) -. 1.) / 2 in
        if s > !max_level then max_level := s
      end
    done;
    let exists_ahead s =
      let ok = ref false in
      for i = 0 to n - 1 do
        if -.offsets.(i) >= (float_of_int ((2 * s) + 1) *. kappas.(i)) then
          ok := true
      done;
      !ok
    in
    let none_behind s =
      let ok = ref true in
      for i = 0 to n - 1 do
        if offsets.(i) > float_of_int ((2 * s) + 1) *. kappas.(i) then
          ok := false
      done;
      !ok
    in
    let rec search s =
      if s > !max_level then false
      else (exists_ahead s && none_behind s) || search (s + 1)
    in
    (* A neighbor must be ahead by at least its own kappa for level 0 to be
       worth checking at all. *)
    Array.exists2 (fun k o -> -.o >= k) kappas offsets && search 0
  end

let make_node ~edge_bounds (ctx : Algorithm.ctx) v =
  let spec = ctx.spec in
  let port_bounds =
    Array.init (Graph.degree ctx.graph v) (fun p ->
        edge_bounds (Graph.edge_at_port ctx.graph v p))
  in
  let port_kappa =
    Array.map
      (fun b ->
        Spec.default_kappa ~u:(Delay_model.uncertainty b) ~rho:spec.Spec.rho
          ~beacon_period:spec.Spec.beacon_period)
      port_bounds
  in
  let port_guess =
    Array.map
      (fun b -> 0.5 *. (b.Delay_model.d_min +. b.Delay_model.d_max))
      port_bounds
  in
  Neighbor_sync.node
    ~source:(Neighbor_sync.Beacon (fun p -> port_guess.(p)))
    ~fast:(fun ~ports offsets ->
      let kappas = Array.mapi (fun i _ -> port_kappa.(ports.(i))) offsets in
      fast_trigger_hetero ~kappas ~offsets)
    ctx v

let algorithm ~edge_bounds =
  { Algorithm.name = "gradient-hetero"; prepare = make_node ~edge_bounds }
