module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Topology = Gcs_graph.Topology
module Graph = Gcs_graph.Graph
module Prng = Gcs_util.Prng
module Fault_plan = Gcs_sim.Fault_plan
module Monitor = Gcs_check.Monitor
module Check_run = Gcs_check.Check_run

type t = {
  spec : Spec.t;
  topology : Topology.spec;
  algo : Algorithm.kind;
  seed : int;
  segment_len : float;
  depth : int;
  alphabet : Choice.t list;
  fault_plan : Fault_plan.t option;
  monitor : Monitor.spec;
}

let max_nodes = 6

(* The sweep convention: graphs of key-described runs are built from the
   topology spec with an rng derived from the run seed, so [key] below
   addresses exactly the run we simulate. *)
let build_graph topology seed =
  Topology.build topology ~rng:(Prng.create ~seed:(seed lxor 0x5eed))

let dedup alphabet =
  List.fold_left
    (fun acc m -> if List.mem m acc then acc else acc @ [ m ])
    [] alphabet

(* The explorer's horizon cap, the same as gcs-cli's --horizon: far past
   it, time stops resolving message delays and a run never ends. *)
let max_horizon = 1e9

(* Every segment boundary is a pending control in each explorer snapshot,
   so snapshots grow with depth. A two-move alphabet already overflows the
   prefix count past depth 61, so the cap only bounds one-move chains. *)
let max_depth = 64

(* [Some (executions, prefixes)] — [k^depth] and [sum over d in 1..depth of
   k^d] — or [None] if either overflows an int; O(depth). *)
let space ~k ~depth =
  let rec go d pow sum =
    if d = depth then Some (pow, sum)
    else if pow > max_int / k then None
    else
      let pow = pow * k in
      if sum > max_int - pow then None else go (d + 1) pow (sum + pow)
  in
  go 0 1 0

let make ?(spec = Spec.make ()) ?(topology = Topology.Ring 3)
    ?(algo = Algorithm.Gradient_sync) ?(seed = 1) ?(segment_len = 8.)
    ?(depth = 3) ?(alphabet = Choice.extremes) ?fault_plan ?monitor () =
  if depth < 1 then invalid_arg "Instance.make: depth must be >= 1";
  if depth > max_depth then
    invalid_arg (Printf.sprintf "Instance.make: depth must be <= %d" max_depth);
  if not (Float.is_finite segment_len && segment_len > 0.) then
    invalid_arg "Instance.make: segment_len must be finite and > 0";
  if float_of_int depth *. segment_len > max_horizon then
    invalid_arg
      (Printf.sprintf "Instance.make: depth * segment_len must be <= %g"
         max_horizon);
  let alphabet = dedup alphabet in
  if alphabet = [] then invalid_arg "Instance.make: alphabet must be non-empty";
  if space ~k:(List.length alphabet) ~depth = None then
    invalid_arg
      (Printf.sprintf
         "Instance.make: %d moves to depth %d is more prefixes than an int \
          holds"
         (List.length alphabet) depth);
  let n = Graph.n (build_graph topology seed) in
  if n < 2 || n > max_nodes then
    invalid_arg
      (Printf.sprintf
         "Instance.make: exhaustive exploration needs 2..%d nodes (topology \
          %s has %d)"
         max_nodes (Topology.spec_name topology) n);
  let monitor =
    match monitor with
    | Some m -> m
    | None -> Check_run.default_spec ~mode:`Abort spec algo
  in
  { spec; topology; algo; seed; segment_len; depth; alphabet; fault_plan;
    monitor }

let nodes t = Graph.n (build_graph t.topology t.seed)
let horizon t ~depth = float_of_int depth *. t.segment_len

let key t ~depth =
  Runner.store_key ~drift:"perfect" ?fault_plan:t.fault_plan ~spec:t.spec
    ~topology:t.topology ~algo:t.algo
    ~horizon:(horizon t ~depth)
    ~seed:t.seed ()

let space_of t =
  match space ~k:(List.length t.alphabet) ~depth:t.depth with
  | Some s -> s
  | None -> assert false (* rejected by [make] *)

let executions t = fst (space_of t)
let prefixes t = snd (space_of t)
