(** Distance computations on graphs.

    Hop distances drive the gradient-function metric f(d) of the GCS
    problem; weighted variants support delay-weighted distances (the
    "uncertainty distance" of the Fan-Lynch model in which each hop
    contributes its delay uncertainty). *)

val bfs : Graph.t -> src:int -> int array
(** Hop distances from [src]; unreachable nodes get [max_int]. *)

val all_pairs : Graph.t -> int array array
(** Hop distances between all pairs (BFS from every node). *)

val diameter : Graph.t -> int
(** Maximum hop distance (exact). Raises [Invalid_argument] if the graph is
    disconnected. Memoized on the graph ({!Graph.memo_diameter}): the
    {!Topology} families record a closed form when built, so they cost
    O(1); any other graph pays for one exact iFUB search (4-sweep start,
    then BFS only from the outer levels; typically a handful of BFS, at
    worst n) on its first call and O(1) afterwards. *)

val eccentricity : Graph.t -> int -> int
(** Maximum hop distance from a node. *)

val bellman_ford :
  n:int ->
  arcs:(int * int * float) array ->
  src:int ->
  (float array, unit) result
(** Directed single-source shortest paths over explicit arcs
    [(src, dst, weight)]; [Error ()] if a negative cycle is reachable. *)

val floyd_warshall : Graph.t -> weights:float array -> float array array
(** All-pairs weighted distances; reference implementation for tests. *)
