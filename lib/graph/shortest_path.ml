(* Breadth-first search from [src] into caller-owned arrays of length n.
   Fills [dist] ([max_int] when unreachable) and [queue] with the reached
   nodes in visiting order, so by non-decreasing distance, and returns how
   many were reached: queue.(reached - 1) is a farthest node. *)
let bfs_into g ~dist ~queue src =
  Array.fill dist 0 (Array.length dist) max_int;
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let next = dist.(v) + 1 in
    let adj = Graph.neighbors g v in
    for p = 0 to Array.length adj - 1 do
      let w = fst adj.(p) in
      if dist.(w) = max_int then begin
        dist.(w) <- next;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  !tail

let bfs g ~src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  ignore (bfs_into g ~dist ~queue:(Array.make n 0) src);
  dist

let all_pairs g = Array.init (Graph.n g) (fun v -> bfs g ~src:v)

let disconnected () = invalid_arg "Shortest_path: disconnected graph"

let eccentricity g v =
  let dist = bfs g ~src:v in
  Array.fold_left
    (fun acc d -> if d = max_int then disconnected () else max acc d)
    0 dist

(* Exact diameter by iFUB (Crescenzi et al., "On computing the diameter of
   real-world undirected graphs", TCS 2013), started from a 4-sweep
   midpoint. BFS from the start u sorts the nodes into levels; a pair with
   both ends at level < i is at most 2(i-1) apart, so once every node at
   level >= i has had its eccentricity taken, the diameter is the larger of
   the best of those and 2(i-1). Levels are consumed from the top until that
   bound can no longer beat the best found. *)
let ifub g =
  let n = Graph.n g in
  let dist = Array.make n 0 and queue = Array.make n 0 in
  (* Eccentricity of [v]; afterwards [dist] holds distances from [v] and
     queue.(n-1) a node at that distance. *)
  let ecc v =
    if bfs_into g ~dist ~queue v < n then disconnected ();
    dist.(queue.(n - 1))
  in
  (* Walk back from queue.(n-1) to the middle of a shortest path to the
     last BFS source, using [dist] from that source. Each step starts its
     port scan at a different port (distance mod degree), so on grid-like
     graphs the walk zigzags through the middle instead of running along
     the border to a corner. *)
  let midpoint () =
    let v = ref queue.(n - 1) in
    let half = dist.(!v) / 2 in
    while dist.(!v) > half do
      let adj = Graph.neighbors g !v in
      let deg = Array.length adj in
      let p = ref (dist.(!v) mod deg) in
      while dist.(fst adj.(!p)) <> dist.(!v) - 1 do
        p := (!p + 1) mod deg
      done;
      v := fst adj.(!p)
    done;
    !v
  in
  let start = ref 0 in
  for v = 1 to n - 1 do
    if Graph.degree g v > Graph.degree g !start then start := v
  done;
  (* 4-sweep: highest degree -> a1 -> b1, midpoint -> a2 -> b2, midpoint. *)
  ignore (ecc !start);
  let lb = ref (ecc queue.(n - 1)) in
  ignore (ecc (midpoint ()));
  lb := max !lb (ecc queue.(n - 1));
  let u = midpoint () in
  let top = ecc u in
  lb := max !lb top;
  let level = Array.copy dist and order = Array.copy queue in
  (* Every node at level > !i has been swept; order.(!j) is the last node
     not yet swept. *)
  let i = ref top and j = ref (n - 1) in
  while 2 * !i > !lb do
    while level.(order.(!j)) = !i do
      lb := max !lb (ecc order.(!j));
      decr j
    done;
    decr i
  done;
  !lb

let diameter g = Graph.memo_diameter g ifub

let bellman_ford ~n ~arcs ~src =
  let dist = Array.make n infinity in
  dist.(src) <- 0.;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < n do
    changed := false;
    incr rounds;
    Array.iter
      (fun (u, v, w) ->
        if Float.is_finite dist.(u) && dist.(u) +. w < dist.(v) then begin
          dist.(v) <- dist.(u) +. w;
          changed := true
        end)
      arcs
  done;
  if !changed then Error () else Ok dist

let floyd_warshall g ~weights =
  let n = Graph.n g in
  let dist = Array.make_matrix n n infinity in
  for v = 0 to n - 1 do
    dist.(v).(v) <- 0.
  done;
  Array.iteri
    (fun id (u, v) ->
      dist.(u).(v) <- Float.min dist.(u).(v) weights.(id);
      dist.(v).(u) <- Float.min dist.(v).(u) weights.(id))
    (Graph.edges g);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = dist.(i).(k) +. dist.(k).(j) in
        if via < dist.(i).(j) then dist.(i).(j) <- via
      done
    done
  done;
  dist
