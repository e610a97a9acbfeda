module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Sp = Gcs_graph.Shortest_path
module Prng = Gcs_util.Prng

let test_bfs_line () =
  let g = Topology.line 5 in
  Alcotest.(check (array int)) "distances from 0" [| 0; 1; 2; 3; 4 |]
    (Sp.bfs g ~src:0);
  Alcotest.(check (array int)) "distances from middle" [| 2; 1; 0; 1; 2 |]
    (Sp.bfs g ~src:2)

let test_bfs_unreachable () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  let d = Sp.bfs g ~src:0 in
  Alcotest.(check int) "unreachable is max_int" max_int d.(2)

let test_diameter_families () =
  Alcotest.(check int) "line" 9 (Sp.diameter (Topology.line 10));
  Alcotest.(check int) "ring even" 5 (Sp.diameter (Topology.ring 10));
  Alcotest.(check int) "ring odd" 4 (Sp.diameter (Topology.ring 9));
  Alcotest.(check int) "star" 2 (Sp.diameter (Topology.star 5))

(* The all-sources definition, kept only as the oracle for [Sp.diameter]. *)
let oracle_diameter g =
  Array.fold_left max 0 (Array.init (Graph.n g) (Sp.eccentricity g))

(* The same edges without a recorded diameter, so [Sp.diameter] searches. *)
let unrecorded g = Graph.of_edges ~n:(Graph.n g) (Array.to_list (Graph.edges g))

let test_diameter_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let raises () =
    Alcotest.check_raises "disconnected"
      (Invalid_argument "Shortest_path: disconnected graph") (fun () ->
        ignore (Sp.diameter g))
  in
  raises ();
  (* a failed search records nothing *)
  raises ()

(* Connected random graphs of four kinds, none with a recorded diameter:
   G(n,p), random geometric, random recursive trees, and raw edge lists
   (rebuilt families included, which are iFUB's slow cases). *)
let random_graph (kind, n, seed) =
  let rng = Prng.create ~seed in
  match kind with
  | 0 -> Topology.random_gnp ~n ~p:(Prng.uniform rng ~lo:0.02 ~hi:0.5) ~rng
  | 1 ->
      fst
        (Topology.random_geometric ~n
           ~radius:(Prng.uniform rng ~lo:0.05 ~hi:0.6)
           ~rng)
  | 2 ->
      Graph.of_edges ~n
        (List.init (n - 1) (fun i -> (i + 1, Prng.int rng (i + 1))))
  | _ -> (
      match seed mod 3 with
      | 0 -> unrecorded (Topology.ring (max 3 n))
      | 1 -> unrecorded (Topology.grid ~rows:(1 + (n mod 7)) ~cols:(1 + (n / 7)))
      | _ ->
          (* a path with random chords, so the graph stays connected *)
          let chords =
            List.filter_map
              (fun _ ->
                let u = Prng.int rng n and v = Prng.int rng n in
                if abs (u - v) > 1 then Some (min u v, max u v) else None)
              (List.init (n / 4) Fun.id)
          in
          Graph.of_edges ~n
            (List.init (n - 1) (fun i -> (i, i + 1))
            @ List.sort_uniq compare chords))

let test_ifub_matches_oracle =
  QCheck.Test.make ~name:"iFUB diameter = all-sources BFS oracle" ~count:400
    QCheck.(triple (int_range 0 3) (int_range 2 90) small_nat)
    (fun case ->
      let g = random_graph case in
      Sp.diameter g = oracle_diameter g)

let test_ifub_raw_edge_lists =
  QCheck.Test.make ~name:"iFUB on raw edge lists: oracle value or both raise"
    ~count:300
    QCheck.(pair (int_range 1 40) small_nat)
    (fun (n, seed) ->
      let rng = Prng.create ~seed:(seed + (1000 * n)) in
      let m = Prng.int rng (2 * n) in
      let edges =
        List.sort_uniq compare
          (List.filter_map
             (fun _ ->
               let u = Prng.int rng n and v = Prng.int rng n in
               if u = v then None else Some (min u v, max u v))
             (List.init m Fun.id))
      in
      let g = Graph.of_edges ~n edges in
      let run f = match f g with d -> Ok d | exception Invalid_argument e -> Error e in
      run Sp.diameter = run oracle_diameter)

let test_diameter_memo_across_domains () =
  let rng = Prng.create ~seed:5 in
  let g, _ = Topology.random_geometric ~n:400 ~radius:0.1 ~rng in
  let expected = oracle_diameter g in
  let ask () = Domain.spawn (fun () -> Sp.diameter g) in
  let a = ask () and b = ask () in
  Alcotest.(check int) "first domain" expected (Domain.join a);
  Alcotest.(check int) "second domain" expected (Domain.join b);
  Alcotest.(check int) "memoized" expected (Sp.diameter g)

(* Deterministic proxy for "no BFS ran": a BFS over n nodes allocates at
   least its n-word distance array, so a recorded diameter must cost less
   than n words. The same edges without the record are the control. *)
let words_allocated f =
  let before = Gc.quick_stat () in
  let v = f () in
  let after = Gc.quick_stat () in
  let words s = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  (v, words after -. words before)

let test_grid_200_diameter_runs_no_bfs () =
  let g = Topology.grid ~rows:200 ~cols:200 in
  let n = float_of_int (Graph.n g) in
  let d, words = words_allocated (fun () -> Sp.diameter g) in
  Alcotest.(check int) "closed form" 398 d;
  if words >= n then
    Alcotest.failf "recorded diameter allocated %.0f words (n = %.0f)" words n;
  let d', words' = words_allocated (fun () -> Sp.diameter (unrecorded g)) in
  Alcotest.(check int) "search agrees" 398 d';
  if words' < n then
    Alcotest.failf "control search allocated only %.0f words" words'

let test_bellman_ford_negative_cycle () =
  let arcs = [| (0, 1, 1.); (1, 2, -3.); (2, 0, 1.) |] in
  (match Sp.bellman_ford ~n:3 ~arcs ~src:0 with
  | Error () -> ()
  | Ok _ -> Alcotest.fail "missed negative cycle");
  let arcs_ok = [| (0, 1, 1.); (1, 2, -0.5); (2, 0, 1.) |] in
  match Sp.bellman_ford ~n:3 ~arcs:arcs_ok ~src:0 with
  | Ok d -> Alcotest.(check (float 1e-9)) "dist via neg edge" 0.5 d.(2)
  | Error () -> Alcotest.fail "false negative cycle"

let test_bellman_ford_matches_floyd_warshall =
  QCheck.Test.make
    ~name:"bellman-ford = floyd-warshall on non-negative weights" ~count:50
    QCheck.(int_range 3 25)
    (fun n ->
      let rng = Prng.create ~seed:n in
      let g = Topology.random_gnp ~n ~p:0.3 ~rng in
      let weights =
        Array.init (Graph.m g) (fun _ -> Prng.uniform rng ~lo:0.1 ~hi:5.)
      in
      let arcs =
        Array.concat
          (List.map
             (fun (id, (u, v)) -> [| (u, v, weights.(id)); (v, u, weights.(id)) |])
             (List.mapi (fun i e -> (i, e)) (Array.to_list (Graph.edges g))))
      in
      let fw = (Sp.floyd_warshall g ~weights).(0) in
      match Sp.bellman_ford ~n ~arcs ~src:0 with
      | Error () -> false
      | Ok bf ->
          Array.for_all2
            (fun a b -> a = b || Float.abs (a -. b) < 1e-9)
            fw bf)

let test_bfs_matches_floyd_warshall =
  QCheck.Test.make ~name:"bfs all-pairs = floyd-warshall with unit weights"
    ~count:50
    QCheck.(int_range 2 20)
    (fun n ->
      let rng = Prng.create ~seed:(n * 31) in
      let g = Topology.random_gnp ~n ~p:0.35 ~rng in
      let unit_weights = Array.make (Graph.m g) 1. in
      let fw = Sp.floyd_warshall g ~weights:unit_weights in
      let ap = Sp.all_pairs g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let bfs_d = ap.(i).(j) in
          let fw_d = fw.(i).(j) in
          if bfs_d = max_int then ok := !ok && not (Float.is_finite fw_d)
          else ok := !ok && Float.abs (fw_d -. float_of_int bfs_d) < 1e-9
        done
      done;
      !ok)

let test_triangle_inequality =
  QCheck.Test.make ~name:"hop distances satisfy the triangle inequality"
    ~count:50
    QCheck.(int_range 3 20)
    (fun n ->
      let rng = Prng.create ~seed:(n * 17) in
      let g = Topology.random_gnp ~n ~p:0.4 ~rng in
      let ap = Sp.all_pairs g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if ap.(i).(j) < max_int && ap.(j).(k) < max_int then
              ok := !ok && ap.(i).(k) <= ap.(i).(j) + ap.(j).(k)
          done
        done
      done;
      !ok)

let test_eccentricity () =
  let g = Topology.line 5 in
  Alcotest.(check int) "endpoint" 4 (Sp.eccentricity g 0);
  Alcotest.(check int) "center" 2 (Sp.eccentricity g 2)

let suite =
  [
    Alcotest.test_case "bfs line" `Quick test_bfs_line;
    Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
    Alcotest.test_case "diameters" `Quick test_diameter_families;
    Alcotest.test_case "diameter disconnected" `Quick test_diameter_disconnected;
    Alcotest.test_case "diameter memo across domains" `Quick
      test_diameter_memo_across_domains;
    Alcotest.test_case "grid:200x200 diameter runs no BFS" `Quick
      test_grid_200_diameter_runs_no_bfs;
    Alcotest.test_case "bellman-ford cycle" `Quick test_bellman_ford_negative_cycle;
    Alcotest.test_case "eccentricity" `Quick test_eccentricity;
    QCheck_alcotest.to_alcotest test_bellman_ford_matches_floyd_warshall;
    QCheck_alcotest.to_alcotest test_bfs_matches_floyd_warshall;
    QCheck_alcotest.to_alcotest test_triangle_inequality;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2013 |])
      test_ifub_matches_oracle;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4 |])
      test_ifub_raw_edge_lists;
  ]
