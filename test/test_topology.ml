module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Shortest_path = Gcs_graph.Shortest_path
module Prng = Gcs_util.Prng

let test_line () =
  let g = Topology.line 5 in
  Alcotest.(check int) "n" 5 (Graph.n g);
  Alcotest.(check int) "m" 4 (Graph.m g);
  Alcotest.(check int) "diameter" 4 (Shortest_path.diameter g);
  Alcotest.(check int) "endpoint degree" 1 (Graph.degree g 0);
  Alcotest.(check int) "middle degree" 2 (Graph.degree g 2)

let test_single_node_line () =
  let g = Topology.line 1 in
  Alcotest.(check int) "n" 1 (Graph.n g);
  Alcotest.(check int) "m" 0 (Graph.m g)

let test_ring () =
  let g = Topology.ring 6 in
  Alcotest.(check int) "m" 6 (Graph.m g);
  Alcotest.(check int) "diameter" 3 (Shortest_path.diameter g);
  for v = 0 to 5 do
    Alcotest.(check int) "regular" 2 (Graph.degree g v)
  done

let test_grid () =
  let g = Topology.grid ~rows:3 ~cols:4 in
  Alcotest.(check int) "n" 12 (Graph.n g);
  (* edges: 3 * 3 horizontal rows + 2 * 4 vertical = 9 + 8 *)
  Alcotest.(check int) "m" 17 (Graph.m g);
  Alcotest.(check int) "diameter" 5 (Shortest_path.diameter g)

let test_torus () =
  let g = Topology.torus ~rows:4 ~cols:4 in
  Alcotest.(check int) "n" 16 (Graph.n g);
  Alcotest.(check int) "m" 32 (Graph.m g);
  for v = 0 to 15 do
    Alcotest.(check int) "4-regular" 4 (Graph.degree g v)
  done;
  Alcotest.(check int) "diameter" 4 (Shortest_path.diameter g)

let test_complete () =
  let g = Topology.complete 6 in
  Alcotest.(check int) "m" 15 (Graph.m g);
  Alcotest.(check int) "diameter" 1 (Shortest_path.diameter g)

let test_star () =
  let g = Topology.star 7 in
  Alcotest.(check int) "m" 6 (Graph.m g);
  Alcotest.(check int) "center degree" 6 (Graph.degree g 0);
  Alcotest.(check int) "diameter" 2 (Shortest_path.diameter g)

let test_binary_tree () =
  let g = Topology.binary_tree ~depth:3 in
  Alcotest.(check int) "n" 15 (Graph.n g);
  Alcotest.(check int) "m" 14 (Graph.m g);
  Alcotest.(check int) "diameter" 6 (Shortest_path.diameter g)

let test_hypercube () =
  let g = Topology.hypercube ~dim:4 in
  Alcotest.(check int) "n" 16 (Graph.n g);
  Alcotest.(check int) "m" 32 (Graph.m g);
  Alcotest.(check int) "diameter" 4 (Shortest_path.diameter g)

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

let test_closed_form_diameters () =
  let check name g =
    Alcotest.(check int) name
      (Test_shortest_path.oracle_diameter g)
      (Shortest_path.diameter g)
  in
  let sized name build sizes =
    List.iter (fun k -> check (Printf.sprintf "%s:%d" name k) (build k)) sizes
  in
  let dims name build lo hi =
    List.iter
      (fun rows ->
        List.iter
          (fun cols ->
            check
              (Printf.sprintf "%s:%dx%d" name rows cols)
              (build ~rows ~cols))
          (range lo hi))
      (range lo hi)
  in
  sized "line" Topology.line (range 1 12);
  sized "ring" Topology.ring (range 3 12);
  dims "grid" Topology.grid 1 7;
  dims "torus" Topology.torus 3 7;
  sized "complete" Topology.complete (range 2 8);
  sized "star" Topology.star (range 2 9);
  sized "btree" (fun depth -> Topology.binary_tree ~depth) (range 0 6);
  sized "hypercube" (fun dim -> Topology.hypercube ~dim) (range 1 7)

let test_random_gnp_connected =
  QCheck.Test.make ~name:"gnp post-processing yields connected graphs"
    ~count:50
    QCheck.(pair (int_range 2 40) (float_range 0. 0.3))
    (fun (n, p) ->
      let rng = Prng.create ~seed:(n + int_of_float (p *. 1000.)) in
      Graph.is_connected (Topology.random_gnp ~n ~p ~rng))

let test_random_geometric_connected =
  QCheck.Test.make ~name:"geometric graphs are connected" ~count:30
    QCheck.(int_range 2 40)
    (fun n ->
      let rng = Prng.create ~seed:n in
      let g, pos = Topology.random_geometric ~n ~radius:0.2 ~rng in
      Graph.is_connected g && Array.length pos = n)

let test_spec_roundtrip () =
  let specs =
    [
      Topology.Line 8;
      Topology.Ring 9;
      Topology.Grid (3, 4);
      Topology.Torus (4, 5);
      Topology.Complete 5;
      Topology.Star 6;
      Topology.Binary_tree 3;
      Topology.Hypercube 3;
      Topology.Random_gnp (10, 0.25);
      Topology.Random_geometric (10, 0.3);
    ]
  in
  List.iter
    (fun spec ->
      let name = Topology.spec_name spec in
      match Topology.spec_of_string name with
      | Ok parsed ->
          Alcotest.(check string) ("roundtrip " ^ name) name
            (Topology.spec_name parsed)
      | Error e -> Alcotest.fail e)
    specs

let test_spec_rejects_garbage () =
  List.iter
    (fun s ->
      match Topology.spec_of_string s with
      | Ok _ -> Alcotest.fail ("accepted garbage: " ^ s)
      | Error _ -> ())
    [ "nope"; "line"; "line:x"; "grid:3"; "grid:3x4x5"; "gnp:10"; "" ]

(* Sizes the constructors reject are typed parse errors, never a later
   Invalid_argument; each family's smallest legal size still parses. *)
let test_spec_size_errors () =
  List.iter
    (fun s ->
      match Topology.spec_of_string s with
      | Ok _ -> Alcotest.fail ("accepted out-of-range size: " ^ s)
      | Error _ -> ())
    [
      "line:0"; "ring:1"; "ring:2"; "grid:0x3"; "grid:3x0"; "torus:2x3";
      "torus:3x2"; "complete:1"; "star:1"; "btree:-1"; "hypercube:0";
      "gnp:1:0.5"; "gnp:8:-0.1"; "gnp:8:1.5"; "gnp:8:nan"; "geometric:1:0.3";
      "geometric:8:0"; "geometric:8:-0.2"; "geometric:8:nan";
    ];
  let rng = Prng.create ~seed:1 in
  List.iter
    (fun s ->
      match Topology.spec_of_string s with
      | Ok spec -> ignore (Topology.build spec ~rng)
      | Error e -> Alcotest.fail e)
    [
      "line:1"; "ring:3"; "grid:1x1"; "torus:3x3"; "complete:2"; "star:2";
      "btree:0"; "hypercube:1"; "gnp:2:0"; "gnp:2:1"; "geometric:2:0.01";
    ]

let test_build_matches_direct () =
  let rng = Prng.create ~seed:1 in
  let g = Topology.build (Topology.Ring 7) ~rng in
  Alcotest.(check int) "build ring" 7 (Graph.n g)

let suite =
  [
    Alcotest.test_case "line" `Quick test_line;
    Alcotest.test_case "line n=1" `Quick test_single_node_line;
    Alcotest.test_case "ring" `Quick test_ring;
    Alcotest.test_case "grid" `Quick test_grid;
    Alcotest.test_case "torus" `Quick test_torus;
    Alcotest.test_case "complete" `Quick test_complete;
    Alcotest.test_case "star" `Quick test_star;
    Alcotest.test_case "binary tree" `Quick test_binary_tree;
    Alcotest.test_case "hypercube" `Quick test_hypercube;
    Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
    Alcotest.test_case "spec rejects garbage" `Quick test_spec_rejects_garbage;
    Alcotest.test_case "spec size errors" `Quick test_spec_size_errors;
    Alcotest.test_case "closed-form diameters = oracle" `Quick
      test_closed_form_diameters;
    Alcotest.test_case "build" `Quick test_build_matches_direct;
    QCheck_alcotest.to_alcotest test_random_gnp_connected;
    QCheck_alcotest.to_alcotest test_random_geometric_connected;
  ]
