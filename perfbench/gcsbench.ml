(* gcsbench: the repository benchmark.

   Each workload repeats one user operation — the library calls a gcs-cli
   subcommand makes, in the same order, in-process — for a fixed time
   budget, checks every operation's output, and prints the medians as one
   JSON line. End-to-end times are scaled by a host-speed reference run
   around each operation (Hostref), because the shared host's speed swings
   more than any bound a regression check could use. Untraced runs
   ([--trace 0]) give the end-to-end metrics; traced runs ([--trace 1])
   record a span around every library call and give the per-layer
   metrics. See perfbench/README.md for what each
   workload is for and which layer should move which number. *)

module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Shortest_path = Gcs_graph.Shortest_path
module Prng = Gcs_util.Prng
module Scheduler = Gcs_util.Scheduler
module Drift = Gcs_clock.Drift
module Lc = Gcs_clock.Logical_clock
module Engine = Gcs_sim.Engine
module Fault_plan = Gcs_sim.Fault_plan
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics
module Bounds = Gcs_core.Bounds
module Report = Gcs_core.Report
module Parallel_run = Gcs_core.Parallel_run
module Store = Gcs_store.Store
module Key = Gcs_store.Key
module Outcome = Gcs_store.Outcome
module Check_run = Gcs_check.Check_run
module Monitor = Gcs_check.Monitor
module Choice = Gcs_explore.Choice
module Instance = Gcs_explore.Instance
module Explorer = Gcs_explore.Explorer

(* ---- small helpers ---- *)

let ok what = function Ok v -> v | Error msg -> failwith (what ^ ": " ^ msg)
let ratio a b = if b = 0. then 0. else a /. b

let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float (Float.floor pos) in
      let j = min (i + 1) (Array.length a - 1) in
      a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = quantile xs 0.5

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

type json =
  | Str of string
  | Num of float
  | Int of int
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

let rec json_to_string = function
  | Str s ->
      let b = Buffer.create (String.length s + 2) in
      Buffer.add_char b '"';
      String.iter
        (function
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 ->
              Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"';
      Buffer.contents b
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Printf.sprintf "%.0f" f
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | List l -> "[" ^ String.concat ", " (List.map json_to_string l) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> json_to_string (Str k) ^ ": " ^ json_to_string v) kv)
      ^ "}"

let argv_list argvs = List (List.map (fun a -> List (List.map (fun s -> Str s) a)) argvs)

(* ---- what gcs-cli would run ---- *)

(* gcs-cli's spec flags at their defaults: --rho 0.01 --mu 0.1 --d-min 0.5
   --d-max 1.5 --period 1, kappa derived. *)
let spec = Spec.make ~rho:0.01 ~mu:0.1 ~d_min:0.5 ~d_max:1.5 ~beacon_period:1. ()

(* gcs-cli's graph convention, shared with Runner.store_key. *)
let build_graph topo seed =
  Topology.build topo ~rng:(Prng.create ~seed:(seed lxor 0x5eed))

(* gcs-cli's print_summary, rendered instead of printed. *)
let summary_text ~algo ~topo ~graph ~diameter (r : Runner.result) =
  let b = Buffer.create 512 in
  let s = r.Runner.summary in
  Printf.bprintf b "algorithm: %s on %s\n" (Algorithm.kind_name algo)
    (Topology.spec_name topo);
  Printf.bprintf b "nodes %d, edges %d, diameter %d, u = %g, kappa = %.4f\n"
    (Graph.n graph) (Graph.m graph) diameter (Spec.uncertainty spec)
    spec.Spec.kappa;
  Printf.bprintf b "max local skew    : %.4f\n" s.Metrics.max_local;
  Printf.bprintf b "mean local skew   : %.4f\n" s.Metrics.mean_local;
  Printf.bprintf b "p99 local skew    : %.4f\n" s.Metrics.p99_local;
  Printf.bprintf b "max global skew   : %.4f\n" s.Metrics.max_global;
  Printf.bprintf b "final local skew  : %.4f\n" s.Metrics.final_local;
  Printf.bprintf b "final global skew : %.4f\n" s.Metrics.final_global;
  Printf.bprintf b "messages / events : %d / %d\n" r.Runner.messages
    r.Runner.events;
  if r.Runner.jumps.Lc.count > 0 then
    Printf.bprintf b
      "clock jumps       : %d (max %.4f) — violates the bounded-rate model\n"
      r.Runner.jumps.Lc.count r.Runner.jumps.Lc.max_magnitude;
  Printf.bprintf b "gradient envelope : %.4f (analytic local bound)\n"
    (Bounds.gradient_local_upper spec ~diameter);
  Buffer.contents b

(* ---- samples ---- *)

(* Per-layer samples, filled only while spans are recorded. *)
let layer : (string, float list) Hashtbl.t = Hashtbl.create 64

let layer_add name v =
  if !Span.recording then
    Hashtbl.replace layer name
      (v :: Option.value ~default:[] (Hashtbl.find_opt layer name))

let layer_addi name v = layer_add name (float_of_int v)

(* Engine counters read from [live.engine] after each [Runner.complete]
   the benchmark makes, with the minor words that call allocated. *)
type tally = {
  mutable events : int;
  mutable messages : int;
  mutable deliver : int;
  mutable timer : int;
  mutable control : int;
  mutable high_water : int;
  mutable regions : int;
  mutable complete_s : float;
  mutable minor_words : float;
}

let tally () =
  {
    events = 0;
    messages = 0;
    deliver = 0;
    timer = 0;
    control = 0;
    high_water = 0;
    regions = 0;
    complete_s = 0.;
    minor_words = 0.;
  }

let tally_engine t (live : Runner.live) ~seconds ~minor_words =
  let e = live.Runner.engine in
  t.events <- t.events + Engine.events_processed e;
  t.messages <- t.messages + Engine.messages_sent e;
  t.deliver <- t.deliver + Engine.dispatch_count e Engine.Dispatch_deliver;
  t.timer <- t.timer + Engine.dispatch_count e Engine.Dispatch_timer;
  t.control <- t.control + Engine.dispatch_count e Engine.Dispatch_control;
  t.high_water <- max t.high_water (Engine.heap_high_water e);
  t.regions <- max t.regions (Engine.regions e);
  t.complete_s <- t.complete_s +. seconds;
  t.minor_words <- t.minor_words +. minor_words

let record_tally t =
  layer_addi "engine.events" t.events;
  layer_addi "engine.messages" t.messages;
  layer_addi "engine.dispatch_deliver" t.deliver;
  layer_addi "engine.dispatch_timer" t.timer;
  layer_addi "engine.dispatch_control" t.control;
  layer_addi "engine.heap_high_water" t.high_water;
  layer_addi "engine.regions" t.regions;
  let events = float_of_int t.events in
  layer_add "engine.ns_per_event" (ratio (t.complete_s *. 1e9) events);
  layer_add "gc.minor_words_per_event" (ratio t.minor_words events)

let minor_words () = if !Span.recording then Gc.minor_words () else 0.

let major_collections () =
  if !Span.recording then (Gc.quick_stat ()).Gc.major_collections else 0

(* [Runner.complete], timed, with its engine counters and allocation
   added to [t] when tracing. *)
let complete t live =
  let w0 = minor_words () in
  let r, seconds = Span.timed "runner.complete" (fun () -> Runner.complete live) in
  if !Span.recording then
    tally_engine t live ~seconds ~minor_words:(minor_words () -. w0);
  (r, seconds)

(* ---- workloads ---- *)

(* One measured operation, as the end-to-end metrics see it. *)
type sample = {
  wall : float;  (** the operation as a user waits for it *)
  setup : float list;  (** set-up before the first dispatched event *)
  work_s : float;  (** seconds spent dispatching [events] *)
  events : int;
  cells : int;
  prefixes : int;
}

type instance = {
  params : (string * json) list;  (** workload parameters, for the manifest *)
  cli : string list list;  (** the gcs-cli invocations one operation mirrors *)
  key_hash : string;  (** Gcs_store.Key hash of the operation's run(s) *)
  op : rep:int -> sample * (unit, string) result;
  extras : unit -> unit;  (** traced runs only: side measurements *)
  mirror : unit -> (string * json) list;  (** one operation's outputs *)
}

let pins : (string * int, string) Hashtbl.t = Hashtbl.create 16

let load_pins path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ w; s; d ] when line.[0] <> '#' -> (
             match int_of_string_opt s with
             | Some seed -> Hashtbl.replace pins (w, seed) d
             | None -> failwith ("bad seed in pins line: " ^ line))
         | [ "" ] -> ()
         | _ when String.length line > 0 && line.[0] = '#' -> ()
         | _ -> failwith ("bad pins line: " ^ line))

let outcome_digest o = Digest.to_hex (Digest.string (Outcome.encode o))

(* gcs-cli run -a gradient -t TOPOLOGY --horizon H --seed SEED *)
let run_workload ~name ~topology ~horizon ~seed =
  let algo_s = "gradient" in
  let topo = ok "topology" (Topology.spec_of_string topology) in
  let algo = ok "algorithm" (Algorithm.kind_of_string algo_s) in
  let horizon_f = float_of_string horizon in
  let first = ref None in
  let set_up () =
    let graph, t_build = Span.timed "graph.build" (fun () -> build_graph topo seed) in
    let cfg =
      Runner.config ~spec ~algo
        ~drift_of_node:(fun _ -> Drift.Random_constant)
        ~horizon:horizon_f ~seed ~loss:Runner.No_loss
        ~initial_value_of_node:(fun _ -> 0.)
        ~scheduler:Scheduler.Binary_heap ~regions:1 graph
    in
    let live, t_prepare = Span.timed "runner.prepare" (fun () -> Runner.prepare cfg) in
    (graph, live, t_build +. t_prepare)
  in
  let once () =
    let t = tally () in
    let w0 = minor_words () and m0 = major_collections () in
    let (graph, r, diameter, setup, setup_words, t_complete), wall =
      Span.timed "op" (fun () ->
          let graph, live, setup = set_up () in
          let setup_words = minor_words () -. w0 in
          let r, t_complete = complete t live in
          let diameter, _ =
            Span.timed "graph.diameter" (fun () -> Shortest_path.diameter graph)
          in
          ignore (Sys.opaque_identity (summary_text ~algo ~topo ~graph ~diameter r));
          (graph, r, diameter, setup, setup_words, t_complete))
    in
    layer_add "gc.setup_minor_words" setup_words;
    layer_addi "gc.major_collections" (major_collections () - m0);
    record_tally t;
    ( { wall; setup = [ setup ]; work_s = t_complete; events = r.Runner.events;
        cells = 1; prefixes = 1 },
      graph,
      r,
      diameter )
  in
  let check (r : Runner.result) diameter =
    let s = r.Runner.summary in
    let bound = Bounds.gradient_local_upper spec ~diameter in
    if not (s.Metrics.max_local <= bound) then
      Error
        (Printf.sprintf "max local skew %.6f exceeds the gradient envelope %.6f"
           s.Metrics.max_local bound)
    else
      match !first with
      | Some (events, messages, summary) ->
          if events = r.Runner.events && messages = r.Runner.messages
             && compare summary s = 0
          then Ok ()
          else Error "outcome differs from the run's first operation"
      | None -> (
          first := Some (r.Runner.events, r.Runner.messages, s);
          (* Runner.outcome recomputes the diameter, so it runs only when
             a pin needs it or the trace measures it. *)
          match Hashtbl.find_opt pins (name, seed) with
          | None when not !Span.recording -> Ok ()
          | pinned -> (
              let o, _ =
                Span.timed "check" (fun () ->
                    fst (Span.timed "runner.outcome" (fun () -> Runner.outcome r)))
              in
              let digest = outcome_digest o in
              match pinned with
              | Some p when p <> digest ->
                  Error
                    (Printf.sprintf "outcome digest %s differs from the pinned %s"
                       digest p)
              | Some _ | None -> Ok ()))
  in
  {
    params =
      [ ("algorithm", Str algo_s); ("topology", Str topology);
        ("horizon", Str horizon); ("run_seed", Int seed) ];
    cli =
      [ [ "run"; "-a"; algo_s; "-t"; topology; "--horizon"; horizon; "--seed";
          string_of_int seed ] ];
    key_hash =
      Key.hash
        (Runner.store_key ~spec ~topology:topo ~algo ~horizon:horizon_f ~seed ());
    op =
      (fun ~rep:_ ->
        let sample, _, r, diameter = once () in
        (sample, check r diameter));
    extras = (fun () -> ());
    mirror =
      (fun () ->
        let _, graph, r, diameter = once () in
        [ ("events", Int r.Runner.events);
          ("messages", Int r.Runner.messages);
          ("summary", Str (summary_text ~algo ~topo ~graph ~diameter r));
          ("digest", Str (outcome_digest (Runner.outcome r))) ]);
  }

(* One gcs-cli sweep --store pass: keys and configs, Store.open_,
   Parallel_run.run_cached, Store.close, CSV rows. *)
type pass = {
  keyed : (Key.t option * Runner.config) array;
  csv : string;
  stats : Parallel_run.cache_stats;
  pass_setup : float;
  cached_s : float;
  log_bytes : int;
  events_run : int;
}

(* gcs-cli sweep's cell order: topology-major, then algorithm, then seed. *)
let sweep_cells ~topos ~algos ~seeds ~seed_base =
  let seed_list = Gcs_core.Replicate.seeds ~base:seed_base seeds in
  List.concat_map
    (fun topo ->
      List.concat_map
        (fun algo -> List.map (fun seed -> (topo, algo, seed)) seed_list)
        algos)
    topos

let sweep_pass ~jobs ~topos ~algos ~seeds ~seed_base ~horizon ~fault_plan dir =
  let w0 = minor_words () in
  let cells = sweep_cells ~topos ~algos ~seeds ~seed_base in
  let keyed, t_keys =
    Span.timed "sweep.keys" (fun () ->
        Array.of_list
          (List.map
             (fun (topo, algo, seed) ->
               let graph, _ =
                 Span.timed "graph.build" (fun () -> build_graph topo seed)
               in
               Option.iter
                 (fun plan -> ok "fault plan" (Fault_plan.validate plan graph))
                 fault_plan;
               ( Some
                   (Runner.store_key ~loss:0. ?fault_plan ~spec ~topology:topo
                      ~algo ~horizon ~seed ()),
                 Runner.config ~spec ~algo ~horizon ~loss:Runner.No_loss ~seed
                   ?fault_plan graph ))
             cells))
  in
  let store, t_open =
    Span.timed "store.open" (fun () -> Store.open_ ~create:true dir)
  in
  layer_add "gc.setup_minor_words" (minor_words () -. w0);
  let (outcomes, stats, log_bytes), cached_s =
    Fun.protect
      ~finally:(fun () -> ignore (Span.timed "store.close" (fun () -> Store.close store)))
      (fun () ->
        Span.timed "pool.run_cached" (fun () ->
            let o, s = Parallel_run.run_cached ~jobs ~store keyed in
            (o, s, Store.log_bytes store)))
  in
  let csv, _ =
    Span.timed "report.rows" (fun () ->
        let rows =
          List.mapi
            (fun i (topo, algo, seed) ->
              Report.outcome_row ~label:(Topology.spec_name topo)
                ~algo:(Algorithm.kind_name algo) ~seed outcomes.(i))
            cells
        in
        Gcs_util.Csv.render
          ~header:(Report.result_header ~faults:(fault_plan <> None) ())
          ~rows)
  in
  {
    keyed;
    csv;
    stats;
    pass_setup = t_keys +. t_open;
    cached_s;
    log_bytes;
    events_run = Array.fold_left (fun a o -> a + o.Outcome.events) 0 outcomes;
  }

(* gcs-cli sweep --store DIR over three small topologies x four
   algorithms x 4 seeds at horizon 200, once benign and once under a
   benign fault plan, into a fresh store; then the same two sweeps again,
   which the store must serve without simulating. *)
let sweep_algorithms = [ "gradient"; "ft-gradient-1"; "dynamic-gradient"; "max" ]

let sweep_workload ~out ~seed =
  let topologies = "ring:32,grid:6x6,line:24" in
  let algorithms = String.concat "," sweep_algorithms in
  let seeds = 4 and horizon = "200" in
  (* One domain, not Pool.default_jobs (): on a shared 2-vCPU host a
     two-domain sweep waits at every stop-the-world minor collection and
     at the join for whichever vCPU is slower at the moment, which no
     one-domain reference follows (ten runs spread by 0.33 scaled). With
     one job the pool still shards, runs and collects every cell. *)
  let jobs = 1 in
  let topos =
    List.map
      (fun s -> ok "topology" (Topology.spec_of_string s))
      (String.split_on_char ',' topologies)
  in
  let algos =
    List.map (fun s -> ok "algorithm" (Algorithm.kind_of_string s)) sweep_algorithms
  in
  let horizon_f = float_of_string horizon in
  (* One plan for every cell, so each pass is a single gcs-cli invocation;
     drawn over the smallest topology's nodes, so it is valid on all. *)
  let nodes =
    List.fold_left (fun n t -> min n (Graph.n (build_graph t seed))) max_int topos
  in
  let plan_s =
    Fault_plan.to_string (Check_run.benign_plan ~seed ~horizon:horizon_f ~nodes)
  in
  let plan = ok "fault plan" (Fault_plan.of_string plan_s) in
  let base =
    [ "sweep"; "--topologies"; topologies; "--algos"; algorithms; "--seeds";
      string_of_int seeds; "--seed-base"; string_of_int seed; "--horizon";
      horizon; "-j"; string_of_int jobs ]
  in
  let both dir =
    let pass fault_plan =
      sweep_pass ~jobs ~topos ~algos ~seeds ~seed_base:seed ~horizon:horizon_f
        ~fault_plan dir
    in
    let a = pass None in
    let b = pass (Some plan) in
    (a, b)
  in
  let first_csv = ref None in
  let cold_cached = ref [] in
  let last_keyed = ref [||] in
  let op ~rep =
    let dir = Filename.concat out (Printf.sprintf "store-%d-%d" (Unix.getpid ()) rep) in
    rm_rf dir;
    let m0 = major_collections () in
    let (c1, c2), wall = Span.timed "op" (fun () -> both dir) in
    layer_addi "gc.major_collections" (major_collections () - m0);
    let (w1, w2), warm = Span.timed "warm" (fun () -> both dir) in
    let keyed = Array.append c1.keyed c2.keyed in
    if !Span.recording then begin
      cold_cached := (c1.cached_s +. c2.cached_s) :: !cold_cached;
      last_keyed := keyed;
      layer_add "store.warm_s" warm;
      layer_addi "store.log_bytes" c2.log_bytes;
      let sum f = f c1.stats + f c2.stats + f w1.stats + f w2.stats in
      layer_addi "store.hits" (sum (fun s -> s.Parallel_run.hits));
      layer_addi "store.misses" (sum (fun s -> s.Parallel_run.misses));
      layer_addi "store.fresh_dispatches"
        (sum (fun s -> s.Parallel_run.fresh_dispatches));
      ignore
        (Span.timed "find" (fun () ->
             let st = Store.open_ ~create:false dir in
             Fun.protect ~finally:(fun () -> Store.close st) (fun () ->
                 Span.timed "store.find" (fun () ->
                     Array.iter
                       (fun (k, _) -> ignore (Store.find st (Option.get k)))
                       keyed))))
    end;
    rm_rf dir;
    let n = Array.length keyed in
    (* A cold pass misses every cell; a warm one hits every cell and
       dispatches nothing. *)
    let served (p : pass) ~cold =
      let n = Array.length p.keyed and st = p.stats in
      if cold then st.hits = 0 && st.misses = n
      else st.hits = n && st.misses = 0 && st.fresh_dispatches = 0
    in
    let check =
      if not (served c1 ~cold:true && served c2 ~cold:true) then
        Error "cold pass was not all misses"
      else if not (served w1 ~cold:false && served w2 ~cold:false) then
        Error "warm pass was not all hits with no fresh dispatches"
      else if w1.csv <> c1.csv || w2.csv <> c2.csv then
        Error "warm CSV differs from cold CSV"
      else
        match !first_csv with
        | None ->
            first_csv := Some (c1.csv, c2.csv);
            Ok ()
        | Some (a, b) ->
            if a = c1.csv && b = c2.csv then Ok ()
            else Error "CSV differs from the run's first operation"
    in
    ( { wall; setup = [ c1.pass_setup +. c2.pass_setup ];
        work_s = c1.cached_s +. c2.cached_s; events = c1.events_run + c2.events_run;
        cells = n; prefixes = n },
      check )
  in
  (* Every cell again, serially, through the calls run_cached makes per
     miss: per-cell cost, per-algorithm ns and words per event, and the
     pool's efficiency against the cold passes. *)
  let extras () =
    let t = tally () in
    let per_algo = Hashtbl.create 4 in
    let cell_s =
      fst
        (Span.timed "attribution" (fun () ->
             Array.map
               (fun (_, (cfg : Runner.config)) ->
                 let live, t_prepare =
                   Span.timed "runner.prepare" (fun () -> Runner.prepare cfg)
                 in
                 let events0 = t.events and words0 = t.minor_words in
                 let r, t_complete = complete t live in
                 let _, t_outcome =
                   Span.timed "runner.outcome" (fun () -> Runner.outcome r)
                 in
                 let a = Algorithm.kind_name cfg.Runner.algo in
                 let s, e, w =
                   Option.value ~default:(0., 0, 0.) (Hashtbl.find_opt per_algo a)
                 in
                 Hashtbl.replace per_algo a
                   ( s +. t_complete,
                     e + (t.events - events0),
                     w +. (t.minor_words -. words0) );
                 t_prepare +. t_complete +. t_outcome)
               !last_keyed))
    in
    record_tally t;
    let cell_s = Array.to_list cell_s in
    layer_add "sweep.cell_p50_s" (quantile cell_s 0.5);
    layer_add "sweep.cell_p90_s" (quantile cell_s 0.9);
    layer_addi "pool.jobs" jobs;
    layer_add "pool.efficiency"
      (ratio (List.fold_left ( +. ) 0. cell_s)
         (float_of_int jobs *. median !cold_cached));
    List.iter
      (fun a ->
        let s, e, w = Option.value ~default:(0., 0, 0.) (Hashtbl.find_opt per_algo a) in
        layer_add ("sweep.ns_per_event." ^ a) (ratio (s *. 1e9) (float_of_int e));
        layer_add ("sweep.minor_words_per_event." ^ a) (ratio w (float_of_int e)))
      sweep_algorithms
  in
  let mirror () =
    let dir = Filename.concat out (Printf.sprintf "mirror-store-%d" (Unix.getpid ())) in
    rm_rf dir;
    let c1, c2 = both dir in
    let w1, w2 = both dir in
    rm_rf dir;
    let stats (s : Parallel_run.cache_stats) =
      Obj [ ("hits", Int s.hits); ("misses", Int s.misses);
            ("fresh_dispatches", Int s.fresh_dispatches) ]
    in
    [ ("csv", List [ Str c1.csv; Str c2.csv ]);
      ("cold", List [ stats c1.stats; stats c2.stats ]);
      ("warm", List [ stats w1.stats; stats w2.stats ]);
      ("warm_identical", Bool (w1.csv = c1.csv && w2.csv = c2.csv)) ]
  in
  let keys =
    List.concat_map
      (fun fault_plan ->
        List.map
          (fun (topo, algo, s) ->
            Key.hash
              (Runner.store_key ~loss:0. ?fault_plan ~spec ~topology:topo ~algo
                 ~horizon:horizon_f ~seed:s ()))
          (sweep_cells ~topos ~algos ~seeds ~seed_base:seed))
      [ None; Some plan ]
  in
  {
    params =
      [ ("topologies", Str topologies); ("algorithms", Str algorithms);
        ("seeds", Int seeds); ("seed_base", Int seed); ("horizon", Str horizon);
        ("jobs", Int jobs); ("fault_plan", Str plan_s);
        ("cells", Int (List.length keys)) ];
    cli = [ base; base @ [ "--fault-plan"; plan_s ] ];
    key_hash = Digest.to_hex (Digest.string (String.concat "\n" keys));
    op;
    extras;
    mirror;
  }

(* gcs-cli explore --depth 6 --prove --seed SEED: gradient on ring:3 with
   the extreme alphabet, every prefix re-simulated from t=0 under the
   monitor. *)
let explore_workload ~seed =
  let depth = 6 and alphabet_s = "extreme" and strategy_s = "bfs" in
  let algo = Algorithm.Gradient_sync and topology = Topology.Ring 3 in
  let make () =
    let alphabet = ok "alphabet" (Choice.alphabet_of_string alphabet_s) in
    let strategy = ok "strategy" (Explorer.strategy_of_string strategy_s) in
    let monitor = Check_run.default_spec ~mode:`Abort spec algo in
    ( Instance.make ~spec ~topology ~algo ~seed ~segment_len:8. ~depth ~alphabet
        ~monitor (),
      strategy )
  in
  let explore () =
    let (inst, strategy), _ = Span.timed "explore.instance" make in
    let outcome, t_explore =
      Span.timed "explore.explore" (fun () ->
          Explorer.explore ~dedup:false ~quantum:1e-9 ~max_states:100_000
            ~strategy inst)
    in
    (inst, outcome, t_explore)
  in
  (* The set-up before the explorer's first event: the instance, then the
     first prefix's config and engine. Cheap, so sampled many times. *)
  let setup_probe () =
    let w0 = minor_words () in
    let _, dt =
      Span.timed "setup" (fun () ->
          let (inst, _), _ = Span.timed "explore.instance" make in
          let cfg, _ =
            Span.timed "runner.config_of_key" (fun () ->
                ok "key" (Runner.config_of_key (Instance.key inst ~depth:1)))
          in
          Span.timed "runner.prepare" (fun () -> Runner.prepare cfg))
    in
    layer_add "gc.setup_minor_words" (minor_words () -. w0);
    dt
  in
  let check inst (o : Explorer.outcome) =
    let s = o.Explorer.stats in
    match o.Explorer.verdict with
    | Explorer.Proved
      when s.Explorer.states_visited = Instance.prefixes inst
           && s.Explorer.executions = Instance.executions inst
           && Instance.prefixes inst = 5460
           && Instance.executions inst = 4096 ->
        Ok ()
    | Explorer.Proved ->
        Error
          (Printf.sprintf "proved with %d prefixes / %d executions, expected 5460 / 4096"
             s.Explorer.states_visited s.Explorer.executions)
    | Explorer.Budget_exhausted -> Error "state budget exhausted"
    | Explorer.Violated { violation; _ } ->
        Error ("violation: " ^ Monitor.violation_to_string violation)
  in
  let op ~rep:_ =
    let m0 = major_collections () in
    let (inst, o, t_explore), wall = Span.timed "op" explore in
    layer_addi "gc.major_collections" (major_collections () - m0);
    let setup = List.init 20 (fun _ -> setup_probe ()) in
    let s = o.Explorer.stats in
    layer_addi "explore.states_visited" s.Explorer.states_visited;
    layer_addi "explore.executions" s.Explorer.executions;
    layer_addi "explore.events_checked" s.Explorer.events_checked;
    layer_addi "explore.frontier_high_water" s.Explorer.frontier_high_water;
    layer_add "explore.prefix_ms"
      (ratio (t_explore *. 1000.) (float_of_int s.Explorer.states_visited));
    ( { wall; setup; work_s = t_explore; events = s.Explorer.events_checked;
        cells = s.Explorer.executions; prefixes = s.Explorer.states_visited },
      check inst o )
  in
  (* Explorer.simulate on random prefixes of each depth: re-simulating
     from t=0 makes a prefix's cost grow with its depth. *)
  let extras () =
    let inst, _ = make () in
    let alphabet = Array.of_list inst.Instance.alphabet in
    let rng = Prng.create ~seed:(seed lxor 0x51e5) in
    let t = tally () in
    for d = 1 to depth do
      let ms =
        List.init 10 (fun _ ->
            let trace = List.init d (fun _ -> Prng.choice rng alphabet) in
            let w0 = minor_words () in
            let sim, dt =
              Span.timed "simulate" (fun () ->
                  fst
                    (Span.timed "explore.simulate" (fun () ->
                         ok "simulate" (Explorer.simulate inst trace))))
            in
            tally_engine t sim.Explorer.live ~seconds:dt
              ~minor_words:(minor_words () -. w0);
            dt *. 1000.)
      in
      layer_add (Printf.sprintf "explore.simulate_ms.d%d" d) (median ms)
    done;
    record_tally t
  in
  let inst, _ = make () in
  {
    params =
      [ ("algorithm", Str (Algorithm.kind_name algo));
        ("topology", Str (Topology.spec_name topology)); ("depth", Int depth);
        ("alphabet", Str alphabet_s); ("strategy", Str strategy_s);
        ("instance_seed", Int seed) ];
    cli =
      [ [ "explore"; "--depth"; string_of_int depth; "--prove"; "--seed";
          string_of_int seed ] ];
    key_hash = Key.hash (Instance.key inst ~depth);
    op;
    extras;
    mirror =
      (fun () ->
        let _, o, _ = explore () in
        let s = o.Explorer.stats in
        [ ("states_visited", Int s.Explorer.states_visited);
          ("executions", Int s.Explorer.executions);
          ("events_checked", Int s.Explorer.events_checked);
          ("frontier_high_water", Int s.Explorer.frontier_high_water);
          ( "verdict",
            Str
              (match o.Explorer.verdict with
              | Explorer.Proved -> "PROVED"
              | Explorer.Budget_exhausted -> "BUDGET EXHAUSTED"
              | Explorer.Violated _ -> "VIOLATION") ) ]);
  }

let workloads = [ "run-ring"; "run-grid"; "sweep-store"; "explore-prove" ]

let instance ~out ~seed = function
  | "run-ring" ->
      run_workload ~name:"run-ring" ~topology:"ring:2048" ~horizon:"120" ~seed
  | "run-grid" ->
      run_workload ~name:"run-grid" ~topology:"grid:64x64" ~horizon:"5" ~seed
  | "sweep-store" -> sweep_workload ~out ~seed
  | "explore-prove" -> explore_workload ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---- metrics ---- *)

let end_to_end =
  [ ("wall_s", "s"); ("setup_s", "s"); ("events_per_s", "1/s");
    ("cells_per_s", "1/s"); ("prefixes_per_s", "1/s"); ("peak_heap_mb", "MB") ]

(* Per-layer times come from span self times, read from the user
   operation's spans when it makes the call, else from the one side
   measurement that does. *)
let span_layers =
  [ ("graph.build_s", "graph.build"); ("graph.diameter_s", "graph.diameter");
    ("runner.prepare_s", "runner.prepare");
    ("runner.complete_s", "runner.complete");
    ("runner.outcome_s", "runner.outcome"); ("sweep.keys_s", "sweep.keys");
    ("pool.run_cached_s", "pool.run_cached"); ("store.open_s", "store.open");
    ("store.find_s", "store.find"); ("explore.explore_s", "explore.explore");
    ("op.self_s", "op") ]

let roots = [ "op"; "check"; "attribution"; "setup"; "find"; "simulate" ]

let counter_layers =
  [ ("engine.events", "count"); ("engine.messages", "count");
    ("engine.dispatch_deliver", "count"); ("engine.dispatch_timer", "count");
    ("engine.dispatch_control", "count"); ("engine.heap_high_water", "count");
    ("engine.regions", "count"); ("engine.ns_per_event", "ns");
    ("gc.minor_words_per_event", "words/event");
    ("gc.setup_minor_words", "words"); ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB"); ("pool.jobs", "count");
    ("pool.efficiency", "ratio"); ("sweep.cell_p50_s", "s");
    ("sweep.cell_p90_s", "s") ]
  @ List.map (fun a -> ("sweep.ns_per_event." ^ a, "ns")) sweep_algorithms
  @ List.map
      (fun a -> ("sweep.minor_words_per_event." ^ a, "words/event"))
      sweep_algorithms
  @ [ ("store.hits", "count"); ("store.misses", "count");
      ("store.fresh_dispatches", "count"); ("store.log_bytes", "bytes");
      ("store.warm_s", "s"); ("explore.states_visited", "count");
      ("explore.executions", "count"); ("explore.events_checked", "count");
      ("explore.frontier_high_water", "count"); ("explore.prefix_ms", "ms") ]
  @ List.init 6 (fun i -> (Printf.sprintf "explore.simulate_ms.d%d" (i + 1), "ms"))
  @ [ ("op.wall_s", "s"); ("trace.overhead", "ratio"); ("host.reference_s", "s") ]

(* ---- main ---- *)

let usage =
  "gcsbench --workload W --seed N --seconds S --trace 0|1 [--out DIR] \
   [--pins FILE] [--rev REV] [--mirror]"

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. in
  let trace = ref 0 and out = ref ".bench_build/perfbench" in
  let pins_file = ref "perfbench/pins.txt" and rev = ref "unknown" in
  let mirror = ref false in
  let spec_list =
    [ ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement budget in seconds");
      ("--trace", Arg.Set_int trace, "0|1 record spans for per-layer metrics");
      ("--out", Arg.Set_string out, "DIR scratch and result directory");
      ("--pins", Arg.Set_string pins_file, "FILE pinned outcome digests");
      ("--rev", Arg.Set_string rev, "REV code revision for the manifest");
      ("--mirror", Arg.Set mirror, " run one operation, print its outputs as JSON") ]
  in
  let die msg =
    prerr_endline ("gcsbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec_list (fun a -> die ("unexpected argument " ^ a)) usage
   with Arg.Bad msg | Arg.Help msg -> die msg);
  if not (List.mem !workload workloads) then die ("unknown workload " ^ !workload);
  let seed = match !seed with Some s -> s | None -> die "--seed is required" in
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if not (!seconds > 0.) then die "--seconds must be positive";
  (try load_pins !pins_file with Sys_error msg | Failure msg -> die msg);
  mkdir_p !out;
  let inst = instance ~out:!out ~seed !workload in
  let manifest =
    Obj
      [ ("workload", Str !workload); ("seed", Int seed);
        ("seconds", Num !seconds); ("trace", Int !trace); ("rev", Str !rev);
        ("ocaml", Str Sys.ocaml_version);
        ("nproc", Int (Domain.recommended_domain_count ()));
        ("params", Obj inst.params);
        ("cli", argv_list (List.map (fun a -> "gcs-cli" :: a) inst.cli));
        ("key_hash", Str inst.key_hash) ]
  in
  print_endline ("manifest " ^ json_to_string manifest);
  if !mirror then begin
    print_endline
      (json_to_string
         (Obj
            (("cli", argv_list inst.cli)
            :: inst.mirror ())));
    exit 0
  end;
  let traced_run = !trace = 1 in
  let attempted = ref 0 and failed = ref 0 in
  (* Each sample comes with its operation's host-speed scale (Hostref)
     and whether it was traced. *)
  let samples = ref [] and refs = ref [] in
  let attempt label f =
    incr attempted;
    match f () with
    | Ok () -> ()
    | Error msg ->
        incr failed;
        Printf.eprintf "gcsbench: %s failed: %s\n%!" label msg
    | exception e ->
        incr failed;
        Printf.eprintf "gcsbench: %s raised %s\n%!" label (Printexc.to_string e)
  in
  (* Closed loop: one operation at a time, started only if it is expected
     to end within the budget (the last one's wall predicts the next). A
     traced run alternates traced and untraced operations, starting
     traced, so both walls are measured under the same conditions. The
     host-speed reference runs just before and just after each operation,
     both times on a collected heap, so the operation's unfinished major
     collection does not land in it; the mean of the two scales it. *)
  let t_start = Span.now () in
  let min_reps = if traced_run then 4 else 3 in
  let rec loop rep last =
    let elapsed = Span.now () -. t_start in
    if rep < min_reps || elapsed +. last <= !seconds then begin
      let traced = traced_run && rep mod 2 = 0 in
      (* Start every operation from a collected heap, as a fresh gcs-cli
         process would, so one operation's garbage does not tax the next. *)
      let t0 = Span.now () in
      Gc.full_major ();
      let ref0 = Hostref.time ~now:Span.now in
      Span.recording := traced;
      let result = ref None in
      attempt (Printf.sprintf "operation %d" rep) (fun () ->
          let sample, check = inst.op ~rep in
          result := Some sample;
          check);
      Span.recording := false;
      Gc.full_major ();
      let ref1 = Hostref.time ~now:Span.now in
      let ref_s = (ref0 +. ref1) /. 2. in
      let scale = Hostref.nominal_s /. ref_s in
      refs := ref_s :: !refs;
      Option.iter (fun sample -> samples := (sample, scale, traced) :: !samples) !result;
      let dt = Span.now () -. t0 in
      Printf.eprintf "operation %d%s: %.3f s, reference %.4f s\n%!" rep
        (if traced then " (traced)" else "")
        dt ref_s;
      loop (rep + 1) dt
    end
  in
  loop 0 0.;
  let ops = !attempted in
  if traced_run then begin
    Span.recording := true;
    attempt "side measurements" (fun () -> inst.extras (); Ok ());
    Span.recording := false
  end;
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let all = !samples in
  let n = List.length all in
  let untraced = List.filter (fun (_, _, traced) -> not traced) all in
  let traced = List.filter (fun (_, _, traced) -> traced) all in
  (* End-to-end times are host-speed scaled; per-layer ones are raw, so
     that self times add up to op.wall_s. *)
  let med f = median (List.map (fun (s, scale, _) -> f s scale) untraced) in
  let metrics =
    if not traced_run then
      [ ("wall_s", med (fun s k -> k *. s.wall));
        ( "setup_s",
          median (List.concat_map (fun (s, k, _) -> List.map (( *. ) k) s.setup) untraced) );
        ("events_per_s", med (fun s k -> ratio (float_of_int s.events) (k *. s.work_s)));
        ("cells_per_s", med (fun s k -> ratio (float_of_int s.cells) (k *. s.wall)));
        ("prefixes_per_s", med (fun s k -> ratio (float_of_int s.prefixes) (k *. s.wall)));
        ("peak_heap_mb", top_heap_mb) ]
      |> List.map (fun (k, v) -> (k, v, List.assoc k end_to_end))
    else begin
      let scaled ss = median (List.map (fun (s, k, _) -> k *. s.wall) ss) in
      Span.recording := true;
      layer_add "gc.top_heap_mb" top_heap_mb;
      layer_add "op.wall_s" (median (List.map (fun (s, _, _) -> s.wall) traced));
      layer_add "trace.overhead" (ratio (scaled traced) (scaled untraced) -. 1.);
      layer_add "host.reference_s" (median !refs);
      Span.recording := false;
      let table = Span.self_times () in
      let from_spans (metric, span) =
        let xs =
          List.fold_left
            (fun acc root ->
              match acc with [] -> Span.self_samples table ~root span | _ -> acc)
            [] roots
        in
        (metric, median xs, "s")
      in
      let wall = median (List.map (fun (s, _, _) -> s.wall) traced) in
      Printf.printf "self-time share of op.wall_s (%.3f s):" wall;
      List.iter
        (fun (metric, span) ->
          let v = median (Span.self_samples table ~root:"op" span) in
          if v > 0.005 *. wall then
            Printf.printf " %s %.1f%%" metric (100. *. v /. wall))
        span_layers;
      print_newline ();
      let counter (metric, unit) =
        (metric, median (Option.value ~default:[] (Hashtbl.find_opt layer metric)), unit)
      in
      let spans_path =
        Filename.concat !out (Printf.sprintf "spans-%s-seed%d.jsonl" !workload seed)
      in
      Span.write spans_path;
      Printf.printf "spans written to %s\n" spans_path;
      List.map from_spans span_layers @ List.map counter counter_layers
    end
  in
  Printf.printf "%s seed %d: %d operations, %d failed (failed_ratio %g)\n"
    !workload seed ops !failed (ratio (float_of_int !failed) (float_of_int !attempted));
  List.iter
    (fun (k, v, unit) -> Printf.printf "  %-36s %16.6g %s\n" k v unit)
    metrics;
  if not traced_run then
    Printf.printf
      "  medians over %d operations, timings scaled to the host-speed reference \
       (median %.4f s, nominal %.3f s; raw wall_s %.6g s)\n"
      n (median !refs) Hostref.nominal_s
      (median (List.map (fun (s, _, _) -> s.wall) untraced));
  let result =
    Obj
      [ ("correct", Bool (!failed = 0)); ("attempted", Int !attempted);
        ("failed", Int !failed);
        ( "metrics",
          Obj
            (List.map
               (fun (k, v, unit) ->
                 (k, Obj [ ("value", Num v); ("unit", Str unit) ]))
               metrics) ) ]
  in
  let result_path =
    Filename.concat !out
      (Printf.sprintf "result-%s-seed%d-trace%d.json" !workload seed !trace)
  in
  Out_channel.with_open_text result_path (fun oc ->
      output_string oc
        (json_to_string
           (Obj
              [ ("manifest", manifest); ("operations", Int n);
                ("result", result);
                ( "samples",
                  List
                    (List.rev_map
                       (fun (s, scale, traced) ->
                         Obj
                           [ ("wall_s", Num s.wall); ("work_s", Num s.work_s);
                             ("scale", Num scale); ("traced", Bool traced) ])
                       all) ) ]));
      output_char oc '\n');
  print_endline (json_to_string result);
  exit (if !failed = 0 then 0 else 1)
