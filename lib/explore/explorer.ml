module Runner = Gcs_core.Runner
module Engine = Gcs_sim.Engine
module Monitor = Gcs_check.Monitor
module Search = Gcs_adversary.Search

type strategy = Bfs | Dfs

let strategy_name = function Bfs -> "bfs" | Dfs -> "dfs"

let strategy_of_string = function
  | "bfs" -> Ok Bfs
  | "dfs" -> Ok Dfs
  | s -> Error (Printf.sprintf "unknown strategy %S (expected bfs or dfs)" s)

type stats = {
  states_visited : int;
  executions : int;
  pruned : int;
  distinct_states : int;
  max_depth : int;
  frontier_high_water : int;
  events_checked : int;
}

type verdict =
  | Proved
  | Violated of { trace : Choice.trace; violation : Monitor.violation }
  | Budget_exhausted

type outcome = {
  verdict : verdict;
  stats : stats;
  dedup : bool;
  strategy : strategy;
  quantum : float;
  max_states : int;
}

type simulated = {
  live : Runner.live;
  result : Runner.result;
  violation : Monitor.violation option;
  events_checked : int;
}

let simulate (inst : Instance.t) trace =
  let depth = List.length trace in
  if depth = 0 then Error "Explorer.simulate: empty trace (zero horizon)"
  else
    match Runner.config_of_key (Instance.key inst ~depth) with
    | Error _ as e -> e
    | Ok cfg ->
        (* The same pipeline as [Check_run.run] with a non-empty move list:
           controlled delays, install the moves, monitor, run, flush. Kept
           in step by the sampler-vs-enumerator cross-validation test. *)
        let cfg = { cfg with Runner.delay_kind = Runner.Controlled_delays } in
        let live = Runner.prepare cfg in
        Search.install live ~segment_len:inst.Instance.segment_len
          (Search.slots trace);
        let m = Monitor.attach inst.Instance.monitor live in
        let result = Runner.complete live in
        let violation = Monitor.finalize m in
        Ok { live; result; violation;
             events_checked = Monitor.events_checked m }

(* A paused run of the walk: the full-depth run, its monitor, and the move
   slots its boundary controls read. Forked as one value, so the copy keeps
   all sharing between the three: the copy's controls read the copy's
   slots and its monitor observes the copy's engine. *)
type fork = {
  run : Runner.live;
  monitor : Monitor.t;
  slots : Search.move option array;
}

(* The root of the walk: the full-depth run with every slot empty. *)
let root (inst : Instance.t) =
  match Runner.config_of_key (Instance.key inst ~depth:inst.Instance.depth) with
  | Error msg -> invalid_arg ("Explorer.explore: " ^ msg)
  | Ok cfg ->
      let cfg = { cfg with Runner.delay_kind = Runner.Controlled_delays } in
      let run = Runner.prepare cfg in
      (* Marshal can copy closures but not channels, mutexes or domains:
         key-described runs capture nothing and run serially. *)
      if run.Runner.event_log <> None || run.Runner.series <> None
         || run.Runner.profiler <> None || Engine.regions run.Runner.engine > 1
      then invalid_arg "Explorer.explore: cannot fork a capturing or parallel run";
      let slots = Array.make inst.Instance.depth None in
      Search.install run ~segment_len:inst.Instance.segment_len slots;
      { run; monitor = Monitor.attach inst.Instance.monitor run; slots }

(* Paused runs, stacked in one buffer that is reused for the whole walk
   and grows by doubling. *)
module Stack = struct
  type t = { mutable buf : Bytes.t; ends : int array; mutable size : int }

  let create ~capacity =
    { buf = Bytes.create 65536; ends = Array.make capacity 0; size = 0 }

  let offset t i = if i = 0 then 0 else t.ends.(i - 1)

  let rec push t (f : fork) =
    let at = offset t t.size in
    match
      Marshal.to_buffer t.buf at (Bytes.length t.buf - at) f
        [ Marshal.Closures ]
    with
    | n ->
        t.ends.(t.size) <- at + n;
        t.size <- t.size + 1
    | exception Failure _ ->
        let bigger = Bytes.create (2 * Bytes.length t.buf) in
        Bytes.blit t.buf 0 bigger 0 at;
        t.buf <- bigger;
        push t f

  let top t : fork = Marshal.from_bytes t.buf (offset t (t.size - 1))
  let drop t = t.size <- t.size - 1
end

let explore ?(dedup = false) ?(quantum = 1e-9) ?(max_states = 100_000)
    ?(strategy = Bfs) (inst : Instance.t) =
  if not (Float.is_finite quantum && quantum > 0.) then
    invalid_arg "Explorer.explore: quantum must be finite and > 0";
  let depth = inst.Instance.depth in
  let seg = inst.Instance.segment_len in
  let alphabet = Array.of_list inst.Instance.alphabet in
  let k = Array.length alphabet in
  let memo : (int * string, unit) Hashtbl.t = Hashtbl.create 256 in
  (* Prefixes dedup declined to expand, by their alphabet-index path; the
     iterative deepening of [Bfs] must not descend into them again. *)
  let pruned_at : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let states_visited = ref 0 in
  let executions = ref 0 in
  let pruned = ref 0 in
  let max_depth = ref 0 in
  let events_checked = ref 0 in
  (* The size of the frontier a queue/stack explorer would hold, which is
     the same under both orders: pop one per visit, push [k] per
     expansion, starting from the root's [k] children. *)
  let frontier = ref k in
  let high_water = ref k in
  let path = Array.make depth 0 in
  let key l = String.init l (fun i -> Char.chr path.(i)) in
  let trace l = List.init l (fun i -> alphabet.(path.(i))) in
  (* One paused run per level of the current path, root included. *)
  let stack = Stack.create ~capacity:depth in
  let exception Stop of verdict in
  (* Fork the snapshot on top of the stack into the level-[l] prefix
     [path.(0..l-1)], paused just before boundary [l]'s events. *)
  let advance l =
    let f = Stack.top stack in
    f.slots.(l - 1) <- Some alphabet.(path.(l - 1));
    Engine.run_until f.run.Runner.engine (Float.pred (float_of_int l *. seg));
    f
  in
  (* Check the level-[l] prefix: its verdict is its fork run through
     boundary [l] and flushed. With [save], the fork is also stacked as it
     was before the boundary, for the prefix's children. Returns whether
     the prefix is expanded. *)
  let visit l ~save =
    (* Popped from the frontier, then checked against the budget. *)
    decr frontier;
    if !states_visited >= max_states then raise (Stop Budget_exhausted);
    let f = advance l in
    if save then Stack.push stack f;
    Engine.run_until f.run.Runner.engine (float_of_int l *. seg);
    let violation = Monitor.finalize f.monitor in
    incr states_visited;
    events_checked := !events_checked + Monitor.events_checked f.monitor;
    if l > !max_depth then max_depth := l;
    match violation with
    | Some violation -> raise (Stop (Violated { trace = trace l; violation }))
    | None when l = depth ->
        incr executions;
        false
    | None ->
        let expand =
          (not dedup)
          ||
          (* Canonicalized from the reference run, not the fork: a fork's
             queue also holds its later boundary controls. Keyed on
             remaining depth as well as state: equal configurations with
             different exploration left are not interchangeable. *)
          match simulate inst (trace l) with
          | Error msg -> invalid_arg ("Explorer.explore: " ^ msg)
          | Ok sim ->
              let state = (depth - l, Canon.state ~quantum sim.live) in
              if Hashtbl.mem memo state then begin
                incr pruned;
                Hashtbl.replace pruned_at (key l) ();
                false
              end
              else begin
                Hashtbl.add memo state ();
                true
              end
        in
        if expand then begin
          frontier := !frontier + k;
          if !frontier > !high_water then high_water := !frontier
        end;
        expand
  in
  (* Pre-order over the prefixes below the snapshot on top of the stack
     (itself at level [l]): prefixes at levels [from..upto] are visited,
     shallower ones only forked through to reach them. *)
  let rec walk l ~from ~upto =
    for i = 0 to k - 1 do
      path.(l) <- i;
      let c = l + 1 in
      if c >= from then begin
        let save = c < upto in
        if visit c ~save && save then walk c ~from ~upto;
        if save then Stack.drop stack
      end
      else if not (dedup && Hashtbl.mem pruned_at (key c)) then begin
        Stack.push stack (advance c);
        walk c ~from ~upto;
        Stack.drop stack
      end
    done
  in
  let verdict =
    try
      Stack.push stack (root inst);
      (* A one-move alphabet makes the tree a chain, where both orders
         coincide. *)
      if strategy = Dfs || k = 1 then walk 0 ~from:1 ~upto:depth
      else begin
        (* Iterative deepening: pass [d] visits level [d] in the order a
           FIFO frontier pops it. *)
        let d = ref 1 in
        while !d <= depth && !frontier > 0 do
          walk 0 ~from:!d ~upto:!d;
          incr d
        done
      end;
      Proved
    with Stop v -> v
  in
  {
    verdict;
    stats =
      {
        states_visited = !states_visited;
        executions = !executions;
        pruned = !pruned;
        distinct_states = Hashtbl.length memo;
        max_depth = !max_depth;
        frontier_high_water = !high_water;
        events_checked = !events_checked;
      };
    dedup;
    strategy;
    quantum;
    max_states;
  }
