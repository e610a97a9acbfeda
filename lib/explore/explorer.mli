(** Exhaustive enumeration of an instance's execution space.

    The explorer walks the decision tree of an {!Instance.t}: every node
    of the tree is a decision trace (a prefix), every leaf at the
    instance's depth is a complete execution. Every prefix (not just
    leaves) runs under the instance's monitor, so a violation is reported
    at the shallowest depth that exhibits it, in deterministic exploration
    order.

    Prefixes share their common past: the explorer builds one full-depth
    run whose segment controls read their moves from mutable slots, pauses
    it just before each segment boundary, and forks the paused run (run,
    monitor and slots copied together with [Marshal] and [Closures]) once
    per child, so a prefix costs one segment and one fork instead of a run
    from time zero ([Bfs]'s iterative deepening also re-forks a prefix's
    ancestors once per pass). A prefix's verdict is its fork run through
    its last boundary and flushed, which equals {!simulate} of the same
    trace (the test suite holds the two equal against a re-simulating
    oracle). The fork needs a run with no capture
    sinks, a serial engine and no channel reachable from it, which every
    key-described run is. At most [depth + 1] paused runs are kept, in one
    buffer reused for the whole call.

    Memoization ([dedup]) prunes subtrees whose canonicalized engine state
    ({!Canon.state}) at the same remaining depth was already expanded. It
    is off by default and [--prove] leaves it off: canonical equality
    cannot see algorithm-handler internals or monitor history, so pruning
    trades completeness of the *proof* for speed of the *search* (a
    violation found with dedup on is still a real violation; a clean
    exhaustion with dedup on is weaker than one without). *)

type strategy = Bfs | Dfs

val strategy_name : strategy -> string
val strategy_of_string : string -> (strategy, string) result

type stats = {
  states_visited : int;  (** prefixes checked *)
  executions : int;  (** complete (depth-d) executions simulated *)
  pruned : int;  (** prefixes not expanded because of a memo hit *)
  distinct_states : int;  (** memo table size (0 with [dedup] off) *)
  max_depth : int;  (** deepest prefix simulated *)
  frontier_high_water : int;
      (** widest a queue ([Bfs]) or stack ([Dfs]) frontier of pending
          prefixes would have been *)
  events_checked : int;  (** monitor-checked events, summed over runs *)
}

type verdict =
  | Proved  (** the full space was exhausted, no violation *)
  | Violated of { trace : Choice.trace; violation : Gcs_check.Monitor.violation }
      (** first violating prefix in exploration order *)
  | Budget_exhausted  (** state budget hit with frontier remaining *)

type outcome = {
  verdict : verdict;
  stats : stats;
  dedup : bool;
  strategy : strategy;
  quantum : float;
  max_states : int;
}

type simulated = {
  live : Gcs_core.Runner.live;  (** retained for canonicalization *)
  result : Gcs_core.Runner.result;
  violation : Gcs_check.Monitor.violation option;
  events_checked : int;
}

val simulate : Instance.t -> Choice.trace -> (simulated, string) result
(** The reference run of one prefix, simulated from time zero: rebuild the
    config from {!Instance.key} at the trace's depth, force controlled
    delays, install the trace as an adversary move sequence, attach the
    instance's monitor, run, flush. This is exactly the
    [Gcs_check.Check_run.run] pipeline for a non-empty move list (the
    cross-validation property in the test suite holds the two equal), with
    the live run returned for {!Canon.state} (the explorer's [dedup]
    canonicalizes this run, not a fork, whose queue also holds its later
    boundary controls). [Error] on the empty trace (a zero-horizon run) or
    a key that no longer describes a config. *)

val explore :
  ?dedup:bool ->
  ?quantum:float ->
  ?max_states:int ->
  ?strategy:strategy ->
  Instance.t ->
  outcome
(** Enumerate. Defaults: [dedup] off, [quantum] [1e-9], [max_states]
    100_000, [Bfs]. Children are generated in alphabet order; [Dfs] is a
    pre-order walk, and [Bfs] iterative deepening over the same walk, so
    it explores shallow prefixes first (the verdict's trace is
    depth-minimal) in the order a FIFO frontier would.
    [frontier_high_water] is the size such a queue ([Bfs]) or stack
    ([Dfs]) frontier would reach. The verdict is [Proved] only if every
    prefix of the space was simulated without a violation and without
    hitting the budget. Raises [Invalid_argument] unless [quantum] is
    finite and > 0, or if the instance's key stops being runnable (cannot
    happen for instances built by {!Instance.make}). *)
