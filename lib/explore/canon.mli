(** Canonical engine-state strings for memoization.

    Two prefix runs whose canonical states match are observationally
    equivalent as far as the engine can tell: same quantized logical clock
    values and multipliers, same hardware clock values and rates, same
    node/edge availability masks, and the same pending event queue
    (rendered in exact pop order, with times relative to [now] so
    executions reaching the same configuration at the same depth compare
    equal). Clock values are quantized to a [quantum] so that float noise
    below the quantum does not split equivalent states.

    Canonical equality is sound for the engine but *not* for algorithm
    handlers: handler closures (e.g. the gradient algorithm's neighbor
    estimates) and monitor history are opaque and unobservable here. Two
    states with equal canonical strings can therefore still diverge later,
    which is why the explorer's memoization is a pruning heuristic that
    defaults to off — see {!Explorer.explore}. *)

val state : ?quantum:float -> Gcs_core.Runner.live -> string
(** Render the live run's current state canonically. [quantum] (default
    [1e-9]) is the clock-value quantization step; raises
    [Invalid_argument] unless it is finite and > 0. The engine is not
    modified; cost is O(queue size x log queue size). *)
