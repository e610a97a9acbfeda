(** Automated worst-case search over the adversary's decision space.

    The hand-crafted attacks ([Fan_lynch], [Linear], [Bias]) encode the
    strategies from the proofs. This module instead *searches* for bad
    executions: time is cut into segments, in each segment the adversary
    picks one of a small set of moves (which half of the line runs fast,
    and how message delays are biased), and a beam search over move
    sequences maximizes the local skew the algorithm ends up with.

    Every candidate prefix is re-simulated from time zero — determinism
    makes that exact. The search
    is exhaustive when the beam is wide enough ([beam >= moves^segments]),
    and a beam-limited heuristic otherwise.

    This serves two purposes: it validates the hand-crafted adversaries
    (the searched optimum should not be dramatically stronger — if it
    were, the crafted attack missed something), and it attacks *new*
    algorithms for which no proof-derived strategy exists. *)

type move = {
  fast_side : [ `Left | `Right | `None ];
      (** which half of the line runs at maximum drift this segment *)
  bias : [ `Forward | `Backward | `Neutral ];
      (** delay bias direction: [`Forward] delivers left-to-right messages
          at [d_max] and right-to-left at [d_min] *)
}

val all_moves : move list
(** The nine-element move alphabet. *)

type config = {
  spec : Gcs_core.Spec.t;
  n : int;  (** line length *)
  algo : Gcs_core.Algorithm.kind;
  segments : int;  (** number of decision points *)
  segment_len : float;  (** real-time length of each segment *)
  beam : int;  (** beam width; [max_int] makes the search exhaustive *)
  seed : int;
}

type outcome = {
  forced_local : float;  (** best max-local-skew found (final segment) *)
  forced_global : float;
  plan : move list;  (** the move sequence achieving it *)
  evaluations : int;  (** simulations executed *)
}

val default_config :
  ?spec:Gcs_core.Spec.t ->
  ?algo:Gcs_core.Algorithm.kind ->
  ?segments:int ->
  ?segment_len:float ->
  ?beam:int ->
  ?seed:int ->
  n:int ->
  unit ->
  config
(** Defaults: 6 segments of [4 * n * d_max] each, beam 12. *)

val install :
  Gcs_core.Runner.live -> segment_len:float -> move option array -> unit
(** Wire a move schedule into a prepared run (built with
    [Controlled_delays]): installs the bias-following delay chooser and
    one control per slot, at [i * segment_len] for slot [i], that applies
    the slot's move (its fast-half rate split and delay bias) when it
    fires. The control reads the slot at that moment, so slots may be
    filled while the run is paused; an empty slot is a no-op. Node count
    and spec come from the live run's own config, so the same installer
    serves the beam search, the explorer and counterexample replay
    ([Gcs_check]), where the config was rebuilt from a store key. *)

val slots : move list -> move option array
(** A full slot array: move [i] in slot [i]. *)

val evaluate :
  ?fault_plan:Gcs_sim.Fault_plan.t -> config -> move list -> float * float
(** [(max local, max global)] over the final segment of the execution that
    plays the given move sequence. With a [fault_plan] carrying Byzantine
    nodes, the maxima are over correct nodes only — the adversary is
    scored on the damage it forces between honest clocks. Exposed for
    tests. *)

val search : ?fault_plan:Gcs_sim.Fault_plan.t -> config -> outcome
(** Beam search over move sequences; an optional [fault_plan] (typically
    with Byzantine events) is installed in every candidate execution. *)

type byz_outcome = {
  forced_correct_local : float;
      (** worst correct-correct local skew found (final segment) *)
  byz_plan : Gcs_sim.Fault_plan.t;  (** the lying strategy achieving it *)
  byz_moves : move list;
      (** the co-optimized move sequence ([all-neutral] when no move
          sequence beat the neutral schedule) *)
  byz_evaluations : int;  (** simulations executed across both stages *)
}

val byz_search : ?f:int -> ?magnitude:float -> config -> byz_outcome
(** Co-optimize a Byzantine lying strategy with the delay/rate adversary:
    stage 1 ranks [f]-liar placements (a stride sweep) crossed with the
    strategy alphabet (equivocation, constant/drifting lead and lag,
    random) under neutral moves; stage 2 runs the move beam search
    against the winner. Default [f = 1], default [magnitude] [20 *
    kappa]. Everything is expressed as an ordinary {!Gcs_sim.Fault_plan},
    so the winning strategy replays through runner configs, store keys,
    and [.repro] artifacts unchanged. Raises unless [1 <= f < n]. *)
