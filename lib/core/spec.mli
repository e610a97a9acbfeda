(** Problem parameters of a gradient clock synchronization instance.

    These are the quantities the Fan-Lynch model fixes globally and makes
    known to every node: the hardware drift bound, the per-hop message delay
    bounds (whose width is the uncertainty u), and algorithm tuning
    parameters (beacon period, the gradient algorithm's speedup [mu] and
    skew quantum [kappa]). *)

type t = {
  rho : float;  (** drift bound: hardware rates lie in [1, 1 + rho] *)
  mu : float;  (** gradient-algorithm speedup: logical mult in [1, 1 + mu] *)
  delay : Gcs_sim.Delay_model.bounds;  (** per-hop delay bounds *)
  beacon_period : float;  (** hardware time between beacons / probes *)
  kappa : float;  (** per-edge skew quantum of the gradient algorithm *)
  staleness_limit : float;
      (** hardware-time age beyond which a neighbor estimate is discarded;
          makes silent neighbors (crashed nodes, dead links) fade out of
          the trigger instead of poisoning it with unbounded extrapolation
          error *)
}

val make :
  ?rho:float ->
  ?mu:float ->
  ?d_min:float ->
  ?d_max:float ->
  ?beacon_period:float ->
  ?kappa:float ->
  ?staleness_limit:float ->
  unit ->
  t
(** Defaults: [rho = 0.01], [mu = 0.1], delays in [0.5, 1.5] (so u = 1),
    [beacon_period = 1.], [kappa] computed from the other parameters via
    {!default_kappa}, [staleness_limit = 4 * beacon_period]. Raises
    [Invalid_argument] on inconsistent values (non-positive mu, mu <= rho,
    bad delay bounds, ...). *)

val uncertainty : t -> float
(** Per-hop delay uncertainty [u = d_max - d_min]. *)

val d_min : t -> float
val d_max : t -> float
(** The delay-bound components, for callers (canonical store keys, key
    grids) that flatten a spec to primitives. *)

val vartheta : t -> float
(** Maximum hardware rate [1 + rho]. *)

val sigma : t -> float
(** The base [mu / rho] of the logarithm in the gradient algorithm's local
    skew bound (infinite when [rho = 0]). *)

val default_kappa : u:float -> rho:float -> beacon_period:float -> float
(** The smallest safe skew quantum: one-way beacon estimates carry error at
    most [u / 2] from delay uncertainty plus
    [rho * (2 * beacon_period + d_max)] from drift during extrapolation,
    taken here with [d_max = 2u]; the conditions of the gradient
    algorithm need a separation of four estimate errors. When that is 0
    ([u = 0] and [rho = 0]) it returns [1e-6] instead, because the trigger
    arithmetic divides by the quantum. *)

val estimate_error_bound : t -> float
(** Worst-case error of one beacon-based offset estimate under this spec. *)

val validate : t -> (unit, string) result
