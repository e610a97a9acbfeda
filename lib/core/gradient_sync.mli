(** The gradient clock synchronization algorithm (fast/slow conditions).

    This is the blocking/level algorithm of the GCS line of work that the
    Fan-Lynch paper initiated (Lenzen-Locher-Wattenhofer; the Kuhn-Oshman
    trigger formulation). Node [v] keeps beacon-based offset estimates
    o_{v,w} to each neighbor [w] and runs its logical clock at the *fast*
    multiplier [1 + mu] exactly when the fast trigger holds:

    there exists an integer level s >= 0 such that
    - some neighbor is ahead of v by at least (2s + 1) * kappa, and
    - no neighbor is behind v by more than (2s + 1) * kappa;

    otherwise it runs at multiplier 1. The quantum [kappa] must dominate
    four estimate errors (see {!Spec.default_kappa}) so that the trigger,
    evaluated on noisy estimates, is sandwiched between the ideal fast and
    slow conditions on true offsets. The resulting local skew is
    O(kappa * log_sigma D) with sigma = mu / rho — exponentially better
    than the Theta(D) of max- and tree-based synchronization, and within
    the log log factor of the Fan-Lynch lower bound.

    Estimates are refreshed by periodic beacons and the trigger is
    re-evaluated on every beacon arrival plus on a half-period re-check
    timer (estimates extrapolate between beacons, so a trigger can flip
    without a message arriving). That loop is {!Neighbor_sync}'s; this
    module supplies its midpoint beacons and [fast_trigger]. *)

val algorithm : Algorithm.t

val fast_trigger : kappa:float -> offsets:float array -> bool
(** Pure trigger evaluation, exposed for unit and property tests.
    [offsets.(i)] is o_{v,w_i} = (estimated) own - neighbor; an empty array
    never triggers. *)

val slow_trigger : kappa:float -> offsets:float array -> bool
(** The complementary slow trigger (some neighbor behind by >= 2s * kappa,
    none ahead by more than 2s * kappa, for some level s >= 1). Used in the
    analysis and in tests for mutual exclusivity; the implementation runs
    slow whenever the fast trigger does not hold. *)
