(** The per-node loop shared by every neighbor-estimate synchronization
    algorithm.

    Each node keeps one {!Offset_estimator} per port, refreshes it from
    periodic messages, and after every refresh — and on a half-period
    re-check timer, because estimates extrapolate between messages —
    decides whether its logical clock runs at the fast multiplier
    [1 + mu] or at its base pace. The variants differ only in the stages
    {!node} takes: the estimate source, the offset transform, and the
    trigger with its base pace.

    Event order is fixed here for all of them: [on_init] allocates the
    per-port state, then draws the beacon phase and then the re-check
    phase from the node's stream; [on_init] runs again on every
    recovery, wiped or not, so a recovered node starts with empty
    estimates. *)

(** The estimate source. *)
type source =
  | Beacon of (int -> float)
      (** one-way beacons: every beacon period the node broadcasts its
          logical clock, and a beacon arriving on port [p] is assumed to
          have spent [guess p] in flight *)
  | Rtt
      (** round-trip probes: every beacon period the node probes each
          neighbor, which echoes its logical clock; a reply is brought
          forward by half the measured round trip, and a reply older than
          one already accepted on its port is ignored *)

val beacon : Spec.t -> source
(** One-way beacons with the midpoint of [spec.delay] as every port's
    flight guess. *)

val node :
  ?base_mult:float ->
  ?init:(int -> unit) ->
  ?heard:(port:int -> h:float -> unit) ->
  ?adjust:(port:int -> h:float -> float -> float) ->
  ?reference:(unit -> float) ->
  source:source ->
  fast:(ports:int array -> float array -> bool) ->
  Algorithm.ctx ->
  int ->
  Message.t Gcs_sim.Engine.handlers
(** [node ~source ~fast ctx v] builds node [v]'s handlers. The offset
    transform is [init], [heard], [adjust] and [reference]:

    - [init ports] runs in every [on_init], after the estimators are
      allocated: it (re)allocates the transform's per-port state;
    - [heard ~port ~h] runs when an estimate arrives on [port] at local
      hardware time [h], before the estimator is updated;
    - [adjust ~port ~h o] rewrites the offset [o] of [port] at local
      hardware time [h] before the trigger sees it (default: unchanged);
    - [reference ()] is one more offset, from outside the network.

    The trigger is [fast ~ports offsets]. [offsets] holds the estimated
    [own - neighbor] offsets that are not stale, in port order, then the
    [reference] offset if there is one; [ports.(i)] is the port of
    [offsets.(i)] ([-1] for the reference). Both arrays may be reused by
    the next evaluation, so [fast] must not keep them. [base_mult]
    (default 1) is the multiplier when [fast] does not hold; when given,
    [on_init] also sets it. *)
