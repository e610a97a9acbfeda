module Engine = Gcs_sim.Engine
module Logical_clock = Gcs_clock.Logical_clock
module Delay_model = Gcs_sim.Delay_model
module Prng = Gcs_util.Prng

type source = Beacon of (int -> float) | Rtt

let beacon (spec : Spec.t) =
  let bounds = spec.delay in
  let flight_guess =
    0.5 *. (bounds.Delay_model.d_min +. bounds.Delay_model.d_max)
  in
  Beacon (fun _ -> flight_guess)

(* One node's stages and state in a single record, so that the three
   handler closures capture nothing else. *)
type state = {
  ctx : Algorithm.ctx;
  lc : Logical_clock.t;
  source : source;
  fast : ports:int array -> float array -> bool;
  base_mult : float option;
  init : (int -> unit) option;
  heard : (port:int -> h:float -> unit) option;
  adjust : (port:int -> h:float -> float -> float) option;
  reference : (unit -> float) option;
  mutable estimators : Offset_estimator.t array;
  (* The trigger's input, filled in place on every evaluation. *)
  mutable offsets : float array;
  mutable offset_ports : int array;
  (* Round-trip state. The probe sequence is not reset by [on_init], so it
     keeps rising across a recovery; the per-port high-water marks are
     reset with the estimators. *)
  mutable seq : int;
  mutable last_accepted : int array;
}

let evaluate t (api : Message.t Engine.api) =
  let h = api.hardware () in
  let own = Logical_clock.value t.lc ~now:(t.ctx.now ()) in
  let ests = t.estimators and buf = t.offsets and live = t.offset_ports in
  let n = ref 0 in
  for port = 0 to Array.length ests - 1 do
    match
      Offset_estimator.offset ~max_age:t.ctx.spec.staleness_limit ests.(port)
        ~h_local:h ~own_value:own
    with
    | Some o ->
        buf.(!n) <- (match t.adjust with None -> o | Some f -> f ~port ~h o);
        live.(!n) <- port;
        incr n
    | None -> ()
  done;
  (match t.reference with
  | Some r ->
      buf.(!n) <- r ();
      live.(!n) <- -1;
      incr n
  | None -> ());
  let offsets = if !n = Array.length buf then buf else Array.sub buf 0 !n in
  let target =
    if t.fast ~ports:live offsets then 1. +. t.ctx.spec.mu
    else Option.value t.base_mult ~default:1.
  in
  if Logical_clock.mult t.lc <> target then
    Logical_clock.set_mult t.lc ~now:(t.ctx.now ()) target

let record t api ~port ~h ~remote_value ~elapsed_guess =
  (match t.heard with Some f -> f ~port ~h | None -> ());
  Offset_estimator.update t.estimators.(port) ~h_local:h ~remote_value
    ~elapsed_guess;
  evaluate t api

let send_all t (api : Message.t Engine.api) =
  match t.source with
  | Beacon _ ->
      let value = Logical_clock.value t.lc ~now:(t.ctx.now ()) in
      for port = 0 to api.ports - 1 do
        api.send ~port (Message.Beacon { value })
      done
  | Rtt ->
      t.seq <- t.seq + 1;
      for port = 0 to api.ports - 1 do
        api.send ~port (Message.Probe { seq = t.seq; h_send = api.hardware () })
      done

let arm (api : Message.t Engine.api) ~tag delay =
  api.set_timer ~h:(api.hardware () +. delay) ~tag

let on_init t (api : Message.t Engine.api) =
  let period = t.ctx.spec.beacon_period in
  t.estimators <- Array.init api.ports (fun _ -> Offset_estimator.create ());
  let slots = api.ports + if Option.is_some t.reference then 1 else 0 in
  t.offsets <- Array.make slots 0.;
  t.offset_ports <- Array.make slots 0;
  (match t.source with
  | Rtt -> t.last_accepted <- Array.make api.ports 0
  | Beacon _ -> ());
  Option.iter (fun f -> f api.ports) t.init;
  Option.iter
    (fun m -> Logical_clock.set_mult t.lc ~now:(t.ctx.now ()) m)
    t.base_mult;
  arm api ~tag:Algorithm.timer_beacon (Prng.uniform api.rng ~lo:0. ~hi:period);
  arm api ~tag:Algorithm.timer_recheck
    (Prng.uniform api.rng ~lo:0. ~hi:(period /. 2.))

let on_message t (api : Message.t Engine.api) ~port msg =
  match (t.source, msg) with
  | Beacon guess, Message.Beacon { value } ->
      record t api ~port ~h:(api.hardware ()) ~remote_value:value
        ~elapsed_guess:(guess port)
  | Rtt, Message.Probe { seq; h_send } ->
      let value = Logical_clock.value t.lc ~now:(t.ctx.now ()) in
      api.send ~port (Message.Probe_reply { seq; h_send; remote_value = value })
  | Rtt, Message.Probe_reply { seq = reply_seq; h_send; remote_value } ->
      if reply_seq > t.last_accepted.(port) then begin
        t.last_accepted.(port) <- reply_seq;
        let h = api.hardware () in
        (* The neighbor's clock read mid-exchange, brought forward by half
           the round trip: no delay-distribution knowledge. *)
        record t api ~port ~h ~remote_value ~elapsed_guess:((h -. h_send) /. 2.)
      end
  | (Beacon _ | Rtt), _ -> ()

let on_timer t (api : Message.t Engine.api) ~tag =
  let period = t.ctx.spec.beacon_period in
  if tag = Algorithm.timer_beacon then begin
    send_all t api;
    arm api ~tag:Algorithm.timer_beacon period
  end
  else if tag = Algorithm.timer_recheck then begin
    evaluate t api;
    arm api ~tag:Algorithm.timer_recheck (period /. 2.)
  end

let node ?base_mult ?init ?heard ?adjust ?reference ~source ~fast
    (ctx : Algorithm.ctx) v =
  let t =
    {
      ctx;
      lc = ctx.logical.(v);
      source;
      fast;
      base_mult;
      init;
      heard;
      adjust;
      reference;
      estimators = [||];
      offsets = [||];
      offset_ports = [||];
      seq = 0;
      last_accepted = [||];
    }
  in
  {
    Engine.on_init = (fun api -> on_init t api);
    on_message = (fun api ~port msg -> on_message t api ~port msg);
    on_timer = (fun api ~tag -> on_timer t api ~tag);
  }
