module Engine = Gcs_sim.Engine
module Runner = Gcs_core.Runner
module Message = Gcs_core.Message
module Logical_clock = Gcs_clock.Logical_clock
module Hardware_clock = Gcs_clock.Hardware_clock
module Graph = Gcs_graph.Graph

let state ?(quantum = 1e-9) (live : Runner.live) =
  if not (Float.is_finite quantum && quantum > 0.) then
    invalid_arg "Canon.state: quantum must be finite and > 0";
  (* %.0f keeps full integer precision beyond the int63 range, so a tiny
     quantum cannot silently wrap the quantized values. *)
  let q x = Printf.sprintf "%.0f" (Float.round (x /. quantum)) in
  let engine = live.Runner.engine in
  let now = Engine.now engine in
  let g = Engine.graph engine in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  for v = 0 to Graph.n g - 1 do
    let lc = live.Runner.logical.(v) in
    let hc = Engine.hardware_clock engine v in
    add "n%d:%s:%s:%s:%s:%b;" v
      (q (Logical_clock.value lc ~now))
      (q (Logical_clock.mult lc))
      (q (Hardware_clock.value hc ~now))
      (q (Hardware_clock.rate_at hc ~now))
      (Engine.node_is_up engine v)
  done;
  for e = 0 to Graph.m g - 1 do
    add "e%d:%b;" e (Engine.edge_is_up engine e)
  done;
  (* Pending events in exact pop order; times relative to [now] so states
     reached at different absolute times still compare equal. Control
     closures are opaque — only their timing distinguishes them. *)
  List.iter
    (fun p ->
      match p with
      | Engine.Pending_deliver { at; dst; port; edge; msg } ->
          add "D:%s:%d:%d:%d:%s;" (q (at -. now)) dst port edge
            (Message.to_string msg)
      | Engine.Pending_timer { at; node; h_target; tag } ->
          add "T:%s:%d:%s:%d;" (q (at -. now)) node (q h_target) tag
      | Engine.Pending_control { at } -> add "C:%s;" (q (at -. now)))
    (Engine.pending_snapshot engine);
  Buffer.contents buf
