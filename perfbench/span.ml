(* In-memory span recorder for the traced benchmark run.

   Every library call the benchmark makes goes through [timed], which
   always measures its duration (the end-to-end numbers need it) and, when
   recording is on, also keeps a span: name, start, end, parent span and
   operation id. A span opened with no parent is a root; its id is the
   operation id of every span nested inside it. Spans stay in memory until
   [write] dumps them at exit, so recording costs two clock reads and one
   allocation per call. The benchmark calls the library from one domain
   (the sweep's pool runs inside a single call), so one stack suffices. *)

type t = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** [-1] for a root span *)
  start : float;
  stop : float;
}

let recording = ref false
let finished : t list ref = ref []
let open_spans : (int * int) list ref = ref [] (* (id, op), innermost first *)
let next_id = ref 0
(* Nanosecond monotonic clock: gettimeofday's microseconds would quantize
   the shortest set-up times to a few distinct values. *)
let epoch = Monotonic_clock.now ()
let now () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) epoch) *. 1e-9

let timed name f =
  if not !recording then begin
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent, op =
      match !open_spans with (p, op) :: _ -> (p, op) | [] -> (-1, id)
    in
    open_spans := (id, op) :: !open_spans;
    let start = now () in
    let close () =
      let stop = now () in
      open_spans := List.tl !open_spans;
      finished := { id; name; op; parent; start; stop } :: !finished;
      stop -. start
    in
    match f () with
    | v -> (v, close ())
    | exception e ->
        ignore (close ());
        raise e
  end

(* Self time summed per (root name, operation, span name): a span's
   duration minus the part of it its direct children cover. Children never
   outlive their parent, so subtracting their durations is exact. *)
let self_times () =
  let spans = !finished in
  let child_time = Hashtbl.create 1024 in
  let root_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent < 0 then Hashtbl.replace root_name s.id s.name
      else
        let prev =
          Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)
        in
        Hashtbl.replace child_time s.parent (prev +. (s.stop -. s.start)))
    spans;
  let per_op = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      let k = (Hashtbl.find root_name s.op, s.op, s.name) in
      let prev = Option.value ~default:0. (Hashtbl.find_opt per_op k) in
      Hashtbl.replace per_op k (prev +. self))
    spans;
  per_op

(* One sample per operation: the summed self time of [name] inside each
   root span called [root], read from a [self_times] table. *)
let self_samples table ~root name =
  Hashtbl.fold
    (fun (r, _, n) v acc -> if r = root && n = name then v :: acc else acc)
    table []

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"op\":%d,\"parent\":%d,\
         \"start\":%.9f,\"end\":%.9f}\n"
        s.id s.name s.op s.parent s.start s.stop)
    (List.rev !finished);
  close_out oc
