(** Structured event sink with a stable export schema.

    An event log is an engine observer that flattens {!Gcs_sim.Engine}
    observations into unboxed columns at record time and defers all
    formatting (and reconstruction) to export time, so recording neither
    allocates nor retains heap values the GC has to trace. Three storage
    modes:

    - unbounded (default): every event is retained;
    - ring: [~capacity] keeps only the most recent entries in bounded
      memory;
    - streaming: [~stream] formats each event immediately and hands the
      line to a callback; nothing is retained.

    Because observers never mutate algorithm state or consume algorithm
    randomness, attaching a log does not perturb the simulation, and the
    exported bytes are identical regardless of how runs are scheduled
    across domains. *)

type format = Jsonl | Csv

type entry = { seq : int; time : float; obs : Gcs_sim.Engine.observation }
(** [seq] numbers events from 0 in observation order; it survives ring
    eviction, so gaps at the front reveal how much was discarded. *)

type t

val create :
  ?capacity:int -> ?stream:(string -> unit) -> ?format_:format -> unit -> t
(** [format_] defaults to [Jsonl]. [capacity] must be positive and selects
    the ring mode; [stream] selects streaming mode and takes precedence
    over [capacity]. Streaming callbacks receive one formatted line per
    event, without a trailing newline. *)

val attach : t -> 'msg Gcs_sim.Engine.t -> unit
(** Register as one of the engine's observer sinks. *)

val record : t -> float -> Gcs_sim.Engine.observation -> unit
(** Record one observation directly (what [attach] wires up). *)

val format : t -> format

val recorded : t -> int
(** Total events seen, including any evicted from a ring. *)

val retained : t -> int
(** Events currently held (0 in streaming mode). *)

val entries : t -> entry list
(** Retained entries in chronological order (empty in streaming mode). *)

(** {1 Export}

    The JSONL schema is one flat object per line with fields in a fixed
    order: [{"run":R,]
    [{"seq":N,"t":T,"ev":"tag",...}] where the per-kind fields follow the
    tag and ["run"] is present only when the [?run] argument is given.
    Floats are printed with ["%.17g"] so they round-trip exactly; the
    output is therefore byte-identical across processes and [--jobs]
    values. *)

val encode_line : ?run:int -> format -> entry -> string
(** Format one entry (no trailing newline). *)

val human_line : time:float -> Gcs_sim.Engine.observation -> string
(** One observation as a fixed-width human-readable line (no trailing
    newline): time, kind, then the kind's fields, e.g.
    [    19.9536  send     4 -> 3 (edge 3, delay 1.2679)]. This is what
    [gcs-cli trace --tail] prints and what a monitor violation carries as
    its context. Not parseable; use the JSONL encoding for that. *)

val csv_header : ?run:bool -> unit -> string list
(** Fixed CSV column set covering every event kind; [~run:true] prepends
    a [run] column. *)

val to_lines : ?run:int -> t -> string list
val to_string : ?run:int -> t -> string

val write : ?run:int -> t -> path:string -> unit
(** Write retained entries to [path]; CSV output starts with a header
    row, JSONL does not. *)

(** {1 Parsing and schema validation} *)

type parsed = { run : int option; entry : entry }

val parse_line : string -> (parsed, string) result
(** Parse one JSONL line, rejecting unknown tags, missing fields, extra
    fields, and malformed values. *)

val validate_line : string -> (parsed, string) result
(** [parse_line] plus a canonical-form check: re-encoding the parsed
    entry must reproduce the input bytes exactly. This is what
    [gcs-cli trace --check-schema] runs on every exported line. *)
