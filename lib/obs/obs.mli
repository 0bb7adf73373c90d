(** Zero-dependency observability: a metrics registry, a structured-event
    tracer and a JSON-lines sink.

    Everything is gated on one process-global flag, {!enabled} (which a
    domain can override locally with {!muted}). The
    contract with the hot paths (see DESIGN.md, "Observability") is that
    a *disabled* instrumentation site costs at most one atomic-bool load
    and a predictable branch — call sites must check {!enabled} before
    building metric names or event fields, and the layers that publish
    per-run aggregates (the machine interpreter) keep their per-step cost
    at zero by counting into plain fields they already maintain and
    flushing once per run.

    Determinism: metrics and traces are write-only side channels — no
    experiment reads them, and they draw no randomness — so enabling
    them cannot perturb campaign results (the bench harness asserts a
    traced 4-worker injection campaign stays bit-identical to the
    1-worker run). Trace buffers are per-domain; {!Trace.events} merges
    them by sorting on [(key, name, emission order)] and renumbering
    [seq] as the rank within the key, which is deterministic as long as
    same-key same-name events are emitted by exactly one domain —
    precisely what campaign sharding guarantees. No instrumentation site
    records wall-clock time or the worker count, so the {!Sink} export
    itself is bit-identical at any [--workers]. *)

module Json = Pacstack_campaign.Json

val enabled : unit -> bool
(** [false] unless {!enable} was called, and inside {!muted}. While
    disabled this is one atomic load. *)

val enable : unit -> unit
(** Turns instrumentation on. Call before spawning worker domains (the
    campaign subcommands do) so every domain observes the flag. *)

val disable : unit -> unit
(** Turns instrumentation off. Recorded metrics and trace events are
    kept until {!reset}. *)

val muted : (unit -> 'a) -> 'a
(** [muted f] runs [f] with instrumentation off in the calling domain
    only ({!enabled} reads [false] there until [f] returns or raises).
    For work whose amount depends on the worker count, such as filling
    a per-domain cache, so that it leaves no trace in the deterministic
    channel. *)

val reset : unit -> unit
(** Clears all metrics and every domain's trace buffer. *)

(** {1 Metrics} — a registry of named counters, gauges and fixed-bucket
    histograms. All operations are no-ops while disabled; all are safe
    to call from any domain (one global mutex — instrumentation sites
    publish aggregates, not per-step updates, so contention is cold). *)

module Metrics : sig
  type value =
    | Counter of int
    | Gauge of float
    | Histogram of { lo : float; hi : float; counts : int array; total : int }

  val incr : ?by:int -> string -> unit
  (** Adds [by] (default 1) to a counter, creating it at zero. *)

  val gauge : string -> float -> unit
  (** Sets a gauge to its latest value. *)

  val register_histogram : string -> lo:float -> hi:float -> buckets:int -> unit
  (** Declares a fixed-bucket histogram; idempotent. An {!observe} on an
      undeclared name creates one with [lo = 0., hi = 1e6, buckets = 20]. *)

  val observe : string -> float -> unit
  (** Adds one sample; out-of-range samples clamp to the edge buckets. *)

  val snapshot : unit -> (string * value) list
  (** Every metric, sorted by name; arrays are copies. *)

  val find : string -> value option

  val pp_snapshot : Format.formatter -> (string * value) list -> unit
  (** Aligned name / kind / value table (the [pacstack metrics] output). *)
end

(** {1 Tracing} — bounded per-domain ring buffers of structured events.
    When a buffer is full the oldest event is dropped (and counted);
    tracing can therefore never grow memory without bound or block a
    worker. *)

module Trace : sig
  type event = {
    key : int;
        (** merge key: the shard / fault / seed index the event belongs
            to, [-1] for campaign-level events. Each key must be emitted
            by exactly one domain for the merge to be deterministic. *)
    seq : int;
        (** inside {!emit}: the per-domain emission counter; in the list
            returned by {!events}: renumbered to the event's rank within
            its key, so the value is worker-count independent *)
    name : string;
    fields : (string * Json.t) list;
  }

  val set_capacity : int -> unit
  (** Ring capacity for buffers created after this call (default 8192).
      Buffers already materialised by a domain keep their size. *)

  val emit : ?key:int -> string -> (string * Json.t) list -> unit
  (** Appends an event to the calling domain's buffer ([key] defaults to
      [-1]). No-op while disabled. *)

  val events : unit -> event list
  (** All buffered events across all domains, sorted by
      [(key, name, emission order)] with [seq] renumbered per key. *)

  val dropped : unit -> int
  (** Events lost to ring overflow since the last {!reset}. *)
end

(** {1 Sink} — JSON-lines export of both registries, one value per line
    via the campaign {!Json} codec: a header line
    [{"type":"header",...}] carrying the drop count, then one
    [{"type":"metric",...}] per metric and one [{"type":"event",...}]
    per trace event. *)

module Sink : sig
  val lines : unit -> string list
  (** Header, metrics (name order), then events (merge order). Every
      line parses back with {!Json.parse}. *)

  val write_file : string -> unit
end

(** {1 Campaign hooks} — observability for the campaign engine without a
    dependency cycle: [lib/campaign] cannot depend on this library (the
    sink uses its JSON codec), so pool/shard activity is observed
    through the structured {!Pacstack_campaign.Progress} events the
    engine already emits. *)

module Campaign_hooks : sig
  val progress_sink : unit -> Pacstack_campaign.Progress.sink
  (** A sink that counts tasks, retries and quarantines
      ([campaign.tasks] / [campaign.retries] / [campaign.quarantines]),
      feeds per-shard trial counts into the [campaign.shard_trials]
      histogram, and emits one trace event per shard keyed by its index.
      Wall-clock fields and the worker count are deliberately omitted so
      the export stays deterministic; timing remains on the Progress
      stderr stream. Compose it with a rendering sink:
      [fun e -> obs_sink e; formatter_sink e]. *)
end
