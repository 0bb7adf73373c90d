(** Constant-size sufficient statistics for mega-campaigns.

    {!Engine.stats} retains one reproducer per silent fault — O(events)
    memory, fine at 10^2 faults, fatal at 10^8. This module folds each
    shard into a fixed-size summary instead: per scheme, the
    detected/benign/silent counters, a latency sum, and a 32-bucket
    log2 histogram of detection latencies; globally, at most
    {!repro_cap} reproducers (the smallest (fault, scheme) keys, so the
    retained set is deterministic). {!merge} is associative and
    commutative, which is what makes N-worker, 1-worker and
    resumed-from-compacted-checkpoint totals bit-identical. *)

type cell = {
  detected : int;
  benign : int;
  silent : int;
  latency_sum : int;
  latency_hist : int array;
      (** {!hist_buckets} log2 buckets: bucket 0 counts latencies <= 1,
          bucket [b >= 1] counts [(2^(b-1), 2^b]], saturating at the
          last bucket. Treat as immutable. *)
}

val hist_buckets : int
(** 32 — covers any [int] latency. *)

val repro_cap : int
(** Max reproducers retained in a summary (32). *)

val bucket : int -> int
(** The histogram bucket a latency lands in. *)

val latency_percentile : cell -> float -> float option
(** Tail quantile of the detection-latency histogram via
    {!Pacstack_util.Stats.weighted_percentile}; [None] when the cell has
    no detections. Accurate to one log2 bucket. *)

type t = {
  faults : int;  (** faults executed (each fault runs every scheme) *)
  cells : (string * cell) list;  (** per scheme name, canonical order *)
  repro : Engine.reproducer list;
      (** the <= {!repro_cap} silent reproducers with the smallest
          (fault, scheme) keys, sorted *)
}

val empty : t

val silent_total : t -> int

val repro_dropped : t -> int
(** Silent events beyond {!repro_cap} whose reproducers were not
    retained (derived, not stored — keeps {!merge} pointwise). *)

val add_result : t -> Engine.result -> t
(** Folds one classification into the summary; constant time and
    constant space (the [faults] counter is the caller's to bump, as in
    {!Engine.add_result}). *)

val merge : t -> t -> t
(** Associative and commutative: counters and histograms add pointwise,
    and keep-K-smallest reproducer truncation commutes with union. *)

val run_range :
  Engine.config -> campaign_seed:int64 -> first:int -> count:int -> t
(** Runs faults [first .. first + count - 1] — one mega-campaign
    shard — folding every result into the summary as it happens; also
    feeds detection latencies into the ["inject.detect_latency"]
    {!Pacstack_obs.Obs} histogram when observability is enabled. Same
    determinism contract as {!Engine.run_range}. *)

val to_json : t -> Pacstack_campaign.Json.t
val of_json : Pacstack_campaign.Json.t -> t option
