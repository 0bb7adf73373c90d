(** The deterministic fault-injection engine: applies a {!Fault.spec} to
    the {!Victim} under each hardening scheme mid-run and classifies the
    outcome against an un-faulted reference execution. *)

module Scheme = Pacstack_harden.Scheme
module Machine = Pacstack_machine.Machine
module Json = Pacstack_campaign.Json

type config = {
  pac_bits : int;
      (** PAC width of the simulated machine; the default 4 makes the
          2^-b collision events of the reuse analysis observable at
          small campaign sizes *)
  fuel : int;  (** per-run instruction budget *)
  schemes : Scheme.t list;  (** schemes every fault is evaluated under *)
  tamper : (Machine.t -> unit) option;
      (** test-only: replaces the site corruption at the injection
          point — used to plant a known-silent fault and check the
          campaign gate catches it. Never set in production. *)
}

val default_config : config
(** [pac_bits = 4], default fuel, all six schemes, no tamper. *)

exception Misrouted_site of { index : int; site : Fault.site }
(** A structured site ([Signal_frame]/[Reload_window]) reached the
    generic xor-a-slot injector instead of its dedicated replay — a
    dispatch bug, not a property of the fault. The registered printer
    names the fault index and site, so a worker crash surfaces as a
    [Pool] [Crashed] outcome that identifies the culprit instead of
    [Assert_failure]. *)

type classification =
  | Detected of { cause : string; latency : int }
      (** trapped (or runtime abort: canary 134, sigreturn kill 139);
          [latency] is cycles from injection to detection *)
  | Benign  (** trace identical to the un-faulted reference *)
  | Silent  (** trace diverged with no trap — the headline metric *)

val classification_to_string : classification -> string

type result = {
  spec : Fault.spec;
  scheme : Scheme.t;
  classification : classification;
}

val run_fault : config -> campaign_seed:int64 -> int -> result list
(** Derives fault [index] and runs it under every configured scheme.
    Pure in (config, seed, index): same inputs, same classifications,
    on any worker. Ticks the {!Pacstack_campaign.Watchdog} once per
    scheme. *)

(** {1 Site replays}

    The pieces {!run_fault} builds each site's run from. Exposed so a
    different way of making the machines (the tests' compile-and-load
    oracle) classifies with exactly the same corruption and verdict
    logic. The run's trace is {!Pacstack_fuzz.Trace.of_machine}. *)

val classify :
  ref_trace:Pacstack_fuzz.Trace.t ->
  injected_cycles:int ->
  Machine.t ->
  Machine.outcome ->
  classification
(** Verdict of an injected run that ended with [outcome], against the
    un-faulted reference's trace; detection latency counts from
    [injected_cycles]. *)

val apply_site : config -> Fault.spec -> Scheme.t -> Machine.t -> unit
(** Applies a generic site's corruption to a machine paused at the
    trigger (or [config.tamper], when set). Raises {!Misrouted_site} for
    the two structured sites. *)

val run_window :
  config -> Fault.spec -> Scheme.t -> fresh:(unit -> Machine.t) -> classification
(** The [Reload_window] replay: a reference run, then the harvesting
    adversary's run, each on a machine from [fresh] (which must give
    identical machines, never-run, with no hook attached). *)

val run_signal :
  config ->
  Fault.spec ->
  Scheme.t ->
  Pacstack_util.Rng.t ->
  boot:(Pacstack_machine.Kernel.t -> Pacstack_machine.Kernel.proc) ->
  classification
(** The [Signal_frame] replay: a delivery-free sizing run, a reference
    run and the corrupted run, each in a fresh kernel (the scheme's
    signal policy, a copy of the given key stream) into which [boot]
    starts {!Victim.signal_program} compiled under the scheme. [boot]
    must start identical processes: {!run_fault} spawns one template,
    prepared per scheme-fault under [Config.default] as the kernel
    prepares a booted program, so this site runs at full PAC width
    whatever [config.pac_bits] says. *)

(** {1 Mergeable campaign statistics}

    Constant-size sufficient statistics: memory is O(sites x schemes),
    not O(faults), so one campaign path serves 10^2 and 10^8 faults. *)

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
(** Max reproducers retained in {!stats} (32). *)

val bucket : int -> int
(** The histogram bucket a latency lands in. *)

val latency_percentile : cell -> float -> float option
(** Tail quantile of the detection-latency histogram via
    {!Pacstack_util.Stats.weighted_percentile}; [None] when the cell has
    no detections. Accurate to one log2 bucket. *)

type reproducer = { fault : int; scheme : string; site : string }
(** Everything needed to replay a silent corruption:
    [run_fault cfg ~campaign_seed fault]. *)

type stats = {
  faults : int;  (** faults executed (each fault runs every scheme) *)
  cells : (string * cell) list;  (** per scheme name, canonical order *)
  site_cells : ((string * string) * cell) list;
      (** per (site name, scheme name), sorted by (site order in
          {!Fault.all_sites}, scheme order) — the long-format
          detection-rate table *)
  silents : reproducer list;
      (** the <= {!repro_cap} silent reproducers with the smallest
          (fault, scheme) keys, sorted *)
}

val empty : stats

val add_result : stats -> result -> stats
(** Folds one classification in; constant time and space (the [faults]
    counter is the caller's to bump, as {!run_range} does). *)

val repro_dropped : stats -> int
(** Silent events beyond {!repro_cap} whose reproducers were not
    retained (derived, not stored — keeps {!merge} pointwise). *)

val merge : stats -> stats -> stats
(** Associative and commutative: counters and histograms add pointwise,
    and keep-K-smallest reproducer truncation commutes with union — so
    neither shard merge order nor a resume from a compacted checkpoint
    can change the campaign result. *)

val run_range : config -> campaign_seed:int64 -> first:int -> count:int -> stats
(** Runs faults [first .. first + count - 1] — one campaign shard —
    folding every result in as it happens; also feeds detection
    latencies into the ["inject.detect_latency"] {!Pacstack_obs.Obs}
    histogram when observability is enabled. *)

val stats_to_json : stats -> Json.t

val stats_of_json : Json.t -> stats option
(** [None] on a malformed record, and on one {!add_result} and {!merge}
    cannot produce: a [latency_hist] whose length is not {!hist_buckets}
    or whose mass is not [detected], a repeated scheme or (site, scheme)
    cell, or more than {!repro_cap} reproducers. *)

val reproducer_to_json : reproducer -> Json.t
