(** Structured progress events emitted while a campaign executes.

    Events are values, not log lines: a sink can render them, ship them to
    a dashboard, or drop them. Workers emit from their own domains, so
    sinks handed to a multi-worker campaign are wrapped with
    {!synchronized} by the engine. *)

type event =
  | Campaign_started of {
      name : string;
      shards : int;
      trials : int;  (** total work units across all shards *)
      workers : int;
      resumed : int;  (** shards restored from a checkpoint, not re-run *)
    }
  | Shard_started of { name : string; shard : Shard.t }
  | Shard_finished of {
      name : string;
      shard : Shard.t;
      elapsed_s : float;  (** wall-clock seconds for this shard *)
      trials_per_sec : float;  (** this shard's own rate *)
      completed : int;  (** shards finished so far, including resumed *)
      total : int;  (** shards in the plan *)
      eta_s : float;  (** estimated wall-clock seconds to completion *)
    }
  | Shard_retried of {
      name : string;
      shard : Shard.t;
      attempt : int;  (** the attempt (1-based) that just failed *)
      error : string;
    }
  | Shard_quarantined of {
      name : string;
      shard : Shard.t;
      attempts : int;  (** attempts made, all failed *)
      error : string;  (** the last attempt's exception *)
    }
  | Pool_degraded of {
      name : string;
      live : int;  (** workers still allowed to run after the degradation *)
      deaths : int;  (** abnormal child deaths (signals, timeouts) so far *)
    }
      (** Only emitted by the process-isolation executor: a child died
          abnormally (crash, OOM kill, wall-clock timeout) and the pool
          shrank its concurrency rather than keep feeding a bad machine. *)
  | Campaign_finished of {
      name : string;
      elapsed_s : float;
      trials_per_sec : float;  (** aggregate rate over executed trials *)
    }

type sink = event -> unit

val null : sink

val formatter : Format.formatter -> sink
(** Renders campaign start/finish and per-shard completion lines;
    [Shard_started] is intentionally silent to keep output one line per
    unit of completed work. *)

val synchronized : sink -> sink
(** Serializes calls through a mutex so a sink written for one domain can
    be driven from many. *)
