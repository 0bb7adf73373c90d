(** Crash-safe campaign manifests: resume without recomputing.

    A manifest is a JSON-lines file. The first line is a header binding
    the file to one campaign identity — name, seed and shard count:

    {v
    {"version":1,"campaign":"table1","seed":"1","shards":48}
    {"shard":3,"label":"on-graph/unmasked#4","trials":2500,"result":{...}}
    v}

    Each subsequent line records one completed shard; lines are appended
    and flushed as shards finish, in completion order (which is why shard
    records carry their index). Because shard results are pure functions
    of the campaign seed and shard index, a resumed campaign that loads
    finished shards from the manifest and recomputes only the rest is
    identical to an uninterrupted run. A trailing partial line (the
    process died mid-write) is ignored on load.

    {2 Hierarchical compaction}

    A 10^5+-shard campaign would otherwise accumulate 10^5+ shard
    lines, making every resume O(shards-so-far) in parse time and disk.
    With a {!compaction} policy, once more than [keep] uncompacted shard
    lines exist the manifest is rewritten — atomically, via a temp file
    and [Sys.rename] — as the header plus a single merged-statistics
    line per generation:

    {v
    {"merged":true,"generation":7,"covered":[[0,4096]],"result":{...}}
    v}

    [covered] lists the shard-index ranges folded into the merged result;
    those shards are restored as "done" on resume but their individual
    results are no longer recoverable. The merge function must be
    associative and commutative, because a compacted resume folds results
    in coverage order rather than completion order. *)

type 'r codec = {
  encode : 'r -> Json.t;
  decode : Json.t -> 'r option;  (** [None] rejects a malformed record *)
}

type 'r compaction = {
  merge : 'r -> 'r -> 'r;  (** must be associative and commutative *)
  keep : int;  (** max uncompacted shard lines before a rewrite; >= 1 *)
}

type 'r restored = {
  results : 'r option array;  (** per-shard results still present as lines *)
  merged : 'r option;  (** fold of every compacted-away shard result *)
  covered : bool array;  (** [covered.(i)]: shard [i] is inside [merged] *)
  generation : int;  (** compaction generation restored from the file *)
}

type 'r file

exception
  Stale_manifest of { path : string; expected : string; found : string }
(** The manifest at [path] exists but its header binds a different
    campaign identity. [expected] and [found] are the serialized header
    objects, so the message shows exactly which of campaign name, seed or
    shard count diverged. A registered printer renders all three. *)

val open_ :
  path:string ->
  codec:'r codec ->
  ?compaction:'r compaction ->
  'r Plan.t ->
  'r file * 'r restored
(** Opens (creating if absent) the manifest at [path] for the given plan
    and returns the handle plus previously completed work: per-shard
    results, plus the merged blob and coverage map when the file was
    compacted. Raises {!Stale_manifest} if the file exists but its header
    names a different campaign, seed or shard count — a stale manifest is
    an operator error, not something to silently recompute over — and
    [Failure] if the header line is unreadable. Raises
    [Invalid_argument] if [compaction.keep < 1]. *)

val record : 'r file -> Shard.t -> 'r -> unit
(** Appends one completed-shard line and flushes; under a compaction
    policy, triggers an atomic rewrite when the uncompacted line count
    reaches [keep]. Safe to call from any domain (internally
    serialized). *)

val quarantine : 'r file -> Shard.t -> attempts:int -> error:string -> unit
(** Appends an informational line recording that the shard failed all its
    retry attempts. Quarantine lines carry no result, so a resumed
    campaign re-runs the shard rather than restoring its failure;
    compaction rewrites preserve them as history. *)

val close : 'r file -> unit

val flush_all : unit -> unit
(** Flushes every manifest currently open in the process — what a
    SIGINT/SIGTERM handler calls so an interrupted campaign is always
    resumable from its last completed shard. Safe to call from any
    domain and from a signal handler. *)
