(** The NGINX SSL-TPS experiment of §7.2 (Table 3).

    The paper measures a CPU-bound web server: every request costs one
    TLS handshake plus record processing, so throughput is
    [workers * clock / per-request cycles]. We reproduce exactly that
    structure: a deterministic handshake kernel (modular-exponentiation
    key exchange, per-record cipher transform) compiled under each scheme
    gives per-request cycles and memory operations; a calibrated
    contention model charges memory operations more as workers contend
    for the memory system, which is why the paper's 8-worker overheads
    exceed its 4-worker overheads. Client-side variance comes from
    request-size jitter across simulated connections. *)

type result = {
  scheme : Pacstack_harden.Scheme.t;
  workers : int;
  req_per_sec : float;
  sigma : float;  (** std dev across request variants, as in Table 3 *)
  cycles_per_request : float;
  mem_ops_per_request : float;
}

val measure :
  scheme:Pacstack_harden.Scheme.t -> workers:int -> ?variants:int -> unit -> result
(** Runs [variants] (default 10) request variants under the scheme and
    derives throughput for the worker count (4 and 8 in the paper). *)

val overhead_pct : baseline:result -> result -> float
(** Throughput degradation in percent (positive = slower than baseline). *)

val sweep_cells :
  ?worker_counts:int list ->
  ?schemes:Pacstack_harden.Scheme.t list ->
  unit ->
  (int * Pacstack_harden.Scheme.t) list
(** The Table 3 measurement grid in deterministic order, one
    [(workers, scheme)] cell per campaign shard. Defaults to the paper's
    4/8 workers against unprotected and both PACStack variants. *)
