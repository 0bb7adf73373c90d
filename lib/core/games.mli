(** Monte-Carlo instantiations of the paper's security games (§6.2,
    Appendix A), used to regenerate Table 1 and the §6.2.1/§4.3 numbers.

    All games draw from an explicit RNG and a fresh MAC key per trial
    (matching the paper's assumption that every program run gets new PA
    keys). *)

type estimate = {
  successes : int;
  trials : int;
  rate : float;
  ci_low : float;
  ci_high : float;  (** 95 % Wilson interval *)
}

val estimate : successes:int -> trials:int -> estimate
(** Wraps a raw (successes, trials) count, deriving rate and interval. *)

val merge_estimates : estimate -> estimate -> estimate
(** Pools two binomial samples. Associative and commutative, so shard
    estimates from a parallel campaign merge to the same total in any
    order; rate and interval are recomputed from the pooled counts. *)

(** {1 §6.2.1 — collisions} *)

val birthday_harvest : ?bits:int -> trials:int -> Pacstack_util.Rng.t -> float
(** Mean number of tokens an adversary must harvest before two (unmasked)
    tokens collide. [bits] defaults to 16; the paper's expectation is
    ≈ 321. *)

val birthday_total : ?bits:int -> trials:int -> Pacstack_util.Rng.t -> int
(** Shardable form of {!birthday_harvest}: the summed harvest count over
    [trials] runs. Shard totals add; divide by the summed trials for the
    campaign mean. *)

val violation_success :
  masked:bool ->
  kind:Analysis.violation_kind ->
  bits:int ->
  ?harvest:int ->
  trials:int ->
  Pacstack_util.Rng.t -> estimate
(** One Table 1 cell: the adversary's measured success rate at the given
    violation. For [On_graph] the adversary first harvests [harvest]
    (default 2000) authenticated return addresses along distinct paths;
    without masking it exploits any visible collision, with masking it
    must pick blindly. The harvest stops at the first visible collision
    ({!first_visible_collision}); the estimate and the generator's state
    are those of a full harvest. *)

val first_visible_collision :
  masked:bool ->
  bits:int ->
  data:Pacstack_util.Word64.t ->
  draws:int ->
  Pacstack_qarma.Prf.t ->
  Pacstack_util.Rng.t ->
  (int * int) option
(** The §6.2 harvesting adversary's pick, shared by the [On_graph] cell
    and {!theorem1_check}. The next [draws] words of the generator are the
    modifiers of [draws] [bits]-bit tokens over [data]; the adversary sees
    each token, xored with its mask when [masked]. The result is
    [Some (j, i)], [j < i], for the first index [i] whose visible token
    equals that of an earlier index [j], or [None] if all [draws] visible
    tokens differ. Either way the generator ends exactly [draws] draws on:
    the modifiers after [i] are skipped ({!Pacstack_util.Rng.skip}), not
    drawn. *)

(** {1 Appendix A — mask indistinguishability} *)

val mask_distinguisher_advantage :
  bits:int -> queries:int -> trials:int -> Pacstack_util.Rng.t -> float
(** Advantage of a collision-statistics distinguisher at telling masked
    real tokens from uniform random strings. The Appendix A theorem says
    this bounds the collision-finding advantage; masking is sound iff this
    is ≈ 0. *)

type theorem1 = {
  collision_advantage : float;
  distinguisher_advantage : float;
  bound : float;  (** 2 x distinguisher advantage + sampling slack *)
  holds : bool;
}

val theorem1_check :
  bits:int -> queries:int -> trials:int -> Pacstack_util.Rng.t -> theorem1
(** Empirical check of Appendix A Theorem 1: the measured advantage at
    finding unmasked-token collisions from masked observations stays below
    twice the distinguisher advantage (plus Monte-Carlo slack). *)

(** {1 §4.3 — brute-force guessing} *)

type guess_strategy =
  | Divide_and_conquer
      (** shared keys across pre-forked siblings, no re-seeding *)
  | Reseeded  (** the paper's mitigation: per-fork/thread chain re-seed *)
  | Independent  (** both tokens guessed jointly *)

val pp_guess_strategy : Format.formatter -> guess_strategy -> unit

val guessing_mean :
  strategy:guess_strategy -> bits:int -> trials:int -> Pacstack_util.Rng.t -> float
(** Measured mean number of guesses until the adversary can jump to an
    arbitrary address. Expectations: ≈ 2^b, 2^(b+1) and 2^(2b)
    respectively (§4.3). *)

val guessing_total :
  strategy:guess_strategy -> bits:int -> trials:int -> Pacstack_util.Rng.t -> int
(** Shardable form of {!guessing_mean}: the summed guess count over
    [trials] attacks. Shard totals add; divide by the summed trials for
    the campaign mean. *)
