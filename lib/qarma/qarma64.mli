(** A QARMA-64-structured tweakable block cipher.

    This is the cryptographic primitive behind the simulated ARMv8.3-A
    pointer-authentication instructions, mirroring the reference PA design
    which uses QARMA-64 (Avanzi 2017). The implementation follows the
    published structure — 16 4-bit cells, [r] forward rounds, a central
    pseudo-reflector, [r] backward rounds under the α-reflected key, a
    tweakey schedule with cell permutation [h] and LFSR ω — and is verified
    by construction-level tests (exact invertibility, tweak/key/plaintext
    avalanche, per-tweak bijectivity) plus frozen regression vectors. See
    DESIGN.md for why bit-exactness against ARM silicon is not required for
    the reproduction. *)

type key = private {
  w0 : Pacstack_util.Word64.t;  (** whitening key *)
  k0 : Pacstack_util.Word64.t;  (** core key *)
}

val key : w0:Pacstack_util.Word64.t -> k0:Pacstack_util.Word64.t -> key
val random_key : Pacstack_util.Rng.t -> key
val key_equal : key -> key -> bool

val default_rounds : int
(** 7, the full-strength QARMA-64 parameter. *)

val encrypt :
  ?rounds:int -> ?sbox:Sbox.t -> key ->
  tweak:Pacstack_util.Word64.t ->
  Pacstack_util.Word64.t -> Pacstack_util.Word64.t
(** [encrypt key ~tweak p] is the ciphertext block. [rounds] defaults to
    {!default_rounds}; [sbox] to [Sbox.sigma1]. Computed on the SWAR fast
    path (bit-identical to {!Reference.encrypt}). *)

val decrypt :
  ?rounds:int -> ?sbox:Sbox.t -> key ->
  tweak:Pacstack_util.Word64.t ->
  Pacstack_util.Word64.t -> Pacstack_util.Word64.t
(** Exact inverse of {!encrypt} for equal parameters. *)

(** {1 Precomputed cipher context}

    Everything derivable from the key alone — the second whitening key
    [w1 = ortho w0] and the per-round tweakey constants [k0 ⊕ rc_i] and
    [k0 ⊕ α ⊕ rc_i] — computed once, so a long-lived MAC instance (see
    {!Prf.create}) pays for the key schedule once rather than per call.
    The per-call path is allocation-free SWAR over the whole 64-bit
    state. *)

type ctx

val prepare : ?rounds:int -> ?sbox:Sbox.t -> key -> ctx

val encrypt_ctx :
  ctx -> tweak:Pacstack_util.Word64.t -> Pacstack_util.Word64.t -> Pacstack_util.Word64.t
(** Bit-identical to {!encrypt} with the parameters [prepare] was given. *)

val decrypt_ctx :
  ctx -> tweak:Pacstack_util.Word64.t -> Pacstack_util.Word64.t -> Pacstack_util.Word64.t

(** {1 Exposed internals}

    The diffusion-layer building blocks are exposed for direct testing.
    These are the SWAR implementations (fused mask-shift networks for
    τ/h, masked nibble rotations for M, byte-table S-box application);
    {!Reference} retains the cell-by-cell originals as the oracle. *)

val tau : Pacstack_util.Word64.t -> Pacstack_util.Word64.t
val tau_inv : Pacstack_util.Word64.t -> Pacstack_util.Word64.t
val mix_columns : Pacstack_util.Word64.t -> Pacstack_util.Word64.t
(** The involutory matrix M = circ(0, ρ, ρ², ρ). *)

val tweak_forward : Pacstack_util.Word64.t -> Pacstack_util.Word64.t
val tweak_backward : Pacstack_util.Word64.t -> Pacstack_util.Word64.t

(** {1 The reference implementation}

    The original cell-by-cell implementation, retained unchanged as the
    differential-testing oracle: the fast path must agree bit-for-bit on
    random (key, tweak, plaintext) triples, and the frozen known-answer
    vectors pin both. *)

module Reference : sig
  val encrypt :
    ?rounds:int -> ?sbox:Sbox.t -> key ->
    tweak:Pacstack_util.Word64.t ->
    Pacstack_util.Word64.t -> Pacstack_util.Word64.t

  val decrypt :
    ?rounds:int -> ?sbox:Sbox.t -> key ->
    tweak:Pacstack_util.Word64.t ->
    Pacstack_util.Word64.t -> Pacstack_util.Word64.t

  val tau : Pacstack_util.Word64.t -> Pacstack_util.Word64.t
  val tau_inv : Pacstack_util.Word64.t -> Pacstack_util.Word64.t
  val mix_columns : Pacstack_util.Word64.t -> Pacstack_util.Word64.t
  val tweak_forward : Pacstack_util.Word64.t -> Pacstack_util.Word64.t
  val tweak_backward : Pacstack_util.Word64.t -> Pacstack_util.Word64.t
end

val alpha : Pacstack_util.Word64.t
val round_constant : int -> Pacstack_util.Word64.t
(** [round_constant i] for [0 <= i < 8]. *)
