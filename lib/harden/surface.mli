(** Per-scheme attack surface for fault injection and attack code: which
    stack word decides a non-leaf function's return target under each
    {!Scheme}, and whether reading it tells an adversary anything.
    A facade over the scheme registry ({!Scheme.descriptor}). *)

type slot = Scheme.slot =
  | Return_slot  (** the frame record's saved LR at [fp + 8] *)
  | Chain_slot  (** the PACStack/Zipper CR spill at [fp - 16] *)
  | Shadow_slot  (** the function's X18 shadow-stack entry *)

val return_slot_offset : int
(** [+8], relative to the frame pointer. *)

val chain_spill_offset : int
(** [-16], relative to the frame pointer. *)

val control_slot : Scheme.t -> slot
(** The word whose value the scheme's epilogue turns into the return
    target: the saved LR for unprotected / stack-protector /
    branch-protection style frames, the shadow-stack entry for shadow
    frames, and the spilled chain value for PACStack (the epilogue
    authenticates the register-held aret against it). *)

val observable : Scheme.t -> bool
(** Whether control words read from memory are correlatable by the §3
    adversary — [false] only for masked PACStack, whose spilled tokens
    are indistinguishable from random (Appendix A), so harvesting them
    supports no reuse strategy. *)
