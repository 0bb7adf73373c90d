(** The five ARMv8.3-A pointer-authentication keys.

    Keys live at EL1: the kernel generates a fresh set per process on
    [exec] and user space can use but never read them (§2.2). *)

type which = IA | IB | DA | DB | GA

val all : which list
val which_to_string : which -> string

type t

val generate : ?fast:bool -> ?rounds:int -> Pacstack_util.Rng.t -> t
(** Fresh random key set. [fast] (default false) selects the mixer-backed
    PRF instantiation; [rounds] the QARMA round count otherwise. *)

val get : t -> which -> Pacstack_qarma.Prf.t

val equal : t -> t -> bool
(** Key-material equality — used by tests to check the kernel really does
    regenerate keys on [exec]. *)
