(** Relocatable object files.

    A unit is a set of functions and data objects with unresolved symbol
    references — what a compiler emits per translation unit. Units
    serialize to a compact binary format (instructions in their
    {!Encode} binary form plus the constant/symbol pools) and link into
    runnable {!Program}s with {!Link}. This is what lets the §9.2
    experiments build an application and its libraries as separately
    compiled, separately hardened artefacts. *)

type t = {
  funcs : Program.func list;
  data : Program.data list;
}

exception Corrupt of string
(** Raised by {!read} on malformed input. *)

val of_program : Program.t -> t
(** Forgets the entry point. *)

val defined_symbols : t -> string list
val referenced_symbols : t -> string list
(** Symbols used but not defined by this unit (external references). *)

val write : t -> string
(** Binary serialization. *)

val read : string -> t
(** Inverse of {!write}. *)

val load : string -> t
