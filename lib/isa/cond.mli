(** Branch condition codes (signed comparisons over the NZCV flags). *)

type t = EQ | NE | LT | LE | GT | GE | HS | LO

val negate : t -> t
val to_string : t -> string
val of_string : string -> t option
val pp : Format.formatter -> t -> unit

type flags = { n : bool; z : bool; c : bool; v : bool }

val of_compare : Pacstack_util.Word64.t -> Pacstack_util.Word64.t -> flags
(** Flags produced by [cmp a, b] (i.e. [a - b]). *)

val holds : t -> flags -> bool

(** {1 Packed flags}

    The execution engines keep NZCV packed in an immediate int
    (bit 3 = N, bit 2 = Z, bit 1 = C, bit 0 = V) so the compare hot
    path allocates nothing; the record form remains the boundary
    representation (accessors, saved contexts). *)

val bits_of_flags : flags -> int
val flags_of_bits : int -> flags

val bits_of_compare : Pacstack_util.Word64.t -> Pacstack_util.Word64.t -> int
(** Packed equivalent of {!of_compare}. *)

val holds_bits : t -> int -> bool
(** Packed equivalent of {!holds}:
    [holds_bits c (bits_of_flags f) = holds c f]. *)
