(** A program laid out in the simulated address space.

    Code occupies 4 bytes per instruction starting at {!code_base}; data
    objects live in a read-write region; labels local to a function shadow
    global symbols when resolved from inside that function. *)

type t

val code_base : Pacstack_util.Word64.t
val data_base : Pacstack_util.Word64.t
val stack_top : Pacstack_util.Word64.t
val stack_size : int
val shadow_base : Pacstack_util.Word64.t
val shadow_size : int

val build : Pacstack_isa.Program.t -> t
(** Lays the program out (appending the [__halt] and
    [__sigreturn_trampoline] runtime stubs if the program does not define
    them) and computes the symbol tables. *)

val data : t -> Pacstack_isa.Program.data list
(** The program's data objects, including the appended canary guard. *)

val fetch : t -> Pacstack_util.Word64.t -> Pacstack_isa.Instr.t option
(** The instruction at a code address, [None] outside the code image. *)

val fetch_exn : t -> Pacstack_util.Word64.t -> Pacstack_isa.Instr.t
(** Allocation-free fetch for the step loop: indexes the predecoded
    instruction array at [(addr − code_base) / 4]; raises a per-image
    preformatted [Trap.Fault (Trap.Undefined _)] outside the image or
    misaligned (the raise path allocates nothing). *)

val instructions : t -> Pacstack_isa.Instr.t array
(** The predecoded instruction array, indexed by [(pc − code_base) / 4].
    Callers must not mutate it — it is the image's single source of
    truth for {!fetch}/{!fetch_exn}. *)

val symbol : t -> string -> Pacstack_util.Word64.t option
(** Address of a global symbol (function or data object). *)

val resolve : t -> from:Pacstack_util.Word64.t -> string -> Pacstack_util.Word64.t option
(** Label resolution as seen by the instruction at address [from]: local
    labels of the enclosing function take precedence over globals. *)

val entry : t -> Pacstack_util.Word64.t
val halt_addr : t -> Pacstack_util.Word64.t
val sigreturn_trampoline : t -> Pacstack_util.Word64.t

val function_at : t -> Pacstack_util.Word64.t -> string option
(** Name of the function covering a code address. *)

val function_bounds : t -> string -> (Pacstack_util.Word64.t * Pacstack_util.Word64.t) option
(** [(first, past_last)] code addresses of a function. *)

val functions : t -> (string * Pacstack_util.Word64.t * Pacstack_util.Word64.t) list
(** Every function, runtime stubs included, as [(name, first,
    past_last)] in layout order. *)

val code_size : t -> int
(** Bytes of code. *)

val encoded : t -> int32 array * Pacstack_isa.Encode.pools
(** The binary encoding of the code image — what the loader writes into
    the executable pages. Encoded afresh on every call (the image does
    not keep it). *)

val is_function_entry : t -> Pacstack_util.Word64.t -> bool
(** Whether an address is the first instruction of some function — the
    target set of the coarse-grained forward-edge CFI (assumption A2). *)

val disassemble : t -> string
(** Disassembly of the whole code image from its binary encoding. *)
