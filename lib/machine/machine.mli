(** The simulated user-visible machine: register file, memory, loaded
    image, PA keys and the instruction-step semantics.

    One [Machine.t] is one hardware thread running one program. The kernel
    personality ({!Kernel}) layers processes, threads and signals on top. *)

type t

(** {1 Construction}

    Every machine is an instance of a {!template}: [prepare] does the
    per-program work once, [instantiate] makes a fresh machine from it
    per run, and [load] is the two for a single run. *)

type template
(** A program prepared to run under one config: its image, its memory
    laid out (code written and sealed rx; data, stack and shadow regions
    mapped) and its threaded ops. Immutable: it is never run, and no
    instance's run changes it, so one template may serve any number of
    instances. *)

val prepare : ?cfg:Pacstack_pa.Config.t -> Pacstack_isa.Program.t -> template
(** Builds the image (appending the runtime stubs and the canary guard
    object), lays out memory and compiles the threaded ops. [cfg]
    defaults to {!Pacstack_pa.Config.default}. Draws no randomness. *)

val instantiate :
  ?keys:Pacstack_pa.Keys.t -> ?rng:Pacstack_util.Rng.t -> template -> t
(** A fresh machine on a copy of the template's memory. [keys] defaults
    to a set drawn from [rng] (itself defaulting to a fixed-seed
    generator); the stack-canary global is seeded from [rng] next. SP
    points at the stack top, X18 at the shadow stack base, LR at
    [__halt] and PC at the entry symbol. The instance has its own,
    empty hook table, the default syscall handler (exit and debug
    print), forward-edge CFI on, no tracer and no obs label. The image
    and the threaded ops are shared with the template, which is what
    makes this cheaper than {!load}. *)

val load :
  ?cfg:Pacstack_pa.Config.t ->
  ?keys:Pacstack_pa.Keys.t ->
  ?rng:Pacstack_util.Rng.t ->
  Pacstack_isa.Program.t -> t
(** [instantiate ?keys ?rng (prepare ?cfg program)] without the memory
    copy: the machine runs on the memory [prepare] laid out. For a
    program that runs once; the same [cfg]/[keys]/[rng] give the same
    machine bit for bit as the template path. *)

val clone : t -> t
(** Deep copy: memory, registers and keys (used by [fork]). Hooks and the
    syscall handler are shared. *)

(** {1 State access} *)

val config : t -> Pacstack_pa.Config.t
val keys : t -> Pacstack_pa.Keys.t
val memory : t -> Memory.t
val image : t -> Image.t

val get : t -> Pacstack_isa.Reg.t -> Pacstack_util.Word64.t
(** Reads a register; [XZR] reads as zero. *)

val set : t -> Pacstack_isa.Reg.t -> Pacstack_util.Word64.t -> unit
(** Writes a register; writes to [XZR] are discarded. *)

val pc : t -> Pacstack_util.Word64.t
val set_pc : t -> Pacstack_util.Word64.t -> unit
val flags : t -> Pacstack_isa.Cond.flags

val cycles : t -> int
val instructions_retired : t -> int

val memory_operations : t -> int
(** Loads/stores executed (pair operations count twice) — input to the
    multi-worker memory-contention model of the Table 3 experiment. *)

val halted : t -> int option
val set_halted : t -> int -> unit

val canary_symbol : string
(** Name of the data object holding the stack-protector guard value. *)

val forward_cfi : t -> bool
val set_forward_cfi : t -> bool -> unit
(** Coarse-grained forward-edge CFI (assumption A2): when enabled (the
    default, as the paper assumes), indirect calls may only target
    function entry points; violations raise {!Trap.Fault} with
    [Cfi_violation]. Disable to study PACStack without its prerequisite. *)

val set_tracer : t -> (t -> Pacstack_isa.Instr.t -> unit) option -> unit
(** Per-instruction observer invoked before execution (PC still points at
    the instruction). Used by {!Profile}; [None] removes it.

    The tracer is an observer: it must not change control state (PC,
    halted) or the page table. The threaded engine resolves the next
    instruction when the image is compiled and chains compiled ops
    without consulting PC between straight-line instructions, so a
    tracer that moved PC or halted the machine mid-step would be seen
    by the reference engine and missed by the threaded one. Mutating
    registers, flags or mapped data memory is fine — both engines apply
    the tracer at the same point. *)

val set_obs_label : t -> string -> unit
(** Attribution label for the lib/obs metrics this machine publishes at
    the end of each [run]/[run_until] (instructions, TLB hits/misses,
    PA operations by kind, traps by kind): a non-empty [scheme] renders
    metric names as [machine.*{scheme=<scheme>}]; [""] (the default)
    removes the suffix. A no-op in effect unless [Obs.enable] was
    called — with obs disabled the machine publishes nothing. *)

(** {1 Hooks and syscalls} *)

val attach_hook : t -> string -> (t -> unit) -> unit
(** Installs the adversary (or test probe) invoked by [Hook name]. *)

val detach_hook : t -> string -> unit

val set_syscall_handler : t -> (t -> int -> unit) -> unit
(** Invoked on [Svc n]; the default handler implements [svc #0] as exit
    with code X0, [svc #1] as debug print of X0, and faults on anything
    else. *)

val output : t -> int64 list
(** Values printed via the debug-print syscall, oldest first. *)

val push_output : t -> int64 -> unit

(** {1 Execution} *)

val step : t -> unit
(** Executes one instruction; raises {!Trap.Fault}. No-op once halted.

    Dispatches through the threaded-code engine: the image is compiled
    once into an array of per-instruction closures (operands, cycle
    costs, mem_ops deltas, branch targets and obs classification all
    resolved at compile time) and the per-step translate/execute check
    is a page-granular cache invalidated by any
    [Memory.map]/[unmap]/[protect]. Observable behaviour is
    bit-identical to {!Reference.step} — pinned by the differential
    suite in test_engine.ml. *)

type outcome = Halted of int | Faulted of Trap.t | Out_of_fuel

val run : ?fuel:int -> t -> outcome
(** Steps until halt, fault or [fuel] instructions (default 10 million). *)

val run_until : ?fuel:int -> t -> stop:(t -> bool) -> outcome option
(** Like {!run}, but returns [None] as soon as [stop t] holds (checked
    before each instruction, so the machine is paused with PC at the
    next, not-yet-executed instruction); [Some outcome] if the program
    halted, faulted or ran out of fuel first. Fault injection uses this
    to reach a trigger point mid-run, mutate state, and continue with
    {!run}. *)

(** The original fetch-then-match interpreter, kept verbatim as the
    oracle for the threaded engine (the [Qarma64.Reference] pattern):
    same machine state, same traps, same counters, one instruction
    dispatch at a time. The engines may be interleaved freely on one
    machine — they share all state and differ only in dispatch. *)
module Reference : sig
  val step : t -> unit
  val run : ?fuel:int -> t -> outcome
  val run_until : ?fuel:int -> t -> stop:(t -> bool) -> outcome option
end

(** {1 Context save/restore (used by the kernel)} *)

type context

val save_context : t -> context
val restore_context : t -> context -> unit
val context_pc : context -> Pacstack_util.Word64.t
val context_get : context -> Pacstack_isa.Reg.t -> Pacstack_util.Word64.t
val context_words : context -> Pacstack_util.Word64.t array
(** Flat encoding: X0..X30, SP, PC, flags-as-word — the layout the kernel
    writes into user-visible signal frames. *)

val context_of_words : Pacstack_util.Word64.t array -> context
