(** A minimal EL1 personality on top of {!Machine}.

    Provides what the paper assumes of Linux 5.0 (§2.2, §5.4, §6.3.2):
    per-process PA keys regenerated on [exec], [fork] into sibling
    processes that share keys, kernel-side storage of thread contexts so a
    suspended thread's CR is unreachable from user space, signal delivery
    and [sigreturn] — optionally hardened with the Appendix B
    authenticated signal-return chain.

    Syscall ABI (number in the [svc] immediate):
    - 0: exit, code in X0
    - 1: debug print of X0
    - 2: fork — child's X0 = 0, parent's X0 = child pid
    - 3: thread spawn — X0 entry address, X1 stack top
    - 4: yield to the next runnable thread of this process
    - 5: sigreturn
    - 6: getpid into X0
    - 7: mprotect — X0 address, X1 size, X2 protection (r=4, w=2, x=1);
      X0 becomes 0 on success, -1 when refused (W⊕X, assumption A1, or
      unmapped pages) *)

type signal_policy =
  | Sig_unprotected  (** frames validated by nothing, as in mainline Linux *)
  | Sig_chained      (** the Appendix B [asigret] chain, keyed with GA *)
  | Sig_chained_full
      (** Appendix B's stronger variant: the chain covers every saved
          register (a pacga fold over the whole frame), so forging any
          register — not just PC/CR — is detected *)

type t
type proc

val create :
  ?signal_policy:signal_policy ->
  ?fast_keys:bool ->
  Pacstack_util.Rng.t -> t
(** [fast_keys] (default true) selects the mixer-backed PRF for generated
    key sets. *)

val spawn : t -> Machine.template -> proc
(** Instantiates the template with fresh PA keys (then the canary) drawn
    from the kernel's generator, and registers it as a process. *)

val boot : t -> Pacstack_isa.Program.t -> proc
(** [spawn] of the program prepared under {!Pacstack_pa.Config.default}. *)

val adopt : t -> Machine.t -> proc
(** Registers an existing machine as a process (its syscall handler is
    replaced). *)

val machine : proc -> Machine.t
val pid : proc -> int
val processes : t -> proc list
(** All live processes, oldest first. *)

val children : t -> proc -> proc list

val exec : t -> proc -> Pacstack_isa.Program.t -> unit
(** Replaces the process image and — as Linux does — generates a fresh PA
    key set, drawn as {!spawn} draws it. *)

val deliver_signal : t -> proc -> handler:string -> signum:int -> unit
(** Suspends the process, pushes the signal frame onto the user stack and
    redirects execution to [handler] with LR pointing at the sigreturn
    trampoline. Raises [Invalid_argument] if the handler symbol is
    unknown. *)

val signal_depth : proc -> int

val thread_count : proc -> int
(** Runnable-but-suspended thread contexts held by the kernel. *)

val run : ?fuel:int -> t -> proc -> Machine.outcome
(** Runs one process to completion (other processes are untouched —
    scheduling across processes is driven by the experiment). *)

val run_all :
  ?fuel:int -> ?quantum:int -> t -> (proc * Machine.outcome) list
(** Round-robin scheduler over every live process (parents and forked
    children), [quantum] instructions per slice; a faulting process is
    killed with code 139, as a crashing sibling would be. Returns the
    final outcome of every process. *)

val run_preemptive : ?fuel:int -> quantum:int -> t -> proc -> Machine.outcome
(** Like {!run}, but a timer preempts the running thread every [quantum]
    retired instructions and rotates to the next runnable thread of the
    process — §5.4's register save/restore under involuntary context
    switches. The preempted context is kernel-private, as with [yield]. *)
