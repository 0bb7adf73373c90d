module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng
module Config = Pacstack_pa.Config
module Keys = Pacstack_pa.Keys
module Pac = Pacstack_pa.Pac
module Pointer = Pacstack_pa.Pointer
module Reg = Pacstack_isa.Reg
module Cond = Pacstack_isa.Cond
module Instr = Pacstack_isa.Instr
module Obs = Pacstack_obs.Obs

(* Register file layout: X0..X30, SP and PC as raw little-endian int64
   slots in one Bytes buffer. Raw slots keep the hot loop free of both
   the write barrier and the per-store Int64 box that an [int64 array]
   or a mutable int64 record field pays on every write — a register
   write is a bounds-checked raw store, and int64 temporaries stay
   unboxed inside each operation. *)
let sp_slot = 31 * 8
let pc_slot = 32 * 8
let regs_bytes = 33 * 8

type t = {
  cfg : Config.t;
  mem : Memory.t;
  image : Image.t;
  keys : Keys.t;
  regs : Bytes.t;  (* X0..X30, SP, PC — see the layout note above *)
  mutable flags_bits : int;  (* packed NZCV, Cond.bits_* layout *)
  mutable halted : int option;
  mutable cycles : int;
  mutable instret : int;
  mutable mem_ops : int;
  mutable forward_cfi : bool;
  mutable tracer : (t -> Pacstack_isa.Instr.t -> unit) option;
  hooks : (string, t -> unit) Hashtbl.t;
  mutable on_syscall : t -> int -> unit;
  mutable out : int64 list;  (* newest first *)
  (* Observability (lib/obs). Aggregates accumulate in plain fields and
     are flushed as metric deltas once per [run]/[run_until] exit, so
     the per-step cost with obs disabled is one guarded branch on the
     (rare) PA instructions and nothing anywhere else. [obs_label] is a
     pre-rendered "{scheme=...}" suffix or "". *)
  mutable obs_label : string;
  obs_pac : int array;  (* per-kind PA-instruction counts, see obs_pac_names *)
  mutable obs_mark_instret : int;
  mutable obs_mark_memops : int;
  mutable obs_mark_dmiss : int;
  mutable obs_mark_xmiss : int;
  (* Threaded-code engine (DESIGN.md, "Threaded-code execution"): one
     pre-compiled closure per instruction, indexed by (pc-code_base)/4,
     plus a page-granular cached execute check over the code region.
     Each op returns the index of the next op (resolved at compile time
     for straight-line code and static branches) or -1 when the
     dispatcher must re-derive it from pc — so the hot loop chains
     compiled ops directly instead of re-validating pc every step.
     [fast_ok] certifies at construction that every in-image address is
     canonical for [cfg], so the fast path may skip [translate]. *)
  ops : (t -> int) array;
  code_limit : Word64.t;  (* 4 * instruction count *)
  fast_ok : bool;
  xpages : Bytes.t;       (* '\001' per executable code page *)
  mutable xcache_gen : int;
}

(* What [prepare] builds once per program and every instance shares.
   [layout] is the program's memory as laid out, never run: code written
   and sealed rx, data, stack and shadow regions mapped, canary still
   zero. [instantiate] copies it; [load] runs on it directly. *)
and template = {
  cfg : Config.t;
  image : Image.t;
  layout : Memory.t;
  ops : (t -> int) array;
}

let get t = function
  | Reg.X n -> Bytes.get_int64_le t.regs (n lsl 3)
  | Reg.SP -> Bytes.get_int64_le t.regs sp_slot
  | Reg.XZR -> 0L

let set t r v =
  match r with
  | Reg.X n -> Bytes.set_int64_le t.regs (n lsl 3) v
  | Reg.SP -> Bytes.set_int64_le t.regs sp_slot v
  | Reg.XZR -> ()

let pc t = Bytes.get_int64_le t.regs pc_slot
let set_pc t v = Bytes.set_int64_le t.regs pc_slot v
let sp t = Bytes.get_int64_le t.regs sp_slot
let lr t = Bytes.get_int64_le t.regs (30 lsl 3)
let set_lr t v = Bytes.set_int64_le t.regs (30 lsl 3) v

let canary_symbol = "__stack_chk_guard"

(* Bare machines (no kernel) still support exit and debug print. *)
let default_syscall m n =
  match n with
  | 0 -> m.halted <- Some (Int64.to_int (get m (Reg.X 0)))
  | 1 -> m.out <- get m (Reg.X 0) :: m.out
  | n -> raise (Trap.Fault (Trap.Undefined (Printf.sprintf "svc #%d with no kernel" n)))

let config t = t.cfg
let keys t = t.keys
let memory t = t.mem
let image t = t.image

let flags t = Cond.flags_of_bits t.flags_bits
let cycles t = t.cycles
let instructions_retired t = t.instret
let memory_operations t = t.mem_ops
let halted t = t.halted
let set_halted t code = t.halted <- Some code

let forward_cfi t = t.forward_cfi
let set_forward_cfi t v = t.forward_cfi <- v
let set_tracer t f = t.tracer <- f

let attach_hook t name f = Hashtbl.replace t.hooks name f
let detach_hook t name = Hashtbl.remove t.hooks name
let set_syscall_handler t f = t.on_syscall <- f
let output t = List.rev t.out
let push_output t v = t.out <- v :: t.out

(* --- address translation checks ------------------------------------- *)

let translate t addr access =
  if not (Pointer.is_canonical t.cfg addr) then raise (Trap.Fault (Trap.Translation (addr, access)))

let load64 t addr =
  translate t addr Trap.Read;
  Memory.load64 t.mem addr

let store64 t addr v =
  translate t addr Trap.Write;
  Memory.store64 t.mem addr v

let load8 t addr =
  translate t addr Trap.Read;
  Memory.load8 t.mem addr

let store8 t addr v =
  translate t addr Trap.Write;
  Memory.store8 t.mem addr v

(* --- operand helpers -------------------------------------------------- *)

let operand t = function Instr.Reg r -> get t r | Instr.Imm i -> i

(* Effective address of a memory operand, applying pre/post indexing to
   the base register. *)
let effective t ({ base; offset; index } : Instr.mem) =
  let baseval = get t base in
  let off = Int64.of_int offset in
  match index with
  | Instr.Offset -> Int64.add baseval off
  | Instr.Pre ->
    let a = Int64.add baseval off in
    set t base a;
    a
  | Instr.Post ->
    set t base (Int64.add baseval off);
    baseval

let resolve t label =
  match Image.resolve t.image ~from:(pc t) label with
  | Some a -> a
  | None -> raise (Trap.Fault (Trap.Undefined ("unresolved label " ^ label)))

let ia t = Keys.get t.keys Keys.IA
let ga t = Keys.get t.keys Keys.GA

(* --- instruction semantics (reference) -------------------------------- *)

(* The fetch-then-match semantics the threaded engine is compiled from.
   [Reference.step] still dispatches through here; the differential suite
   in test_engine.ml pins the two engines against each other. *)
let exec t instr =
  let next = Int64.add (pc t) 4L in
  let goto a = set_pc t a in
  let fallthrough () = goto next in
  let binop rd rn op f =
    set t rd (f (get t rn) (operand t op));
    fallthrough ()
  in
  match instr with
  | Instr.Add (rd, rn, op) -> binop rd rn op Int64.add
  | Instr.Sub (rd, rn, op) -> binop rd rn op Int64.sub
  | Instr.Mul (rd, rn, rm) ->
    set t rd (Int64.mul (get t rn) (get t rm));
    fallthrough ()
  | Instr.Udiv (rd, rn, rm) ->
    let d = get t rm in
    set t rd (if d = 0L then 0L else Int64.unsigned_div (get t rn) d);
    fallthrough ()
  | Instr.And_ (rd, rn, op) -> binop rd rn op Int64.logand
  | Instr.Orr (rd, rn, op) -> binop rd rn op Int64.logor
  | Instr.Eor (rd, rn, op) -> binop rd rn op Int64.logxor
  | Instr.Lsl_ (rd, rn, op) ->
    binop rd rn op (fun a b -> Int64.shift_left a (Int64.to_int b land 63))
  | Instr.Lsr_ (rd, rn, op) ->
    binop rd rn op (fun a b -> Int64.shift_right_logical a (Int64.to_int b land 63))
  | Instr.Mov (rd, op) ->
    set t rd (operand t op);
    fallthrough ()
  | Instr.Cmp (rn, op) ->
    t.flags_bits <- Cond.bits_of_compare (get t rn) (operand t op);
    fallthrough ()
  | Instr.Adr (rd, l) ->
    set t rd (resolve t l);
    fallthrough ()
  | Instr.Ldr (rt, m) ->
    set t rt (load64 t (effective t m));
    fallthrough ()
  | Instr.Str (rt, m) ->
    store64 t (effective t m) (get t rt);
    fallthrough ()
  | Instr.Ldrb (rt, m) ->
    set t rt (Int64.of_int (load8 t (effective t m)));
    fallthrough ()
  | Instr.Strb (rt, m) ->
    store8 t (effective t m) (Int64.to_int (Int64.logand (get t rt) 0xffL));
    fallthrough ()
  | Instr.Ldp (r1, r2, m) ->
    let a = effective t m in
    set t r1 (load64 t a);
    set t r2 (load64 t (Int64.add a 8L));
    fallthrough ()
  | Instr.Stp (r1, r2, m) ->
    let a = effective t m in
    store64 t a (get t r1);
    store64 t (Int64.add a 8L) (get t r2);
    fallthrough ()
  | Instr.B l -> goto (resolve t l)
  | Instr.Bcond (c, l) -> if Cond.holds_bits c t.flags_bits then goto (resolve t l) else fallthrough ()
  | Instr.Cbz (r, l) -> if get t r = 0L then goto (resolve t l) else fallthrough ()
  | Instr.Cbnz (r, l) -> if get t r <> 0L then goto (resolve t l) else fallthrough ()
  | Instr.Bl l ->
    set t Reg.lr next;
    goto (resolve t l)
  | Instr.Blr r ->
    let target = get t r in
    (* assumption A2: indirect calls must land on a function entry *)
    if t.forward_cfi && not (Image.is_function_entry t.image target) then
      raise (Trap.Fault (Trap.Cfi_violation target));
    set t Reg.lr next;
    goto target
  | Instr.Br r -> goto (get t r)
  | Instr.Ret r -> goto (get t r)
  | Instr.Retaa ->
    let lr = Pac.auth_value t.cfg (ia t) (get t Reg.lr) ~modifier:(sp t) in
    set t Reg.lr lr;
    goto lr
  | Instr.Pacia (rd, rn) ->
    set t rd (Pac.add t.cfg (ia t) (get t rd) ~modifier:(get t rn));
    fallthrough ()
  | Instr.Autia (rd, rn) ->
    set t rd (Pac.auth_value t.cfg (ia t) (get t rd) ~modifier:(get t rn));
    fallthrough ()
  | Instr.Paciasp ->
    set t Reg.lr (Pac.add t.cfg (ia t) (get t Reg.lr) ~modifier:(sp t));
    fallthrough ()
  | Instr.Autiasp ->
    set t Reg.lr (Pac.auth_value t.cfg (ia t) (get t Reg.lr) ~modifier:(sp t));
    fallthrough ()
  | Instr.Xpaci r ->
    set t r (Pac.strip t.cfg (get t r));
    fallthrough ()
  | Instr.Pacga (rd, rn, rm) ->
    set t rd (Pac.generic t.cfg (ga t) (get t rn) ~modifier:(get t rm));
    fallthrough ()
  | Instr.Svc n ->
    (* PC already points past the svc when the handler runs, as if the
       exception return address had been saved. *)
    fallthrough ();
    t.on_syscall t n
  | Instr.Nop -> fallthrough ()
  | Instr.Hlt ->
    t.halted <- Some (Int64.to_int (get t (Reg.X 0)));
    fallthrough ()
  | Instr.Hook name -> (
    fallthrough ();
    match Hashtbl.find_opt t.hooks name with
    | Some f -> f t
    | None -> ())

(* --- observability ---------------------------------------------------- *)

let set_obs_label t scheme =
  t.obs_label <- (if scheme = "" then "" else "{scheme=" ^ scheme ^ "}")

let obs_pac_names =
  [| "pacia"; "autia"; "paciasp"; "autiasp"; "retaa"; "pacga"; "xpaci";
     "chain.pac"; "chain.aut" |]

(* Only reached behind an [Obs.enabled] guard, and only on PA
   instructions; [chain.*] are the ACS link operations — pacia/autia
   with the chain register CR as modifier. *)
let obs_pac_cell = function
  | Instr.Pacia (_, rn) -> if rn = Reg.cr then 7 else 0
  | Instr.Autia (_, rn) -> if rn = Reg.cr then 8 else 1
  | Instr.Paciasp -> 2
  | Instr.Autiasp -> 3
  | Instr.Retaa -> 4
  | Instr.Pacga _ -> 5
  | Instr.Xpaci _ -> 6
  | _ -> -1

let obs_record_pac t instr =
  let cell = obs_pac_cell instr in
  if cell >= 0 then t.obs_pac.(cell) <- t.obs_pac.(cell) + 1

let obs_publish t trap =
  let label = t.obs_label in
  let c name by = if by > 0 then Obs.Metrics.incr ~by (name ^ label) in
  let dm, xm = Memory.tlb_misses t.mem in
  let instret_d = t.instret - t.obs_mark_instret in
  let memops_d = t.mem_ops - t.obs_mark_memops in
  let dmiss_d = dm - t.obs_mark_dmiss in
  let xmiss_d = xm - t.obs_mark_xmiss in
  c "machine.instructions" instret_d;
  c "machine.tlb.data_miss" dmiss_d;
  c "machine.tlb.data_hit" (max 0 (memops_d - dmiss_d));
  c "machine.tlb.exec_miss" xmiss_d;
  c "machine.tlb.exec_hit" (max 0 (instret_d - xmiss_d));
  Array.iteri
    (fun i n ->
      if n > 0 then begin
        c ("machine.pac." ^ obs_pac_names.(i)) n;
        t.obs_pac.(i) <- 0
      end)
    t.obs_pac;
  (match trap with
  | Some f -> Obs.Metrics.incr ("machine.trap." ^ Trap.kind f ^ label)
  | None -> ());
  t.obs_mark_instret <- t.instret;
  t.obs_mark_memops <- t.mem_ops;
  t.obs_mark_dmiss <- dm;
  t.obs_mark_xmiss <- xm

(* --- reference step --------------------------------------------------- *)

(* One unchecked step through the fetch-then-match path. The public
   [Reference.step] adds the halted guard; [drive] checks halted itself. *)
let exec_reference t =
  translate t (pc t) Trap.Execute;
  Memory.check_exec t.mem (pc t);
  let instr = Image.fetch_exn t.image (pc t) in
  t.cycles <- t.cycles + Instr.cycles instr;
  t.instret <- t.instret + 1;
  (match instr with
  | Instr.Ldr _ | Instr.Str _ | Instr.Ldrb _ | Instr.Strb _ -> t.mem_ops <- t.mem_ops + 1
  | Instr.Ldp _ | Instr.Stp _ -> t.mem_ops <- t.mem_ops + 2
  | Instr.Pacia _ | Instr.Autia _ | Instr.Paciasp | Instr.Autiasp
  | Instr.Retaa | Instr.Pacga _ | Instr.Xpaci _ ->
    if Obs.enabled () then obs_record_pac t instr
  | _ -> ());
  (match t.tracer with Some f -> f t instr | None -> ());
  exec t instr

(* --- threaded-code compilation ---------------------------------------- *)

(* Each instruction compiles to one closure doing exactly what one
   reference step does after fetch: bump the counters, record obs, call
   the tracer, execute. Everything derivable from the instruction alone
   — cycle cost, mem_ops delta, obs cell, branch targets, the operand
   shape — is resolved here, once per image, instead of per step.

   Fidelity rules (the differential suite enforces them):
   - counters and obs/tracer fire before semantics, as in the reference;
   - side effects ordered as in [exec]: Bl writes LR before an
     unresolved-label raise, Adr resolves before writing, pre/post
     indexing commits before a load/store trap;
   - a label a conditional branch never takes is allowed to stay
     unresolved, exactly like the lazy [resolve] in the reference. *)

let op_pre t cyc instr =
  t.cycles <- t.cycles + cyc;
  t.instret <- t.instret + 1;
  match t.tracer with Some f -> f t instr | None -> ()

let op_pre_mem t cyc memops instr =
  t.cycles <- t.cycles + cyc;
  t.instret <- t.instret + 1;
  t.mem_ops <- t.mem_ops + memops;
  match t.tracer with Some f -> f t instr | None -> ()

let op_pre_pac t cyc cell instr =
  t.cycles <- t.cycles + cyc;
  t.instret <- t.instret + 1;
  if Obs.enabled () then t.obs_pac.(cell) <- t.obs_pac.(cell) + 1;
  match t.tracer with Some f -> f t instr | None -> ()

let unresolved label = Trap.Fault (Trap.Undefined ("unresolved label " ^ label))

(* Next-op index for a pc value produced at run time (ret/br/blr/retaa).
   -1 means "outside the ops array / misaligned": the dispatch loop then
   resynchronises from the architectural pc through the full checks.
   Only called with [t.fast_ok] (the loop never enters compiled ops
   otherwise), so an in-image result needs no canonicality check. *)
let live_index t v =
  let off = Int64.sub v Image.code_base in
  if Int64.logand off 3L = 0L && off >= 0L && off < t.code_limit then
    Int64.to_int off lsr 2
  else -1

let compile_op image nops idx instr : t -> int =
  let addr = Int64.add Image.code_base (Int64.of_int (4 * idx)) in
  (* An int64 captured by a closure is a pointer to its own 3-word box,
     one per op; as an immediate the fall-through pc costs nothing
     (code addresses fit in 63 bits). *)
  let next = Int64.to_int (Int64.add addr 4L) in
  let cyc = Instr.cycles instr in
  (* Index of the op for a compile-time-known target address. *)
  let static_index a =
    let off = Int64.sub a Image.code_base in
    if Int64.logand off 3L = 0L && off >= 0L && off < Int64.of_int (4 * nops)
    then Int64.to_int off lsr 2
    else -1
  in
  let nexti = if idx + 1 < nops then idx + 1 else -1 in
  (* Static view of what [resolve] would do with pc = addr; the error
     case is a preallocated exception raised only if execution actually
     needs the label. *)
  let target label =
    match Image.resolve image ~from:addr label with
    | Some a -> Ok a
    | None -> Error (unresolved label)
  in
  let binop rd rn op f =
    match op with
    | Instr.Reg rm ->
      fun t ->
        op_pre t cyc instr;
        set t rd (f (get t rn) (get t rm));
        set_pc t (Int64.of_int next);
        nexti
    | Instr.Imm i ->
      fun t ->
        op_pre t cyc instr;
        set t rd (f (get t rn) i);
        set_pc t (Int64.of_int next);
        nexti
  in
  (* Conditional branches evaluate the label lazily in the reference, so
     a dangling label only traps when the branch is taken. *)
  let cond_branch test l =
    match target l with
    | Ok a ->
      let ti = static_index a in
      fun t ->
        op_pre t cyc instr;
        if test t then (set_pc t a; ti) else (set_pc t (Int64.of_int next); nexti)
    | Error e ->
      fun t ->
        op_pre t cyc instr;
        if test t then raise e else (set_pc t (Int64.of_int next); nexti)
  in
  match instr with
  | Instr.Add (rd, rn, op) -> (
    match op with
    | Instr.Reg rm ->
      fun t ->
        op_pre t cyc instr;
        set t rd (Int64.add (get t rn) (get t rm));
        set_pc t (Int64.of_int next);
        nexti
    | Instr.Imm i ->
      fun t ->
        op_pre t cyc instr;
        set t rd (Int64.add (get t rn) i);
        set_pc t (Int64.of_int next);
        nexti)
  | Instr.Sub (rd, rn, op) -> (
    match op with
    | Instr.Reg rm ->
      fun t ->
        op_pre t cyc instr;
        set t rd (Int64.sub (get t rn) (get t rm));
        set_pc t (Int64.of_int next);
        nexti
    | Instr.Imm i ->
      fun t ->
        op_pre t cyc instr;
        set t rd (Int64.sub (get t rn) i);
        set_pc t (Int64.of_int next);
        nexti)
  | Instr.Mul (rd, rn, rm) ->
    fun t ->
      op_pre t cyc instr;
      set t rd (Int64.mul (get t rn) (get t rm));
      set_pc t (Int64.of_int next);
      nexti
  | Instr.Udiv (rd, rn, rm) ->
    fun t ->
      op_pre t cyc instr;
      let d = get t rm in
      set t rd (if d = 0L then 0L else Int64.unsigned_div (get t rn) d);
      set_pc t (Int64.of_int next);
      nexti
  | Instr.And_ (rd, rn, op) -> binop rd rn op Int64.logand
  | Instr.Orr (rd, rn, op) -> binop rd rn op Int64.logor
  | Instr.Eor (rd, rn, op) -> (
    match op with
    | Instr.Reg rm ->
      fun t ->
        op_pre t cyc instr;
        set t rd (Int64.logxor (get t rn) (get t rm));
        set_pc t (Int64.of_int next);
        nexti
    | Instr.Imm i ->
      fun t ->
        op_pre t cyc instr;
        set t rd (Int64.logxor (get t rn) i);
        set_pc t (Int64.of_int next);
        nexti)
  | Instr.Lsl_ (rd, rn, op) -> (
    match op with
    | Instr.Imm i ->
      let sh = Int64.to_int i land 63 in
      fun t ->
        op_pre t cyc instr;
        set t rd (Int64.shift_left (get t rn) sh);
        set_pc t (Int64.of_int next);
        nexti
    | Instr.Reg _ ->
      binop rd rn op (fun a b -> Int64.shift_left a (Int64.to_int b land 63)))
  | Instr.Lsr_ (rd, rn, op) -> (
    match op with
    | Instr.Imm i ->
      let sh = Int64.to_int i land 63 in
      fun t ->
        op_pre t cyc instr;
        set t rd (Int64.shift_right_logical (get t rn) sh);
        set_pc t (Int64.of_int next);
        nexti
    | Instr.Reg _ ->
      binop rd rn op (fun a b -> Int64.shift_right_logical a (Int64.to_int b land 63)))
  | Instr.Mov (rd, op) -> (
    match op with
    | Instr.Reg rm ->
      fun t -> op_pre t cyc instr; set t rd (get t rm); set_pc t (Int64.of_int next); nexti
    | Instr.Imm i -> fun t -> op_pre t cyc instr; set t rd i; set_pc t (Int64.of_int next); nexti)
  | Instr.Cmp (rn, op) -> (
    match op with
    | Instr.Reg rm ->
      fun t ->
        op_pre t cyc instr;
        t.flags_bits <- Cond.bits_of_compare (get t rn) (get t rm);
        set_pc t (Int64.of_int next);
        nexti
    | Instr.Imm i ->
      fun t ->
        op_pre t cyc instr;
        t.flags_bits <- Cond.bits_of_compare (get t rn) i;
        set_pc t (Int64.of_int next);
        nexti)
  | Instr.Adr (rd, l) -> (
    match target l with
    | Ok a -> fun t -> op_pre t cyc instr; set t rd a; set_pc t (Int64.of_int next); nexti
    | Error e -> fun t -> op_pre t cyc instr; raise e)
  | Instr.Ldr (rt, m) ->
    fun t ->
      op_pre_mem t cyc 1 instr;
      set t rt (load64 t (effective t m));
      set_pc t (Int64.of_int next);
      nexti
  | Instr.Str (rt, m) ->
    fun t ->
      op_pre_mem t cyc 1 instr;
      store64 t (effective t m) (get t rt);
      set_pc t (Int64.of_int next);
      nexti
  | Instr.Ldrb (rt, m) ->
    fun t ->
      op_pre_mem t cyc 1 instr;
      set t rt (Int64.of_int (load8 t (effective t m)));
      set_pc t (Int64.of_int next);
      nexti
  | Instr.Strb (rt, m) ->
    fun t ->
      op_pre_mem t cyc 1 instr;
      store8 t (effective t m) (Int64.to_int (Int64.logand (get t rt) 0xffL));
      set_pc t (Int64.of_int next);
      nexti
  | Instr.Ldp (r1, r2, m) ->
    fun t ->
      op_pre_mem t cyc 2 instr;
      let a = effective t m in
      set t r1 (load64 t a);
      set t r2 (load64 t (Int64.add a 8L));
      set_pc t (Int64.of_int next);
      nexti
  | Instr.Stp (r1, r2, m) ->
    fun t ->
      op_pre_mem t cyc 2 instr;
      let a = effective t m in
      store64 t a (get t r1);
      store64 t (Int64.add a 8L) (get t r2);
      set_pc t (Int64.of_int next);
      nexti
  | Instr.B l -> (
    match target l with
    | Ok a ->
      let ti = static_index a in
      fun t -> op_pre t cyc instr; set_pc t a; ti
    | Error e -> fun t -> op_pre t cyc instr; raise e)
  | Instr.Bcond (c, l) -> cond_branch (fun t -> Cond.holds_bits c t.flags_bits) l
  | Instr.Cbz (r, l) -> cond_branch (fun t -> get t r = 0L) l
  | Instr.Cbnz (r, l) -> cond_branch (fun t -> get t r <> 0L) l
  | Instr.Bl l -> (
    match target l with
    | Ok a ->
      let ti = static_index a in
      fun t ->
        op_pre t cyc instr;
        set_lr t (Int64.of_int next);
        set_pc t a;
        ti
    | Error e ->
      (* LR is written before [resolve] raises in the reference. *)
      fun t ->
        op_pre t cyc instr;
        set_lr t (Int64.of_int next);
        raise e)
  | Instr.Blr r ->
    fun t ->
      op_pre t cyc instr;
      let target = get t r in
      if t.forward_cfi && not (Image.is_function_entry image target) then
        raise (Trap.Fault (Trap.Cfi_violation target));
      set_lr t (Int64.of_int next);
      set_pc t target;
      live_index t target
  | Instr.Br r ->
    fun t ->
      op_pre t cyc instr;
      let v = get t r in
      set_pc t v;
      live_index t v
  | Instr.Ret r ->
    fun t ->
      op_pre t cyc instr;
      let v = get t r in
      set_pc t v;
      live_index t v
  | Instr.Retaa ->
    fun t ->
      op_pre_pac t cyc 4 instr;
      let lr = Pac.auth_value t.cfg (ia t) (lr t) ~modifier:(sp t) in
      set_lr t lr;
      set_pc t lr;
      live_index t lr
  | Instr.Pacia (rd, rn) ->
    let cell = if rn = Reg.cr then 7 else 0 in
    fun t ->
      op_pre_pac t cyc cell instr;
      set t rd (Pac.add t.cfg (ia t) (get t rd) ~modifier:(get t rn));
      set_pc t (Int64.of_int next);
      nexti
  | Instr.Autia (rd, rn) ->
    let cell = if rn = Reg.cr then 8 else 1 in
    fun t ->
      op_pre_pac t cyc cell instr;
      set t rd (Pac.auth_value t.cfg (ia t) (get t rd) ~modifier:(get t rn));
      set_pc t (Int64.of_int next);
      nexti
  | Instr.Paciasp ->
    fun t ->
      op_pre_pac t cyc 2 instr;
      set_lr t (Pac.add t.cfg (ia t) (lr t) ~modifier:(sp t));
      set_pc t (Int64.of_int next);
      nexti
  | Instr.Autiasp ->
    fun t ->
      op_pre_pac t cyc 3 instr;
      set_lr t (Pac.auth_value t.cfg (ia t) (lr t) ~modifier:(sp t));
      set_pc t (Int64.of_int next);
      nexti
  | Instr.Xpaci r ->
    fun t ->
      op_pre_pac t cyc 6 instr;
      set t r (Pac.strip t.cfg (get t r));
      set_pc t (Int64.of_int next);
      nexti
  | Instr.Pacga (rd, rn, rm) ->
    fun t ->
      op_pre_pac t cyc 5 instr;
      set t rd (Pac.generic t.cfg (ga t) (get t rn) ~modifier:(get t rm));
      set_pc t (Int64.of_int next);
      nexti
  (* The remaining ops return -1 unconditionally: a syscall handler or
     hook may halt the machine, remap memory or move pc, and Hlt halts —
     the dispatch loop must re-run its full boundary checks after them. *)
  | Instr.Svc n ->
    fun t ->
      op_pre t cyc instr;
      set_pc t (Int64.of_int next);
      t.on_syscall t n;
      -1
  | Instr.Nop -> fun t -> op_pre t cyc instr; set_pc t (Int64.of_int next); nexti
  | Instr.Hlt ->
    fun t ->
      op_pre t cyc instr;
      t.halted <- Some (Int64.to_int (get t (Reg.X 0)));
      set_pc t (Int64.of_int next);
      -1
  | Instr.Hook name ->
    fun t ->
      op_pre t cyc instr;
      set_pc t (Int64.of_int next);
      (match Hashtbl.find_opt t.hooks name with
      | Some f -> f t
      | None -> ());
      -1

(* --- threaded step ---------------------------------------------------- *)

(* [xcache_gen] sentinel: [Memory.generation] restarts at 0 after a
   [Memory.copy], so 0 is a reachable value and the sentinel must be one
   no live memory ever reports. *)
let stale_gen = min_int

let refill_exec_cache t =
  for i = 0 to Bytes.length t.xpages - 1 do
    let addr = Int64.add Image.code_base (Int64.of_int (i lsl Memory.page_bits)) in
    let ok =
      match Memory.perm_at t.mem addr with
      | Some p -> p.Memory.executable
      | None -> false
    in
    Bytes.unsafe_set t.xpages i (if ok then '\001' else '\000')
  done;
  t.xcache_gen <- Memory.generation t.mem

(* One unchecked threaded step (the single-step [step] path). The fast
   path replaces the reference's translate + check_exec + fetch with
   three compares and two unsafe reads; every condition it cannot prove
   (PC outside the image or misaligned, page not executable, [fast_ok]
   false because the config's VA size does not cover the image) falls
   back to [exec_reference], so all traps are produced by exactly the
   reference code. *)
let exec_threaded t =
  let off = Int64.sub (Bytes.get_int64_le t.regs pc_slot) Image.code_base in
  if t.fast_ok && Int64.logand off 3L = 0L && off >= 0L && off < t.code_limit
  then begin
    if t.xcache_gen <> Memory.generation t.mem then refill_exec_cache t;
    let offi = Int64.to_int off in
    if Bytes.unsafe_get t.xpages (offi lsr Memory.page_bits) = '\001' then
      ignore ((Array.unsafe_get t.ops (offi lsr 2)) t : int)
    else exec_reference t
  end
  else exec_reference t

let step t = match t.halted with Some _ -> () | None -> exec_threaded t

type outcome = Halted of int | Faulted of Trap.t | Out_of_fuel

(* Why a run paused, as reported by a runner to [drive]. A runner
   performs the boundary checks — halted, then stop, then fuel, the
   reference order — exactly once per instruction boundary (stop
   predicates count their calls, e.g. "pause at the k-th visit", so a
   double check would change trigger timing). *)
type pause = Paused_halt of int | Paused_stop | Paused_fuel

let never _ = false

let runner_reference t ~stop ~fuel =
  let rec boundary budget =
    match t.halted with
    | Some code -> Paused_halt code
    | None ->
      if stop t then Paused_stop
      else if budget = 0 then Paused_fuel
      else begin
        exec_reference t;
        boundary (budget - 1)
      end
  in
  boundary fuel

(* ops are indexed per instruction word, xpages per page. *)
let xpage_shift = Memory.page_bits - 2

(* The threaded hot loop: compiled ops return the index of the next op,
   so straight-line runs and static branches chain compiled closures
   with no pc re-validation — per step only the stop/fuel boundary
   checks and one cached execute-permission byte remain. [fast]'s
   invariants: ops that can halt, remap memory or leave the image
   (hlt/svc/hook, and any branch whose target is not provably an op
   index) return -1, which drops to [boundary]/[dispatch] for the full
   protocol and pc re-derivation; hence no halted or generation check
   inside the loop. *)
let runner_threaded t ~stop ~fuel =
  let ops = t.ops in
  let xpages = t.xpages in
  (* [run] passes the top-level [never]: recognising it by identity lets
     the hot loop replace an indirect call per step with one branch. *)
  let can_stop = stop != never in
  let rec boundary budget =
    match t.halted with
    | Some code -> Paused_halt code
    | None ->
      if stop t then Paused_stop
      else if budget = 0 then Paused_fuel
      else dispatch budget
  and dispatch budget =
    (* boundary checks for pc already done; budget ≥ 1 *)
    let off = Int64.sub (Bytes.get_int64_le t.regs pc_slot) Image.code_base in
    if t.fast_ok && Int64.logand off 3L = 0L && off >= 0L && off < t.code_limit
    then begin
      if t.xcache_gen <> Memory.generation t.mem then refill_exec_cache t;
      let idx = Int64.to_int off lsr 2 in
      if Bytes.unsafe_get xpages (idx lsr xpage_shift) = '\001' then fast budget idx
      else begin
        exec_reference t;
        boundary (budget - 1)
      end
    end
    else begin
      exec_reference t;
      boundary (budget - 1)
    end
  and fast budget idx =
    let nxt = (Array.unsafe_get ops idx) t in
    let budget = budget - 1 in
    if nxt >= 0 then
      if can_stop && stop t then Paused_stop
      else if budget = 0 then Paused_fuel
      else if Bytes.unsafe_get xpages (nxt lsr xpage_shift) = '\001' then
        fast budget nxt
      else dispatch budget
    else boundary budget
  in
  boundary fuel

(* One driver owns the pause/fault-to-outcome protocol and the obs
   flush, shared by [run]/[run_until] on both engines so they cannot
   drift; the per-instruction boundary checks live in the runners. The
   fault handler is installed once around the whole loop, not per step. *)
let drive ~runner ~stop ~fuel t =
  let outcome =
    try
      match runner t ~stop ~fuel with
      | Paused_halt code -> Some (Halted code)
      | Paused_stop -> None
      | Paused_fuel -> Some Out_of_fuel
    with Trap.Fault f -> Some (Faulted f)
  in
  (match outcome with
  | None -> ()
    (* paused at a trigger point: the counters flush when the caller
       finishes the run *)
  | Some oc ->
    if Obs.enabled () then
      obs_publish t (match oc with Faulted f -> Some f | Halted _ | Out_of_fuel -> None));
  outcome

let run_with runner ?(fuel = 10_000_000) t =
  match drive ~runner ~stop:never ~fuel t with
  | Some oc -> oc
  | None -> invalid_arg "Machine.run: [never] stopped the loop"

let run_until_with runner ?(fuel = 10_000_000) t ~stop = drive ~runner ~stop ~fuel t

let run ?fuel t = run_with runner_threaded ?fuel t
let run_until ?fuel t ~stop = run_until_with runner_threaded ?fuel t ~stop

module Reference = struct
  let step t = match t.halted with Some _ -> () | None -> exec_reference t
  let run ?fuel t = run_with runner_reference ?fuel t
  let run_until ?fuel t ~stop = run_until_with runner_reference ?fuel t ~stop
end

(* --- construction ----------------------------------------------------- *)

let prepare ?(cfg = Config.default) program =
  let image = Image.build program in
  let layout = Memory.create () in
  let code_bytes = max Memory.page_size (Image.code_size image) in
  (* write the binary encoding into the code pages, then seal them rx: the
     code bytes an adversary can disclose are real, and W^X is enforced
     from the first fetch *)
  Memory.map layout ~addr:Image.code_base ~size:code_bytes Memory.perm_rw;
  let words, _pools = Image.encoded image in
  Array.iteri
    (fun i w ->
      Memory.store32 layout (Int64.add Image.code_base (Int64.of_int (4 * i))) w)
    words;
  Memory.protect layout ~addr:Image.code_base ~size:code_bytes Memory.perm_rx;
  (* one rw data region covering all objects (the image appends the canary
     guard object when the program does not declare one) *)
  let data_bytes =
    List.fold_left
      (fun acc (d : Pacstack_isa.Program.data) -> acc + ((d.size + 15) land lnot 15))
      16 (Image.data image)
  in
  Memory.map layout ~addr:Image.data_base ~size:(max Memory.page_size data_bytes) Memory.perm_rw;
  Memory.map layout
    ~addr:(Int64.sub Image.stack_top (Int64.of_int Image.stack_size))
    ~size:Image.stack_size Memory.perm_rw;
  Memory.map layout ~addr:Image.shadow_base ~size:Image.shadow_size Memory.perm_rw;
  let code = Image.instructions image in
  { cfg; image; layout; ops = Array.mapi (compile_op image (Array.length code)) code }

(* The one constructor of a fresh machine: [mem] is a layout of [tpl]
   nothing else will touch. Keys first, then the canary, from one
   generator, so the same seed gives the same machine whichever way it
   was made. *)
let make (tpl : template) mem keys rng =
  let rng = match rng with Some r -> r | None -> Rng.create 0x9ac57ac4L in
  let keys = match keys with Some k -> k | None -> Keys.generate ~fast:true rng in
  let code_limit = Int64.of_int (Image.code_size tpl.image) in
  (* [Pointer.is_canonical] is monotone (p >> va_size = 0), so the last
     in-image address being canonical certifies the whole range; an empty
     image never takes the fast path, the flag is then irrelevant. *)
  let fast_ok =
    code_limit > 0L
    && Pointer.is_canonical tpl.cfg (Int64.add Image.code_base (Int64.sub code_limit 1L))
  in
  let xpage_count =
    max 1 ((Int64.to_int code_limit + Memory.page_size - 1) / Memory.page_size)
  in
  let t =
    {
      cfg = tpl.cfg;
      mem;
      image = tpl.image;
      keys;
      regs = Bytes.make regs_bytes '\000';
      flags_bits = 0;
      halted = None;
      cycles = 0;
      instret = 0;
      mem_ops = 0;
      forward_cfi = true;
      tracer = None;
      hooks = Hashtbl.create 4;
      on_syscall = default_syscall;
      out = [];
      obs_label = "";
      obs_pac = Array.make 9 0;
      obs_mark_instret = 0;
      obs_mark_memops = 0;
      obs_mark_dmiss = 0;
      obs_mark_xmiss = 0;
      ops = tpl.ops;
      code_limit;
      fast_ok;
      xpages = Bytes.make xpage_count '\000';
      xcache_gen = stale_gen;
    }
  in
  (match Image.symbol tpl.image canary_symbol with
  | Some a -> Memory.store64 mem a (Rng.next64 rng)
  | None -> ());
  set t Reg.SP Image.stack_top;
  set_pc t (Image.entry tpl.image);
  set t Reg.lr (Image.halt_addr tpl.image);
  set t Reg.shadow Image.shadow_base;
  t

let instantiate ?keys ?rng tpl = make tpl (Memory.copy tpl.layout) keys rng

let load ?cfg ?keys ?rng program =
  let tpl = prepare ?cfg program in
  make tpl tpl.layout keys rng

let clone t =
  {
    t with
    mem = Memory.copy t.mem;
    regs = Bytes.copy t.regs;
    hooks = t.hooks;
    out = t.out;
    obs_pac = Array.copy t.obs_pac;
    (* Memory.copy restarts its TLB miss counters at zero. *)
    obs_mark_dmiss = 0;
    obs_mark_xmiss = 0;
    (* ... and its generation counter: force a refill on the first step
       of the clone rather than trusting a stale-by-construction cache. *)
    xpages = Bytes.copy t.xpages;
    xcache_gen = stale_gen;
  }

(* --- contexts -------------------------------------------------------- *)

type context = {
  c_xregs : Word64.t array;
  c_sp : Word64.t;
  c_pc : Word64.t;
  c_flags : Cond.flags;
}

let save_context t =
  {
    c_xregs = Array.init 31 (fun i -> Bytes.get_int64_le t.regs (i lsl 3));
    c_sp = sp t;
    c_pc = pc t;
    c_flags = Cond.flags_of_bits t.flags_bits;
  }

let restore_context t c =
  for i = 0 to 30 do
    Bytes.set_int64_le t.regs (i lsl 3) c.c_xregs.(i)
  done;
  set t Reg.SP c.c_sp;
  set_pc t c.c_pc;
  t.flags_bits <- Cond.bits_of_flags c.c_flags

let context_pc c = c.c_pc

let context_get c = function
  | Reg.X n -> c.c_xregs.(n)
  | Reg.SP -> c.c_sp
  | Reg.XZR -> 0L

let flags_word (f : Cond.flags) =
  let b v i = if v then Int64.shift_left 1L i else 0L in
  Int64.logor (b f.n 3) (Int64.logor (b f.z 2) (Int64.logor (b f.c 1) (b f.v 0)))

let flags_of_word w =
  let b i = Word64.bit w i in
  { Cond.n = b 3; z = b 2; c = b 1; v = b 0 }

let context_words c =
  Array.concat [ c.c_xregs; [| c.c_sp; c.c_pc; flags_word c.c_flags |] ]

let context_of_words w =
  if Array.length w <> 34 then invalid_arg "Machine.context_of_words";
  {
    c_xregs = Array.sub w 0 31;
    c_sp = w.(31);
    c_pc = w.(32);
    c_flags = flags_of_word w.(33);
  }
