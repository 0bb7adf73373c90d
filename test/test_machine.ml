(* Tests for the machine simulator: memory, instruction semantics, faults,
   the kernel personality (fork/threads/signals) and the ACS-validating
   unwinder. *)

module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng
module Config = Pacstack_pa.Config
module Keys = Pacstack_pa.Keys
module Memory = Pacstack_machine.Memory
module Machine = Pacstack_machine.Machine
module Kernel = Pacstack_machine.Kernel
module Image = Pacstack_machine.Image
module Trap = Pacstack_machine.Trap
module Unwind = Pacstack_machine.Unwind
module Asm = Pacstack_isa.Asm
module Reg = Pacstack_isa.Reg
module Scheme = Pacstack_harden.Scheme

let check_w64 = Alcotest.testable Word64.pp Word64.equal

(* --- Memory ---------------------------------------------------------------- *)

let test_mem_map_load_store () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~size:4096 Memory.perm_rw;
  Memory.store64 m 0x1008L 0xdeadbeefL;
  Alcotest.check check_w64 "load back" 0xdeadbeefL (Memory.load64 m 0x1008L);
  Memory.store8 m 0x1000L 0xab;
  Alcotest.(check int) "byte" 0xab (Memory.load8 m 0x1000L)

let test_mem_little_endian () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:4096 Memory.perm_rw;
  Memory.store64 m 0L 0x0102030405060708L;
  Alcotest.(check int) "LSB first" 0x08 (Memory.load8 m 0L);
  Alcotest.(check int) "MSB last" 0x01 (Memory.load8 m 7L)

let test_mem_cross_page () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:8192 Memory.perm_rw;
  let addr = 0xffcL in
  Memory.store64 m addr 0x1122334455667788L;
  Alcotest.check check_w64 "cross-page roundtrip" 0x1122334455667788L (Memory.load64 m addr)

let test_mem_unmapped_fault () =
  let m = Memory.create () in
  Alcotest.check_raises "read" (Trap.Fault (Trap.Unmapped (0x5000L, Trap.Read))) (fun () ->
      ignore (Memory.load64 m 0x5000L))

let test_mem_wxorx () =
  Alcotest.check_raises "w+x refused" (Invalid_argument "Memory.map: W^X violation") (fun () ->
      Memory.map (Memory.create ()) ~addr:0L ~size:16
        { Memory.readable = true; writable = true; executable = true })

let test_mem_permissions () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:4096 Memory.perm_rx;
  Alcotest.check_raises "write to rx" (Trap.Fault (Trap.Permission (0x10L, Trap.Write)))
    (fun () -> Memory.store64 m 0x10L 1L);
  Memory.check_exec m 0x10L;
  Memory.map m ~addr:0x1000L ~size:4096 Memory.perm_rw;
  Alcotest.check_raises "exec of rw" (Trap.Fault (Trap.Permission (0x1000L, Trap.Execute)))
    (fun () -> Memory.check_exec m 0x1000L)

let test_mem_double_map () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:4096 Memory.perm_rw;
  Alcotest.check_raises "double map" (Invalid_argument "Memory.map: page 0 already mapped")
    (fun () -> Memory.map m ~addr:0L ~size:16 Memory.perm_rw);
  Memory.unmap m ~addr:0L ~size:4096;
  Memory.map m ~addr:0L ~size:4096 Memory.perm_r

let test_mem_peek_poke () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:4096 Memory.perm_rx;
  Memory.map m ~addr:0x1000L ~size:4096 Memory.perm_rw;
  Alcotest.(check bool) "peek unmapped" true (Memory.peek64 m 0x9000L = None);
  Alcotest.(check bool) "peek rx allowed" true (Memory.peek64 m 0x0L = Some 0L);
  Alcotest.(check bool) "poke rx refused" false (Memory.poke64 m 0x0L 1L);
  Alcotest.(check bool) "poke rw ok" true (Memory.poke64 m 0x1000L 5L);
  Alcotest.check check_w64 "poked" 5L (Memory.load64 m 0x1000L);
  (* poke straddling into an unwritable page must not partially write *)
  Alcotest.(check bool) "straddling poke refused" false (Memory.poke64 m 0xffcL 0x1234L);
  Alcotest.check check_w64 "no partial write" 0L
    (Word64.extract (Memory.load64 m 0x1000L) ~lo:32 ~width:16)

let test_mem_copy_independent () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:4096 Memory.perm_rw;
  Memory.store64 m 0L 1L;
  let c = Memory.copy m in
  Memory.store64 m 0L 2L;
  Alcotest.check check_w64 "copy unchanged" 1L (Memory.load64 c 0L)

let test_mem_word32 () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:8192 Memory.perm_rw;
  Memory.store32 m 0x10L 0xdeadbeefl;
  Alcotest.(check int32) "32-bit roundtrip" 0xdeadbeefl (Memory.load32 m 0x10L);
  Alcotest.(check int) "LSB first" 0xef (Memory.load8 m 0x10L);
  Alcotest.(check int) "MSB last" 0xde (Memory.load8 m 0x13L);
  let addr = 0xffeL in
  Memory.store32 m addr 0x11223344l;
  Alcotest.(check int32) "cross-page roundtrip" 0x11223344l (Memory.load32 m addr)

(* The one-entry TLBs must never let a cached translation outlive a
   permission change: populate the TLB, drop the permission, and the very
   next access has to fault. *)

let perm_none = { Memory.readable = false; writable = false; executable = false }

let test_mem_tlb_protect () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~size:4096 Memory.perm_rw;
  Memory.store64 m 0x1000L 0x42L;
  Alcotest.check check_w64 "read populates TLB" 0x42L (Memory.load64 m 0x1000L);
  Memory.protect m ~addr:0x1000L ~size:4096 perm_none;
  Alcotest.check_raises "stale-TLB read after protect"
    (Trap.Fault (Trap.Permission (0x1000L, Trap.Read)))
    (fun () -> ignore (Memory.load64 m 0x1000L));
  Alcotest.check_raises "stale-TLB write after protect"
    (Trap.Fault (Trap.Permission (0x1000L, Trap.Write)))
    (fun () -> Memory.store64 m 0x1000L 1L);
  (* restoring the permission restores access, contents intact *)
  Memory.protect m ~addr:0x1000L ~size:4096 Memory.perm_r;
  Alcotest.check check_w64 "contents survive protect" 0x42L (Memory.load64 m 0x1000L)

let test_mem_tlb_unmap () =
  let m = Memory.create () in
  Memory.map m ~addr:0x2000L ~size:4096 Memory.perm_rw;
  Memory.store64 m 0x2000L 0x99L;
  Alcotest.check check_w64 "read populates TLB" 0x99L (Memory.load64 m 0x2000L);
  Memory.unmap m ~addr:0x2000L ~size:4096;
  Alcotest.check_raises "stale-TLB read after unmap"
    (Trap.Fault (Trap.Unmapped (0x2000L, Trap.Read)))
    (fun () -> ignore (Memory.load64 m 0x2000L));
  (* remapping must not resurrect the old page's contents *)
  Memory.map m ~addr:0x2000L ~size:4096 Memory.perm_rw;
  Alcotest.check check_w64 "remapped page is zero" 0L (Memory.load64 m 0x2000L)

let test_mem_tlb_exec () =
  let m = Memory.create () in
  Memory.map m ~addr:0x4000L ~size:4096 Memory.perm_rx;
  Memory.check_exec m 0x4000L;
  (* populated x-TLB *)
  Memory.protect m ~addr:0x4000L ~size:4096 Memory.perm_rw;
  Alcotest.check_raises "stale-TLB exec after protect"
    (Trap.Fault (Trap.Permission (0x4000L, Trap.Execute)))
    (fun () -> Memory.check_exec m 0x4000L);
  Memory.protect m ~addr:0x4000L ~size:4096 Memory.perm_rx;
  Memory.check_exec m 0x4000L;
  Memory.unmap m ~addr:0x4000L ~size:4096;
  Alcotest.check_raises "stale-TLB exec after unmap"
    (Trap.Fault (Trap.Unmapped (0x4000L, Trap.Execute)))
    (fun () -> Memory.check_exec m 0x4000L)

let test_mem_ranges () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~size:8192 Memory.perm_rw;
  Memory.map m ~addr:0x10000L ~size:4096 Memory.perm_rx;
  match Memory.mapped_ranges m with
  | [ (a1, s1, _); (a2, s2, _) ] ->
    Alcotest.check check_w64 "first base" 0L a1;
    Alcotest.(check int) "first size" 8192 s1;
    Alcotest.check check_w64 "second base" 0x10000L a2;
    Alcotest.(check int) "second size" 4096 s2
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 runs, got %d" (List.length rs))

(* --- Machine semantics ------------------------------------------------------ *)

let run_asm ?cfg src =
  let m = Machine.load ?cfg (Asm.parse src) in
  (Machine.run ~fuel:100_000 m, m)

let expect_output src expected =
  match run_asm src with
  | Machine.Halted 0, m ->
    Alcotest.(check (list int64)) "output" expected (Machine.output m)
  | Machine.Halted c, _ -> Alcotest.fail (Printf.sprintf "exit %d" c)
  | Machine.Faulted f, _ -> Alcotest.fail (Trap.to_string f)
  | Machine.Out_of_fuel, _ -> Alcotest.fail "fuel"

let test_arithmetic () =
  expect_output
    {|.entry main
.func main
  mov x1, #10
  mov x2, #3
  add x3, x1, x2
  mov x0, x3
  svc #1
  sub x3, x1, x2
  mov x0, x3
  svc #1
  mul x3, x1, x2
  mov x0, x3
  svc #1
  udiv x3, x1, x2
  mov x0, x3
  svc #1
  mov x4, #0
  udiv x3, x1, x4
  mov x0, x3
  svc #1
  mov x0, #0
  hlt
.endfunc|}
    [ 13L; 7L; 30L; 3L; 0L ]

let test_logic_shifts () =
  expect_output
    {|.entry main
.func main
  mov x1, #12
  mov x2, #10
  and x0, x1, x2
  svc #1
  orr x0, x1, x2
  svc #1
  eor x0, x1, x2
  svc #1
  lsl x0, x1, #2
  svc #1
  lsr x0, x1, #2
  svc #1
  mov x0, #0
  hlt
.endfunc|}
    [ 8L; 14L; 6L; 48L; 3L ]

let test_branches () =
  expect_output
    {|.entry main
.func main
  mov x1, #0
  mov x2, #0
loop:
  add x2, x2, x1
  add x1, x1, #1
  cmp x1, #5
  b.lt loop
  mov x0, x2
  svc #1
  cbz x1, bad
  cbnz x2, good
bad:
  mov x0, #99
  svc #1
good:
  mov x0, #0
  hlt
.endfunc|}
    [ 10L ]

let test_stack_pair_ops () =
  expect_output
    {|.entry main
.func main
  mov x1, #111
  mov x2, #222
  stp x1, x2, [sp, #-16]!
  mov x1, #0
  mov x2, #0
  ldp x1, x2, [sp], #16
  mov x0, x1
  svc #1
  mov x0, x2
  svc #1
  mov x0, #0
  hlt
.endfunc|}
    [ 111L; 222L ]

let test_call_return () =
  expect_output
    {|.entry main
.func main
  mov x0, #5
  bl addseven
  svc #1
  adr x9, addseven
  mov x0, #10
  blr x9
  svc #1
  mov x0, #0
  hlt
.endfunc
.func addseven
  add x0, x0, #7
  ret
.endfunc|}
    [ 12L; 17L ]

let test_write_to_code_faults () =
  match run_asm ".entry main\n.func main\n  adr x1, main\n  str x1, [x1]\n  hlt\n.endfunc" with
  | Machine.Faulted (Trap.Permission (_, Trap.Write)), _ -> ()
  | _ -> Alcotest.fail "expected W^X fault"

let test_exec_of_data_faults () =
  match
    run_asm ".data buf 16\n.entry main\n.func main\n  adr x1, buf\n  br x1\n  hlt\n.endfunc"
  with
  | Machine.Faulted (Trap.Permission (_, Trap.Execute)), _ -> ()
  | _ -> Alcotest.fail "expected execute fault"

let test_noncanonical_load_faults () =
  match
    run_asm
      ".entry main\n.func main\n  mov x1, #1\n  lsl x1, x1, #62\n  ldr x2, [x1]\n  hlt\n.endfunc"
  with
  | Machine.Faulted (Trap.Translation (_, Trap.Read)), _ -> ()
  | _ -> Alcotest.fail "expected translation fault"

let test_retaa_roundtrip () =
  (* paciasp at entry, retaa at exit: the Listing 1 pattern *)
  expect_output
    {|.entry main
.func main
  mov x0, #1
  bl protected
  svc #1
  mov x0, #0
  hlt
.endfunc
.func protected
  paciasp
  stp fp, lr, [sp, #-16]!
  add x0, x0, #41
  ldp fp, lr, [sp], #16
  retaa
.endfunc|}
    [ 42L ]

let test_retaa_detects_corruption () =
  (* overwriting the signed return address with a plain one faults *)
  match
    run_asm
      {|.entry main
.func main
  bl victim
  hlt
.endfunc
.func victim
  paciasp
  stp fp, lr, [sp, #-16]!
  adr x9, main
  str x9, [sp, #8]
  ldp fp, lr, [sp], #16
  retaa
.endfunc|}
  with
  | Machine.Faulted (Trap.Translation (_, Trap.Execute)), _ -> ()
  | r, _ ->
    Alcotest.fail
      (match r with
      | Machine.Halted c -> Printf.sprintf "halted %d" c
      | Machine.Faulted f -> Trap.to_string f
      | Machine.Out_of_fuel -> "fuel")

let test_pacia_autia_machine () =
  expect_output
    {|.entry main
.func main
  mov x1, #4096
  mov x2, #77
  pacia x1, x2
  autia x1, x2
  mov x0, x1
  svc #1
  mov x0, #0
  hlt
.endfunc|}
    [ 4096L ]

let test_xpaci () =
  expect_output
    {|.entry main
.func main
  mov x1, #4096
  mov x2, #77
  pacia x1, x2
  xpaci x1
  mov x0, x1
  svc #1
  mov x0, #0
  hlt
.endfunc|}
    [ 4096L ]

let test_hooks () =
  let m = Machine.load (Asm.parse ".entry main\n.func main\n  hook probe\n  mov x0, #0\n  hlt\n.endfunc") in
  let fired = ref 0 in
  Machine.attach_hook m "probe" (fun _ -> incr fired);
  ignore (Machine.run m);
  Alcotest.(check int) "hook fired once" 1 !fired

let test_clone_independent () =
  let m = Machine.load (Asm.parse ".entry main\n.func main\n  mov x0, #0\n  hlt\n.endfunc") in
  let c = Machine.clone m in
  Machine.set m (Reg.x 5) 9L;
  Alcotest.check check_w64 "clone regs isolated" 0L (Machine.get c (Reg.x 5));
  (* data_base holds the canary guard; use an untouched slot further in *)
  let slot = Int64.add Image.data_base 64L in
  Memory.store64 (Machine.memory m) slot 3L;
  Alcotest.check check_w64 "clone memory isolated" 0L (Memory.load64 (Machine.memory c) slot)

(* [instantiate] of a [prepare]d template is [load]: the same seed gives
   the same registers, memory, keys and run, for schemes that use the
   keys (pacstack) and the canary (stack protector). Likewise
   [Kernel.spawn] of a template is [Kernel.boot] of its program, both
   drawing keys in the order [boot] always has. Every seed instantiates
   after the previous seed's instances ran, so the templates are also
   checked to be untouched by them. *)
let test_instantiate_matches_load () =
  let cfg = Config.make ~pac_bits:12 () in
  let regs m = Machine.context_words (Machine.save_context m) in
  let digest m = Memory.digest (Machine.memory m) in
  List.iter
    (fun scheme ->
      let program = Pacstack_minic.Compile.compile ~scheme (Pacstack_inject.Victim.program ()) in
      let template = Machine.prepare ~cfg program in
      let boot_template = Machine.prepare program in
      let check seed what ok =
        Alcotest.(check bool)
          (Printf.sprintf "%s, seed %Ld: %s" (Scheme.to_string scheme) seed what)
          true ok
      in
      let same seed how a b =
        check seed (how ^ "registers") (regs a = regs b);
        check seed (how ^ "memory") (Int64.equal (digest a) (digest b));
        check seed (how ^ "keys") (Keys.equal (Machine.keys a) (Machine.keys b));
        let oa = Machine.run a and ob = Machine.run b in
        check seed (how ^ "outcome")
          (oa = ob && match oa with Machine.Halted _ -> true | _ -> false);
        check seed (how ^ "output") (Machine.output a = Machine.output b);
        check seed (how ^ "cycles") (Machine.cycles a = Machine.cycles b);
        check seed (how ^ "end state") (Int64.equal (digest a) (digest b))
      in
      List.iter
        (fun seed ->
          same seed ""
            (Machine.load ~cfg ~rng:(Rng.create seed) program)
            (Machine.instantiate ~rng:(Rng.create seed) template);
          (* explicit keys: the generator then only seeds the canary *)
          let keys = Keys.generate ~fast:true (Rng.create (Int64.neg seed)) in
          same seed "given keys: "
            (Machine.load ~cfg ~keys ~rng:(Rng.create seed) program)
            (Machine.instantiate ~keys ~rng:(Rng.create seed) template);
          (* the kernel draws the process keys, then the canary's
             generator, from its own stream *)
          let boot_order () =
            let rng = Rng.create seed in
            let keys = Keys.generate ~fast:true rng in
            Machine.load ~keys ~rng:(Rng.split rng) program
          in
          let kernel () = Kernel.create (Rng.create seed) in
          same seed "boot: " (boot_order ()) (Kernel.machine (Kernel.boot (kernel ()) program));
          same seed "spawn: " (boot_order ())
            (Kernel.machine (Kernel.spawn (kernel ()) boot_template)))
        [ 1L; 2L; 0x5eedL ];
      Alcotest.(check bool) "fresh keys per seed" false
        (Keys.equal
           (Machine.keys (Machine.instantiate ~rng:(Rng.create 1L) template))
           (Machine.keys (Machine.instantiate ~rng:(Rng.create 2L) template))))
    [ Scheme.pacstack; Scheme.stack_protector ]

(* Unlike [clone], instances do not share hooks or the syscall handler:
   a hook attached to one instance never fires in a sibling, and a
   sibling's handler does not leak into an instance. *)
let test_instantiate_own_hooks () =
  let template =
    Machine.prepare
      (Asm.parse
         ".entry main\n.func main\n  hook probe\n  mov x0, #5\n  svc #1\n  mov x0, #0\n  hlt\n.endfunc")
  in
  let a = Machine.instantiate template and b = Machine.instantiate template in
  let fired = ref 0 in
  Machine.attach_hook a "probe" (fun _ -> incr fired);
  Machine.set_syscall_handler a (fun m _ -> Machine.set_halted m 0);
  ignore (Machine.run b);
  Alcotest.(check int) "sibling instance: hook not fired" 0 !fired;
  Alcotest.(check (list int64)) "default syscall handler" [ 5L ] (Machine.output b);
  ignore (Machine.run a);
  Alcotest.(check int) "own instance: hook fired" 1 !fired;
  Alcotest.(check (list int64)) "own syscall handler" [] (Machine.output a);
  ignore (Machine.run (Machine.instantiate template));
  Alcotest.(check int) "later instance: hook not fired" 1 !fired

let test_context_words_roundtrip () =
  let m = Machine.load (Asm.parse ".entry main\n.func main\n  hlt\n.endfunc") in
  Machine.set m (Reg.x 7) 0x77L;
  let ctx = Machine.save_context m in
  let words = Machine.context_words ctx in
  Alcotest.(check int) "34 words" 34 (Array.length words);
  let ctx2 = Machine.context_of_words words in
  Alcotest.check check_w64 "x7 preserved" 0x77L (Machine.context_get ctx2 (Reg.x 7));
  Alcotest.check check_w64 "pc preserved" (Machine.pc m) (Machine.context_pc ctx2)

let test_xzr_semantics () =
  expect_output
    {|.entry main
.func main
  mov xzr, #5
  mov x0, xzr
  svc #1
  mov x0, #0
  hlt
.endfunc|}
    [ 0L ]

(* --- Kernel ------------------------------------------------------------------ *)

let boot src =
  let k = Kernel.create (Rng.create 1L) in
  let p = Kernel.boot k (Asm.parse src) in
  (k, p, Kernel.machine p)

let test_kernel_fork () =
  let k, p, m =
    boot
      {|.entry main
.func main
  svc #2
  svc #1
  mov x0, #0
  hlt
.endfunc|}
  in
  (match Kernel.run k p with
  | Machine.Halted 0 -> ()
  | _ -> Alcotest.fail "parent failed");
  (* parent printed the child pid *)
  (match Machine.output m with
  | [ pid ] -> Alcotest.(check bool) "child pid positive" true (pid > 0L)
  | _ -> Alcotest.fail "expected one output");
  match Kernel.children k p with
  | [ child ] -> (
    (* child resumes after the svc with x0 = 0 and prints it *)
    match Kernel.run k child with
    | Machine.Halted 0 ->
      Alcotest.(check (list int64)) "child printed 0" [ 0L ]
        (Machine.output (Kernel.machine child));
      Alcotest.(check bool) "keys shared" true
        (Keys.equal (Machine.keys m) (Machine.keys (Kernel.machine child)))
    | _ -> Alcotest.fail "child failed")
  | _ -> Alcotest.fail "expected one child"

let test_kernel_exec_regenerates_keys () =
  let k, p, m = boot ".entry main\n.func main\n  mov x0, #0\n  hlt\n.endfunc" in
  let keys_before = Machine.keys m in
  Kernel.exec k p (Asm.parse ".entry main\n.func main\n  mov x0, #0\n  hlt\n.endfunc");
  Alcotest.(check bool) "fresh keys on exec" false
    (Keys.equal keys_before (Machine.keys (Kernel.machine p)))

let test_kernel_getpid () =
  let k, p, m =
    boot ".entry main\n.func main\n  svc #6\n  svc #1\n  mov x0, #0\n  hlt\n.endfunc"
  in
  ignore (Kernel.run k p);
  Alcotest.(check (list int64)) "pid printed" [ Int64.of_int (Kernel.pid p) ] (Machine.output m)

let thread_src =
  {|.entry main
.func main
  adr x0, worker
  mov x1, #1
  lsl x1, x1, #38
  svc #3
  svc #4
  mov x0, #2
  svc #1
  mov x0, #0
  hlt
.endfunc
.func worker
  mov x0, #1
  svc #1
  svc #4
  hlt
.endfunc|}

let test_kernel_threads () =
  (* main spawns a worker, yields to it, worker prints then yields back *)
  let k, p, m = boot thread_src in
  (match Kernel.run k p with
  | Machine.Halted 0 -> ()
  | Machine.Halted c -> Alcotest.fail (Printf.sprintf "exit %d" c)
  | Machine.Faulted f -> Alcotest.fail (Trap.to_string f)
  | Machine.Out_of_fuel -> Alcotest.fail "fuel");
  Alcotest.(check (list int64)) "worker ran between yields" [ 1L; 2L ] (Machine.output m)

let test_thread_context_not_in_user_memory () =
  (* §5.4: a suspended thread's registers live in the kernel, so no scan of
     user memory can find a sentinel value parked in a register *)
  let sentinel = 0x5e17_13e1_dead_beefL in
  let k, p, m =
    boot
      {|.entry main
.func main
  adr x0, worker
  mov x1, #1
  lsl x1, x1, #38
  svc #3
  svc #4
  mov x0, #0
  hlt
.endfunc
.func worker
  svc #4
  hlt
.endfunc|}
  in
  (* run until the worker has been spawned and we are back in main *)
  Machine.set m (Reg.x 27) sentinel;
  let rec step_until_spawned () =
    if Kernel.thread_count p = 0 && Machine.halted m = None then (
      Machine.step m;
      step_until_spawned ())
  in
  step_until_spawned ();
  Alcotest.(check bool) "thread parked" true (Kernel.thread_count p > 0);
  let found = ref false in
  List.iter
    (fun (base, size, _) ->
      let words = size / 8 in
      for i = 0 to words - 1 do
        match Memory.peek64 (Machine.memory m) (Int64.add base (Int64.of_int (8 * i))) with
        | Some v when Word64.equal v sentinel -> found := true
        | _ -> ()
      done)
    (Memory.mapped_ranges (Machine.memory m));
  ignore (Kernel.run k p);
  Alcotest.(check bool) "sentinel never hit user memory" false !found

let signal_src =
  {|.entry main
.func main
  mov x1, #0
loop:
  add x1, x1, #1
  cmp x1, #2000
  b.lt loop
  mov x0, x1
  svc #1
  mov x0, #0
  hlt
.endfunc
.func handler
  mov x0, #41
  svc #1
  ret
.endfunc|}

let test_signal_roundtrip () =
  let k, p, m = boot signal_src in
  for _ = 1 to 50 do Machine.step m done;
  let x1_before = Machine.get m (Reg.x 1) in
  Kernel.deliver_signal k p ~handler:"handler" ~signum:7;
  Alcotest.(check int) "depth 1" 1 (Kernel.signal_depth p);
  (match Kernel.run k p with
  | Machine.Halted 0 -> ()
  | _ -> Alcotest.fail "run failed");
  ignore x1_before;
  Alcotest.(check (list int64)) "handler then main" [ 41L; 2000L ] (Machine.output m);
  Alcotest.(check int) "depth restored" 0 (Kernel.signal_depth p)

let test_chained_sigreturn_rejects_forgery () =
  let k, p, m =
    let kernel = Kernel.create ~signal_policy:Kernel.Sig_chained (Rng.create 2L) in
    let p = Kernel.boot kernel (Asm.parse signal_src) in
    (kernel, p, Kernel.machine p)
  in
  for _ = 1 to 50 do Machine.step m done;
  Kernel.deliver_signal k p ~handler:"handler" ~signum:7;
  (* adversary corrupts the saved PC in the signal frame *)
  let sp = Machine.get m Reg.SP in
  let pc_slot = Int64.add sp (Int64.of_int (8 * 32)) in
  Memory.store64 (Machine.memory m) pc_slot 0x4242L;
  (match Kernel.run k p with
  | Machine.Halted 139 -> ()
  | Machine.Halted c -> Alcotest.fail (Printf.sprintf "exit %d, wanted kill 139" c)
  | Machine.Faulted f -> Alcotest.fail (Trap.to_string f)
  | Machine.Out_of_fuel -> Alcotest.fail "fuel")

let test_unprotected_sigreturn_accepts_forgery () =
  let k = Kernel.create ~signal_policy:Kernel.Sig_unprotected (Rng.create 2L) in
  let p = Kernel.boot k (Asm.parse signal_src) in
  let m = Kernel.machine p in
  for _ = 1 to 50 do Machine.step m done;
  Kernel.deliver_signal k p ~handler:"handler" ~signum:7;
  let sp = Machine.get m Reg.SP in
  (* corrupt saved x1 so the loop terminates immediately: mainline kernels
     restore whatever the frame says *)
  Memory.store64 (Machine.memory m) (Int64.add sp 8L) 1_999_999L;
  (match Kernel.run k p with
  | Machine.Halted 0 -> ()
  | _ -> Alcotest.fail "run failed");
  match Machine.output m with
  | [ 41L; v ] -> Alcotest.(check bool) "forged register honoured" true (v >= 1_999_999L)
  | _ -> Alcotest.fail "unexpected output"

let test_run_all_processes () =
  (* parent forks a child; both then do independent work; the round-robin
     scheduler completes both *)
  let src =
    {|.entry main
.func main
  svc #2
  cbz x0, child
  mov x1, #0
ploop:
  add x1, x1, #1
  cmp x1, #300
  b.lt ploop
  mov x0, #10
  svc #1
  mov x0, #0
  hlt
child:
  mov x1, #0
cloop:
  add x1, x1, #1
  cmp x1, #500
  b.lt cloop
  mov x0, #20
  svc #1
  mov x0, #0
  hlt
.endfunc|}
  in
  let k = Kernel.create (Rng.create 8L) in
  let parent = Kernel.boot k (Asm.parse src) in
  let outcomes = Kernel.run_all ~quantum:64 k in
  Alcotest.(check int) "two processes" 2 (List.length outcomes);
  List.iter
    (fun (p, o) ->
      match o with
      | Machine.Halted 0 -> ()
      | _ -> Alcotest.fail (Printf.sprintf "process %d did not finish" (Kernel.pid p)))
    outcomes;
  Alcotest.(check (list int64)) "parent output" [ 10L ]
    (Machine.output (Kernel.machine parent));
  match Kernel.children k parent with
  | [ child ] ->
    Alcotest.(check (list int64)) "child output" [ 20L ] (Machine.output (Kernel.machine child))
  | _ -> Alcotest.fail "expected one child"

let test_chained_full_rejects_any_register () =
  (* the pacga-over-everything variant detects forgery of a register the
     plain chain does not cover *)
  let forged_x5 policy =
    let k = Kernel.create ~signal_policy:policy (Rng.create 2L) in
    let p = Kernel.boot k (Asm.parse signal_src) in
    let m = Kernel.machine p in
    for _ = 1 to 50 do Machine.step m done;
    Kernel.deliver_signal k p ~handler:"handler" ~signum:7;
    let sp = Machine.get m Reg.SP in
    Memory.store64 (Machine.memory m) (Int64.add sp (Int64.of_int (8 * 5))) 0xbadL;
    Kernel.run k p
  in
  (match forged_x5 Kernel.Sig_chained with
  | Machine.Halted 0 -> ()  (* PC/CR-only chain accepts the forged X5 *)
  | _ -> Alcotest.fail "plain chain should accept a forged X5");
  match forged_x5 Kernel.Sig_chained_full with
  | Machine.Halted 139 -> ()
  | _ -> Alcotest.fail "full chain should kill the forger"

let test_chained_full_benign () =
  let k = Kernel.create ~signal_policy:Kernel.Sig_chained_full (Rng.create 2L) in
  let p = Kernel.boot k (Asm.parse signal_src) in
  let m = Kernel.machine p in
  for _ = 1 to 50 do Machine.step m done;
  Kernel.deliver_signal k p ~handler:"handler" ~signum:7;
  match Kernel.run k p with
  | Machine.Halted 0 ->
    Alcotest.(check (list int64)) "output" [ 41L; 2000L ] (Machine.output m)
  | _ -> Alcotest.fail "benign signal failed under full chaining"

let test_guest_mprotect () =
  let src =
    {|.data buf 4096
.entry main
.func main
  adr x0, main
  mov x1, #4096
  mov x2, #7
  svc #7
  svc #1
  adr x0, buf
  mov x1, #4096
  mov x2, #4
  svc #7
  svc #1
  adr x3, buf
  str x3, [x3]
  mov x0, #0
  hlt
.endfunc|}
  in
  let k = Kernel.create (Rng.create 3L) in
  let p = Kernel.boot k (Asm.parse src) in
  let m = Kernel.machine p in
  match Kernel.run k p with
  | Machine.Faulted (Trap.Permission (_, Trap.Write)) ->
    (* W+X on code refused, read-only remap succeeded, then the store to
       the now read-only data page faulted *)
    Alcotest.(check (list int64)) "syscall results" [ -1L; 0L ] (Machine.output m)
  | r ->
    Alcotest.fail
      (match r with
      | Machine.Halted c -> Printf.sprintf "halted %d" c
      | Machine.Faulted f -> Trap.to_string f
      | Machine.Out_of_fuel -> "fuel")

(* --- preemptive scheduling -------------------------------------------------------- *)

let preemptive_src =
  {|.data c1 8
.data c2 8
.entry main
.func main
  adr x0, worker
  mov x1, #1
  lsl x1, x1, #38
  svc #3
  mov x2, #0
  adr x3, c1
mainloop:
  ldr x4, [x3]
  add x4, x4, #1
  str x4, [x3]
  add x2, x2, #1
  cmp x2, #400
  b.lt mainloop
  mov x0, #0
  hlt
.endfunc
.func worker
  adr x3, c2
wloop:
  ldr x4, [x3]
  add x4, x4, #1
  str x4, [x3]
  b wloop
.endfunc|}

let test_preemptive_scheduling () =
  (* neither thread ever yields; only the timer interleaves them *)
  let k = Kernel.create (Rng.create 5L) in
  let p = Kernel.boot k (Asm.parse preemptive_src) in
  let m = Kernel.machine p in
  (match Kernel.run_preemptive ~quantum:50 k p with
  | Machine.Halted 0 -> ()
  | Machine.Halted c -> Alcotest.fail (Printf.sprintf "exit %d" c)
  | Machine.Faulted f -> Alcotest.fail (Trap.to_string f)
  | Machine.Out_of_fuel -> Alcotest.fail "fuel");
  let read sym = Memory.load64 (Machine.memory m) (Option.get (Image.symbol (Machine.image m) sym)) in
  Alcotest.(check int64) "main finished its count" 400L (read "c1");
  Alcotest.(check bool) "worker progressed without yielding" true (read "c2" > 0L);
  (* without preemption the worker never runs *)
  let k2 = Kernel.create (Rng.create 5L) in
  let p2 = Kernel.boot k2 (Asm.parse preemptive_src) in
  (match Kernel.run k2 p2 with Machine.Halted 0 -> () | _ -> Alcotest.fail "plain run failed");
  let m2 = Kernel.machine p2 in
  let read2 sym = Memory.load64 (Machine.memory m2) (Option.get (Image.symbol (Machine.image m2) sym)) in
  Alcotest.(check int64) "cooperative run starves the worker" 0L (read2 "c2")

(* --- debugger ----------------------------------------------------------------------- *)

module Debug = Pacstack_machine.Debug

let debug_machine () =
  Machine.load
    (Asm.parse
       {|.data counter 8
.entry main
.func main
  bl helper
  bl helper
  mov x0, #0
  hlt
.endfunc
.func helper
  stp fp, lr, [sp, #-16]!
  mov fp, sp
  adr x1, counter
  ldr x2, [x1]
  add x2, x2, #1
  str x2, [x1]
  ldp fp, lr, [sp], #16
  ret
.endfunc|})

let test_debug_breakpoints () =
  let m = debug_machine () in
  let d = Debug.create m in
  Debug.break_at d "helper";
  (match Debug.continue_ d with
  | Debug.Breakpoint _ -> Alcotest.(check string) "stopped at entry" "helper+0" (Debug.where d)
  | _ -> Alcotest.fail "expected first breakpoint");
  (match Debug.continue_ d with
  | Debug.Breakpoint _ -> ()
  | _ -> Alcotest.fail "expected second breakpoint");
  match Debug.continue_ d with
  | Debug.Halted 0 -> ()
  | _ -> Alcotest.fail "expected halt"

let test_debug_watchpoint () =
  let m = debug_machine () in
  let d = Debug.create m in
  let counter = Option.get (Image.symbol (Machine.image m) "counter") in
  Debug.watch d counter;
  match Debug.continue_ d with
  | Debug.Watchpoint (addr, old, now) ->
    Alcotest.(check int64) "address" counter addr;
    Alcotest.(check int64) "old" 0L old;
    Alcotest.(check int64) "new" 1L now
  | _ -> Alcotest.fail "expected watchpoint"

let test_debug_inspection () =
  let m = debug_machine () in
  let d = Debug.create m in
  Debug.break_at d "helper";
  (match Debug.continue_ d with Debug.Breakpoint _ -> () | _ -> Alcotest.fail "no bp");
  (* step into the prologue so the frame record exists *)
  ignore (Debug.step d);
  ignore (Debug.step d);
  let bt = Debug.backtrace d in
  Alcotest.(check bool) "backtrace mentions main" true
    (List.exists (fun s -> s = "main") bt);
  Alcotest.(check bool) "disassembly marks pc" true
    (String.length (Debug.disassemble_around d) > 0);
  Debug.clear d;
  match Debug.continue_ d with
  | Debug.Halted 0 -> ()
  | _ -> Alcotest.fail "clear removed breakpoints"

(* --- Unwinder ------------------------------------------------------------------ *)

let pacstack_chain_src =
  (* three nested PACStack-instrumented functions, then a hook *)
  let module B = Pacstack_minic.Build in
  let module Ast = Pacstack_minic.Ast in
  Pacstack_minic.Compile.compile ~scheme:Scheme.pacstack
    (Ast.program
       [
         Ast.fdef "f3" ~locals:[ Ast.Scalar "t" ]
           B.[ Ast.Hook "probe"; set "t" (call "id" [ i 3 ]); ret (v "t") ];
         Ast.fdef "id" ~params:[ "x" ] B.[ ret (v "x") ];
         Ast.fdef "f2" ~locals:[ Ast.Scalar "t" ] B.[ set "t" (call "f3" []); ret (v "t") ];
         Ast.fdef "f1" ~locals:[ Ast.Scalar "t" ] B.[ set "t" (call "f2" []); ret (v "t") ];
         Ast.fdef "main" ~locals:[ Ast.Scalar "t" ]
           B.[ set "t" (call "f1" []); print (v "t"); ret (i 0) ];
       ])

let test_unwind_backtrace () =
  let m = Machine.load pacstack_chain_src in
  let seen = ref [] in
  Machine.attach_hook m "probe" (fun m ->
      match Unwind.backtrace m with
      | Ok frames -> seen := List.filter_map (fun f -> f.Unwind.func) frames
      | Error e -> Alcotest.fail e.Unwind.reason);
  (match Machine.run m with
  | Machine.Halted 0 -> ()
  | _ -> Alcotest.fail "victim failed");
  Alcotest.(check (list string)) "call chain" [ "f2"; "f1"; "main"; "__halt" ] !seen

let test_unwind_detects_tamper () =
  let m = Machine.load pacstack_chain_src in
  let result = ref None in
  Machine.attach_hook m "probe" (fun m ->
      (* corrupt the deepest stored chain value, then unwind *)
      let fp = Machine.get m Reg.fp in
      let slot = Int64.sub fp 16L in
      let v = Option.get (Memory.peek64 (Machine.memory m) slot) in
      ignore (Memory.poke64 (Machine.memory m) slot (Int64.logxor v 0xff00000000L));
      result := Some (Unwind.backtrace m));
  ignore (Machine.run m);
  match !result with
  | Some (Error e) ->
    Alcotest.(check int) "fails at the first frame" 0 e.Unwind.depth;
    Alcotest.(check string) "authentication failure" "authentication failure" e.Unwind.reason
  | Some (Ok _) -> Alcotest.fail "tampered chain unwound successfully"
  | None -> Alcotest.fail "hook never fired"

let test_unwind_max_depth () =
  let m = Machine.load pacstack_chain_src in
  let result = ref None in
  Machine.attach_hook m "probe" (fun m -> result := Some (Unwind.backtrace ~max_depth:2 m));
  ignore (Machine.run m);
  match !result with
  | Some (Error e) -> Alcotest.(check string) "depth limit" "max depth exceeded" e.Unwind.reason
  | _ -> Alcotest.fail "expected depth error"

(* --- Profile ---------------------------------------------------------------- *)

module Profile = Pacstack_machine.Profile

let test_profile_attribution () =
  let m = Machine.load pacstack_chain_src in
  let p = Profile.attach m in
  (match Machine.run m with Machine.Halted 0 -> () | _ -> Alcotest.fail "run failed");
  (* every function in the chain was activated exactly once, id twice
     (once from f3, once... no — once) *)
  List.iter
    (fun name ->
      match Profile.entry_of p name with
      | Some e ->
        Alcotest.(check int) (name ^ " activations") 1 e.Profile.activations;
        Alcotest.(check bool) (name ^ " cycles counted") true (e.Profile.cycles > 0)
      | None -> Alcotest.fail (name ^ " not profiled"))
    [ "f1"; "f2"; "f3"; "id" ];
  Alcotest.(check bool) "edges include main->f1" true
    (List.mem_assoc ("main", "f1") (Profile.call_edges p));
  Alcotest.(check bool) "density positive" true (Profile.call_density p > 0.0);
  Alcotest.(check int) "total calls" 4 (Profile.total_calls p)

let test_profile_detach () =
  let m = Machine.load pacstack_chain_src in
  let p = Profile.attach m in
  Profile.detach m;
  ignore (Machine.run m);
  Alcotest.(check int) "no attribution after detach" 0 (Profile.total_calls p)

(* --- validated longjmp -------------------------------------------------------- *)

let unwind_victim_m () =
  Machine.load
    (Pacstack_minic.Compile.compile ~scheme:Scheme.pacstack
       (Pacstack_workloads.Scenarios.unwind_victim ~depth:4))

let test_validated_longjmp_transfers () =
  let m = unwind_victim_m () in
  let fired = ref false in
  Machine.attach_hook m "deep" (fun m ->
      fired := true;
      let jb = Option.get (Image.symbol (Machine.image m) "jb") in
      match Unwind.validated_longjmp m ~jmp_buf:jb ~value:55L with
      | Ok d -> Alcotest.(check bool) "unwound several frames" true (d > 0)
      | Error e -> Alcotest.fail e.Unwind.reason);
  (match Machine.run ~fuel:1_000_000 m with
  | Machine.Halted 0 -> ()
  | _ -> Alcotest.fail "victim failed");
  Alcotest.(check bool) "hook fired" true !fired;
  Alcotest.(check (list int64)) "landed with the value" [ 55L ] (Machine.output m)

let test_validated_longjmp_zero_becomes_one () =
  let m = unwind_victim_m () in
  Machine.attach_hook m "deep" (fun m ->
      let jb = Option.get (Image.symbol (Machine.image m) "jb") in
      ignore (Unwind.validated_longjmp m ~jmp_buf:jb ~value:0L));
  ignore (Machine.run ~fuel:1_000_000 m);
  Alcotest.(check (list int64)) "longjmp(0) delivers 1" [ 1L ] (Machine.output m)

let test_validated_longjmp_rejects_forgery () =
  let m = unwind_victim_m () in
  let result = ref None in
  Machine.attach_hook m "deep" (fun m ->
      let jb = Option.get (Image.symbol (Machine.image m) "jb") in
      (* corrupt the buffer's bound return address *)
      let slot = Int64.add jb 88L in
      let v = Option.get (Memory.peek64 (Machine.memory m) slot) in
      ignore (Memory.poke64 (Machine.memory m) slot (Int64.logxor v 0x1234L));
      result := Some (Unwind.validated_longjmp m ~jmp_buf:jb ~value:55L));
  ignore (Machine.run ~fuel:1_000_000 m);
  match !result with
  | Some (Error e) ->
    Alcotest.(check string) "refused" "jmp_buf return address failed authentication"
      e.Unwind.reason
  | Some (Ok _) -> Alcotest.fail "forged jmp_buf accepted"
  | None -> Alcotest.fail "hook never fired"

(* --- forward CFI + code bytes --------------------------------------------------- *)

let test_forward_cfi_blocks_midfunction () =
  let src =
    ".entry main\n.func main\n  adr x9, main\n  add x9, x9, #8\n  blr x9\n  hlt\n.endfunc\n"
  in
  let m = Machine.load (Asm.parse src) in
  (match Machine.run m with
  | Machine.Faulted (Trap.Cfi_violation _) -> ()
  | _ -> Alcotest.fail "expected CFI violation");
  (* same program with CFI disabled spins through main again *)
  let m2 = Machine.load (Asm.parse src) in
  Machine.set_forward_cfi m2 false;
  match Machine.run ~fuel:100 m2 with
  | Machine.Faulted (Trap.Cfi_violation _) -> Alcotest.fail "CFI fired while disabled"
  | _ -> ()

let test_forward_cfi_allows_entries () =
  let src =
    ".entry main\n.func main\n  adr x9, callee\n  blr x9\n  mov x0, #0\n  hlt\n.endfunc\n.func callee\n  ret\n.endfunc\n"
  in
  match Machine.run (Machine.load (Asm.parse src)) with
  | Machine.Halted 0 -> ()
  | _ -> Alcotest.fail "entry-targeted blr should pass"

let test_code_bytes_resident () =
  (* the encoded program is readable in the executable pages and
     disassembles back to itself *)
  let prog = Asm.parse ".entry main\n.func main\n  paciasp\n  nop\n  hlt\n.endfunc\n" in
  let m = Machine.load prog in
  let image = Machine.image m in
  let words, pools = Image.encoded image in
  Array.iteri
    (fun i w ->
      let addr = Int64.add Image.code_base (Int64.of_int (4 * i)) in
      let in_mem =
        Int64.to_int
          (Int64.logand (Memory.load64 (Machine.memory m) (Int64.logand addr (Int64.lognot 7L)))
             0xffffffffL)
      in
      ignore in_mem;
      let b0 = Memory.load8 (Machine.memory m) addr in
      Alcotest.(check int) "low byte matches" (Int32.to_int w land 0xff) b0)
    words;
  Alcotest.(check bool) "disassembly mentions paciasp" true
    (String.length (Pacstack_isa.Encode.disassemble words pools) > 0);
  Alcotest.(check bool) "entry is a function entry" true
    (Image.is_function_entry image (Image.entry image));
  Alcotest.(check bool) "entry+4 is not" false
    (Image.is_function_entry image (Int64.add (Image.entry image) 4L))

let () =
  Alcotest.run "machine"
    [
      ( "memory",
        [
          Alcotest.test_case "map/load/store" `Quick test_mem_map_load_store;
          Alcotest.test_case "little endian" `Quick test_mem_little_endian;
          Alcotest.test_case "cross page" `Quick test_mem_cross_page;
          Alcotest.test_case "unmapped fault" `Quick test_mem_unmapped_fault;
          Alcotest.test_case "W^X" `Quick test_mem_wxorx;
          Alcotest.test_case "permissions" `Quick test_mem_permissions;
          Alcotest.test_case "double map" `Quick test_mem_double_map;
          Alcotest.test_case "peek/poke" `Quick test_mem_peek_poke;
          Alcotest.test_case "copy independence" `Quick test_mem_copy_independent;
          Alcotest.test_case "32-bit access" `Quick test_mem_word32;
          Alcotest.test_case "TLB invalidated by protect" `Quick test_mem_tlb_protect;
          Alcotest.test_case "TLB invalidated by unmap" `Quick test_mem_tlb_unmap;
          Alcotest.test_case "exec TLB invalidation" `Quick test_mem_tlb_exec;
          Alcotest.test_case "mapped ranges" `Quick test_mem_ranges;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "logic and shifts" `Quick test_logic_shifts;
          Alcotest.test_case "branches" `Quick test_branches;
          Alcotest.test_case "stack pairs" `Quick test_stack_pair_ops;
          Alcotest.test_case "call/return" `Quick test_call_return;
          Alcotest.test_case "W^X on code" `Quick test_write_to_code_faults;
          Alcotest.test_case "exec of data" `Quick test_exec_of_data_faults;
          Alcotest.test_case "non-canonical deref" `Quick test_noncanonical_load_faults;
          Alcotest.test_case "retaa roundtrip" `Quick test_retaa_roundtrip;
          Alcotest.test_case "retaa detects corruption" `Quick test_retaa_detects_corruption;
          Alcotest.test_case "pacia/autia" `Quick test_pacia_autia_machine;
          Alcotest.test_case "xpaci" `Quick test_xpaci;
          Alcotest.test_case "hooks" `Quick test_hooks;
          Alcotest.test_case "clone independence" `Quick test_clone_independent;
          Alcotest.test_case "instantiate matches load" `Quick test_instantiate_matches_load;
          Alcotest.test_case "instantiate owns its hooks" `Quick test_instantiate_own_hooks;
          Alcotest.test_case "context words" `Quick test_context_words_roundtrip;
          Alcotest.test_case "xzr" `Quick test_xzr_semantics;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "fork" `Quick test_kernel_fork;
          Alcotest.test_case "exec regenerates keys" `Quick test_kernel_exec_regenerates_keys;
          Alcotest.test_case "getpid" `Quick test_kernel_getpid;
          Alcotest.test_case "threads" `Quick test_kernel_threads;
          Alcotest.test_case "thread context kernel-side" `Quick
            test_thread_context_not_in_user_memory;
          Alcotest.test_case "signal roundtrip" `Quick test_signal_roundtrip;
          Alcotest.test_case "chained sigreturn rejects forgery" `Quick
            test_chained_sigreturn_rejects_forgery;
          Alcotest.test_case "unprotected sigreturn accepts forgery" `Quick
            test_unprotected_sigreturn_accepts_forgery;
          Alcotest.test_case "guest mprotect respects W^X" `Quick test_guest_mprotect;
          Alcotest.test_case "run_all round-robin" `Quick test_run_all_processes;
          Alcotest.test_case "full chain covers all registers" `Quick
            test_chained_full_rejects_any_register;
          Alcotest.test_case "full chain benign round-trip" `Quick test_chained_full_benign;
        ] );
      ( "unwind",
        [
          Alcotest.test_case "backtrace" `Quick test_unwind_backtrace;
          Alcotest.test_case "detects tamper" `Quick test_unwind_detects_tamper;
          Alcotest.test_case "max depth" `Quick test_unwind_max_depth;
          Alcotest.test_case "validated longjmp transfers" `Quick
            test_validated_longjmp_transfers;
          Alcotest.test_case "validated longjmp(0) -> 1" `Quick
            test_validated_longjmp_zero_becomes_one;
          Alcotest.test_case "validated longjmp rejects forgery" `Quick
            test_validated_longjmp_rejects_forgery;
        ] );
      ( "preemption",
        [ Alcotest.test_case "timer interleaves threads" `Quick test_preemptive_scheduling ] );
      ( "debug",
        [
          Alcotest.test_case "breakpoints" `Quick test_debug_breakpoints;
          Alcotest.test_case "watchpoints" `Quick test_debug_watchpoint;
          Alcotest.test_case "inspection" `Quick test_debug_inspection;
        ] );
      ( "profile",
        [
          Alcotest.test_case "attribution" `Quick test_profile_attribution;
          Alcotest.test_case "detach" `Quick test_profile_detach;
        ] );
      ( "cfi+code",
        [
          Alcotest.test_case "CFI blocks mid-function" `Quick test_forward_cfi_blocks_midfunction;
          Alcotest.test_case "CFI allows entries" `Quick test_forward_cfi_allows_entries;
          Alcotest.test_case "code bytes resident" `Quick test_code_bytes_resident;
        ] );
    ]
