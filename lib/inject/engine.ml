(* The fault-injection engine.

   One fault = one {!Fault.spec} applied to the victim under one
   hardening scheme.  Every fault is run twice with identical PA keys:
   once untouched (the reference), once with the corruption applied
   mid-run.  The injected run is then classified against the reference
   trace:

   - [Detected]  — the machine trapped (or the runtime aborted: canary
     exit 134, sigreturn kill 139).  The latency is the cycle distance
     from the injection to the trap: how long the corrupt state lived.
   - [Benign]    — the trace is identical to the reference: the fault
     hit dead state (a frame already consumed, bits nobody reloads).
   - [Silent]    — the trace diverges and nothing trapped.  This is the
     headline metric: corruption that changed the program's behaviour
     and was never caught.

   Every run starts from [Machine.instantiate] of a template: for the
   six generic sites and [Reload_window], the victim's, which each
   domain compiles and prepares once per (scheme, pac_bits); for
   [Signal_frame], the signal victim's, prepared once per scheme-fault
   and instantiated by [Kernel.spawn].  Generic sites pause the machine
   at a trigger point (a fraction of the reference run's retired
   instructions, via {!Machine.run_until}), xor a pattern into the
   chosen slot and resume.  The injected run is a [Machine.clone] of the
   reference taken at the trigger the victim's predicted length
   implies; if the reference's real length implies another, a fresh
   instance runs to the real one instead.  The two structured sites
   replay the paper's actual attacks:

   - [Reload_window] mounts the §6.1 reuse attack inside the §5.2
     store-to-reload window.  A hook at full call depth harvests every
     sibling path's control words during the first [Victim.paths]
     rounds, then — on a later round — substitutes one sibling's two
     control words for the current path's while they sit spilled on the
     stack.  The diversion flows through the sibling's function tail
     and rejoins main at the sibling's call site, shifting every later
     printed value: silent unless some authentication rejects the
     transplant.  Under unmasked PACStack the adversary picks the
     sibling by matching harvested aret values (collisions are visible,
     §6.1); under the masked variant the spills are masked and the pick
     is blind, succeeding with probability 2^-b — the Appendix A
     argument, mirrored from [Pacstack_harden.Surface.observable].
   - [Signal_frame] spawns the signal victim under the kernel
     personality, delivers a signal at the trigger point and flips bits
     in the saved PC inside the user-visible signal frame.  Its template
     is prepared under [Config.default], as the kernel prepares a
     booted program, so this site runs at full PAC width whatever
     [pac_bits] says.  Under [Sig_chained] (PACStack's Appendix B) the
     forged frame is killed at sigreturn with exit 139;
     mainline-Linux-style unprotected frames resume wherever the
     corrupt PC points.

   Determinism: everything derives from (campaign seed, fault index)
   through {!Fault}; machine keys come from the fault's private runtime
   stream, copied so reference and injected runs see identical keys.
   The same fault classifies identically at any worker count. *)

module Rng = Pacstack_util.Rng
module Config = Pacstack_pa.Config
module Reg = Pacstack_isa.Reg
module Scheme = Pacstack_harden.Scheme
module Surface = Pacstack_harden.Surface
module Machine = Pacstack_machine.Machine
module Memory = Pacstack_machine.Memory
module Trap = Pacstack_machine.Trap
module Kernel = Pacstack_machine.Kernel
module Program = Pacstack_isa.Program
module Compile = Pacstack_minic.Compile
module Trace = Pacstack_fuzz.Trace
module Json = Pacstack_campaign.Json
module Watchdog = Pacstack_campaign.Watchdog

type config = {
  pac_bits : int;
  fuel : int;
  schemes : Scheme.t list;
  tamper : (Machine.t -> unit) option;
}

let default_config =
  { pac_bits = 4; fuel = 10_000_000; schemes = Scheme.all; tamper = None }

module Obs = Pacstack_obs.Obs

(* [Signal_frame]/[Reload_window] faults are routed by [run_one] to
   their structured replays and must never reach the generic
   xor-a-slot injector. If a future site is added to [Fault.site]
   without a dispatch arm, the worker domain's crash should say which
   fault hit the hole — a bare [assert false] here used to cost the
   whole shard its context. *)
exception Misrouted_site of { index : int; site : Fault.site }

let () =
  Printexc.register_printer (function
    | Misrouted_site { index; site } ->
      Some
        (Printf.sprintf
           "Inject.Engine.Misrouted_site(fault %d, site %s): structured site \
            reached the generic injector; run_one must dispatch it"
           index
           (Fault.site_to_string site))
    | _ -> None)

type classification = Detected of { cause : string; latency : int } | Benign | Silent

let classification_to_string = function
  | Detected _ -> "detected"
  | Benign -> "benign"
  | Silent -> "silent"

type result = { spec : Fault.spec; scheme : Scheme.t; classification : classification }

(* ------------------------------------------------------------------ *)
(* Shared plumbing                                                     *)

let machine_cfg cfg = Config.make ~pac_bits:cfg.pac_bits ()

(* The runtime aborts detection turns into exit codes; both victims
   return [s land 63], so 134/139 are unambiguous here. *)
let classify ~ref_trace ~injected_cycles m (outcome : Machine.outcome) =
  let latency () = Machine.cycles m - injected_cycles in
  match outcome with
  | Machine.Faulted t -> Detected { cause = Trap.to_string t; latency = latency () }
  | Machine.Halted 134 -> Detected { cause = "canary-abort"; latency = latency () }
  | Machine.Halted 139 -> Detected { cause = "sigreturn-kill"; latency = latency () }
  | Machine.Halted _ | Machine.Out_of_fuel ->
    if Trace.equal ref_trace (Trace.of_machine m outcome) then Benign else Silent

(* ------------------------------------------------------------------ *)
(* Generic sites: pause at the trigger, xor, resume                    *)

(* Spread the spec's flip bits into the PAC field of the configured
   geometry, so [Pac_bits] faults never touch address bits. *)
let pac_pattern (mcfg : Config.t) flip =
  let lo = Config.pac_lo mcfg and b = mcfg.Config.pac_bits in
  let p = ref 0L in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_left 1L i) flip <> 0L then
      p := Int64.logor !p (Int64.shift_left 1L (lo + (i mod b)))
  done;
  if !p = 0L then Int64.shift_left 1L lo else !p

let control_slot_addr scheme m =
  match Surface.control_slot scheme with
  | Surface.Return_slot ->
    Int64.add (Machine.get m Reg.fp) (Int64.of_int Surface.return_slot_offset)
  | Surface.Chain_slot ->
    Int64.add (Machine.get m Reg.fp) (Int64.of_int Surface.chain_spill_offset)
  | Surface.Shadow_slot -> Int64.sub (Machine.get m Reg.shadow) 8L

let apply_site cfg (spec : Fault.spec) scheme m =
  match cfg.tamper with
  | Some f -> f m
  | None -> (
    let mem = Machine.memory m in
    let xor_mem addr pattern =
      (* peek/poke: a trigger that lands while FP or X18 points outside
         mapped memory corrupts nothing — the run classifies benign *)
      match Memory.peek64 mem addr with
      | Some v -> ignore (Memory.poke64 mem addr (Int64.logxor v pattern))
      | None -> ()
    in
    let xor_reg r = Machine.set m r (Int64.logxor (Machine.get m r) spec.flip) in
    let fp = Machine.get m Reg.fp in
    match spec.site with
    | Fault.Ret_slot -> xor_mem (Int64.add fp 8L) spec.flip
    | Fault.Chain_spill -> xor_mem (Int64.sub fp 16L) spec.flip
    | Fault.Cr_reg -> xor_reg Reg.cr
    | Fault.Lr_reg -> xor_reg Reg.lr
    | Fault.Shadow_slot -> xor_mem (Int64.sub (Machine.get m Reg.shadow) 8L) spec.flip
    | Fault.Pac_bits ->
      xor_mem (control_slot_addr scheme m) (pac_pattern (Machine.config m) spec.flip)
    | Fault.Signal_frame | Fault.Reload_window ->
      raise (Misrouted_site { index = spec.index; site = spec.site }))

(* Machine metrics from injection runs are attributed to the scheme
   under test; labelling is itself obs-gated so the disabled path stays
   allocation-free. *)
let obs_label scheme m =
  if Obs.enabled () then Machine.set_obs_label m (Scheme.to_string scheme)

(* Deterministic per-scheme counter: a pure function of the fault, so
   the obs channel stays identical at any worker count. *)
let obs_count name scheme =
  if Obs.enabled () then
    Obs.Metrics.incr (Printf.sprintf "%s{scheme=%s}" name (Scheme.to_string scheme))

(* ------------------------------------------------------------------ *)
(* Per-domain victim table                                             *)

(* The victims never change, so each domain compiles them once per
   (scheme, pac_bits) and prepares the workhorse victim's template, from
   which every generic and reload-window run is instantiated.  Schemes
   that compile both victims to the same code (keyed by a digest of the
   compiled programs) share one entry: the table is live for the whole
   campaign, and the GC sizes the heap to a multiple of what stays live.
   That is why [signal] is the compiled signal victim, not its template:
   [run_one] prepares it once per scheme-fault, and keeping seven
   prepared signal templates live instead raised the inject benchmark's
   peak RSS by 18% (DESIGN.md, "Keeping the table lean").  [predicted]
   is the retired-instruction count of one run under fixed keys: the
   generic sites fork at the trigger it implies.  Building it with the
   entry, not from the first fault a domain happens to run, makes the
   fork or refork decision a pure function of the fault.  The build is
   muted: how often it happens depends on the worker count. *)
type victim = { template : Machine.template; predicted : int; signal : Program.t }

type table = {
  by_scheme : (string * int, victim) Hashtbl.t;
  by_code : (Digest.t * int, victim) Hashtbl.t;
}

let victims : table Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { by_scheme = Hashtbl.create 16; by_code = Hashtbl.create 16 })

let prediction_seed = 0x5eed_1e57L

let build_victim table cfg scheme =
  Obs.muted @@ fun () ->
  let program = Compile.compile ~scheme (Victim.program ()) in
  let signal = Compile.compile ~scheme (Victim.signal_program ()) in
  let code = (Digest.string (Marshal.to_string (program, signal) []), cfg.pac_bits) in
  match Hashtbl.find_opt table.by_code code with
  | Some v -> v
  | None ->
    let template = Machine.prepare ~cfg:(machine_cfg cfg) program in
    let probe = Machine.instantiate ~rng:(Rng.create prediction_seed) template in
    ignore (Machine.run probe);
    let v = { template; predicted = max 1 (Machine.instructions_retired probe); signal } in
    Hashtbl.add table.by_code code v;
    v

let victim cfg scheme =
  let table = Domain.DLS.get victims in
  let key = (Scheme.to_string scheme, cfg.pac_bits) in
  match Hashtbl.find_opt table.by_scheme key with
  | Some v -> v
  | None ->
    let v = build_victim table cfg scheme in
    Hashtbl.add table.by_scheme key v;
    v

(* Reference and injected runs draw keys from copies of the same
   stream, so they run under identical keys. *)
let instance scheme v keys_rng =
  let m = Machine.instantiate ~rng:(Rng.copy keys_rng) v.template in
  obs_label scheme m;
  m

let trigger_at (spec : Fault.spec) total =
  max 1 (int_of_float (spec.trigger *. float_of_int total))

let at_trigger trigger m = Machine.instructions_retired m >= trigger

(* The injected run shares the reference's prefix: run the reference to
   the trigger its predicted length implies, clone it there, and finish
   the reference with the fuel that remains.  The clone is exactly the
   machine a fresh instance run to the same trigger would be.  When the
   reference's real length implies another trigger (or it ended first),
   the clone is thrown away and a fresh instance runs to the real one. *)
let run_generic cfg (spec : Fault.spec) scheme v keys_rng =
  let predicted = trigger_at spec v.predicted in
  let m = instance scheme v keys_rng in
  let fork, outcome =
    match Machine.run_until ~fuel:cfg.fuel m ~stop:(at_trigger predicted) with
    | Some outcome -> (None, outcome)
    | None ->
      let fork = Machine.clone m in
      (Some fork, Machine.run ~fuel:(cfg.fuel - Machine.instructions_retired m) m)
  in
  let ref_trace = Trace.of_machine m outcome in
  let trigger = trigger_at spec (max 1 (Machine.instructions_retired m)) in
  let inject m =
    let at = Machine.cycles m in
    apply_site cfg spec scheme m;
    classify ~ref_trace ~injected_cycles:at m (Machine.run ~fuel:cfg.fuel m)
  in
  match fork with
  | Some fork when trigger = predicted ->
    obs_count "inject.fork" scheme;
    inject fork
  | Some _ | None -> (
    obs_count "inject.refork" scheme;
    let m = instance scheme v keys_rng in
    match Machine.run_until ~fuel:cfg.fuel m ~stop:(at_trigger trigger) with
    | Some outcome -> classify ~ref_trace ~injected_cycles:(Machine.cycles m) m outcome
    | None -> inject m)

(* ------------------------------------------------------------------ *)
(* Reload-window reuse attack (§5.2 window, §6.1 substitution)         *)

(* Walk the saved-FP chain from the hook frame (probe) back to the path
   function's frame, and name the two control words whose substitution
   diverts mid's and the path's returns to a sibling site.  Offsets per
   scheme come from {!Surface.control_slot}:

   - return-slot schemes: the saved LRs [fp_mid + 8] (return into the
     path's tail) and [fp_path + 8] (return to main's call site);
   - PACStack: the chain spills [fp_inner - 16] (= aret binding mid's
     return) and [fp_mid - 16] (= aret binding the path's return); the
     transplant authenticates iff the sibling's aret for *probe's*
     spill — the handle at [fp_probe - 16] — collides with the current
     one (both are consumed against the same spilled token);
   - shadow stack: the entries at [x18 - 24] (pushed by mid) and
     [x18 - 32] (pushed by the path); the shadow value is authoritative
     on return, so the transplant needs no stack-slot help. *)
let window_slots scheme m =
  let load a = Memory.load64 (Machine.memory m) a in
  let fp_probe = Machine.get m Reg.fp in
  let fp_inner = load fp_probe in
  let fp_mid = load fp_inner in
  let fp_path = load fp_mid in
  match Surface.control_slot scheme with
  | Surface.Return_slot -> (Int64.add fp_mid 8L, Int64.add fp_path 8L, Int64.add fp_mid 8L)
  | Surface.Chain_slot ->
    (Int64.sub fp_inner 16L, Int64.sub fp_mid 16L, Int64.sub fp_probe 16L)
  | Surface.Shadow_slot ->
    let x18 = Machine.get m Reg.shadow in
    (Int64.sub x18 24L, Int64.sub x18 32L, Int64.sub x18 24L)

(* First harvested pair with identical handles, scanning in index
   order — the adversary's deterministic collision match. *)
let first_collision handles =
  let n = Array.length handles in
  let found = ref None in
  (try
     for a = 0 to n - 2 do
       for b = a + 1 to n - 1 do
         if Int64.equal handles.(a) handles.(b) then begin
           found := Some (a, b);
           raise Exit
         end
       done
     done
   with Exit -> ());
  !found

let blind_pair (spec : Fault.spec) =
  let paths = Victim.paths in
  let x = spec.round mod paths in
  let y = (x + 1 + (spec.pick mod (paths - 1))) mod paths in
  (x, y)

let run_window cfg (spec : Fault.spec) scheme ~fresh =
  let r = fresh () in
  let ref_trace = Trace.of_machine r (Machine.run ~fuel:cfg.fuel r) in
  let m = fresh () in
  let paths = Victim.paths in
  let handles = Array.make paths 0L in
  let w1s = Array.make paths 0L in
  let w2s = Array.make paths 0L in
  let round = ref 0 in
  let plan = ref None in
  let injected_at = ref None in
  let hook hm =
    let mem = Machine.memory hm in
    let w1_addr, w2_addr, handle_addr = window_slots scheme hm in
    let j = !round in
    if j < paths then begin
      (* harvest cycle: round j runs path j — record its control words *)
      handles.(j) <- Memory.load64 mem handle_addr;
      w1s.(j) <- Memory.load64 mem w1_addr;
      w2s.(j) <- Memory.load64 mem w2_addr
    end
    else begin
      (if !plan = None then
         let pair =
           if Surface.observable scheme then
             match first_collision handles with
             | Some p -> p
             | None -> blind_pair spec
           else blind_pair spec
         in
         plan := Some pair);
      let x, y = Option.get !plan in
      if j = paths + x && !injected_at = None then begin
        (match cfg.tamper with
        | Some f -> f hm
        | None ->
          Memory.store64 mem w1_addr w1s.(y);
          Memory.store64 mem w2_addr w2s.(y));
        injected_at := Some (Machine.cycles hm)
      end
    end;
    incr round
  in
  Machine.attach_hook m Victim.window_hook hook;
  let outcome = Machine.run ~fuel:cfg.fuel m in
  let at = match !injected_at with Some c -> c | None -> Machine.cycles m in
  classify ~ref_trace ~injected_cycles:at m outcome

(* ------------------------------------------------------------------ *)
(* Kernel signal-frame corruption (Appendix B)                         *)

let signal_policy scheme =
  if Scheme.chained_signal scheme then Kernel.Sig_chained else Kernel.Sig_unprotected

(* Index of the saved PC in [Machine.context_words] order
   (X0..X30, SP, PC, flags). *)
let saved_pc_index = 32

let run_signal cfg (spec : Fault.spec) scheme keys_rng ~boot =
  let policy = signal_policy scheme in
  let fresh () =
    let k = Kernel.create ~signal_policy:policy (Rng.copy keys_rng) in
    let p = boot k in
    let m = Kernel.machine p in
    obs_label scheme m;
    (k, p, m)
  in
  (* size the trigger off a delivery-free run, so reference and injected
     runs both deliver at the same retired-instruction point *)
  let _, _, base_m = fresh () in
  ignore (Machine.run ~fuel:cfg.fuel base_m);
  let trigger = trigger_at spec (max 1 (Machine.instructions_retired base_m)) in
  (* keep the corruption inside the code segment: flip only low,
     4-byte-aligned PC bits so an unprotected resume lands on some other
     instruction rather than trivially faulting on unmapped memory *)
  let pc_flip =
    let f = Int64.logand spec.flip 0xfcL in
    if Int64.equal f 0L then 4L else f
  in
  let run ~corrupt =
    let k, p, m = fresh () in
    match
      Machine.run_until ~fuel:cfg.fuel m ~stop:(at_trigger trigger)
    with
    | Some outcome -> (Trace.of_machine m outcome, Machine.cycles m, m, outcome)
    | None ->
      Kernel.deliver_signal k p ~handler:Victim.handler_name ~signum:14;
      let at = Machine.cycles m in
      if corrupt then begin
        match cfg.tamper with
        | Some f -> f m
        | None ->
          let sp = Machine.get m Reg.SP in
          let addr = Int64.add sp (Int64.of_int (8 * saved_pc_index)) in
          let v = Memory.load64 (Machine.memory m) addr in
          Memory.store64 (Machine.memory m) addr (Int64.logxor v pc_flip)
      end;
      let outcome = Machine.run ~fuel:cfg.fuel m in
      (Trace.of_machine m outcome, at, m, outcome)
  in
  let ref_trace, _, _, _ = run ~corrupt:false in
  let _, at, m, outcome = run ~corrupt:true in
  classify ~ref_trace ~injected_cycles:at m outcome

(* ------------------------------------------------------------------ *)
(* Per-fault driver                                                    *)

let run_one cfg (spec : Fault.spec) scheme keys_rng =
  let v = victim cfg scheme in
  match spec.site with
  | Fault.Signal_frame ->
    (* [Config.default], as the kernel prepares a booted program: this
       site runs at full PAC width whatever [pac_bits] says *)
    let signal = Machine.prepare v.signal in
    run_signal cfg spec scheme keys_rng ~boot:(fun k -> Kernel.spawn k signal)
  | Fault.Reload_window ->
    run_window cfg spec scheme ~fresh:(fun () -> instance scheme v keys_rng)
  | Fault.Ret_slot | Fault.Chain_spill | Fault.Cr_reg | Fault.Lr_reg | Fault.Shadow_slot
  | Fault.Pac_bits -> run_generic cfg spec scheme v keys_rng

(* One trace event per fault, keyed by its index — campaign sharding
   hands each index to exactly one worker, so the merged trace is
   deterministic at any worker count. *)
let obs_fault (spec : Fault.spec) results =
  if Obs.enabled () then begin
    Obs.Metrics.incr "inject.faults";
    List.iter
      (fun r ->
        Obs.Metrics.incr
          (Printf.sprintf "inject.%s{scheme=%s}"
             (classification_to_string r.classification)
             (Scheme.to_string r.scheme)))
      results;
    Obs.Trace.emit ~key:spec.Fault.index "inject.fault"
      [ ("site", Obs.Json.String (Fault.site_to_string spec.Fault.site));
        ( "classes",
          Obs.Json.List
            (List.map
               (fun r ->
                 Obs.Json.String (classification_to_string r.classification))
               results) )
      ]
  end;
  results

let run_fault cfg ~campaign_seed index =
  let spec = Fault.derive ~campaign_seed index in
  let keys_rng = Fault.rng ~campaign_seed index in
  obs_fault spec
    (List.map
       (fun scheme ->
         Watchdog.tick ();
         { spec; scheme; classification = run_one cfg spec scheme (Rng.copy keys_rng) })
       cfg.schemes)

(* ------------------------------------------------------------------ *)
(* Mergeable campaign statistics                                       *)

(* Constant-size sufficient statistics: per scheme and per (site,
   scheme), four counters plus a log2 histogram of detection latencies,
   and a reproducer list truncated to the [repro_cap] smallest
   (fault, scheme) keys.  Memory stays O(sites x schemes) however many
   faults a campaign runs.  [merge] is associative AND commutative:

   - counters and histograms add pointwise;
   - "keep the K smallest" commutes with union: the K smallest of a
     union are the K smallest of the per-part K smallest, in any
     grouping or order.

   Commutativity matters beyond worker-order independence: a campaign
   resumed from a compacted checkpoint folds the merged blob before the
   per-shard remainder, so fold order differs between an interrupted
   and an uninterrupted run.  With both laws the totals are still
   bit-identical — the N-worker == 1-worker == resumed contract. *)

let hist_buckets = 32
let repro_cap = 32

type cell = {
  detected : int;
  benign : int;
  silent : int;
  latency_sum : int;
  latency_hist : int array;  (* log2 buckets; treated as immutable *)
}

let cell_zero =
  { detected = 0; benign = 0; silent = 0; latency_sum = 0;
    latency_hist = Array.make hist_buckets 0 }

let cell_add a b =
  {
    detected = a.detected + b.detected;
    benign = a.benign + b.benign;
    silent = a.silent + b.silent;
    latency_sum = a.latency_sum + b.latency_sum;
    latency_hist =
      Array.init hist_buckets (fun i -> a.latency_hist.(i) + b.latency_hist.(i));
  }

(* Bucket 0 holds latencies 0 and 1; bucket b >= 1 holds (2^(b-1), 2^b],
   saturating at the last bucket. *)
let bucket latency =
  if latency <= 1 then 0
  else begin
    (* smallest b with 2^b >= latency, i.e. ceil(log2 latency) *)
    let b = ref 0 and v = ref (latency - 1) in
    while !v > 0 && !b < hist_buckets - 1 do
      incr b;
      v := !v lsr 1
    done;
    !b
  end

(* Bucket bounds for {!Pacstack_util.Stats.weighted_percentile}: the
   histogram's tail quantiles without retaining a single sample. *)
let hist_bounds =
  lazy
    (Array.init (hist_buckets + 1) (fun i ->
         if i = 0 then 0.0 else Float.of_int (1 lsl (i - 1))))

let latency_percentile cell p =
  if cell.detected = 0 then None
  else
    Some
      (Pacstack_util.Stats.weighted_percentile ~bounds:(Lazy.force hist_bounds)
         ~counts:cell.latency_hist p)

type reproducer = { fault : int; scheme : string; site : string }

type stats = {
  faults : int;
  cells : (string * cell) list;  (** per scheme name, canonical order *)
  site_cells : ((string * string) * cell) list;
      (** per (site, scheme), site-major in Fault.all_sites order *)
  silents : reproducer list;  (** <= repro_cap smallest (fault, scheme), sorted *)
}

let empty = { faults = 0; cells = []; site_cells = []; silents = [] }

let rank_of names n =
  let rec find i = function
    | [] -> List.length names
    | x :: rest -> if String.equal x n then i else find (i + 1) rest
  in
  find 0 names

let scheme_rank =
  let names = List.map Scheme.to_string Scheme.all in
  fun n -> rank_of names n

let site_rank =
  let names = List.map Fault.site_to_string (Array.to_list Fault.all_sites) in
  fun n -> rank_of names n

let compare_schemes a b = compare (scheme_rank a, a) (scheme_rank b, b)

let compare_sites (sa, na) (sb, nb) =
  compare (site_rank sa, sa, scheme_rank na, na) (site_rank sb, sb, scheme_rank nb, nb)

let truncate_silents silents =
  List.stable_sort (fun a b -> compare (a.fault, a.scheme) (b.fault, b.scheme)) silents
  |> List.filteri (fun i _ -> i < repro_cap)

(* Not a stored field: deriving it keeps [merge] a plain pointwise
   operation with no cross-field invariant to maintain. *)
let repro_dropped s =
  List.fold_left (fun n (_, c) -> n + c.silent) 0 s.cells - List.length s.silents

(* Pointwise sum of two cell lists, each sorted by [cmp] with distinct
   keys: a merge of sorted lists, so the result is sorted too. *)
let rec add_cells cmp a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ka, ca) :: ra, (kb, cb) :: rb ->
    let c = cmp ka kb in
    if c = 0 then (ka, cell_add ca cb) :: add_cells cmp ra rb
    else if c < 0 then (ka, ca) :: add_cells cmp ra b
    else (kb, cb) :: add_cells cmp a rb

let add_result stats (r : result) =
  let name = Scheme.to_string r.scheme in
  let site = Fault.site_to_string r.spec.Fault.site in
  let one =
    match r.classification with
    | Detected { latency; _ } ->
      let h = Array.make hist_buckets 0 in
      h.(bucket latency) <- 1;
      { cell_zero with detected = 1; latency_sum = latency; latency_hist = h }
    | Benign -> { cell_zero with benign = 1 }
    | Silent -> { cell_zero with silent = 1 }
  in
  let silents =
    match r.classification with
    | Silent ->
      truncate_silents ({ fault = r.spec.Fault.index; scheme = name; site } :: stats.silents)
    | Detected _ | Benign -> stats.silents
  in
  {
    stats with
    cells = add_cells compare_schemes stats.cells [ (name, one) ];
    site_cells = add_cells compare_sites stats.site_cells [ ((site, name), one) ];
    silents;
  }

let merge a b =
  {
    faults = a.faults + b.faults;
    cells = add_cells compare_schemes a.cells b.cells;
    site_cells = add_cells compare_sites a.site_cells b.site_cells;
    silents = truncate_silents (a.silents @ b.silents);
  }

let run_range cfg ~campaign_seed ~first ~count =
  if Obs.enabled () then
    Obs.Metrics.register_histogram "inject.detect_latency" ~lo:0. ~hi:4096. ~buckets:20;
  let stats = ref empty in
  for i = first to first + count - 1 do
    let results = run_fault cfg ~campaign_seed i in
    if Obs.enabled () then
      List.iter
        (fun r ->
          match r.classification with
          | Detected { latency; _ } ->
            Obs.Metrics.observe "inject.detect_latency" (float_of_int latency)
          | Benign | Silent -> ())
        results;
    stats :=
      List.fold_left add_result { !stats with faults = !stats.faults + 1 } results
  done;
  !stats

(* ------------------------------------------------------------------ *)
(* JSON codec (campaign checkpoint payload)                            *)

let reproducer_to_json r =
  Json.Obj
    [
      ("fault", Json.Int r.fault);
      ("scheme", Json.String r.scheme);
      ("site", Json.String r.site);
    ]

let cell_fields c =
  [
    ("detected", Json.Int c.detected);
    ("benign", Json.Int c.benign);
    ("silent", Json.Int c.silent);
    ("latency_sum", Json.Int c.latency_sum);
    ("latency_hist", Json.List (Array.to_list (Array.map (fun n -> Json.Int n) c.latency_hist)));
  ]

let stats_to_json s =
  Json.Obj
    [
      ("faults", Json.Int s.faults);
      ( "cells",
        Json.List
          (List.map (fun (n, c) -> Json.Obj (("scheme", Json.String n) :: cell_fields c)) s.cells)
      );
      ( "site_cells",
        Json.List
          (List.map
             (fun ((site, n), c) ->
               Json.Obj (("site", Json.String site) :: ("scheme", Json.String n) :: cell_fields c))
             s.site_cells) );
      ("silents", Json.List (List.map reproducer_to_json s.silents));
    ]

(* Checkpoint lines are read back from disk, so the decoder rejects
   anything [add_result]/[merge] could never have produced: a histogram
   of the wrong length or whose mass is not the detection count, a
   repeated cell key (which [add_cells] relies on never seeing), or more
   than [repro_cap] reproducers.  A rejected line recomputes its shard. *)
let stats_of_json j =
  let ( let* ) = Option.bind in
  let int k o = Option.bind (Json.member k o) Json.to_int in
  let str k o = Option.bind (Json.member k o) Json.to_str in
  let all f l =
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        let* v = f x in
        Some (v :: acc))
      (Some []) l
    |> Option.map List.rev
  in
  let cell o =
    let* detected = int "detected" o in
    let* benign = int "benign" o in
    let* silent = int "silent" o in
    let* latency_sum = int "latency_sum" o in
    let* hist = Option.bind (Json.member "latency_hist" o) Json.to_list in
    let* hist = all Json.to_int hist in
    if List.length hist <> hist_buckets || List.fold_left ( + ) 0 hist <> detected then None
    else Some { detected; benign; silent; latency_sum; latency_hist = Array.of_list hist }
  in
  let* faults = int "faults" j in
  let* cells = Option.bind (Json.member "cells" j) Json.to_list in
  let* cells =
    all
      (fun o ->
        let* n = str "scheme" o in
        let* c = cell o in
        Some (n, c))
      cells
  in
  let* site_cells = Option.bind (Json.member "site_cells" j) Json.to_list in
  let* site_cells =
    all
      (fun o ->
        let* site = str "site" o in
        let* n = str "scheme" o in
        let* c = cell o in
        Some ((site, n), c))
      site_cells
  in
  let* silents = Option.bind (Json.member "silents" j) Json.to_list in
  let* silents =
    all
      (fun o ->
        let* fault = int "fault" o in
        let* scheme = str "scheme" o in
        let* site = str "site" o in
        Some { fault; scheme; site })
      silents
  in
  let sorted_unique cmp l =
    let sorted = List.sort_uniq (fun (a, _) (b, _) -> cmp a b) l in
    if List.length sorted = List.length l then Some sorted else None
  in
  let* cells = sorted_unique compare_schemes cells in
  let* site_cells = sorted_unique compare_sites site_cells in
  if List.length silents > repro_cap then None
  else Some { faults; cells; site_cells; silents = truncate_silents silents }
