(* Tests for lib/inject: deterministic fault derivation, engine
   classification (including the paper's reload-window asymmetry between
   the masked and unmasked PACStack variants), the campaign wiring, and
   the exact trap paths of corrupted returns. *)

module Rng = Pacstack_util.Rng
module Config = Pacstack_pa.Config
module Reg = Pacstack_isa.Reg
module Instr = Pacstack_isa.Instr
module Scheme = Pacstack_harden.Scheme
module Machine = Pacstack_machine.Machine
module Memory = Pacstack_machine.Memory
module Image = Pacstack_machine.Image
module Trap = Pacstack_machine.Trap
module Kernel = Pacstack_machine.Kernel
module Trace = Pacstack_fuzz.Trace
module Compile = Pacstack_minic.Compile
module Fault = Pacstack_inject.Fault
module Victim = Pacstack_inject.Victim
module Engine = Pacstack_inject.Engine
module Campaign = Pacstack_campaign.Campaign
module Json = Pacstack_campaign.Json
module Plans = Pacstack_report.Plans

let temp_manifest () = Filename.temp_file "pacstack_inject" ".ck"

let classification = Alcotest.testable
    (fun fmt c -> Format.pp_print_string fmt (Engine.classification_to_string c))
    (fun a b ->
      match (a, b) with
      | Engine.Detected _, Engine.Detected _ -> true
      | Engine.Benign, Engine.Benign | Engine.Silent, Engine.Silent -> true
      | _ -> false)

let first_site_index ~campaign_seed site =
  let rec go i =
    if i > 1000 then Alcotest.failf "no %s fault in 1000 indices" (Fault.site_to_string site)
    else if (Fault.derive ~campaign_seed i).Fault.site = site then i
    else go (i + 1)
  in
  go 0

(* --- fault derivation ----------------------------------------------------- *)

let test_derive_deterministic () =
  for i = 0 to 31 do
    let a = Fault.derive ~campaign_seed:9L i in
    let b = Fault.derive ~campaign_seed:9L i in
    Alcotest.(check bool) "specs equal" true (a = b);
    Alcotest.(check int) "index recorded" i a.Fault.index;
    Alcotest.(check bool) "trigger in (0,1)" true (a.Fault.trigger > 0. && a.Fault.trigger < 1.);
    Alcotest.(check bool) "flip nonzero" true (a.Fault.flip <> 0L)
  done;
  (* different seeds and indices give different streams *)
  Alcotest.(check bool) "seed matters" true
    (List.init 16 (Fault.derive ~campaign_seed:9L) <> List.init 16 (Fault.derive ~campaign_seed:10L))

let test_site_string_roundtrip () =
  Array.iter
    (fun site ->
      Alcotest.(check bool) "roundtrip" true
        (Fault.site_of_string (Fault.site_to_string site) = Some site))
    Fault.all_sites;
  Alcotest.(check bool) "unknown rejected" true (Fault.site_of_string "nonsense" = None)

(* --- engine classification ------------------------------------------------ *)

let test_run_fault_deterministic () =
  let cfg = Engine.default_config in
  for i = 0 to 5 do
    let a = Engine.run_fault cfg ~campaign_seed:3L i in
    let b = Engine.run_fault cfg ~campaign_seed:3L i in
    List.iter2
      (fun (x : Engine.result) (y : Engine.result) ->
        Alcotest.check classification
          (Printf.sprintf "fault %d under %s" i (Scheme.to_string x.Engine.scheme))
          x.Engine.classification y.Engine.classification)
      a b
  done

(* The §5.2/§6.1 headline: the same reload-window substitution is silent
   under the unmasked variant (the adversary collision-matches harvested
   aret values at the observable pac_bits = 4) but is caught — or lands
   benign — under the masked variant, where the spilled tokens are
   opaque and the pick succeeds only with probability 2^-b. *)
let test_window_masked_vs_unmasked () =
  let seed = 42L in
  let idx = first_site_index ~campaign_seed:seed Fault.Reload_window in
  let cfg = { Engine.default_config with Engine.schemes = [ Scheme.pacstack_nomask; Scheme.pacstack ] } in
  match Engine.run_fault cfg ~campaign_seed:seed idx with
  | [ nomask; masked ] ->
    Alcotest.check classification "unmasked pacstack: silent corruption" Engine.Silent
      nomask.Engine.classification;
    Alcotest.(check bool) "masked pacstack: detected or benign" true
      (match masked.Engine.classification with
      | Engine.Detected _ | Engine.Benign -> true
      | Engine.Silent -> false)
  | _ -> Alcotest.fail "expected two results"

(* The same window fault is silent under every non-authenticating
   scheme: the harvested control words are valid for reuse. *)
let test_window_silent_without_authentication () =
  let seed = 42L in
  let idx = first_site_index ~campaign_seed:seed Fault.Reload_window in
  let cfg =
    {
      Engine.default_config with
      Engine.schemes = [ Scheme.unprotected; Scheme.branch_protection; Scheme.shadow_stack ];
    }
  in
  List.iter
    (fun (r : Engine.result) ->
      Alcotest.check classification
        (Scheme.to_string r.Engine.scheme ^ ": window reuse is silent")
        Engine.Silent r.Engine.classification)
    (Engine.run_fault cfg ~campaign_seed:seed idx)

(* Signal-frame forgery: killed by the Appendix B chain under PACStack,
   never detected as such under an unprotected kernel. The site runs at
   the default full PAC width whatever [pac_bits] (4 here) says. *)
let test_signal_frame_chained_vs_unprotected () =
  let seed = 42L in
  let idx = first_site_index ~campaign_seed:seed Fault.Signal_frame in
  let cfg =
    { Engine.default_config with Engine.schemes = [ Scheme.unprotected; Scheme.pacstack ] }
  in
  let widths = ref [] in
  let tamper m = widths := (Machine.config m).Config.pac_bits :: !widths in
  ignore (Engine.run_fault { cfg with Engine.tamper = Some tamper } ~campaign_seed:seed idx);
  Alcotest.(check (list int)) "signal frame at full PAC width"
    [ Config.default.Config.pac_bits; Config.default.Config.pac_bits ]
    !widths;
  match Engine.run_fault cfg ~campaign_seed:seed idx with
  | [ unprotected; pacstack ] ->
    Alcotest.(check bool) "unprotected kernel never reports sigreturn-kill" true
      (match unprotected.Engine.classification with
      | Engine.Detected { cause; _ } -> cause <> "sigreturn-kill"
      | Engine.Benign | Engine.Silent -> true);
    Alcotest.(check bool) "pacstack kernel kills the forged frame" true
      (match pacstack.Engine.classification with
      | Engine.Detected { cause; _ } -> cause = "sigreturn-kill"
      | Engine.Benign | Engine.Silent -> false)
  | _ -> Alcotest.fail "expected two results"

(* --- trap paths of corrupted returns -------------------------------------- *)

(* Run the victim with one corruption applied at the first window-hook
   firing, tracing every instruction so the faulting one is known
   exactly. Returns (outcome, last traced instruction). *)
let run_corrupted ~scheme ~corrupt =
  let compiled = Compile.compile ~scheme (Victim.program ()) in
  let m = Machine.load ~cfg:(Config.make ~pac_bits:4 ()) compiled in
  let fired = ref false in
  Machine.attach_hook m Victim.window_hook (fun hm ->
      if not !fired then begin
        fired := true;
        corrupt hm
      end);
  let last = ref None in
  Machine.set_tracer m (Some (fun _ instr -> last := Some instr));
  let outcome = Machine.run m in
  (outcome, !last)

let xor_mem m addr pattern =
  let mem = Machine.memory m in
  Memory.store64 mem addr (Int64.logxor (Memory.load64 mem addr) pattern)

let is_ret = function Some (Instr.Ret _) -> true | _ -> false

(* PACStack: corrupting the spilled chain value changes the [autia]
   modifier in the epilogue that reloads it; the authenticated LR comes
   out non-canonical and the subsequent [ret] raises a translation
   fault on the instruction fetch.  (The other trap variants are not
   reachable from a corrupted aret: the error bit makes the pointer
   non-canonical before any mapping or permission question arises, and
   returns are not subject to the forward-edge CFI check, so
   [Cfi_violation] and [Undefined] cannot fire on this path.) *)
let test_pacstack_chain_corruption_trap () =
  List.iter
    (fun scheme ->
      let outcome, last =
        run_corrupted ~scheme ~corrupt:(fun hm ->
            xor_mem hm (Int64.sub (Machine.get hm Reg.fp) 16L) 4L)
      in
      (match outcome with
      | Machine.Faulted (Trap.Translation (addr, Trap.Execute)) ->
        Alcotest.(check bool) "faulting address is non-canonical" true
          (Int64.logand addr Int64.min_int <> 0L || Int64.shift_right_logical addr 55 <> 0L)
      | other ->
        Alcotest.failf "%s: expected translation fault, got %s" (Scheme.to_string scheme)
          (match other with
          | Machine.Faulted t -> Trap.to_string t
          | Machine.Halted c -> Printf.sprintf "exit %d" c
          | Machine.Out_of_fuel -> "out of fuel"));
      Alcotest.(check bool) "trap raised at the ret" true (is_ret last))
    [ Scheme.pacstack; Scheme.pacstack_nomask ]

(* Shadow stack: the shadow value is authoritative on return, so a
   corrupted top entry redirects the [ret].  A flip into unmapped space
   raises [Unmapped]; pointing the entry at a mapped rw data object
   raises [Permission] (execute of non-executable memory). *)
let test_shadow_corruption_traps () =
  let top hm = Int64.sub (Machine.get hm Reg.shadow) 8L in
  let outcome, last =
    run_corrupted ~scheme:Scheme.shadow_stack ~corrupt:(fun hm ->
        xor_mem hm (top hm) (Int64.shift_left 1L 30))
  in
  (match outcome with
  | Machine.Faulted (Trap.Unmapped (_, Trap.Execute)) -> ()
  | other ->
    Alcotest.failf "expected unmapped fault, got %s"
      (match other with
      | Machine.Faulted t -> Trap.to_string t
      | Machine.Halted c -> Printf.sprintf "exit %d" c
      | Machine.Out_of_fuel -> "out of fuel"));
  Alcotest.(check bool) "unmapped trap at the ret" true (is_ret last);
  let outcome, last =
    run_corrupted ~scheme:Scheme.shadow_stack ~corrupt:(fun hm ->
        let guard = Option.get (Image.symbol (Machine.image hm) Machine.canary_symbol) in
        Memory.store64 (Machine.memory hm) (top hm) guard)
  in
  (match outcome with
  | Machine.Faulted (Trap.Permission (_, Trap.Execute)) -> ()
  | other ->
    Alcotest.failf "expected permission fault, got %s"
      (match other with
      | Machine.Faulted t -> Trap.to_string t
      | Machine.Halted c -> Printf.sprintf "exit %d" c
      | Machine.Out_of_fuel -> "out of fuel"));
  Alcotest.(check bool) "permission trap at the ret" true (is_ret last)

(* --- differential oracle: compile and load for every run ------------------ *)

(* The straightforward pipeline: compile the victims for every fault and
   scheme, [Machine.load] (or, for the signal-frame site, [Kernel.boot])
   them for every run, and run the injected machine from the start to
   the trigger the reference's length implies.  [Engine.run_fault]
   (per-domain templates, [Machine.instantiate] and [Kernel.spawn], fork
   at the predicted trigger) must classify exactly as this does, causes
   and latencies included, at all eight sites. *)
module Oracle = struct
  let run_generic (cfg : Engine.config) (spec : Fault.spec) scheme fresh =
    let r = fresh () in
    let ref_trace = Trace.of_machine r (Machine.run ~fuel:cfg.Engine.fuel r) in
    let total = max 1 (Machine.instructions_retired r) in
    let trigger = max 1 (int_of_float (spec.Fault.trigger *. float_of_int total)) in
    let m = fresh () in
    match
      Machine.run_until ~fuel:cfg.Engine.fuel m ~stop:(fun m ->
          Machine.instructions_retired m >= trigger)
    with
    | Some outcome -> Engine.classify ~ref_trace ~injected_cycles:(Machine.cycles m) m outcome
    | None ->
      let at = Machine.cycles m in
      Engine.apply_site cfg spec scheme m;
      Engine.classify ~ref_trace ~injected_cycles:at m (Machine.run ~fuel:cfg.Engine.fuel m)

  let run_fault (cfg : Engine.config) ~campaign_seed index =
    let spec = Fault.derive ~campaign_seed index in
    let keys_rng = Fault.rng ~campaign_seed index in
    let mcfg = Config.make ~pac_bits:cfg.Engine.pac_bits () in
    List.map
      (fun scheme ->
        let compiled = Compile.compile ~scheme (Victim.program ()) in
        let fresh () = Machine.load ~cfg:mcfg ~rng:(Rng.copy keys_rng) compiled in
        let classification =
          match spec.Fault.site with
          | Fault.Signal_frame ->
            let compiled = Compile.compile ~scheme (Victim.signal_program ()) in
            Engine.run_signal cfg spec scheme keys_rng ~boot:(fun k -> Kernel.boot k compiled)
          | Fault.Reload_window -> Engine.run_window cfg spec scheme ~fresh
          | _ -> run_generic cfg spec scheme fresh
        in
        { Engine.spec; scheme; classification })
      cfg.Engine.schemes
end

let same_results label expected actual =
  List.iter2
    (fun (e : Engine.result) (a : Engine.result) ->
      if e <> a then
        Alcotest.failf "%s: fault %d (%s) under %s: oracle %s, engine %s" label
          e.Engine.spec.Fault.index
          (Fault.site_to_string e.Engine.spec.Fault.site)
          (Scheme.to_string e.Engine.scheme)
          (Engine.classification_to_string e.Engine.classification)
          (Engine.classification_to_string a.Engine.classification))
    expected actual

let test_oracle_agrees () =
  List.iter
    (fun pac_bits ->
      let cfg = { Engine.default_config with Engine.pac_bits } in
      let sites = Hashtbl.create 8 in
      for i = 0 to 199 do
        let expected = Oracle.run_fault cfg ~campaign_seed:11L i in
        same_results (Printf.sprintf "pac_bits %d" pac_bits) expected
          (Engine.run_fault cfg ~campaign_seed:11L i);
        Hashtbl.replace sites (Fault.derive ~campaign_seed:11L i).Fault.site ()
      done;
      Alcotest.(check int) "every site exercised" (Array.length Fault.all_sites)
        (Hashtbl.length sites))
    [ 4; 12 ]

(* Fuel below the victim's length: the reference runs out before the
   predicted trigger (or lands on another one), so every generic fault
   takes the refork path and must still match. *)
let test_oracle_agrees_short_fuel () =
  let cfg = { Engine.default_config with Engine.pac_bits = 12; fuel = 2_000 } in
  for i = 0 to 39 do
    same_results "fuel 2000"
      (Oracle.run_fault cfg ~campaign_seed:13L i)
      (Engine.run_fault cfg ~campaign_seed:13L i)
  done

(* The victim table is per domain: a fault run first in a fresh domain
   (cold table) classifies as it does on a warm one. *)
let test_cold_domain_agrees () =
  let cfg = { Engine.default_config with Engine.pac_bits = 12 } in
  for i = 0 to 7 do
    let cold = Domain.join (Domain.spawn (fun () -> Engine.run_fault cfg ~campaign_seed:17L i)) in
    ignore (Engine.run_fault cfg ~campaign_seed:17L (i + 100));
    same_results "cold vs warm" cold (Engine.run_fault cfg ~campaign_seed:17L i)
  done

(* --- campaign wiring ------------------------------------------------------ *)

let stats_equal (a : Engine.stats) (b : Engine.stats) = a = b

let test_campaign_worker_independence () =
  let plan () = Plans.inject_plan ~faults:10 ~shards:4 ~seed:5L () in
  let t1 = Plans.inject_totals (Campaign.run ~workers:1 (plan ())) in
  let t4 = Plans.inject_totals (Campaign.run ~workers:4 (plan ())) in
  Alcotest.(check bool) "1 worker = 4 workers" true (stats_equal t1 t4);
  Alcotest.(check int) "all faults ran" 10 t1.Engine.faults

let test_campaign_resume_identical () =
  let path = temp_manifest () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let plan () = Plans.inject_plan ~faults:8 ~shards:4 ~seed:5L () in
      let run () =
        Plans.inject_totals
          (Campaign.run ~workers:1 ~checkpoint:(path, Plans.inject_codec) (plan ()))
      in
      let first = run () in
      let resumed_outcome =
        Campaign.run ~workers:1 ~checkpoint:(path, Plans.inject_codec) (plan ())
      in
      Alcotest.(check int) "all shards restored" 4 resumed_outcome.Campaign.resumed;
      Alcotest.(check bool) "resume = uninterrupted" true
        (stats_equal first (Plans.inject_totals resumed_outcome)))

(* A planted always-silent fault (the test-only tamper hook corrupts
   observable output without touching any control word) must surface as
   silent corruption under every scheme — this is what the CLI gate and
   the CI campaign would catch with exit 1.  Past [repro_cap] silent
   faults the reproducers stop growing and the rest are counted. *)
let test_planted_tamper_is_caught () =
  let tamper m = Machine.push_output m 999L in
  let run faults =
    Plans.inject_totals
      (Campaign.run ~workers:1
         (Plans.inject_plan ~schemes:[ Scheme.pacstack ] ~tamper ~faults ~shards:2 ~seed:5L ()))
  in
  let silent (totals : Engine.stats) =
    (List.assoc (Scheme.to_string Scheme.pacstack) totals.Engine.cells).Engine.silent
  in
  let few = run 4 in
  Alcotest.(check int) "every planted fault is silent" 4 (silent few);
  Alcotest.(check int) "gate finds reproducers" 4 (List.length few.Engine.silents);
  let faults = 2 * Engine.repro_cap in
  let many = run faults in
  Alcotest.(check int) "every planted fault is silent past the cap" faults (silent many);
  Alcotest.(check int) "repro_cap reproducers kept" Engine.repro_cap
    (List.length many.Engine.silents);
  Alcotest.(check int) "the rest counted as dropped" Engine.repro_cap
    (Engine.repro_dropped many)

(* Regression (satellite fix): Signal_frame / Reload_window leaking into
   the generic injector used to die on [assert false] — an anonymous
   Assert_failure at engine.ml with no hint of which fault was misrouted.
   The typed error names the fault index and site, and because it is an
   ordinary exception the pool classifies it as a Crashed outcome
   (quarantining the shard) instead of killing the whole campaign. *)
let test_misrouted_site_names_culprit () =
  let contains msg needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1)) in
    go 0
  in
  let check site label =
    let msg = Printexc.to_string (Engine.Misrouted_site { index = 42; site }) in
    Alcotest.(check bool) ("names the fault: " ^ msg) true (contains msg "fault 42");
    Alcotest.(check bool) ("names the site: " ^ msg) true (contains msg label)
  in
  check Fault.Signal_frame "signal-frame";
  check Fault.Reload_window "reload-window"

(* --- statistics ----------------------------------------------------------- *)

let test_stats_json_roundtrip () =
  let stats = Engine.run_range Engine.default_config ~campaign_seed:7L ~first:0 ~count:6 in
  match Engine.stats_of_json (Engine.stats_to_json stats) with
  | None -> Alcotest.fail "stats did not parse back"
  | Some parsed -> Alcotest.(check bool) "roundtrip" true (stats_equal stats parsed)

let test_stats_merge_order_independent () =
  let cfg = Engine.default_config in
  let a = Engine.run_range cfg ~campaign_seed:7L ~first:0 ~count:3 in
  let b = Engine.run_range cfg ~campaign_seed:7L ~first:3 ~count:3 in
  let c = Engine.run_range cfg ~campaign_seed:7L ~first:6 ~count:3 in
  let left = Engine.merge (Engine.merge a b) c in
  let right = Engine.merge a (Engine.merge b c) in
  let swapped = Engine.merge (Engine.merge c b) a in
  Alcotest.(check bool) "associative" true (stats_equal left right);
  Alcotest.(check bool) "commutative" true (stats_equal left swapped);
  Alcotest.(check int) "all faults counted" 9 left.Engine.faults;
  let whole = Engine.run_range cfg ~campaign_seed:7L ~first:0 ~count:9 in
  Alcotest.(check bool) "merged = single-range fold" true (stats_equal left whole)

(* The retention cap: reproducers stay bounded at repro_cap however many
   silent events accumulate, the kept set is the smallest (fault, scheme)
   keys, and the drop count is derivable. *)
let test_reproducer_cap () =
  let silent_result fault =
    { Engine.spec = Fault.derive ~campaign_seed:1L fault;
      scheme = Scheme.unprotected;
      classification = Engine.Silent }
  in
  let t =
    List.fold_left
      (fun t i -> Engine.add_result t (silent_result i))
      Engine.empty
      (List.init (2 * Engine.repro_cap) (fun i -> (2 * Engine.repro_cap) - 1 - i))
  in
  Alcotest.(check int) "capped" Engine.repro_cap (List.length t.Engine.silents);
  Alcotest.(check int) "dropped = silent - kept" Engine.repro_cap (Engine.repro_dropped t);
  List.iteri
    (fun i (r : Engine.reproducer) ->
      Alcotest.(check int) "smallest keys kept, sorted" i r.Engine.fault)
    t.Engine.silents

let test_latency_histogram () =
  Alcotest.(check int) "latency 0" 0 (Engine.bucket 0);
  Alcotest.(check int) "latency 1" 0 (Engine.bucket 1);
  Alcotest.(check int) "latency 2" 1 (Engine.bucket 2);
  Alcotest.(check int) "latency 3" 2 (Engine.bucket 3);
  Alcotest.(check int) "latency 4" 2 (Engine.bucket 4);
  Alcotest.(check int) "latency 5" 3 (Engine.bucket 5);
  Alcotest.(check int) "max_int saturates" (Engine.hist_buckets - 1) (Engine.bucket max_int);
  (* histogram mass = detections; percentile None without detections,
     finite otherwise *)
  let stats = Engine.run_range Engine.default_config ~campaign_seed:7L ~first:0 ~count:8 in
  List.iter
    (fun (c : Engine.cell) ->
      Alcotest.(check int) "histogram mass = detections" c.Engine.detected
        (Array.fold_left ( + ) 0 c.Engine.latency_hist);
      match Engine.latency_percentile c 95.0 with
      | None -> Alcotest.(check int) "None only without detections" 0 c.Engine.detected
      | Some p -> Alcotest.(check bool) "p95 positive and finite" true (p >= 0. && Float.is_finite p))
    (List.map snd stats.Engine.cells @ List.map snd stats.Engine.site_cells)

(* Checkpoint lines are read back from disk: a hand-edited shard line
   holding statistics no campaign can produce is rejected on resume, and
   its shard is recomputed, so the totals still match a clean run. *)
let test_checkpoint_rejects_impossible_stats () =
  let plan () =
    Plans.inject_plan ~schemes:[ Scheme.pacstack; Scheme.unprotected ] ~faults:4 ~shards:2
      ~seed:5L ()
  in
  let reference = Plans.inject_totals (Campaign.run ~workers:1 (plan ())) in
  let get k j = Option.get (Json.member k j) in
  let set k v = function
    | Json.Obj fields -> Json.Obj (List.map (fun (k', x) -> (k', if k' = k then v else x)) fields)
    | j -> j
  in
  let edit_first_hist f result =
    match get "cells" result with
    | Json.List (c :: rest) ->
      let hist = Option.get (Json.to_list (get "latency_hist" c)) in
      set "cells" (Json.List (set "latency_hist" (Json.List (f hist)) c :: rest)) result
    | _ -> Alcotest.fail "shard result has no cells"
  in
  let cases =
    [
      ("histogram too short", edit_first_hist List.tl);
      ( "histogram mass is not detected",
        edit_first_hist (function Json.Int n :: rest -> Json.Int (n + 1) :: rest | h -> h) );
      ( "repeated scheme cell",
        fun result ->
          match get "cells" result with
          | Json.List (c :: rest) -> set "cells" (Json.List (c :: c :: rest)) result
          | _ -> Alcotest.fail "shard result has no cells" );
      ( "more than repro_cap reproducers",
        set "silents"
          (Json.List
             (List.init (Engine.repro_cap + 1) (fun fault ->
                  Engine.reproducer_to_json { Engine.fault; scheme = "pacstack"; site = "ret-slot" })))
      );
    ]
  in
  List.iter
    (fun (label, edit) ->
      let path = temp_manifest () in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          ignore (Campaign.run ~workers:1 ~checkpoint:(path, Plans.inject_codec) (plan ()));
          let lines = In_channel.with_open_text path In_channel.input_lines in
          let edited =
            List.map
              (fun line ->
                match Json.parse line with
                | Ok j when Json.member "shard" j = Some (Json.Int 0) ->
                  Json.to_string (set "result" (edit (get "result" j)) j)
                | _ -> line)
              lines
          in
          Out_channel.with_open_text path (fun oc ->
              List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) edited);
          let resumed = Campaign.run ~workers:1 ~checkpoint:(path, Plans.inject_codec) (plan ()) in
          Alcotest.(check int) (label ^ ": edited shard recomputed") 1 resumed.Campaign.resumed;
          Alcotest.(check bool) (label ^ ": totals match a clean run") true
            (stats_equal reference (Plans.inject_totals resumed))))
    cases

let () =
  Alcotest.run "inject"
    [
      ( "fault",
        [
          Alcotest.test_case "derivation deterministic" `Quick test_derive_deterministic;
          Alcotest.test_case "site strings roundtrip" `Quick test_site_string_roundtrip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "run_fault deterministic" `Quick test_run_fault_deterministic;
          Alcotest.test_case "window: masked vs unmasked" `Quick test_window_masked_vs_unmasked;
          Alcotest.test_case "window: silent without authentication" `Quick
            test_window_silent_without_authentication;
          Alcotest.test_case "signal frame: chained vs unprotected" `Quick
            test_signal_frame_chained_vs_unprotected;
        ] );
      ( "traps",
        [
          Alcotest.test_case "pacstack chain corruption" `Quick
            test_pacstack_chain_corruption_trap;
          Alcotest.test_case "shadow slot corruption" `Quick test_shadow_corruption_traps;
          Alcotest.test_case "misrouted site names the culprit" `Quick
            test_misrouted_site_names_culprit;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "agrees at pac_bits 4 and 12" `Quick test_oracle_agrees;
          Alcotest.test_case "agrees with fuel below the victim" `Quick
            test_oracle_agrees_short_fuel;
          Alcotest.test_case "cold domain agrees" `Quick test_cold_domain_agrees;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "worker independence" `Quick test_campaign_worker_independence;
          Alcotest.test_case "resume identical" `Quick test_campaign_resume_identical;
          Alcotest.test_case "planted tamper caught" `Quick test_planted_tamper_is_caught;
        ] );
      ( "stats",
        [
          Alcotest.test_case "json roundtrip" `Quick test_stats_json_roundtrip;
          Alcotest.test_case "merge order independent" `Quick test_stats_merge_order_independent;
          Alcotest.test_case "reproducer cap" `Quick test_reproducer_cap;
          Alcotest.test_case "latency histogram" `Quick test_latency_histogram;
          Alcotest.test_case "checkpoint rejects impossible stats" `Quick
            test_checkpoint_rejects_impossible_stats;
        ] );
    ]
