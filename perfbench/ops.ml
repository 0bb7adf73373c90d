(* The four workloads: what one op is, how the real path runs a batch of
   ops through the library's public entry points, and how the traced run
   replays one op layer by layer.

   Every workload draws its ops from a fixed pool whose results were
   recorded as a golden (golden/<name>.txt).  The workload seed only
   chooses which pool entries a run visits and in what order, so any seed
   gives checkable ops and the same seed gives the same ops.

   The replay repeats, through public calls wrapped in spans, the layer
   calls the real op makes internally (compile, load, run, ...).  Its
   summed layer time is reconciled against the real op's time
   (trace.coverage); when the library changes what an op does, the two
   drift apart and the breakdown is flagged instead of published. *)

module Rng = Pacstack_util.Rng
module Scheme = Pacstack_harden.Scheme
module Config = Pacstack_pa.Config
module Machine = Pacstack_machine.Machine
module Image = Pacstack_machine.Image
module Kernel = Pacstack_machine.Kernel
module Compile = Pacstack_minic.Compile
module Campaign = Pacstack_campaign.Campaign
module Plan = Pacstack_campaign.Plan
module Shard = Pacstack_campaign.Shard
module Json = Pacstack_campaign.Json
module Plans = Pacstack_report.Plans
module Engine = Pacstack_inject.Engine
module Fault = Pacstack_inject.Fault
module Victim = Pacstack_inject.Victim
module Driver = Pacstack_fuzz.Driver
module Oracle = Pacstack_fuzz.Oracle
module Interp = Pacstack_fuzz.Interp
module Speclike = Pacstack_workloads.Speclike
module Games = Pacstack_acs.Games
module Analysis = Pacstack_acs.Analysis

(* Campaign seed of every pool: the results in golden/ belong to it. *)
let pool_seed = 2019L

(* Where the inject workload writes its checkpoint manifest. *)
let work_dir = ref (Filename.concat ".bench_build" "perfbench")

type result = {
  value : string option;  (** [None]: the op raised *)
  body_s : float;  (** wall time of the op *)
  host_s : float;  (** mean of the {!Host.probe} times just before and after it *)
}

(* Run before every op of a batch at one worker; off while recording and
   for the multi-worker check, where ops run on other domains. *)
let probe_host = ref false
let host_probe () = if !probe_host then Span.span "host.probe" Host.probe else nan

type t = {
  name : string;
  op_unit : string;  (** what one op is, for the ops/s line *)
  pool : int;
  params : string;  (** pool parameters, pinned by the golden's header *)
  chunk : int;  (** ops per call of [run] *)
  order : seed:int -> int -> int;
      (** [order ~seed k] is the pool position of the run's [k]-th op *)
  warmup : int array;  (** pool positions run during set-up, for any seed *)
  run : workers:int -> int array -> result array * string;
      (** the real path on a batch of pool positions: per-op results and
          the merged totals as a string *)
  replay : int -> string -> unit;
      (** [replay pos value]: the op's layer calls, in spans *)
  probe : int -> unit;  (** layer calls outside the op's own path *)
}

let schemes = Array.of_list Scheme.all
let fuel = 10_000_000

(* ------------------------------------------------------------------ *)
(* Layer calls shared by the replays                                   *)

let compile ?(optimize = false) scheme ast =
  Span.span
    (if optimize then "minic.compile_opt" else "minic.compile")
    (fun () -> Compile.compile ~scheme ~optimize ast)

(* One [Machine.run] (or [run_until]) with the counts the per-layer
   metrics divide by: steps retired and minor words allocated, overall
   and per scheme. *)
let run_machine ?(fuel = fuel) ?stop scheme m =
  let i0 = Machine.instructions_retired m in
  let w0 = Gc.minor_words () in
  let t0 = Span.now_s () in
  let outcome =
    Span.span "machine.run" (fun () ->
        match stop with
        | None -> Some (Machine.run ~fuel m)
        | Some stop -> Machine.run_until ~fuel m ~stop)
  in
  let dt = Span.now_s () -. t0 in
  let steps = float_of_int (Machine.instructions_retired m - i0) in
  let name = Scheme.to_string scheme in
  Span.count "steps" steps;
  Span.count "alloc_words" (Gc.minor_words () -. w0);
  Span.count ("run_s." ^ name) dt;
  Span.count ("steps." ^ name) steps;
  outcome

(* Image.build and Machine.clone on a program the op compiles: load
   already includes the image build, and no op clones yet, so both are
   timed as probes outside the op's breakdown. *)
let probe_image_and_clone ?cfg compiled =
  let image = Span.span "machine.image_build" (fun () -> Image.build compiled) in
  Span.count "code_bytes" (float_of_int (Image.code_size image));
  Span.count "images" 1.0;
  let m = Machine.load ?cfg compiled in
  ignore (Span.span "machine.clone" (fun () -> Machine.clone m))

(* ------------------------------------------------------------------ *)
(* Campaign windows                                                    *)

let policy = { Campaign.default_policy with Campaign.retries = 0 }

(* A plan over the given positions of [base]: same name, seed and shard
   labels, with each shard running [base]'s own shard body on the base
   shard's generator.  The body is timed per op. *)
let run_window ~workers ?checkpoint ~rngs (base : 'r Plan.t) encode totals positions =
  let times = Array.make (Array.length positions) nan in
  let hosts = Array.make (Array.length positions) nan in
  let plan =
    Plan.make ~name:base.Plan.name ~seed:base.Plan.seed
      ~shards:
        (Array.map
           (fun p ->
             let s = base.Plan.shards.(p) in
             (s.Shard.label, s.Shard.trials))
           positions)
      ~run:(fun sh _ ->
        let p = positions.(sh.Shard.index) in
        let rng = Rng.copy rngs.(p) in
        let before = host_probe () in
        let t0 = Span.now_s () in
        let r = Span.span "campaign.shard" (fun () -> base.Plan.run base.Plan.shards.(p) rng) in
        times.(sh.Shard.index) <- Span.now_s () -. t0;
        hosts.(sh.Shard.index) <- (before +. host_probe ()) /. 2.0;
        r)
  in
  let checkpoint =
    match checkpoint with
    | Some (path, codec) when workers = 1 ->
      (try Sys.remove path with Sys_error _ -> ());
      Some (path, codec)
    | _ -> None
  in
  let outcome =
    Span.span "campaign.run" (fun () -> Campaign.run ~workers ~policy ?checkpoint plan)
  in
  ( Array.mapi
      (fun i r -> { value = Option.map encode r; body_s = times.(i); host_s = hosts.(i) })
      outcome.Campaign.results,
    totals outcome )

let shard_rngs (base : _ Plan.t) =
  Rng.split_n (Rng.create base.Plan.seed) (Plan.shard_count base)

(* Sequential walk from a seed-chosen start: distinct pool entries. *)
let walk pool ~seed =
  let start = Rng.int (Rng.create (Int64.of_int seed)) pool in
  fun k -> (start + k) mod pool

let last_six pool = Array.init 6 (fun i -> pool - 1 - i)

(* ------------------------------------------------------------------ *)
(* inject: one fault under every scheme, CI gate width                 *)

let inject_pac_bits = 12
let inject_pool = 3072

let encode_inject (s : Engine.stats) =
  let site = match s.Engine.site_cells with ((site, _), _) :: _ -> site | [] -> "?" in
  let cls (_, (c : Engine.cell)) =
    if c.Engine.detected > 0 then Printf.sprintf "D%d" c.Engine.latency_sum
    else if c.Engine.silent > 0 then "S"
    else "B"
  in
  site ^ " " ^ String.concat "," (List.map cls s.Engine.cells)

(* [site; classes] of an encoded inject value. *)
let inject_fields value =
  match String.split_on_char ' ' value with
  | [ site; classes ] -> Some (site, Array.of_list (String.split_on_char ',' classes))
  | _ -> None

let inject_replay pos value =
  let spec = Fault.derive ~campaign_seed:pool_seed pos in
  let keys = Fault.rng ~campaign_seed:pool_seed pos in
  let classes = match inject_fields value with Some (_, c) -> c | None -> [||] in
  let cfg = Config.make ~pac_bits:inject_pac_bits () in
  let load compiled =
    Span.span "machine.load" (fun () -> Machine.load ~cfg ~rng:(Rng.copy keys) compiled)
  in
  Array.iteri
    (fun i scheme ->
      let latency =
        if i < Array.length classes && String.length classes.(i) > 1 && classes.(i).[0] = 'D'
        then int_of_string_opt (String.sub classes.(i) 1 (String.length classes.(i) - 1))
        else None
      in
      match spec.Fault.site with
      | Fault.Signal_frame ->
        let compiled = compile scheme (Victim.signal_program ()) in
        let signal_policy =
          if Scheme.chained_signal scheme then Kernel.Sig_chained else Kernel.Sig_unprotected
        in
        (* a delivery-free sizing run, then the reference and the
           injected run, each on a freshly booted kernel *)
        for _ = 1 to 3 do
          let m =
            Span.span "machine.load" (fun () ->
                let k = Kernel.create ~signal_policy (Rng.copy keys) in
                Kernel.machine (Kernel.boot k compiled))
          in
          ignore (run_machine scheme m)
        done
      | Fault.Reload_window ->
        let compiled = compile scheme (Victim.program ()) in
        ignore (run_machine scheme (load compiled));
        ignore (run_machine scheme (load compiled))
      | Fault.Ret_slot | Fault.Chain_spill | Fault.Cr_reg | Fault.Lr_reg | Fault.Shadow_slot
      | Fault.Pac_bits -> (
        let compiled = compile scheme (Victim.program ()) in
        let reference = load compiled in
        ignore (run_machine scheme reference);
        let total = max 1 (Machine.instructions_retired reference) in
        let trigger = max 1 (int_of_float (spec.Fault.trigger *. float_of_int total)) in
        let m = load compiled in
        ignore
          (run_machine scheme m ~stop:(fun m -> Machine.instructions_retired m >= trigger));
        let at = Machine.cycles m in
        (* the injected run lasts until detection, or to the end *)
        match latency with
        | Some l -> ignore (run_machine scheme m ~stop:(fun m -> Machine.cycles m >= at + l))
        | None -> ignore (run_machine scheme m)))
    schemes

let inject () =
  let base =
    Plans.inject_plan ~pac_bits:inject_pac_bits ~faults:inject_pool ~shards:inject_pool
      ~seed:pool_seed ()
  in
  let rngs = shard_rngs base in
  {
    name = "inject";
    op_unit = "faults";
    pool = inject_pool;
    params =
      Printf.sprintf "seed=%Ld faults=%d pac_bits=%d schemes=%s" pool_seed inject_pool
        inject_pac_bits
        (String.concat "," (List.map Scheme.to_string Scheme.all));
    chunk = 24;
    order = walk inject_pool;
    warmup = last_six inject_pool;
    run =
      (fun ~workers positions ->
        let checkpoint = (Filename.concat !work_dir "inject.manifest.jsonl", Plans.inject_codec) in
        run_window ~workers ~checkpoint ~rngs base encode_inject
          (fun o -> Json.to_string (Engine.stats_to_json (Plans.inject_totals o)))
          positions);
    replay = inject_replay;
    probe =
      (fun pos ->
        let scheme = schemes.(pos mod Array.length schemes) in
        probe_image_and_clone
          ~cfg:(Config.make ~pac_bits:inject_pac_bits ())
          (Compile.compile ~scheme (Victim.program ())));
  }

(* ------------------------------------------------------------------ *)
(* fuzz: one generated program, every scheme x peephole off/on         *)

let fuzz_pool = 3072

let encode_fuzz (s : Driver.stats) =
  Printf.sprintf "%d %d %d %d" s.Driver.runs s.Driver.skipped s.Driver.crashes
    (List.length s.Driver.failures)

let fuzz_replay pos _value =
  let cfg = Oracle.default_config in
  let p = Span.span "fuzz.gen" (fun () -> Driver.program_of_seed ~campaign_seed:pool_seed pos) in
  let expected =
    Span.span "fuzz.interp" (fun () -> Interp.run ~max_steps:cfg.Oracle.interp_steps p)
  in
  if expected.Pacstack_fuzz.Trace.outcome <> Pacstack_fuzz.Trace.Fuel then begin
    let fuel_out = ref false in
    List.iter
      (fun scheme ->
        List.iter
          (fun optimize ->
            if not !fuel_out then begin
              let compiled = compile ~optimize scheme p in
              let m = Span.span "machine.load" (fun () -> Machine.load compiled) in
              match run_machine ~fuel:cfg.Oracle.machine_fuel scheme m with
              | Some Machine.Out_of_fuel -> fuel_out := true
              | _ -> ()
            end)
          cfg.Oracle.optimize)
      cfg.Oracle.schemes
  end

let fuzz () =
  let base = Plans.fuzz_plan ~seeds:fuzz_pool ~shards:fuzz_pool ~seed:pool_seed () in
  let rngs = shard_rngs base in
  {
    name = "fuzz";
    op_unit = "programs";
    pool = fuzz_pool;
    params =
      Printf.sprintf "seed=%Ld seeds=%d schemes=%s optimize=off,on" pool_seed fuzz_pool
        (String.concat "," (List.map Scheme.to_string Scheme.all));
    chunk = 16;
    order = walk fuzz_pool;
    warmup = last_six fuzz_pool;
    run =
      (fun ~workers positions ->
        run_window ~workers ~rngs base encode_fuzz
          (fun o -> Json.to_string (Json.Obj (Plans.fuzz_stats_json (Plans.fuzz_totals o))))
          positions);
    replay = fuzz_replay;
    probe =
      (fun pos ->
        let p = Driver.program_of_seed ~campaign_seed:pool_seed pos in
        ignore (Span.span "fuzz.oracle" (fun () -> Oracle.check Oracle.default_config p));
        probe_image_and_clone
          (Compile.compile ~scheme:schemes.(pos mod Array.length schemes) p));
  }

(* ------------------------------------------------------------------ *)
(* exec: the Table 2 Rate kernels under every scheme                   *)

let encode_exec (m : Speclike.measurement) =
  Printf.sprintf "%Ld %d %d" m.Speclike.checksum m.Speclike.cycles m.Speclike.instructions

(* (variant, kernel, scheme) per pool position *)
let exec_cells =
  Array.of_list (Speclike.sweep_cells ~variants:[ Speclike.Rate ] ~schemes:Scheme.all)

let exec () =
  let cells = exec_cells in
  let n = Array.length cells in
  (* each sweep visits every cell once, in its own seeded order *)
  let order ~seed =
    let rng = Rng.create (Int64.of_int seed) in
    let sweeps = ref [||] in
    fun k ->
      let s = k / n in
      while Array.length !sweeps <= s do
        let perm = Array.init n Fun.id in
        Rng.shuffle rng perm;
        sweeps := Array.append !sweeps [| perm |]
      done;
      !sweeps.(s).(k mod n)
  in
  let measure (variant, name, scheme) =
    Span.span "exec.measure" (fun () -> Speclike.measure_cell ~variant ~scheme name)
  in
  {
    name = "exec";
    op_unit = "cells";
    pool = n;
    params =
      Printf.sprintf "variant=rate kernels=%s schemes=%s"
        (String.concat "," (List.map (fun b -> b.Speclike.name) (Speclike.all @ Speclike.cpp)))
        (String.concat "," (List.map Scheme.to_string Scheme.all));
    chunk = n;
    order;
    warmup = Array.init 6 (fun i -> i * 17);
    run =
      (fun ~workers:_ positions ->
        let results =
          Array.map
            (fun p ->
              let before = host_probe () in
              let t0 = Span.now_s () in
              let value = match measure cells.(p) with m -> Some (encode_exec m) | exception _ -> None in
              let body_s = Span.now_s () -. t0 in
              { value; body_s; host_s = (before +. host_probe ()) /. 2.0 })
            positions
        in
        (results, ""));
    replay =
      (fun pos _ ->
        let variant, name, scheme = cells.(pos) in
        match Speclike.find name with
        | None -> ()
        | Some bench ->
          let ast = Span.span "workloads.program" (fun () -> bench.Speclike.program variant) in
          let compiled = compile scheme ast in
          let m = Span.span "machine.load" (fun () -> Machine.load compiled) in
          ignore (run_machine ~fuel:100_000_000 scheme m));
    probe =
      (fun pos ->
        let variant, name, scheme = cells.(pos) in
        match Speclike.find name with
        | None -> ()
        | Some bench -> probe_image_and_clone (Compile.compile ~scheme (bench.Speclike.program variant)));
  }

(* ------------------------------------------------------------------ *)
(* games: the six Table 1 cells, one op per shard                      *)

let games_scale = 2.0
let games_shards_per_cell = 400

(* metric-safe cell names, in Plans.table1_cells order *)
let games_cell_name cell =
  let kind, masked, _, _ = List.nth Plans.table1_cells cell in
  Printf.sprintf "%s.%s"
    (match kind with
    | Analysis.On_graph -> "on-graph"
    | Analysis.Off_graph_to_call_site -> "to-call-site"
    | Analysis.Off_graph_arbitrary -> "to-arbitrary")
    (if masked then "masked" else "unmasked")

let games_cells = List.length Plans.table1_cells

let games () =
  let base =
    Plans.table1_plan ~scale:games_scale ~shards_per_cell:games_shards_per_cell ~seed:pool_seed ()
  in
  let rngs = shard_rngs base in
  let k = games_shards_per_cell in
  (* ops cycle through the cells, so every run sees the same cell mix *)
  let order ~seed =
    let rng = Rng.create (Int64.of_int seed) in
    let offsets = Array.init games_cells (fun _ -> Rng.int rng k) in
    fun i ->
      let c = i mod games_cells in
      (c * k) + ((offsets.(c) + (i / games_cells)) mod k)
  in
  {
    name = "games";
    op_unit = "shards";
    pool = Plan.shard_count base;
    params =
      Printf.sprintf "seed=%Ld scale=%g shards_per_cell=%d harvest=600" pool_seed games_scale k;
    chunk = 36;
    order;
    warmup = Array.init games_cells (fun c -> (c * k) + k - 1);
    run =
      (fun ~workers positions ->
        run_window ~workers ~rngs base
          (fun (cell, (e : Games.estimate)) ->
            Printf.sprintf "%d %d %d" cell e.Games.successes e.Games.trials)
          (fun o ->
            let s = Array.make games_cells 0 and t = Array.make games_cells 0 in
            Campaign.fold o ~init:() ~f:(fun () (cell, (e : Games.estimate)) ->
                s.(cell) <- s.(cell) + e.Games.successes;
                t.(cell) <- t.(cell) + e.Games.trials);
            String.concat ";" (List.init games_cells (fun c -> Printf.sprintf "%d/%d" s.(c) t.(c))))
          positions);
    replay =
      (fun pos _ ->
        let cell = pos / k in
        let kind, masked, bits, _ = List.nth Plans.table1_cells cell in
        let trials = base.Plan.shards.(pos).Shard.trials in
        let name = games_cell_name cell in
        let rng = Rng.copy rngs.(pos) in
        ignore
          (Span.span ("games.violation_success." ^ name) (fun () ->
               Games.violation_success ~masked ~kind ~bits ~harvest:600 ~trials rng));
        Span.count ("trials." ^ name) (float_of_int trials));
    probe = (fun _ -> ());
  }

let all = [ ("inject", inject); ("fuzz", fuzz); ("exec", exec); ("games", games) ]
