(* The repository benchmark.

     bench.exe [run] --workload W --seed N --seconds S --trace 0|1
     bench.exe record --workload W        (re-record golden/W.txt)
     bench.exe selftest                   (a perturbed golden must fail)

   A run sets the workload up several times (the median is setup_s),
   then runs ops through the library's real entry points for S seconds
   at one worker, checks every op's simulated result against the golden,
   and prints the end-to-end metrics.  With --trace 1 it instead prints
   the per-layer metrics of a traced run (see README.md).  The last line
   of standard output is one JSON object: correct, attempted, failed,
   metrics. *)

module Stats = Pacstack_util.Stats
module Scheme = Pacstack_harden.Scheme
module Rng = Pacstack_util.Rng
module Analysis = Pacstack_acs.Analysis
module Plans = Pacstack_report.Plans
module Fault = Pacstack_inject.Fault
module Prf = Pacstack_qarma.Prf
module Pac = Pacstack_pa.Pac
module Config = Pacstack_pa.Config

let now = Span.now_s
let median l = Stats.median l

(* ------------------------------------------------------------------ *)
(* Golden                                                              *)

let golden_path dir name = Filename.concat dir (name ^ ".txt")

let read_golden path (w : Ops.t) =
  let ic = open_in path in
  let values = Array.make w.Ops.pool "" in
  let params = ref None in
  (try
     while true do
       let line = input_line ic in
       if String.starts_with ~prefix:"# params: " line then
         params := Some (String.sub line 10 (String.length line - 10))
       else if line <> "" && line.[0] <> '#' then
         match String.index_opt line '\t' with
         | Some i ->
           let pos = int_of_string (String.sub line 0 i) in
           values.(pos) <- String.sub line (i + 1) (String.length line - i - 1)
         | None -> failwith ("malformed golden line: " ^ line)
     done
   with End_of_file -> close_in ic);
  if !params <> Some w.Ops.params then
    failwith (Printf.sprintf "%s: recorded for other pool parameters" path);
  Array.iteri
    (fun i v -> if v = "" then failwith (Printf.sprintf "%s: no entry for %d" path i))
    values;
  values

let write_golden path (w : Ops.t) ~commit values =
  let oc = open_out path in
  Printf.fprintf oc "# perfbench golden: %s, one line per pool position\n" w.Ops.name;
  Printf.fprintf oc "# recorded at commit %s\n" commit;
  Printf.fprintf oc "# params: %s\n" w.Ops.params;
  Array.iteri (fun i v -> Printf.fprintf oc "%d\t%s\n" i v) values;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Paper-grounded checks                                               *)

let pacstack_index =
  let rec find i = function
    | [] -> -1
    | s :: rest -> if Scheme.to_string s = "pacstack" then i else find (i + 1) rest
  in
  find 0 Scheme.all

(* A fault pacstack let through silently, at one of [sites]. *)
let pacstack_silent ~sites value =
  match Ops.inject_fields value with
  | Some (site, classes) -> List.mem site sites && classes.(pacstack_index) = "S"
  | None -> false

let all_sites = List.map Fault.site_to_string (Array.to_list Fault.all_sites)

(* The sites an adversary reaches through memory, as in the paper; the
   two register glitches (cr-reg, lr-reg) are outside its model. *)
let memory_sites =
  List.filter (fun s -> s <> "cr-reg" && s <> "lr-reg") all_sites

(* Wilson score interval at 99% confidence. *)
let wilson99 ~successes ~trials =
  let z = 2.5758293 in
  let n = float_of_int trials and p = float_of_int successes /. float_of_int trials in
  let denom = 1.0 +. (z *. z /. n) in
  let centre = (p +. (z *. z /. (2.0 *. n))) /. denom in
  let half = z /. denom *. sqrt ((p *. (1.0 -. p) /. n) +. (z *. z /. (4.0 *. n *. n))) in
  (centre -. half, centre +. half)

let ints s = List.map int_of_string (String.split_on_char ' ' s)

(* Per-cell pooled (successes, trials) over [(position, value)] pairs. *)
let games_cells values =
  let s = Array.make Ops.games_cells 0 and t = Array.make Ops.games_cells 0 in
  List.iter
    (fun v ->
      match ints v with
      | [ cell; succ; trials ] ->
        s.(cell) <- s.(cell) + succ;
        t.(cell) <- t.(cell) + trials
      | _ -> ())
    values;
  (s, t)

let games_wilson values =
  let s, t = games_cells values in
  List.mapi
    (fun cell (kind, masked, bits, _) ->
      let p = Analysis.table1_success_probability ~masked kind ~bits in
      let lo, hi = wilson99 ~successes:s.(cell) ~trials:(max 1 t.(cell)) in
      ( Printf.sprintf "games %s: analytic %.3e in Wilson 99%% [%.3e, %.3e] of %d/%d"
          (Ops.games_cell_name cell) p lo hi s.(cell) t.(cell),
        t.(cell) > 0 && lo <= p && p <= hi ))
    Plans.table1_cells

(* A check: what it says, whether it passed, whether it gates the run's
   [correct].  Reported-only checks are printed on every run. *)
type check = { what : string; ok : bool; gate : bool }

(* Checks on the whole golden: what the recorded results must satisfy
   for the paper's claims to hold. *)
let golden_checks (w : Ops.t) golden =
  let all = Array.to_list golden in
  let checks gate l = List.map (fun (what, ok) -> { what; ok; gate }) l in
  match w.Ops.name with
  | "inject" ->
    let silent sites what gate =
      let n = List.length (List.filter (pacstack_silent ~sites) all) in
      { what = Printf.sprintf "inject golden: %d pacstack silent faults of %d at %s" n
            (Array.length golden) what; ok = n = 0; gate }
    in
    [ silent memory_sites "memory sites" true; silent all_sites "all sites" false ]
  | "fuzz" -> checks true @@
    let bad =
      List.length
        (List.filter (fun v -> match ints v with [ _; _; c; d ] -> c + d > 0 | _ -> true) all)
    in
    [ (Printf.sprintf "fuzz golden: %d programs crash or diverge" bad, bad = 0) ]
  | "exec" ->
    checks true @@
    (* hardening must not change semantics: one checksum per kernel *)
    let by_kernel = Hashtbl.create 16 in
    Array.iteri
      (fun pos v ->
        let _, kernel, _ = Ops.exec_cells.(pos) in
        let sum = List.hd (String.split_on_char ' ' v) in
        let prev = Option.value (Hashtbl.find_opt by_kernel kernel) ~default:[] in
        Hashtbl.replace by_kernel kernel (sum :: prev))
      golden;
    Hashtbl.fold
      (fun kernel sums acc ->
        ( Printf.sprintf "exec golden: %s checksum identical across %d schemes" kernel
            (List.length sums),
          List.for_all (( = ) (List.hd sums)) sums )
        :: acc)
      by_kernel []
    |> List.sort compare
  | "games" ->
    (* reported, not gated: at 99% per cell, one of six cells misses by
       chance in about one sample of sixteen *)
    checks false (games_wilson all)
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)

(* Times are at the reference host speed (see Host) unless named raw. *)
type run = {
  mutable ops : int;
  mutable failed : int;
  mutable latencies : float list;  (** per-op ms *)
  mutable batches : int;
  mutable busy_s : float;  (** summed time of the real-path calls *)
  mutable raw_s : float;  (** the same, as measured *)
  mutable values : (int * string) list;  (** (position, value) of ok ops *)
}

let fresh () =
  { ops = 0; failed = 0; latencies = []; batches = 0; busy_s = 0.0; raw_s = 0.0; values = [] }

(* Host scale of each op of a batch, from the probes of its seven
   neighbours, so a drift inside a batch is followed. *)
let local_scales hosts =
  let n = Array.length hosts in
  Array.init n (fun i ->
      let near = List.init 7 (fun d -> i + d - 3) in
      match List.filter (fun j -> j >= 0 && j < n && not (Float.is_nan hosts.(j))) near with
      | [] -> 1.0
      | l -> Host.scale (List.map (fun j -> hosts.(j)) l))

(* Runs ops from the seed's order, starting at op [k], until [seconds]
   have passed; calls [after] on each batch (the traced run's replay).
   Returns the next op index. *)
let measure (w : Ops.t) golden ~order ~k ~seconds ?(after = fun _ _ -> ()) r =
  let k = ref k in
  let start = now () in
  Ops.probe_host := true;
  while now () -. start < seconds do
    let positions = Array.init w.Ops.chunk (fun i -> order (!k + i)) in
    k := !k + w.Ops.chunk;
    let t0 = now () in
    let results =
      match w.Ops.run ~workers:1 positions with
      | results, _ -> results
      | exception e ->
        Printf.printf "batch raised: %s\n" (Printexc.to_string e);
        Array.map (fun _ -> { Ops.value = None; body_s = nan; host_s = nan }) positions
    in
    (* the probes' own time (two per op) is not the program's *)
    let hosts = Array.map (fun (res : Ops.result) -> res.Ops.host_s) results in
    let probed = List.filter (fun h -> not (Float.is_nan h)) (Array.to_list hosts) in
    let work = now () -. t0 -. (2.0 *. List.fold_left ( +. ) 0.0 probed) in
    let scale = match probed with [] -> 1.0 | l -> Host.scale l in
    let scales = local_scales hosts in
    (* each op body at its own local scale, the rest at the batch's *)
    let bodies = ref 0.0 and scaled_bodies = ref 0.0 in
    Array.iteri
      (fun i (res : Ops.result) ->
        if not (Float.is_nan res.Ops.body_s) then begin
          bodies := !bodies +. res.Ops.body_s;
          scaled_bodies := !scaled_bodies +. (res.Ops.body_s *. scales.(i))
        end)
      results;
    r.busy_s <- r.busy_s +. !scaled_bodies +. ((work -. !bodies) *. scale);
    r.raw_s <- r.raw_s +. work;
    r.batches <- r.batches + 1;
    Array.iteri
      (fun i (res : Ops.result) ->
        r.ops <- r.ops + 1;
        let pos = positions.(i) in
        (match res.Ops.value with
        | Some v when v = golden.(pos) -> r.values <- (pos, v) :: r.values
        | Some v ->
          r.failed <- r.failed + 1;
          Printf.printf "op %d (pool %d): got %S, golden %S\n" (!k - w.Ops.chunk + i) pos v
            golden.(pos)
        | None -> r.failed <- r.failed + 1);
        (* a failed op counts as missing any latency limit *)
        let ms =
          if res.Ops.value = None || Float.is_nan res.Ops.body_s then infinity
          else res.Ops.body_s *. scales.(i) *. 1e3
        in
        r.latencies <- ms :: r.latencies)
      results;
    after positions results
  done;
  Ops.probe_host := false;
  !k

let setup name ~seed ~golden_dir ~perturb =
  let probes = List.init 3 (fun _ -> Host.probe ()) in
  let t0 = now () in
  let w = (List.assoc name Ops.all) () in
  let golden = read_golden (golden_path golden_dir name) w in
  let checks = golden_checks w golden in
  let order = w.Ops.order ~seed in
  (* perturbing the golden entry of the first timed op must fail it *)
  if perturb then golden.(order 0) <- golden.(order 0) ^ "~";
  (* warm-up on fixed ops, each after a host probe *)
  Ops.probe_host := true;
  let warm, _ = w.Ops.run ~workers:1 w.Ops.warmup in
  Ops.probe_host := false;
  Gc.compact ();
  let warm_probes = Array.to_list (Array.map (fun (r : Ops.result) -> r.Ops.host_s) warm) in
  let wall = now () -. t0 -. (2.0 *. List.fold_left ( +. ) 0.0 warm_probes) in
  let probes = probes @ warm_probes @ List.init 3 (fun _ -> Host.probe ()) in
  (w, golden, checks, order, wall *. Host.scale probes)

let setup_repeats = 9

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  let v = scan () in
  close_in ic;
  v

(* Totals at 2 workers must equal those at 1 worker bit for bit. *)
let worker_identity (w : Ops.t) ~order =
  match w.Ops.name with
  | "inject" | "fuzz" ->
    let positions = Array.init 6 order in
    let r1, t1 = w.Ops.run ~workers:1 positions in
    let r2, t2 = w.Ops.run ~workers:2 positions in
    let same = t1 = t2 && Array.for_all2 (fun (a : Ops.result) (b : Ops.result) -> a.Ops.value = b.Ops.value) r1 r2 in
    [ { what = Printf.sprintf "%s totals at 2 workers equal 1 worker (6 ops)" w.Ops.name; ok = same; gate = true } ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

(* ns per call of [f], median of 5 rounds of [n] calls *)
let ns_per_call n f =
  median
    (List.init 5 (fun _ ->
         let t0 = now () in
         for i = 1 to n do
           ignore (Sys.opaque_identity (f i))
         done;
         (now () -. t0) /. float_of_int n *. 1e9))

let qarma_probes () =
  let rng = Rng.create 7L in
  let prf = Prf.create_fast (Rng.next64 rng) in
  let cfg = Config.make ~pac_bits:16 () in
  let signed = Pac.add cfg prf 0x400120L ~modifier:0x7fff0000L in
  [
    ("qarma.mac_ns", ns_per_call 200_000 (fun i -> Prf.mac64 prf ~data:(Int64.of_int i) ~modifier:7L));
    ("qarma.key_setup_ns", ns_per_call 200_000 (fun _ -> Prf.of_rng ~fast:true rng));
    ("pa.auth_ns", ns_per_call 200_000 (fun _ -> Pac.auth_value cfg prf signed ~modifier:0x7fff0000L));
  ]

let agg_total name = match Span.find name with Some a -> a.Span.total | None -> 0.0
let agg_mean name = match Span.find name with Some a when a.Span.count > 0 -> a.Span.total /. float_of_int a.Span.count | _ -> 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

let games_cell_names = List.init Ops.games_cells Ops.games_cell_name

(* The per-layer metrics, in BENCHMARK.json order.  0 marks a layer the
   workload does not call. *)
let layer_metrics ~replayed ~coverage ~sites ~gc ~untraced_rate ~traced_rate =
  let steps = Span.counter "steps" in
  (* the host probes run inside Campaign.run but are not its work *)
  let campaign = agg_total "campaign.run" -. agg_total "host.probe" in
  let minor, major = gc in
  [
    ("machine.load_ms", agg_mean "machine.load" *. 1e3, "ms");
    ("machine.image_build_ms", agg_mean "machine.image_build" *. 1e3, "ms");
    ("machine.clone_us", agg_mean "machine.clone" *. 1e6, "us");
    ("minic.compile_ms", agg_mean "minic.compile" *. 1e3, "ms");
    ("minic.compile_opt_ms", agg_mean "minic.compile_opt" *. 1e3, "ms");
    ("machine.step_ns", ratio (agg_total "machine.run") steps *. 1e9, "ns");
  ]
  @ List.map
      (fun s ->
        let n = Scheme.to_string s in
        ("exec.step_ns." ^ n, ratio (Span.counter ("run_s." ^ n)) (Span.counter ("steps." ^ n)) *. 1e9, "ns"))
      Scheme.all
  @ [
      ("machine.alloc_words_per_step", ratio (Span.counter "alloc_words") steps, "words/step");
      ("machine.steps_per_op", ratio steps (float_of_int replayed), "count");
      ("minic.code_bytes", ratio (Span.counter "code_bytes") (Span.counter "images"), "bytes");
    ]
  @ List.map (fun (n, v) -> (n, v, "ns")) (qarma_probes ())
  @ List.map
      (fun c ->
        ( "games.trial_us." ^ c,
          ratio (agg_total ("games.violation_success." ^ c)) (Span.counter ("trials." ^ c)) *. 1e6,
          "us" ))
      games_cell_names
  @ List.map
      (fun site ->
        let name = Fault.site_to_string site in
        ( "inject.fault_ms." ^ name,
          (match Hashtbl.find_opt sites name with Some l -> median l | None -> 0.0),
          "ms" ))
      (Array.to_list Fault.all_sites)
  @ [
      ("fuzz.gen_ms", agg_mean "fuzz.gen" *. 1e3, "ms");
      ("fuzz.interp_ms", agg_mean "fuzz.interp" *. 1e3, "ms");
      ("fuzz.oracle_ms", agg_mean "fuzz.oracle" *. 1e3, "ms");
      ("campaign.overhead_frac", ratio (campaign -. agg_total "campaign.shard") campaign, "ratio");
      ("gc.minor_words_per_op", minor, "words");
      ("gc.major_words_per_op", major, "words");
      ("trace.coverage", coverage, "ratio");
      ("trace.reconciled", (if Float.abs (coverage -. 1.0) <= 0.1 then 1.0 else 0.0), "count");
      ("trace.overhead_frac", ratio untraced_rate traced_rate -. 1.0, "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_metric (name, v, unit) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", " (List.map json_metric metrics))

(* Prints every check; true when every gated one passed. *)
let report_checks checks =
  List.iter
    (fun c ->
      Printf.printf "check %s (%s): %s\n" (if c.ok then "ok" else "FAILED")
        (if c.gate then "gated" else "reported") c.what)
    checks;
  List.for_all (fun c -> c.ok || not c.gate) checks

let percentiles latencies =
  match latencies with
  | [] -> (nan, nan)
  | l -> (
    match Stats.percentiles l [ 50.0; 95.0 ] with [ a; b ] -> (a, b) | _ -> (nan, nan))

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  golden_dir : string;
  commit : string;
  source : string;
  perturb : bool;
}

let fingerprint o (w : Ops.t) (r : run) =
  let n = List.length r.latencies in
  Printf.printf
    "fingerprint {\"nproc\": %d, \"ocaml\": %S, \"commit\": %S, \"source_digest\": %S, \"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"workers\": 1, \"pool\": %d, \"chunk\": %d, \"ops\": %d, \"p50_samples\": %d, \"p95_samples\": %d, \"p95_beyond\": %d}\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version o.commit o.source w.Ops.name o.seed
    o.seconds o.trace w.Ops.pool w.Ops.chunk r.ops n n
    (n - int_of_float (Float.ceil (0.95 *. float_of_int n)))

(* One benchmark run; returns (correct, attempted, failed). *)
let run_workload o =
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%b\n%!" o.workload o.seed o.seconds o.trace;
  let setups =
    List.init setup_repeats (fun _ ->
        setup o.workload ~seed:o.seed ~golden_dir:o.golden_dir ~perturb:o.perturb)
  in
  let w, golden, checks, order, _ = List.nth setups (setup_repeats - 1) in
  let setup_s = median (List.map (fun (_, _, _, _, s) -> s) setups) in
  let r = fresh () in
  if not o.trace then begin
    ignore (measure w golden ~order ~k:0 ~seconds:o.seconds r);
    let rss = peak_rss_mb () in
    let identity = worker_identity w ~order in
    let p50, p95 = percentiles r.latencies in
    let rate = float_of_int r.ops /. r.busy_s in
    let raw = float_of_int r.ops /. r.raw_s in
    fingerprint o w r;
    Printf.printf
      "metric ops_per_s = %.4f ops/s (%s/s over %d batches of %d; %.4f as measured, host scale %.3f)\n"
      rate w.Ops.op_unit r.batches w.Ops.chunk raw (raw /. rate);
    Printf.printf "metric op_p50_ms = %.4f ms (%d samples)\n" p50 r.ops;
    Printf.printf "metric op_p95_ms = %.4f ms (%d samples)\n" p95 r.ops;
    Printf.printf "metric failed_frac = %g (%d of %d ops)\n"
      (float_of_int r.failed /. float_of_int (max 1 r.ops)) r.failed r.ops;
    Printf.printf "metric peak_rss_mb = %.3f MB\n" rss;
    Printf.printf "metric setup_s = %.4f s (median of %d set-ups)\n" setup_s setup_repeats;
    if w.Ops.name = "games" then
      (* informational: a 99% interval misses the analytic rate now and
         then by chance; the gated check is on the whole golden pool *)
      List.iter (fun (what, ok) -> Printf.printf "info this run's %s: %s\n" what (if ok then "inside" else "outside"))
        (games_wilson (List.map snd r.values));
    let ok = report_checks (checks @ identity) in
    let correct = ok && r.failed = 0 in
    print_result ~correct ~attempted:r.ops ~failed:r.failed
      [
        ("ops_per_s", rate, "ops/s");
        ("op_p50_ms", p50, "ms");
        ("op_p95_ms", p95, "ms");
        ("peak_rss_mb", rss, "MB");
        ("setup_s", setup_s, "s");
      ];
    (correct, r.ops, r.failed)
  end
  else begin
    (* phase A, untraced: the rate the traced phase is compared with, and
       the allocation per op *)
    let g0 = Gc.quick_stat () in
    let k = measure w golden ~order ~k:0 ~seconds:(0.4 *. o.seconds) r in
    let g1 = Gc.quick_stat () in
    let per_op x = x /. float_of_int (max 1 r.ops) in
    let gc =
      (per_op (g1.Gc.minor_words -. g0.Gc.minor_words), per_op (g1.Gc.major_words -. g0.Gc.major_words))
    in
    let untraced_rate = float_of_int r.ops /. r.busy_s in
    (* phase B, traced: real ops in spans, then each op's replay *)
    let b = fresh () in
    let replayed = ref 0 in
    (* coverage compares each op with its replay, both at the reference
       host speed: the replay runs later, maybe on a faster or slower host *)
    let replay_s = ref 0.0 and op_s = ref 0.0 in
    let replay_layers () =
      match Span.find "replay" with Some a -> a.Span.total -. a.Span.self | None -> 0.0
    in
    let sites = Hashtbl.create 8 in
    Span.reset ();
    Span.enabled := true;
    ignore
      (measure w golden ~order ~k ~seconds:(0.6 *. o.seconds) b ~after:(fun positions results ->
           Array.iteri
             (fun i (res : Ops.result) ->
               match res.Ops.value with
               | None -> ()
               | Some v ->
                 let pos = positions.(i) in
                 Span.op := pos;
                 incr replayed;
                 let before = replay_layers () and h0 = Host.probe () in
                 Span.span "replay" (fun () -> w.Ops.replay pos v);
                 let h1 = Host.probe () in
                 replay_s := !replay_s +. ((replay_layers () -. before) *. Host.scale [ h0; h1 ]);
                 op_s := !op_s +. (res.Ops.body_s *. Host.scale [ res.Ops.host_s ]);
                 Span.span "probe" (fun () -> w.Ops.probe pos);
                 (match Ops.inject_fields v with
                 | Some (site, _) when w.Ops.name = "inject" ->
                   let prev = Option.value (Hashtbl.find_opt sites site) ~default:[] in
                   Hashtbl.replace sites site ((res.Ops.body_s *. 1e3) :: prev)
                 | _ -> ()))
             results));
    Span.enabled := false;
    let traced_rate = float_of_int b.ops /. b.busy_s in
    (try Span.write (Filename.concat !Ops.work_dir (Printf.sprintf "spans-%s.tsv" w.Ops.name))
     with Sys_error e -> Printf.printf "spans not written: %s\n" e);
    let metrics =
      layer_metrics ~replayed:!replayed ~coverage:(ratio !replay_s !op_s) ~sites ~gc ~untraced_rate
        ~traced_rate
    in
    let attempted = r.ops + b.ops and failed = r.failed + b.failed in
    fingerprint o w { r with ops = attempted; latencies = r.latencies @ b.latencies };
    List.iter
      (fun (name, (a : Span.agg)) ->
        Printf.printf "span %-44s calls %6d  total %9.4f s  self %9.4f s\n" name a.Span.count
          a.Span.total a.Span.self)
      (List.sort compare (List.of_seq (Hashtbl.to_seq Span.aggs)));
    List.iter (fun (n, v, u) -> Printf.printf "layer %s = %.6g %s\n" n v u) metrics;
    let coverage = List.assoc "trace.coverage" (List.map (fun (n, v, _) -> (n, v)) metrics) in
    if Float.abs (coverage -. 1.0) > 0.1 then
      Printf.printf
        "FLAG %s: layer self-times cover %.1f%% of op time (outside 90-110%%): the breakdown does not reconcile\n"
        w.Ops.name (coverage *. 100.0)
    else Printf.printf "reconciled %s: layer self-times cover %.1f%% of op time\n" w.Ops.name (coverage *. 100.0);
    let ok = report_checks checks in
    let correct = ok && failed = 0 in
    print_result ~correct ~attempted ~failed metrics;
    (correct, attempted, failed)
  end

(* ------------------------------------------------------------------ *)
(* record and selftest                                                 *)

let record o =
  let w = (List.assoc o.workload Ops.all) () in
  let values = Array.make w.Ops.pool "" in
  let batch = 64 in
  let t0 = now () in
  let rec go lo =
    if lo < w.Ops.pool then begin
      let positions = Array.init (min batch (w.Ops.pool - lo)) (fun i -> lo + i) in
      let results, _ = w.Ops.run ~workers:1 positions in
      Array.iteri
        (fun i (r : Ops.result) ->
          match r.Ops.value with
          | Some v -> values.(positions.(i)) <- v
          | None -> failwith (Printf.sprintf "op %d raised while recording" positions.(i)))
        results;
      Printf.eprintf "\rrecorded %d/%d%!" (lo + Array.length positions) w.Ops.pool;
      go (lo + batch)
    end
  in
  go 0;
  Printf.eprintf "\n";
  let path = golden_path o.golden_dir w.Ops.name in
  write_golden path w ~commit:o.commit values;
  Printf.printf "recorded %s: %d ops in %.1f s\n" path w.Ops.pool (now () -. t0);
  let ok = report_checks (golden_checks w values) in
  if not ok then exit 1

let selftest o =
  let ok =
    List.for_all
      (fun (name, _) ->
        let correct, _, failed =
          run_workload { o with workload = name; seconds = 1.0; trace = false; perturb = true }
        in
        let pass = (not correct) && failed >= 1 in
        Printf.printf "selftest %s: perturbed golden gives failed=%d correct=%b: %s\n%!" name
          failed correct (if pass then "ok" else "FAILED");
        pass)
      Ops.all
  in
  exit (if ok then 0 else 1)

let () =
  let mode = ref "run" in
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let golden_dir = ref (Filename.concat "perfbench" "golden") in
  let commit = ref "unknown" and source = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME inject, fuzz, exec or games");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--golden", Arg.Set_string golden_dir, "DIR golden directory");
      ("--work", Arg.Set_string Ops.work_dir, "DIR scratch directory (checkpoint, spans)");
      ("--commit", Arg.Set_string commit, "ID commit, for the fingerprint");
      ("--source-digest", Arg.Set_string source, "HEX digest of the sources, for the fingerprint");
    ]
  in
  Arg.parse spec (fun m -> mode := m) "bench.exe [run|record|selftest] [options]";
  (* the scratch directory, created as `mkdir -p` would *)
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p !Ops.work_dir;
  let o =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      golden_dir = !golden_dir;
      commit = !commit;
      source = !source;
      perturb = false;
    }
  in
  let known = List.mem_assoc o.workload Ops.all in
  match !mode with
  | "selftest" -> selftest o
  | ("run" | "record") when not known ->
    prerr_endline ("unknown workload: " ^ o.workload);
    exit 2
  | "record" -> record o
  | "run" ->
    let correct, _, _ = run_workload o in
    ignore correct
  | m ->
    prerr_endline ("unknown mode: " ^ m);
    exit 2
