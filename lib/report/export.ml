module Rng = Pacstack_util.Rng
module Analysis = Pacstack_acs.Analysis
module Games = Pacstack_acs.Games
module Scheme = Pacstack_harden.Scheme
module Speclike = Pacstack_workloads.Speclike
module Server = Pacstack_workloads.Server
module Machine = Pacstack_machine.Machine
module Profile = Pacstack_machine.Profile
module Compile = Pacstack_minic.Compile
module Reuse = Pacstack_attacker.Reuse
module Adversary = Pacstack_attacker.Adversary
module Stats = Pacstack_util.Stats

let schemes =
  [ Scheme.pacstack; Scheme.pacstack_nomask; Scheme.shadow_stack; Scheme.branch_protection;
    Scheme.stack_protector; Scheme.pcan; Scheme.zipper; Scheme.pactight; Scheme.parts ]

let write_csv ~dir ~name rows =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir name in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun row -> Out_channel.output_string oc (String.concat "," row ^ "\n")) rows);
  path

let table1 ?(seed = 1L) ?(scale = 1.0) ~dir () =
  let rng = Rng.create seed in
  let rows =
    List.map
      (fun (kind, masked, bits, trials) ->
        let trials = max 1 (int_of_float ((float_of_int trials *. scale) +. 0.5)) in
        let theory = Analysis.table1_success_probability ~masked kind ~bits in
        let est = Games.violation_success ~masked ~kind ~bits ~harvest:600 ~trials rng in
        [
          Format.asprintf "%a" Analysis.pp_violation_kind kind;
          string_of_bool masked;
          string_of_int bits;
          Printf.sprintf "%.3e" theory;
          Printf.sprintf "%.3e" est.Games.rate;
        ])
      Plans.table1_cells
  in
  write_csv ~dir ~name:"table1.csv"
    ([ "violation"; "masking"; "bits"; "theory"; "measured" ] :: rows)

let measure_overheads variant =
  List.map
    (fun bench ->
      let baseline = Speclike.measure ~scheme:Scheme.unprotected variant bench in
      ( bench,
        List.map
          (fun scheme ->
            (scheme, Speclike.overhead_pct ~baseline (Speclike.measure ~scheme variant bench)))
          schemes ))
    Speclike.all

let density bench =
  let program = Compile.compile ~scheme:Scheme.unprotected (bench.Speclike.program Speclike.Rate) in
  let m = Machine.load program in
  let profile = Profile.attach m in
  ignore (Machine.run ~fuel:100_000_000 m);
  Profile.call_density profile

let figure5 ~dir =
  let rows =
    List.map
      (fun (bench, per) ->
        bench.Speclike.name
        :: Printf.sprintf "%.2f" (density bench)
        :: List.map (fun (_, oh) -> Printf.sprintf "%.3f" oh) per)
      (measure_overheads Speclike.Rate)
  in
  write_csv ~dir ~name:"figure5.csv"
    (("benchmark" :: "calls_per_ki" :: List.map Scheme.to_string schemes) :: rows)

let geomean per_bench =
  (Stats.geometric_mean (List.map (fun oh -> 1.0 +. (oh /. 100.0)) per_bench) -. 1.0) *. 100.0

let table2 ~dir =
  let rate = measure_overheads Speclike.Rate in
  let speed = measure_overheads Speclike.Speed in
  let rows =
    List.map
      (fun scheme ->
        let mean_of table = geomean (List.map (fun (_, per) -> List.assoc scheme per) table) in
        [
          Scheme.to_string scheme;
          Printf.sprintf "%.3f" (mean_of rate);
          Printf.sprintf "%.3f" (mean_of speed);
        ])
      schemes
  in
  write_csv ~dir ~name:"table2.csv" ([ "scheme"; "specrate_pct"; "specspeed_pct" ] :: rows)

let table3 ~dir =
  let rows =
    List.concat_map
      (fun workers ->
        let baseline = Server.measure ~scheme:Scheme.unprotected ~workers () in
        List.map
          (fun scheme ->
            let r =
              if Scheme.equal scheme Scheme.unprotected then baseline
              else Server.measure ~scheme ~workers ()
            in
            [
              string_of_int workers;
              Scheme.to_string scheme;
              Printf.sprintf "%.0f" r.Server.req_per_sec;
              Printf.sprintf "%.0f" r.Server.sigma;
              Printf.sprintf "%.2f" (Server.overhead_pct ~baseline r);
            ])
          [ Scheme.unprotected; Scheme.pacstack_nomask; Scheme.pacstack;
            Scheme.pcan; Scheme.zipper; Scheme.pactight; Scheme.parts ])
      [ 4; 8 ]
  in
  write_csv ~dir ~name:"table3.csv"
    ([ "workers"; "scheme"; "req_per_sec"; "sigma"; "overhead_pct" ] :: rows)

let attacks ~dir =
  let rows =
    List.concat_map
      (fun (strategy, row) ->
        List.map
          (fun (scheme, outcome) ->
            [
              Reuse.strategy_to_string strategy;
              Scheme.to_string scheme;
              Adversary.outcome_to_string outcome;
            ])
          row)
      (Reuse.matrix ())
  in
  write_csv ~dir ~name:"attacks.csv" ([ "strategy"; "scheme"; "outcome" ] :: rows)

let all ?seed ?scale ~dir () =
  [ table1 ?seed ?scale ~dir (); figure5 ~dir; table2 ~dir; table3 ~dir; attacks ~dir ]
