module Ast = Pacstack_minic.Ast
module B = Pacstack_minic.Build
module Compile = Pacstack_minic.Compile
module Scheme = Pacstack_harden.Scheme
module Machine = Pacstack_machine.Machine
module Trap = Pacstack_machine.Trap
module Stats = Pacstack_util.Stats
module Obs = Pacstack_obs.Obs

type result = {
  scheme : Scheme.t;
  workers : int;
  req_per_sec : float;
  sigma : float;
  cycles_per_request : float;
  mem_ops_per_request : float;
}

let widx g e = B.(glob g + (e lsl i 3))

(* Response size in records: 72, jittered by the client [variant] — the
   source of Table 3's client-side variance. *)
let records ~variant = 72 + (variant mod 9)

(* One HTTPS request: an RSA-flavoured key exchange (square-and-multiply
   over 2^61-1) plus per-record cipher and MAC passes over the response.
   [records] is the response size in records. *)
let handshake_program ~records =
  Ast.program
    ~globals:[ ("record", 8 * 64); ("state", 8 * 8) ]
    [
      Ast.fdef "reduce" ~params:[ "x" ] B.[ ret (v "x" land i64 0x1fffffffffffffffL) ];
      Ast.fdef "modmul" ~params:[ "a"; "b" ]
        B.[ ret (call "reduce" [ (v "a" * v "b") + (v "a" lsr i 32) ]) ];
      Ast.fdef "modexp" ~params:[ "base"; "e" ]
        ~locals:[ Ast.Scalar "r"; Ast.Scalar "k" ]
        B.[
          set "r" (i 1);
          for_ "k" ~from:(i 0) ~below:(i 32)
            [
              if_ (((v "e" lsr v "k") land i 1) == i 1)
                [ set "r" (call "modmul" [ v "r"; v "base" ]) ]
                [];
              set "base" (call "modmul" [ v "base"; v "base" ]);
            ];
          ret (v "r");
        ];
      Ast.fdef "mix_word" ~params:[ "w"; "k" ]
        B.[ ret ((v "w" * i 2654435761) lxor (v "k" + (v "w" lsr i 29))) ];
      Ast.fdef "cipher_record" ~params:[ "rec"; "key" ]
        ~locals:[ Ast.Scalar "j"; Ast.Scalar "w" ]
        B.[
          for_ "j" ~from:(i 0) ~below:(i 6)
            [
              set "w" (load (widx "record" ((v "rec" + v "j") land i 63)));
              set "w" ((v "w" lsl i 1) lxor (v "key" + v "j"));
              set "w" ((v "w" * i 1099511627) lxor (v "w" lsr i 17));
              store (widx "record" ((v "rec" + v "j") land i 63)) (v "w");
            ];
          ret (call "mix_word" [ load (widx "record" (v "rec" land i 63)); v "key" ]);
        ];
      Ast.fdef "mac_record" ~params:[ "rec"; "key" ]
        ~locals:[ Ast.Scalar "j"; Ast.Scalar "h" ]
        B.[
          set "h" (v "key");
          for_ "j" ~from:(i 0) ~below:(i 8)
            [ set "h" (call "mix_word" [ v "h" + load (widx "record" ((v "rec" + v "j") land i 63)); v "j" ]) ];
          ret (v "h");
        ];
      Ast.fdef "handshake" ~params:[ "nrec" ]
        ~locals:[ Ast.Scalar "key"; Ast.Scalar "r"; Ast.Scalar "sum" ]
        B.[
          set "key" (call "modexp" [ i 65537; i64 0x10001abcdL ]);
          set "sum" (i 0);
          for_ "r" ~from:(i 0) ~below:(v "nrec")
            [
              set "sum" (v "sum" + call "cipher_record" [ v "r" * i 3; v "key" ]);
              set "sum" (v "sum" lxor call "mac_record" [ v "r" * i 3; v "sum" ]);
            ];
          ret (v "sum");
        ];
      Ast.fdef "main"
        ~locals:[ Ast.Scalar "k"; Ast.Scalar "s" ]
        B.[
          for_ "k" ~from:(i 0) ~below:(i 64) [ store (widx "record" (v "k")) (v "k" * i 7919) ];
          set "s" (call "handshake" [ i records ]);
          print (v "s");
          ret (i 0);
        ];
    ]

(* Calibration (see DESIGN.md):
   - [clock_hz] pins the absolute baseline throughput near Table 3;
   - [scaling 8] reflects the paper's own superlinear 4->8-worker baseline
     (30.7k vs 2x14.2k);
   - [contention w] charges each memory operation the instrumentation adds
     *beyond the baseline's footprint*: the baseline working set stays
     cache-resident, while extra stack traffic (CR spills, shadow-stack
     pushes) contends for the memory system as workers multiply — this is
     what makes the paper's 8-worker overheads exceed the 4-worker ones. *)
let clock_hz = 445.0e6
let scaling = function 8 -> 1.08 | _ -> 1.0
let contention = function 8 -> 43.0 | _ -> 1.0

(* Throughput of [workers] cores serving requests of this cost:
   [workers * clock / (cycles + contention charge)], the Table 3 model.
   [base_mem] is the unprotected footprint for the same request size —
   only the instrumentation's *extra* memory traffic contends. *)
let throughput ~workers ~base_mem ~cycles ~mem_ops =
  let beta = contention workers in
  let extra_mem = Float.max 0.0 (mem_ops -. base_mem) in
  float_of_int workers *. clock_hz *. scaling workers /. (cycles +. (beta *. extra_mem))

let obs_cycles_histogram = "server.cycles_per_request"

(* Compiles, loads and runs one request variant under [scheme] and
   returns its [(cycles, memory operations)]. The machine's published
   counters are labelled with the scheme (machine.*{scheme=...}). *)
let run_request ~scheme ~variant =
  if Obs.enabled () then Obs.Metrics.incr "server.requests";
  let m = Machine.load (Compile.compile ~scheme (handshake_program ~records:(records ~variant))) in
  if Obs.enabled () then Machine.set_obs_label m (Scheme.to_string scheme);
  let cycles, mem_ops =
    match Machine.run ~fuel:10_000_000 m with
    | Machine.Halted 0 ->
      (float_of_int (Machine.cycles m), float_of_int (Machine.memory_operations m))
    | Machine.Halted c -> failwith (Printf.sprintf "server: exit %d" c)
    | Machine.Faulted f -> failwith ("server: fault: " ^ Trap.to_string f)
    | Machine.Out_of_fuel -> failwith "server: out of fuel"
  in
  if Obs.enabled () then begin
    Obs.Metrics.register_histogram obs_cycles_histogram ~lo:0. ~hi:1e6 ~buckets:20;
    Obs.Metrics.observe obs_cycles_histogram cycles
  end;
  (cycles, mem_ops)

let measure ~scheme ~workers ?(variants = 10) () =
  if variants < 2 then invalid_arg "Server.measure";
  let samples = List.init variants (fun variant -> run_request ~scheme ~variant) in
  let base_samples =
    if Scheme.equal scheme Scheme.unprotected then samples
    else List.init variants (fun variant -> run_request ~scheme:Scheme.unprotected ~variant)
  in
  let tps =
    List.map2
      (fun (_, base_mem) (cycles, mem_ops) ->
        throughput ~workers ~base_mem ~cycles ~mem_ops)
      base_samples samples
  in
  let cycles = Stats.mean (List.map fst samples) in
  let mem_ops = Stats.mean (List.map snd samples) in
  {
    scheme;
    workers;
    req_per_sec = Stats.mean tps;
    sigma = Stats.stddev tps;
    cycles_per_request = cycles;
    mem_ops_per_request = mem_ops;
  }

let overhead_pct ~baseline r =
  (baseline.req_per_sec -. r.req_per_sec) /. baseline.req_per_sec *. 100.0

let sweep_cells ?(worker_counts = [ 4; 8 ])
    ?(schemes =
      [ Scheme.unprotected; Scheme.pacstack_nomask; Scheme.pacstack;
        Scheme.pcan; Scheme.zipper; Scheme.pactight; Scheme.parts ]) () =
  List.concat_map (fun workers -> List.map (fun scheme -> (workers, scheme)) schemes) worker_counts
