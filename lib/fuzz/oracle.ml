(* The differential oracle.

   One generated program is compiled under every hardening scheme, with
   and without the peephole optimizer, executed on the machine model,
   and each run's observable trace is compared against the reference
   interpreter's.  Fuel exhaustion on either side skips the seed (a
   slow program proves nothing either way); any other difference is a
   divergence, attributed to its first point of disagreement.

   [transform] is a hook applied to the compiled [Program.t] before it
   is loaded — tests use it to plant a deliberate miscompilation and
   check that the oracle catches and the shrinker localises it.  It is
   never set in production fuzzing. *)

module Ast = Pacstack_minic.Ast
module Compile = Pacstack_minic.Compile
module Scheme = Pacstack_harden.Scheme
module Machine = Pacstack_machine.Machine
module Program = Pacstack_isa.Program

type config = {
  schemes : Scheme.t list;
  optimize : bool list; (* peephole off/on variants to run *)
  machine_fuel : int;
  interp_steps : int;
  transform : (Program.t -> Program.t) option;
}

let default_config =
  {
    schemes = Scheme.all;
    optimize = [ false; true ];
    machine_fuel = 10_000_000;
    interp_steps = Interp.default_max_steps;
    transform = None;
  }

(* Compile and run one variant on the machine model. *)
let machine_trace cfg ~scheme ~optimize (p : Ast.program) : Trace.t =
  let compiled = Compile.compile ~scheme ~optimize p in
  let compiled =
    match cfg.transform with Some f -> f compiled | None -> compiled
  in
  let m = Machine.load compiled in
  Trace.of_machine m (Machine.run ~fuel:cfg.machine_fuel m)

type site = First_output of int | Outcome
(** Where a divergence first becomes visible: output position [i], or
    the final outcome after identical output. *)

let pp_site fmt = function
  | First_output i -> Format.fprintf fmt "output[%d]" i
  | Outcome -> Format.fprintf fmt "outcome"

let site_to_string s = Format.asprintf "%a" pp_site s

let first_divergence ~(expected : Trace.t) ~(actual : Trace.t) =
  let rec scan i a b =
    match (a, b) with
    | x :: a', y :: b' ->
        if Int64.equal x y then scan (i + 1) a' b' else First_output i
    | [], [] -> Outcome
    | [], _ :: _ | _ :: _, [] -> First_output i
  in
  if Trace.equal expected actual then Outcome (* unused: only for diverging pairs *)
  else
    match scan 0 expected.output actual.output with
    | First_output i -> First_output i
    | Outcome -> Outcome

type divergence = {
  scheme : Scheme.t;
  optimize : bool;
  expected : Trace.t; (* the interpreter's trace *)
  actual : Trace.t; (* the machine's trace *)
  site : site;
}

let pp_divergence fmt d =
  Format.fprintf fmt "@[<v 2>%s%s diverges at %a:@ interpreter: %a@ machine:     %a@]"
    (Scheme.to_string d.scheme)
    (if d.optimize then "+peephole" else "")
    pp_site d.site Trace.pp d.expected Trace.pp d.actual

type verdict =
  | Agree of int  (** all variants matched; the count of machine runs *)
  | Disagree of divergence list
  | Skipped of string  (** fuel ran out somewhere: no verdict *)

(* Compare every (scheme, optimize) variant of [p] against the
   interpreter.  Compile errors propagate as exceptions: the generator
   promises compilable programs, so a raise is a fuzzer bug the driver
   records as a crash. *)
let check cfg (p : Ast.program) : verdict =
  let expected = Interp.run ~max_steps:cfg.interp_steps p in
  if expected.outcome = Trace.Fuel then Skipped "interpreter out of steps"
  else begin
    let runs = ref 0 in
    let divergences = ref [] in
    let fuel_out = ref false in
    List.iter
      (fun scheme ->
        List.iter
          (fun optimize ->
            if not !fuel_out then begin
              let actual = machine_trace cfg ~scheme ~optimize p in
              if actual.outcome = Trace.Fuel then fuel_out := true
              else begin
                incr runs;
                if not (Trace.equal expected actual) then
                  divergences :=
                    {
                      scheme;
                      optimize;
                      expected;
                      actual;
                      site = first_divergence ~expected ~actual;
                    }
                    :: !divergences
              end
            end)
          cfg.optimize)
      cfg.schemes;
    if !fuel_out then Skipped "machine out of fuel"
    else
      match List.rev !divergences with
      | [] -> Agree !runs
      | ds -> Disagree ds
  end
