(* The observable trace of a mini-C program execution.

   Both the reference interpreter (Interp) and the hardware model
   (Machine, via Oracle) reduce an execution to this record, and the
   differential oracle compares nothing else.  The observables are
   deliberately minimal:

   - [outcome] — how the execution ended: a normal exit with a code, a
     trap (any fault: the oracle compares trap-or-not, not the precise
     trap cause, because the schemes legitimately differ in *which*
     check fires first), or fuel exhaustion (treated as "skip this
     seed" by the oracle, never as a divergence);
   - [output] — the exact sequence of 64-bit values written through the
     [Print] statement (SVC 1 on the machine side), in order.

   Addresses are intentionally *not* observable: stack layout, global
   placement and code addresses all differ between the interpreter's
   abstract store and the compiled image, so generated programs never
   print or store pointer-derived values (see Gen). *)

type outcome =
  | Exit of int  (** normal termination with this exit code *)
  | Trap  (** any machine fault / interpreter-detected undefined behaviour *)
  | Fuel  (** ran out of fuel/steps — oracle skips, never a verdict *)

type t = { outcome : outcome; output : int64 list }

let exit_code code = { outcome = Exit code; output = [] }

let pp_outcome fmt = function
  | Exit c -> Format.fprintf fmt "exit %d" c
  | Trap -> Format.fprintf fmt "trap"
  | Fuel -> Format.fprintf fmt "out-of-fuel"

let pp fmt t =
  Format.fprintf fmt "%a; output [%a]" pp_outcome t.outcome
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
       (fun fmt v -> Format.fprintf fmt "%Ld" v))
    t.output

let to_string t = Format.asprintf "%a" pp t

let equal_outcome a b =
  match (a, b) with
  | Exit x, Exit y -> x = y
  | Trap, Trap -> true
  | Fuel, Fuel -> true
  | (Exit _ | Trap | Fuel), _ -> false

let equal a b =
  equal_outcome a.outcome b.outcome && List.equal Int64.equal a.output b.output

module Machine = Pacstack_machine.Machine

(* The machine side of the reduction, shared by the fuzz oracle and the
   fault-injection engine: how the run ended and what it printed. *)
let of_machine m (outcome : Machine.outcome) =
  let outcome =
    match outcome with
    | Machine.Halted code -> Exit code
    | Machine.Faulted _ -> Trap
    | Machine.Out_of_fuel -> Fuel
  in
  { outcome; output = Machine.output m }
