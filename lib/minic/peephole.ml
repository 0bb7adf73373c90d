module Instr = Pacstack_isa.Instr
module Reg = Pacstack_isa.Reg
module Program = Pacstack_isa.Program

let is_self_move = function
  | Instr.Mov (rd, Instr.Reg rs) -> Reg.equal rd rs
  | Instr.Add (rd, rn, Instr.Imm 0L) | Instr.Sub (rd, rn, Instr.Imm 0L) -> Reg.equal rd rn
  | _ -> false

(* str r, [slot]; ldr r, [same slot]  -->  drop the reload (plain SP/FP
   offset addressing only; pre/post indexing mutates the base). *)
let redundant_reload a b =
  match a, b with
  | ( Instr.Str (r1, { Instr.base = b1; offset = o1; index = Instr.Offset }),
      Instr.Ldr (r2, { Instr.base = b2; offset = o2; index = Instr.Offset }) ) ->
    Reg.equal r1 r2 && Reg.equal b1 b2 && o1 = o2
  | _ -> false

let branch_to_next a rest =
  match a with
  | Instr.B target -> (
    match rest with
    | Program.Lbl l :: _ -> l = target
    | _ -> false)
  | _ -> false

let rec optimize_items = function
  | [] -> []
  | Program.Ins i :: rest when is_self_move i -> optimize_items rest
  | Program.Ins i :: rest when branch_to_next i rest -> optimize_items rest
  | Program.Ins a :: Program.Ins b :: rest when redundant_reload a b ->
    (* keep the store, drop the reload, and re-examine the store against
       what now follows *)
    optimize_items (Program.Ins a :: rest)
  | item :: rest -> item :: optimize_items rest

(* iterate to a fixpoint: removals can expose new opportunities *)
let rec fixpoint items =
  let items' = optimize_items items in
  if List.length items' = List.length items then items else fixpoint items'

let function_pass (f : Program.func) = { f with body = fixpoint f.body }

let removed_count before after =
  Program.instruction_count before - Program.instruction_count after
