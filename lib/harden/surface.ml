(* Per-scheme attack surface — a facade over the scheme registry: each
   descriptor declares where it keeps the word that decides a
   function's return target, and whether an adversary who can read
   that word learns anything from it.

   The fault-injection engine (lib/inject) asks this module instead of
   hardcoding frame layouts: the knowledge of what each scheme stores
   on the stack belongs next to the codegen that stores it. *)

type slot = Scheme.slot = Return_slot | Chain_slot | Shadow_slot

(* Offsets are relative to a non-leaf function's frame pointer (see the
   push_record / pacstack_prologue sequences in scheme.ml):
   [fp + 8]  the plain saved LR of the frame record;
   [fp - 16] the PACStack/Zipper chain-register spill. *)
let return_slot_offset = 8
let chain_spill_offset = -16

let control_slot scheme = (Scheme.descriptor scheme).Scheme.control_slot
let observable scheme = (Scheme.descriptor scheme).Scheme.observable
