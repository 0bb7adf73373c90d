module Word64 = Pacstack_util.Word64
module Program = Pacstack_isa.Program
module Instr = Pacstack_isa.Instr
module Encode = Pacstack_isa.Encode

(* Only what execution needs: the program's function bodies live on in
   [code] and the symbol tables, its binary encoding is rebuilt on
   demand ([encoded]), so a loaded image kept alive for reuse stays
   small. *)
type t = {
  entry_name : string;
  data : Program.data list;
  code : Instr.t array;
  globals : (string, Word64.t) Hashtbl.t;
  locals : (string * string, Word64.t) Hashtbl.t;  (* (function, label) *)
  bounds : (string * Word64.t * Word64.t) list;    (* name, first, past-last *)
  entries : (Word64.t, unit) Hashtbl.t;            (* function entry points *)
  fetch_trap : exn;      (* preformatted out-of-image trap, raised as-is *)
}

let code_base = 0x0000_0001_0000L
let data_base = 0x0000_0020_0000L
let stack_top = 0x0000_7fff_f000L
let stack_size = 1 lsl 20
let shadow_base = 0x0000_6000_0000L
let shadow_size = 1 lsl 16

let runtime_stubs existing =
  let stub name body = { Program.name; body = List.map (fun i -> Program.Ins i) body } in
  let need n = not (List.exists (fun f -> f.Program.name = n) existing) in
  List.concat
    [
      (if need "__halt" then [ stub "__halt" [ Instr.Hlt ] ] else []);
      (if need "__sigreturn_trampoline" then
         [ stub "__sigreturn_trampoline" [ Instr.Svc 5; Instr.Hlt ] ]
       else []);
    ]

let canary_name = "__stack_chk_guard"

let build (p : Program.t) =
  let funcs = p.funcs @ runtime_stubs p.funcs in
  let data =
    if List.exists (fun (d : Program.data) -> d.dname = canary_name) p.data then p.data
    else p.data @ [ { Program.dname = canary_name; size = 8 } ]
  in
  let program = { p with funcs; data } in
  let globals = Hashtbl.create 32 in
  let locals = Hashtbl.create 32 in
  let code = ref [] in
  let addr = ref code_base in
  let bounds = ref [] in
  List.iter
    (fun (f : Program.func) ->
      let first = !addr in
      Hashtbl.replace globals f.name !addr;
      List.iter
        (function
          | Program.Lbl l -> Hashtbl.replace locals (f.name, l) !addr
          | Program.Ins i ->
            code := i :: !code;
            addr := Int64.add !addr 4L)
        f.body;
      bounds := (f.name, first, !addr) :: !bounds)
    funcs;
  (* data objects, 16-byte aligned *)
  let daddr = ref data_base in
  List.iter
    (fun (d : Program.data) ->
      Hashtbl.replace globals d.dname !daddr;
      let size = (d.size + 15) land lnot 15 in
      daddr := Int64.add !daddr (Int64.of_int size))
    program.data;
  let code = Array.of_list (List.rev !code) in
  let entries = Hashtbl.create 16 in
  List.iter (fun (_, first, _) -> Hashtbl.replace entries first ()) !bounds;
  (* Formatted once here instead of on every raise: the message names the
     image bounds rather than the faulting PC, which the trap's (pc) site
     context already carries. *)
  let fetch_trap =
    Trap.Fault
      (Trap.Undefined
         (Printf.sprintf "fetch outside code image [%Lx..%Lx)" code_base
            (Int64.add code_base (Int64.of_int (4 * Array.length code)))))
  in
  {
    entry_name = p.entry; data; code; globals; locals;
    bounds = List.rev !bounds; entries; fetch_trap;
  }

let data t = t.data

let fetch t addr =
  let off = Int64.sub addr code_base in
  if Int64.logand off 3L <> 0L
     || Int64.unsigned_compare off (Int64.of_int (4 * Array.length t.code)) >= 0
  then None
  else Some t.code.(Int64.to_int off lsr 2)

(* The interpreter's per-step fetch: a bounds-checked read of the
   predecoded instruction array, no [Option] box. Out-of-image or
   misaligned PCs raise the per-image preformatted trap — the old
   [Printf.sprintf] here allocated and formatted on every raise, which
   the fuzz campaigns hit constantly (every wild-PC program ends in this
   trap). *)
let fetch_exn t addr =
  let off = Int64.sub addr code_base in
  if Int64.logand off 3L <> 0L
     || Int64.unsigned_compare off (Int64.of_int (4 * Array.length t.code)) >= 0
  then raise t.fetch_trap
  else Array.unsafe_get t.code (Int64.to_int off lsr 2)

let instructions t = t.code

let symbol t name = Hashtbl.find_opt t.globals name

let function_at t addr =
  List.find_map
    (fun (name, first, past) ->
      if Int64.unsigned_compare addr first >= 0 && Int64.unsigned_compare addr past < 0 then Some name
      else None)
    t.bounds

let functions t = t.bounds

let function_bounds t name =
  List.find_map
    (fun (n, first, past) -> if n = name then Some (first, past) else None)
    t.bounds

let resolve t ~from label =
  let local =
    match function_at t from with
    | Some f -> Hashtbl.find_opt t.locals (f, label)
    | None -> None
  in
  match local with Some a -> Some a | None -> symbol t label

let entry t =
  match symbol t t.entry_name with
  | Some a -> a
  | None -> invalid_arg "Image.entry"

let required t name =
  match symbol t name with
  | Some a -> a
  | None -> invalid_arg ("Image: missing runtime stub " ^ name)

let halt_addr t = required t "__halt"
let sigreturn_trampoline t = required t "__sigreturn_trampoline"

let code_size t = 4 * Array.length t.code

let encoded t = Encode.encode (Array.to_list t.code)

let is_function_entry t addr = Hashtbl.mem t.entries addr

let disassemble t =
  let words, pools = encoded t in
  Encode.disassemble words pools
