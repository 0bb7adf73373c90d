type t = EQ | NE | LT | LE | GT | GE | HS | LO

let negate = function
  | EQ -> NE
  | NE -> EQ
  | LT -> GE
  | GE -> LT
  | LE -> GT
  | GT -> LE
  | HS -> LO
  | LO -> HS

let to_string = function
  | EQ -> "eq"
  | NE -> "ne"
  | LT -> "lt"
  | LE -> "le"
  | GT -> "gt"
  | GE -> "ge"
  | HS -> "hs"
  | LO -> "lo"

let of_string s =
  match String.lowercase_ascii s with
  | "eq" -> Some EQ
  | "ne" -> Some NE
  | "lt" -> Some LT
  | "le" -> Some LE
  | "gt" -> Some GT
  | "ge" -> Some GE
  | "hs" -> Some HS
  | "lo" -> Some LO
  | _ -> None

let pp fmt c = Format.pp_print_string fmt (to_string c)

type flags = { n : bool; z : bool; c : bool; v : bool }

let of_compare a b =
  let diff = Int64.sub a b in
  let n = diff < 0L in
  let z = diff = 0L in
  (* carry = no unsigned borrow *)
  let c = Int64.unsigned_compare a b >= 0 in
  (* signed overflow: operands of differing sign and result sign differs
     from the first operand *)
  let v = (a < 0L) <> (b < 0L) && (diff < 0L) <> (a < 0L) in
  { n; z; c; v }

let holds cond f =
  match cond with
  | EQ -> f.z
  | NE -> not f.z
  | LT -> f.n <> f.v
  | GE -> f.n = f.v
  | GT -> (not f.z) && f.n = f.v
  | LE -> f.z || f.n <> f.v
  | HS -> f.c
  | LO -> not f.c

(* Packed representation for the execution hot path: NZCV in the low
   four bits of an immediate int (bit 3 = N .. bit 0 = V), so compares
   and PA status updates allocate nothing. *)

let bits_of_flags f =
  (if f.n then 8 else 0) lor (if f.z then 4 else 0) lor (if f.c then 2 else 0)
  lor if f.v then 1 else 0

let flags_of_bits w =
  { n = w land 8 <> 0; z = w land 4 <> 0; c = w land 2 <> 0; v = w land 1 <> 0 }

let[@inline] bits_of_compare a b =
  let diff = Int64.sub a b in
  let n = diff < 0L in
  let z = diff = 0L in
  let c = Int64.unsigned_compare a b >= 0 in
  let v = (a < 0L) <> (b < 0L) && n <> (a < 0L) in
  (if n then 8 else 0) lor (if z then 4 else 0) lor (if c then 2 else 0)
  lor if v then 1 else 0

let[@inline] holds_bits cond w =
  let n = w land 8 <> 0 and z = w land 4 <> 0 in
  match cond with
  | EQ -> z
  | NE -> not z
  | LT -> n <> (w land 1 <> 0)
  | GE -> n = (w land 1 <> 0)
  | GT -> (not z) && n = (w land 1 <> 0)
  | LE -> z || n <> (w land 1 <> 0)
  | HS -> w land 2 <> 0
  | LO -> w land 2 = 0
