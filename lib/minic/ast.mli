(** Abstract syntax of mini-C, the small C-like language compiled onto the
    simulated ISA.

    It covers what the paper's evaluation needs from C: scalar locals,
    stack buffers (the raw material of overflows), pointers, direct,
    indirect and tail calls, loops, [setjmp]/[longjmp], and the hook
    intrinsic that marks where a memory-corruption vulnerability gives the
    adversary control. *)

type binop = Add | Sub | Mul | Div | And | Or | Xor | Shl | Shr

type relop = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Int of int64
  | Var of string  (** scalar local or parameter *)
  | Addr_local of string  (** address of a local (array) *)
  | Addr_global of string  (** address of a data object *)
  | Addr_func of string  (** function pointer *)
  | Load of expr  (** 64-bit load through a pointer *)
  | Load_byte of expr
  | Binop of binop * expr * expr
  | Call of string * expr list
  | Call_ptr of expr * expr list  (** indirect call through a pointer *)

type cond = Rel of relop * expr * expr

type stmt =
  | Let of string * expr  (** assign a scalar local *)
  | Store of expr * expr  (** [*addr = value] *)
  | Store_byte of expr * expr
  | Expr of expr  (** evaluate for side effects *)
  | If of cond * stmt list * stmt list
  | While of cond * stmt list
  | Return of expr option
  | Tail_call of string * expr list
      (** call in tail position: compiled to a non-linking branch after the
          epilogue, as in Listing 8 *)
  | Setjmp of string * expr  (** [local = setjmp(bufaddr)] *)
  | Longjmp of expr * expr  (** [longjmp(bufaddr, value)] *)
  | Hook of string  (** adversary attachment point *)
  | Print of expr  (** debug-output syscall *)
  | Block of stmt list  (** statement grouping (no scoping) *)
  | Halt of expr  (** stop the machine with an exit code *)
  | Try of stmt list * string * stmt list
      (** [Try (body, x, handler)]: run [body]; a {!Throw} anywhere below
          transfers to [handler] with the thrown value in local [x].
          Desugared onto setjmp/longjmp by {!Exceptions} — the C++-style
          unwinding of §9.1. *)
  | Throw of expr  (** non-zero value; 0 is delivered as 1 *)

type local = Scalar of string | Array of string * int  (** name, bytes *)

type fdef = {
  fname : string;
  params : string list;  (** at most 6 *)
  locals : local list;
  body : stmt list;
}

type program = {
  globals : (string * int) list;  (** data objects: name, bytes *)
  fundefs : fdef list;
  main : string;
}

val fdef : ?params:string list -> ?locals:local list -> string -> stmt list -> fdef
val program : ?globals:(string * int) list -> ?main:string -> fdef list -> program
(** [main] defaults to ["main"]. *)

val calls_in_body : stmt list -> bool
(** Whether any statement performs a call — including setjmp, longjmp and
    tail calls (a tail-calling function is instrumented, as in
    Listing 8). *)

val has_arrays : fdef -> bool

val body_size : stmt list -> int

val program_size : program -> int
(** Total statement count over all function bodies — the size metric
    minimised by the fuzzer's shrinker. *)
