module Word64 = Pacstack_util.Word64
module Rng = Pacstack_util.Rng

type key = { w0 : Word64.t; k0 : Word64.t }

let key ~w0 ~k0 = { w0; k0 }
let random_key rng = { w0 = Rng.next64 rng; k0 = Rng.next64 rng }
let key_equal a b = Word64.equal a.w0 b.w0 && Word64.equal a.k0 b.k0

let default_rounds = 7

let alpha = 0xC0AC29B7C97C50DDL

let round_constants =
  [|
    0x0000000000000000L;
    0x13198A2E03707344L;
    0xA4093822299F31D0L;
    0x082EFA98EC4E6C89L;
    0x452821E638D01377L;
    0xBE5466CF34E90C6CL;
    0x3F84D5B5B5470917L;
    0x9216D5D98979FB1BL;
  |]

let round_constant i =
  if i < 0 || i >= Array.length round_constants then invalid_arg "Qarma64.round_constant"
  else round_constants.(i)

(* Cell shuffle τ and tweak-cell permutation h, as in the QARMA
   specification; [perm.(i)] is the index of the input cell that lands in
   output cell [i]. *)
let tau_perm = [| 0; 11; 6; 13; 10; 1; 12; 7; 5; 14; 3; 8; 15; 4; 9; 2 |]
let h_perm = [| 6; 5; 14; 15; 0; 1; 2; 3; 7; 12; 13; 4; 8; 9; 10; 11 |]

let invert_perm p =
  let inv = Array.make (Array.length p) 0 in
  Array.iteri (fun i v -> inv.(v) <- i) p;
  inv

let tau_inv_perm = invert_perm tau_perm
let h_inv_perm = invert_perm h_perm

(* --- reference implementation (the oracle) ----------------------------- *)
(* Cell-by-cell, exactly as the specification reads. Retained unchanged so
   the SWAR fast path below can be differentially tested against it; the
   frozen known-answer vectors in test_qarma.ml pin both. *)

let permute_cells perm w =
  let cells = Word64.to_nibbles w in
  Word64.of_nibbles (Array.map (fun src -> cells.(src)) perm)

let tau_ref = permute_cells tau_perm
let tau_inv_ref = permute_cells tau_inv_perm

(* 4-bit rotation left. *)
let rho4 x n =
  let n = n land 3 in
  ((x lsl n) lor (x lsr (4 - n))) land 0xf

(* M = circ(0, ρ, ρ², ρ) applied column-wise to the 4×4 cell array
   (row-major, cell 0 top-left). M is involutory, so it is its own
   inverse. *)
let mix_columns_ref w =
  let cells = Word64.to_nibbles w in
  let out = Array.make 16 0 in
  for col = 0 to 3 do
    for row = 0 to 3 do
      let acc = ref 0 in
      for src = 0 to 3 do
        let d = (src - row + 4) land 3 in
        if d <> 0 then begin
          let e = if d = 2 then 2 else 1 in
          acc := !acc lxor rho4 cells.((src * 4) + col) e
        end
      done;
      out.((row * 4) + col) <- !acc
    done
  done;
  Word64.of_nibbles out

(* LFSR ω on a 4-bit cell: (b3,b2,b1,b0) -> (b0 xor b1, b3, b2, b1). *)
let omega x =
  let b0 = x land 1 and b1 = (x lsr 1) land 1 in
  ((b0 lxor b1) lsl 3) lor (x lsr 1)

let inv_omega x =
  let b3 = (x lsr 3) land 1 and b0 = x land 1 in
  (((x land 7) lsl 1) lor (b3 lxor b0)) land 0xf

(* Tweak cells refreshed by the LFSR on each update. *)
let lfsr_cells = [ 0; 1; 3; 4 ]

let apply_lfsr f w =
  List.fold_left (fun acc i -> Word64.set_nibble acc i (f (Word64.nibble acc i))) w lfsr_cells

let tweak_forward_ref t = apply_lfsr omega (permute_cells h_perm t)
let tweak_backward_ref t = permute_cells h_inv_perm (apply_lfsr inv_omega t)

(* One forward round: add tweakey, then (unless short) shuffle and mix,
   then substitute. The backward round is the exact inverse. *)
let forward_round_ref sbox s tk ~short =
  let s = Int64.logxor s tk in
  let s = if short then s else mix_columns_ref (tau_ref s) in
  Sbox.sub_cells sbox s

let backward_round_ref sbox s tk ~short =
  let s = Sbox.sub_cells_inv sbox s in
  let s = if short then s else tau_inv_ref (mix_columns_ref s) in
  Int64.logxor s tk

(* Orthomorphism used to derive the second whitening key. *)
let ortho w = Int64.logxor (Word64.rotr w 1) (Int64.shift_right_logical w 63)

let check_rounds rounds =
  if rounds < 1 || rounds > Array.length round_constants then invalid_arg "Qarma64: rounds"

(* Tweak values t_0 .. t_rounds; forward round i and backward round i both
   use t_i, the centre uses t_rounds. *)
let tweak_schedule ~rounds tweak =
  let ts = Array.make (rounds + 1) tweak in
  for i = 1 to rounds do
    ts.(i) <- tweak_forward_ref ts.(i - 1)
  done;
  ts

let encrypt_ref ?(rounds = default_rounds) ?(sbox = Sbox.sigma1) key ~tweak p =
  check_rounds rounds;
  let { w0; k0 } = key in
  let w1 = ortho w0 in
  let k1 = k0 in
  let ts = tweak_schedule ~rounds tweak in
  let s = ref (Int64.logxor p w0) in
  for i = 0 to rounds - 1 do
    s := forward_round_ref sbox !s (Int64.logxor k0 (Int64.logxor ts.(i) round_constants.(i))) ~short:(i = 0)
  done;
  (* centre: forward half-round, pseudo-reflector, backward half-round *)
  s := forward_round_ref sbox !s (Int64.logxor w1 ts.(rounds)) ~short:false;
  s := tau_ref !s;
  s := mix_columns_ref !s;
  s := Int64.logxor !s k1;
  s := tau_inv_ref !s;
  s := backward_round_ref sbox !s (Int64.logxor w0 ts.(rounds)) ~short:false;
  for i = rounds - 1 downto 0 do
    let tk = Int64.logxor (Int64.logxor k0 alpha) (Int64.logxor ts.(i) round_constants.(i)) in
    s := backward_round_ref sbox !s tk ~short:(i = 0)
  done;
  Int64.logxor !s w1

let decrypt_ref ?(rounds = default_rounds) ?(sbox = Sbox.sigma1) key ~tweak c =
  check_rounds rounds;
  let { w0; k0 } = key in
  let w1 = ortho w0 in
  let k1 = k0 in
  let ts = tweak_schedule ~rounds tweak in
  let s = ref (Int64.logxor c w1) in
  for i = 0 to rounds - 1 do
    let tk = Int64.logxor (Int64.logxor k0 alpha) (Int64.logxor ts.(i) round_constants.(i)) in
    s := forward_round_ref sbox !s tk ~short:(i = 0)
  done;
  s := forward_round_ref sbox !s (Int64.logxor w0 ts.(rounds)) ~short:false;
  (* inverse of the pseudo-reflector: τ, ⊕k1, M (self-inverse), τ⁻¹ *)
  s := tau_ref !s;
  s := Int64.logxor !s k1;
  s := mix_columns_ref !s;
  s := tau_inv_ref !s;
  s := backward_round_ref sbox !s (Int64.logxor w1 ts.(rounds)) ~short:false;
  for i = rounds - 1 downto 0 do
    s := backward_round_ref sbox !s (Int64.logxor k0 (Int64.logxor ts.(i) round_constants.(i))) ~short:(i = 0)
  done;
  Int64.logxor !s w0

module Reference = struct
  let encrypt = encrypt_ref
  let decrypt = decrypt_ref
  let tau = tau_ref
  let tau_inv = tau_inv_ref
  let mix_columns = mix_columns_ref
  let tweak_forward = tweak_forward_ref
  let tweak_backward = tweak_backward_ref
end

(* --- SWAR fast path ----------------------------------------------------- *)
(* Everything below operates on the whole 64-bit state at once. Cell i
   occupies bits [4·(15−i), 4·(15−i)+4) (cell 0 is the top nibble), so a
   cell permutation is a fixed set of nibble moves — compiled once into
   (shift, source-mask) pairs — rows of the 4×4 state are contiguous
   16-bit lanes, and the ρ^e cell rotations of MixColumns are two-mask
   shift networks. No per-call allocation anywhere on this path. *)

(* Compile [perm] into parallel (shift, source-mask) arrays: output cell i
   takes input cell perm.(i), i.e. the nibble at source-lo 4·(15−src)
   moves by 4·(src − i) bits (left when positive). Nibbles moving the
   same distance share one masked shift. *)
let compile_perm perm =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i src ->
      let shift = 4 * (src - i) in
      let src_mask = Int64.shift_left 0xFL (4 * (15 - src)) in
      let cur = Option.value (Hashtbl.find_opt tbl shift) ~default:0L in
      Hashtbl.replace tbl shift (Int64.logor cur src_mask))
    perm;
  let pairs = List.sort compare (Hashtbl.fold (fun s m acc -> (s, m) :: acc) tbl []) in
  (Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs))

let apply_net (shifts, masks) w =
  let acc = ref 0L in
  for j = 0 to Array.length shifts - 1 do
    let part = Int64.logand w (Array.unsafe_get masks j) in
    let s = Array.unsafe_get shifts j in
    acc :=
      Int64.logor !acc
        (if s >= 0 then Int64.shift_left part s else Int64.shift_right_logical part (-s))
  done;
  !acc

let tau_net = compile_perm tau_perm
let tau_inv_net = compile_perm tau_inv_perm
let h_net = compile_perm h_perm
let h_inv_net = compile_perm h_inv_perm

let tau w = apply_net tau_net w
let tau_inv w = apply_net tau_inv_net w

(* ρ (rotate each nibble left by 1) and ρ² as masked shifts over all 16
   cells at once. *)
let nrotl1 x =
  Int64.logor
    (Int64.logand (Int64.shift_left x 1) 0xEEEEEEEEEEEEEEEEL)
    (Int64.logand (Int64.shift_right_logical x 3) 0x1111111111111111L)

let nrotl2 x =
  Int64.logor
    (Int64.logand (Int64.shift_left x 2) 0xCCCCCCCCCCCCCCCCL)
    (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)

(* Row r of the state is the 16-bit lane at bits [48−16r, 64−16r); rotating
   the whole word left by 16·k moves row r+k into row r's lane. M being
   circ(0, ρ, ρ², ρ), each output row is ρ(row+1) ⊕ ρ²(row+2) ⊕ ρ(row+3). *)
let mix_columns w =
  Int64.logxor
    (nrotl1 (Word64.rotl w 16))
    (Int64.logxor (nrotl2 (Word64.rotl w 32)) (nrotl1 (Word64.rotl w 48)))

(* The LFSR'd tweak cells {0,1,3,4} are hex digits {15,14,12,11}. *)
let lfsr_mask = 0xFF0FF00000000000L
let lfsr_low3 = Int64.logand lfsr_mask 0x7777777777777777L
let lfsr_hi3 = Int64.logand lfsr_mask 0xEEEEEEEEEEEEEEEEL
let lfsr_b0 = Int64.logand lfsr_mask 0x1111111111111111L

(* ω on the masked nibbles: (b3,b2,b1,b0) → (b0⊕b1, b3, b2, b1). *)
let lfsr_forward w =
  let x = Int64.logand w lfsr_mask in
  let keep = Int64.logand w (Int64.lognot lfsr_mask) in
  let low3 = Int64.logand (Int64.shift_right_logical x 1) lfsr_low3 in
  let top =
    Int64.shift_left (Int64.logand (Int64.logxor x (Int64.shift_right_logical x 1)) lfsr_b0) 3
  in
  Int64.logor keep (Int64.logor low3 top)

(* ω⁻¹: (b3,b2,b1,b0) → (b2, b1, b0, b3⊕b0). *)
let lfsr_backward w =
  let x = Int64.logand w lfsr_mask in
  let keep = Int64.logand w (Int64.lognot lfsr_mask) in
  let hi3 = Int64.logand (Int64.shift_left x 1) lfsr_hi3 in
  let low =
    Int64.logand (Int64.logxor x (Int64.shift_right_logical x 3)) lfsr_b0
  in
  Int64.logor keep (Int64.logor hi3 low)

let tweak_forward t = lfsr_forward (apply_net h_net t)
let tweak_backward t = apply_net h_inv_net (lfsr_backward t)

(* --- precomputed per-key cipher context --------------------------------- *)
(* Everything that depends only on (key, rounds, sbox) — the second
   whitening key w1 = ortho w0 and the per-round tweakey constants
   k0 ⊕ rc_i (forward) and k0 ⊕ α ⊕ rc_i (backward) — is computed once
   here instead of on every MAC. *)

type ctx = {
  rounds : int;
  sbox : Sbox.t;
  w0 : Word64.t;
  w1 : Word64.t;
  k1 : Word64.t;
  rk_fwd : Word64.t array;  (* k0 ⊕ rc_i *)
  rk_bwd : Word64.t array;  (* k0 ⊕ α ⊕ rc_i *)
}

let prepare ?(rounds = default_rounds) ?(sbox = Sbox.sigma1) key =
  check_rounds rounds;
  let { w0; k0 } = key in
  {
    rounds;
    sbox;
    w0;
    w1 = ortho w0;
    k1 = k0;
    rk_fwd = Array.init rounds (fun i -> Int64.logxor k0 round_constants.(i));
    rk_bwd = Array.init rounds (fun i -> Int64.logxor (Int64.logxor k0 alpha) round_constants.(i));
  }

(* The round loops keep the running tweak in a mutable cell and step it
   with the SWAR schedule (forward on the way in, backward on the way
   out), so no t_0..t_r array is materialised per call. *)
let encrypt_ctx ctx ~tweak p =
  let sbox = ctx.sbox in
  let rounds = ctx.rounds in
  let s = ref (Int64.logxor p ctx.w0) in
  let t = ref tweak in
  for i = 0 to rounds - 1 do
    let x = Int64.logxor !s (Int64.logxor ctx.rk_fwd.(i) !t) in
    let x = if i = 0 then x else mix_columns (tau x) in
    s := Sbox.sub_cells_fast sbox x;
    t := tweak_forward !t
  done;
  (* t = t_rounds: forward half-round, pseudo-reflector, backward half-round *)
  let x = Int64.logxor !s (Int64.logxor ctx.w1 !t) in
  let x = Sbox.sub_cells_fast sbox (mix_columns (tau x)) in
  let x = tau_inv (Int64.logxor (mix_columns (tau x)) ctx.k1) in
  let x = Sbox.sub_cells_inv_fast sbox x in
  let x = tau_inv (mix_columns x) in
  s := Int64.logxor x (Int64.logxor ctx.w0 !t);
  for i = rounds - 1 downto 0 do
    t := tweak_backward !t;
    let x = Sbox.sub_cells_inv_fast sbox !s in
    let x = if i = 0 then x else tau_inv (mix_columns x) in
    s := Int64.logxor x (Int64.logxor ctx.rk_bwd.(i) !t)
  done;
  Int64.logxor !s ctx.w1

let decrypt_ctx ctx ~tweak c =
  let sbox = ctx.sbox in
  let rounds = ctx.rounds in
  let s = ref (Int64.logxor c ctx.w1) in
  let t = ref tweak in
  for i = 0 to rounds - 1 do
    let x = Int64.logxor !s (Int64.logxor ctx.rk_bwd.(i) !t) in
    let x = if i = 0 then x else mix_columns (tau x) in
    s := Sbox.sub_cells_fast sbox x;
    t := tweak_forward !t
  done;
  let x = Int64.logxor !s (Int64.logxor ctx.w0 !t) in
  let x = Sbox.sub_cells_fast sbox (mix_columns (tau x)) in
  (* inverse of the pseudo-reflector: τ, ⊕k1, M (self-inverse), τ⁻¹ *)
  let x = tau_inv (mix_columns (Int64.logxor (tau x) ctx.k1)) in
  let x = Sbox.sub_cells_inv_fast sbox x in
  let x = tau_inv (mix_columns x) in
  s := Int64.logxor x (Int64.logxor ctx.w1 !t);
  for i = rounds - 1 downto 0 do
    t := tweak_backward !t;
    let x = Sbox.sub_cells_inv_fast sbox !s in
    let x = if i = 0 then x else tau_inv (mix_columns x) in
    s := Int64.logxor x (Int64.logxor ctx.rk_fwd.(i) !t)
  done;
  Int64.logxor !s ctx.w0

let encrypt ?rounds ?sbox key ~tweak p = encrypt_ctx (prepare ?rounds ?sbox key) ~tweak p
let decrypt ?rounds ?sbox key ~tweak c = decrypt_ctx (prepare ?rounds ?sbox key) ~tweak c
