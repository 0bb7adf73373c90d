module Prf = Pacstack_qarma.Prf

type which = IA | IB | DA | DB | GA

let all = [ IA; IB; DA; DB; GA ]

let which_to_string = function
  | IA -> "APIAKey"
  | IB -> "APIBKey"
  | DA -> "APDAKey"
  | DB -> "APDBKey"
  | GA -> "APGAKey"

type t = { ia : Prf.t; ib : Prf.t; da : Prf.t; db : Prf.t; ga : Prf.t }

let generate ?fast ?rounds rng =
  let fresh () = Prf.of_rng ?fast ?rounds rng in
  { ia = fresh (); ib = fresh (); da = fresh (); db = fresh (); ga = fresh () }

let get t = function
  | IA -> t.ia
  | IB -> t.ib
  | DA -> t.da
  | DB -> t.db
  | GA -> t.ga

let equal a b = List.for_all (fun w -> Prf.equal (get a w) (get b w)) all
