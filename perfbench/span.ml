(* In-memory span recorder for the traced run.

   A span is (name, op, parent, start, end); spans of one op share the
   op's identifier.  While a span is open, its children's durations are
   summed into it, so a span's self time (duration minus the part its
   child spans cover) is known when it closes.  Aggregates per name are
   kept as spans close; the raw spans are kept too and written out when
   the run ends.  When [enabled] is false, [span] is a plain call. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type agg = { mutable count : int; mutable total : float; mutable self : float }

type frame = { name : string; id : int; parent : int; start : float; mutable child : float }

let enabled = ref false
let op = ref (-1)
let next_id = ref 0
let stack : frame list ref = ref []
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 64
let counters : (string, float) Hashtbl.t = Hashtbl.create 64
let log : (int * int * int * string * float * float) list ref = ref []

let reset () =
  next_id := 0;
  stack := [];
  log := [];
  Hashtbl.reset aggs;
  Hashtbl.reset counters

let agg name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
    let a = { count = 0; total = 0.0; self = 0.0 } in
    Hashtbl.replace aggs name a;
    a

let close fr =
  let stop = now_s () in
  stack := List.tl !stack;
  let dur = stop -. fr.start in
  (match !stack with parent :: _ -> parent.child <- parent.child +. dur | [] -> ());
  let a = agg fr.name in
  a.count <- a.count + 1;
  a.total <- a.total +. dur;
  a.self <- a.self +. (dur -. fr.child);
  log := (fr.id, fr.parent, !op, fr.name, fr.start, stop) :: !log

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let fr = { name; id = !next_id; parent; start = now_s (); child = 0.0 } in
    incr next_id;
    stack := fr :: !stack;
    match f () with
    | v ->
      close fr;
      v
    | exception e ->
      close fr;
      raise e
  end

(* Counts recorded at the same boundaries as the spans (steps retired,
   words allocated, code bytes), so ratios are taken where the work is. *)
let count name v =
  if !enabled then
    Hashtbl.replace counters name (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.0)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.0
let find name = Hashtbl.find_opt aggs name

let write path =
  let oc = open_out path in
  output_string oc "# id\tparent\top\tname\tstart_s\tend_s\n";
  List.iter
    (fun (id, parent, op, name, start, stop) ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.9f\n" id parent op name start stop)
    (List.rev !log);
  close_out oc
