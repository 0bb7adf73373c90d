(* Streaming sufficient statistics for mega-campaigns.

   [Engine.stats] keeps one reproducer per silent fault, which is the
   right artifact at 10^2 faults and an OOM at 10^8: memory grows with
   the number of events. This module is the constant-size replacement —
   per scheme, six counters plus a 32-bucket log2 latency histogram,
   and a global reproducer list truncated to the [repro_cap] smallest
   (fault, scheme) keys. Everything is associative AND commutative
   under [merge]:

   - counters and histograms add pointwise;
   - "keep the K smallest" truncation is associative-commutative too:
     the K smallest of a union is the K smallest of the per-part K
     smallest, in any grouping or order.

   Commutativity matters beyond worker-order independence: a campaign
   resumed from a compacted checkpoint folds the merged blob before the
   per-shard remainder, so fold order differs between an interrupted
   and an uninterrupted run. With these laws the totals are still
   bit-identical — the N-worker == 1-worker == resumed contract. *)

module Scheme = Pacstack_harden.Scheme
module Json = Pacstack_campaign.Json
module Obs = Pacstack_obs.Obs

let hist_buckets = 32
let repro_cap = 32

type cell = {
  detected : int;
  benign : int;
  silent : int;
  latency_sum : int;
  latency_hist : int array;  (* log2 buckets; treated as immutable *)
}

let cell_zero () =
  { detected = 0; benign = 0; silent = 0; latency_sum = 0;
    latency_hist = Array.make hist_buckets 0 }

let cell_add a b =
  {
    detected = a.detected + b.detected;
    benign = a.benign + b.benign;
    silent = a.silent + b.silent;
    latency_sum = a.latency_sum + b.latency_sum;
    latency_hist =
      Array.init hist_buckets (fun i -> a.latency_hist.(i) + b.latency_hist.(i));
  }

(* Bucket 0 holds latencies 0 and 1; bucket b >= 1 holds (2^(b-1), 2^b],
   saturating at the last bucket. *)
let bucket latency =
  if latency <= 1 then 0
  else begin
    (* smallest b with 2^b >= latency, i.e. ceil(log2 latency) *)
    let b = ref 0 and v = ref (latency - 1) in
    while !v > 0 && !b < hist_buckets - 1 do
      incr b;
      v := !v lsr 1
    done;
    !b
  end

(* Bucket bounds for {!Pacstack_util.Stats.weighted_percentile}: the
   histogram's tail quantiles without retaining a single sample. *)
let hist_bounds =
  lazy
    (Array.init (hist_buckets + 1) (fun i ->
         if i = 0 then 0.0 else Float.of_int (1 lsl (i - 1))))

let latency_percentile cell p =
  if cell.detected = 0 then None
  else
    Some
      (Pacstack_util.Stats.weighted_percentile ~bounds:(Lazy.force hist_bounds)
         ~counts:cell.latency_hist p)

type t = {
  faults : int;
  cells : (string * cell) list;  (* per scheme name, canonical order *)
  repro : Engine.reproducer list;  (* <= repro_cap smallest (fault, scheme) *)
}

let empty = { faults = 0; cells = []; repro = [] }

let scheme_rank =
  let names = List.map Scheme.to_string Scheme.all in
  fun n ->
    let rec find i = function
      | [] -> List.length names
      | x :: rest -> if String.equal x n then i else find (i + 1) rest
    in
    find 0 names

let sort_cells cells =
  List.stable_sort
    (fun (a, _) (b, _) -> compare (scheme_rank a, a) (scheme_rank b, b))
    cells

let bump_cell cells name f =
  let found = List.mem_assoc name cells in
  let cells =
    if found then
      List.map (fun (n, c) -> if String.equal n name then (n, f c) else (n, c)) cells
    else cells @ [ (name, f (cell_zero ())) ]
  in
  sort_cells cells

let truncate_repro repro =
  let sorted =
    List.stable_sort
      (fun (a : Engine.reproducer) (b : Engine.reproducer) ->
        compare (a.fault, a.scheme) (b.fault, b.scheme))
      repro
  in
  List.filteri (fun i _ -> i < repro_cap) sorted

let silent_total t =
  List.fold_left (fun n (_, c) -> n + c.silent) 0 t.cells

(* Not a stored field: deriving it keeps [merge] a plain pointwise
   operation with no cross-field invariant to maintain. *)
let repro_dropped t = silent_total t - List.length t.repro

let add_result t (r : Engine.result) =
  let name = Scheme.to_string r.scheme in
  let cells =
    bump_cell t.cells name (fun c ->
        match r.classification with
        | Engine.Detected { latency; _ } ->
          let h = Array.copy c.latency_hist in
          let b = bucket latency in
          h.(b) <- h.(b) + 1;
          { c with detected = c.detected + 1;
            latency_sum = c.latency_sum + latency; latency_hist = h }
        | Engine.Benign -> { c with benign = c.benign + 1 }
        | Engine.Silent -> { c with silent = c.silent + 1 })
  in
  let repro =
    match r.classification with
    | Engine.Silent ->
      truncate_repro
        ({ Engine.fault = r.spec.Fault.index;
           scheme = name;
           site = Fault.site_to_string r.spec.Fault.site }
        :: t.repro)
    | Engine.Detected _ | Engine.Benign -> t.repro
  in
  { t with cells; repro }

let merge a b =
  {
    faults = a.faults + b.faults;
    cells =
      List.fold_left
        (fun acc (n, c) -> bump_cell acc n (fun cur -> cell_add cur c))
        a.cells b.cells;
    repro = truncate_repro (a.repro @ b.repro);
  }

let run_range cfg ~campaign_seed ~first ~count =
  if Obs.enabled () then
    Obs.Metrics.register_histogram "inject.detect_latency" ~lo:0. ~hi:4096.
      ~buckets:20;
  let t = ref empty in
  for i = first to first + count - 1 do
    let results = Engine.run_fault cfg ~campaign_seed i in
    if Obs.enabled () then
      List.iter
        (fun (r : Engine.result) ->
          match r.classification with
          | Engine.Detected { latency; _ } ->
            Obs.Metrics.observe "inject.detect_latency" (float_of_int latency)
          | Engine.Benign | Engine.Silent -> ())
        results;
    t := List.fold_left add_result { !t with faults = !t.faults + 1 } results
  done;
  !t

(* ------------------------------------------------------------------ *)
(* JSON codec (campaign checkpoint payload)                            *)

let to_json t =
  Json.Obj
    [
      ("faults", Json.Int t.faults);
      ( "cells",
        Json.List
          (List.map
             (fun (n, c) ->
               Json.Obj
                 [
                   ("scheme", Json.String n);
                   ("detected", Json.Int c.detected);
                   ("benign", Json.Int c.benign);
                   ("silent", Json.Int c.silent);
                   ("latency_sum", Json.Int c.latency_sum);
                   ( "latency_hist",
                     Json.List
                       (Array.to_list (Array.map (fun n -> Json.Int n) c.latency_hist))
                   );
                 ])
             t.cells) );
      ("repro", Json.List (List.map Engine.reproducer_to_json t.repro));
    ]

let of_json j =
  let ( let* ) = Option.bind in
  let int k o = Option.bind (Json.member k o) Json.to_int in
  let str k o = Option.bind (Json.member k o) Json.to_str in
  let* faults = int "faults" j in
  let* cells = Option.bind (Json.member "cells" j) Json.to_list in
  let* cells =
    List.fold_left
      (fun acc o ->
        let* acc = acc in
        let* n = str "scheme" o in
        let* detected = int "detected" o in
        let* benign = int "benign" o in
        let* silent = int "silent" o in
        let* latency_sum = int "latency_sum" o in
        let* hist = Option.bind (Json.member "latency_hist" o) Json.to_list in
        let* hist =
          List.fold_left
            (fun acc h ->
              let* acc = acc in
              let* v = Json.to_int h in
              Some (v :: acc))
            (Some []) hist
        in
        let hist = Array.of_list (List.rev hist) in
        if Array.length hist <> hist_buckets then None
        else
          Some
            (acc
            @ [ (n, { detected; benign; silent; latency_sum; latency_hist = hist }) ]))
      (Some []) cells
  in
  let* repro = Option.bind (Json.member "repro" j) Json.to_list in
  let* repro =
    List.fold_left
      (fun acc o ->
        let* acc = acc in
        let* fault = int "fault" o in
        let* scheme = str "scheme" o in
        let* site = str "site" o in
        Some (acc @ [ { Engine.fault; scheme; site } ]))
      (Some []) repro
  in
  Some { faults; cells = sort_cells cells; repro = truncate_repro repro }
