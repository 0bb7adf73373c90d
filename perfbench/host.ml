(* Host-speed probe.

   On a shared host the simulator's speed can drift by up to 2x within
   seconds (another tenant on the same physical core), and averaging
   inside one run does not remove a drift that lasts the whole run.  The
   probe is a fixed piece of benchmark-local work shaped like the
   simulator's hot loop (a threaded-code interpreter over a Bytes register
   file and a 64 KiB memory); it runs next to every op, and the reported
   times are rescaled by [reference_s / probe time], that is, expressed
   at the host speed where the probe takes [reference_s].  The probe
   calls no library code, so no change to the library can move it. *)

let reference_s = 450e-6
let regs = Bytes.make 256 '\000'
let mem = Bytes.make (1 lsl 16) '\001'

let ops =
  Array.init 64 (fun k ->
      let a = k * 8 land 255 and b = ((k * 24) + 8) land 255 in
      match k land 3 with
      | 0 ->
        fun () -> Bytes.set_int64_le regs a (Int64.add (Bytes.get_int64_le regs a) (Bytes.get_int64_le regs b))
      | 1 ->
        fun () ->
          let addr = Int64.to_int (Bytes.get_int64_le regs b) land 0xfff8 in
          Bytes.set_int64_le regs a (Int64.logxor (Bytes.get_int64_le mem addr) 0x9e37L)
      | 2 ->
        fun () ->
          let addr = Int64.to_int (Bytes.get_int64_le regs a) land 0xfff8 in
          Bytes.set_int64_le mem addr (Bytes.get_int64_le regs b)
      | _ -> fun () -> ignore (Sys.opaque_identity (Int64.mul (Bytes.get_int64_le regs a) 31L)))

(* Seconds one probe takes now. *)
let run n =
  for i = 1 to n do
    ops.(i * 37 land 63) ()
  done

(* Seconds one probe takes now; a warm-up pass first, so the time does
   not depend on how much of the probe the last op evicted from cache. *)
let probe () =
  run 25_000;
  let t0 = Span.now_s () in
  run 75_000;
  Span.now_s () -. t0

(* Factor that takes a time measured now to the reference speed, from
   probe times taken around it. *)
let scale probes = reference_s /. Pacstack_util.Stats.median probes
