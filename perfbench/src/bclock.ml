(* Nanosecond monotonic clock (CLOCK_MONOTONIC through bechamel's stub).
   [Unix.gettimeofday] steps in 1 us, too coarse for 7-us cache hits. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* [time f] runs [f] and returns its result with the elapsed nanoseconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)
