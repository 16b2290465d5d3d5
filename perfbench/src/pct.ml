(* Order statistics over latency samples. *)

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [q] of all samples at or below it (rank ceil(q*n)).
   The epsilon keeps ranks like 0.99 * 1000 from rounding up a place. *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
    sorted.(max 1 (min n rank) - 1)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let percentile a q = nearest_rank (sorted_copy a) q
let median a = percentile a 0.5

(* Samples beyond the percentile [q] under nearest rank: the question of
   whether a tail percentile rests on enough observations. *)
let beyond n q =
  n - int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))
