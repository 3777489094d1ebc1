(* Order statistics over wall-clock samples.

   [percentile] interpolates linearly between the closest ranks (the
   "inclusive" definition: p0 is the minimum, p100 the maximum), so a
   percentile of a small sample never extrapolates beyond the values
   measured. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: no samples";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p outside [0, 100]";
  let a = sorted xs in
  let n = Array.length a in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let i = int_of_float rank in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((rank -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 50. xs

let iqr xs = percentile 75. xs -. percentile 25. xs

(* The highest percentile with at least ten samples above it, the tail a
   sample of [n] can support (rank [n - 11] of ranks [0 .. n - 1]);
   [None] below eleven samples. *)
let tail_percentile n =
  if n < 11 then None
  else Some (100. *. float_of_int (n - 11) /. float_of_int (n - 1))
