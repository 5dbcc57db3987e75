(* Order statistics and exact-repeat checks over the benchmark's samples.

   Host-time metrics are reported as the median over repeats with their
   quartiles; the quartiles follow Python's
   [statistics.quantiles(data, n=4)] (the default "exclusive" method), so
   the spread printed here is the spread an outside check computes from
   the same values. Simulated-time counters are deterministic and are not
   summarised at all: every repeat must reproduce the first exactly. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [statistics.quantiles(data, n=4)]: for i = 1..3, j = i(n+1) div 4
   clamped to [1, n-1], interpolating between the j-th and (j+1)-th order
   statistics by delta = i(n+1) - 4j quarters. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples"
  else if n = 1 then a.(0), a.(0), a.(0)
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    q 1, q 2, q 3

(* Exact nearest-rank percentile of integer samples ([p] in (0, 1]). *)
let percentile ints p =
  let a = Array.of_list ints in
  Array.sort Int.compare a;
  let n = Array.length a in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* A deterministic counter observed once per repeat. The first
   observation is the reference; any later one that differs structurally
   is a drift, which the benchmark reports as a failure. *)
type 'a exact = { label : string; mutable first : 'a option; mutable drifts : int }

let exact label = { label; first = None; drifts = 0 }

let observe e v =
  match e.first with
  | None -> e.first <- Some v
  | Some f -> if f <> v then e.drifts <- e.drifts + 1

let drifted e = e.drifts > 0
