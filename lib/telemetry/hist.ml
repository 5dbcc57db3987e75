(* Log₂-bucket histogram for step-valued observations (latencies, streak
   lengths). Bucket 0 holds the value 0; bucket i (i ≥ 1) holds values in
   [2^(i-1), 2^i - 1]. 32 buckets cover every latency a simulated run can
   produce. Observation order does not matter, so snapshots of replayed
   runs are identical. *)

let n_buckets = 32

type t = {
  mutable count : int;
  mutable sum : int;
  mutable max : int;
  buckets : int array;
}

let create () = { count = 0; sum = 0; max = 0; buckets = Array.make n_buckets 0 }

let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    Int.min (n_buckets - 1) (bits 0 v)
  end

let bucket_lo i = if i = 0 then 0 else 1 lsl (i - 1)

let observe t v =
  let v = Int.max v 0 in
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v > t.max then t.max <- v;
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1

(* Bucket-wise sum: observation order never mattered, so merging is
   commutative and associative and a merged histogram equals one that
   observed both streams. *)
let merge a b =
  {
    count = a.count + b.count;
    sum = a.sum + b.sum;
    max = max a.max b.max;
    buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i));
  }

let count t = t.count
let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

(* Smallest observed-bucket upper bound covering ≥ q of the observations —
   a coarse quantile, exact to within a power of two. *)
let quantile_bound t q =
  if t.count = 0 then 0
  else begin
    let target = int_of_float (Float.of_int t.count *. q) in
    let acc = ref 0 in
    let result = ref t.max in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + t.buckets.(i);
         if !acc > target then begin
           result := (if i = 0 then 0 else (1 lsl i) - 1);
           raise Exit
         end
       done
     with Exit -> ());
    min !result t.max
  end

let to_json t =
  let buckets =
    Array.to_list t.buckets
    |> List.mapi (fun i n -> i, n)
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (i, n) ->
           Json.Obj [ "lo", Json.Int (bucket_lo i); "n", Json.Int n ])
  in
  Json.Obj
    [
      "count", Json.Int t.count;
      "sum", Json.Int t.sum;
      "max", Json.Int t.max;
      "mean", Json.Float (mean t);
      "p50", Json.Int (quantile_bound t 0.5);
      "p99", Json.Int (quantile_bound t 0.99);
      "buckets", Json.Arr buckets;
    ]

let pp fmt t =
  if t.count = 0 then Fmt.string fmt "no observations"
  else
    Fmt.pf fmt "n=%d mean=%.1f p50≤%d p99≤%d max=%d" t.count (mean t)
      (quantile_bound t 0.5) (quantile_bound t 0.99) t.max
