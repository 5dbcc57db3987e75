(* Self-tests of the benchmark: the order statistics match Python's
   statistics module, the exact-repeat checker flags a drift, and the
   deterministic counters of real runs repeat exactly. Run with
   `dune build @benchmark/bench-test`. *)

open Bench_lib

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  expect "quartiles of 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  (* statistics.quantiles([3, 1, 2], n=4) = [1.0, 2.0, 3.0] *)
  let q1, q2, q3 = Stats.quartiles [ 3.0; 1.0; 2.0 ] in
  expect "quartiles of three samples" (close q1 1.0 && close q2 2.0 && close q3 3.0);
  expect "median of an even sample" (close (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  expect "nearest-rank percentiles"
    (Stats.percentile (List.init 100 (fun i -> i + 1)) 0.5 = 50
    && Stats.percentile (List.init 100 (fun i -> i + 1)) 0.99 = 99);
  let e = Stats.exact "steady" in
  List.iter (Stats.observe e) [ 7; 7; 7 ];
  expect "equal repeats do not drift" (not (Stats.drifted e));
  let e = Stats.exact "drifting" in
  List.iter (Stats.observe e) [ 7; 7; 8 ];
  expect "a changed counter is a drift" (Stats.drifted e);
  (* real deterministic counters: two ladder passes and two traced cell
     runs at one seed must agree exactly *)
  let ladder = Ladder.run ~repeats:2 ~seed:3L in
  expect "ladder words/step and counters repeat exactly" (ladder.Ladder.drifted = []);
  let a = Cells.run_traced ~seed:3L and b = Cells.run_traced ~seed:3L in
  expect "traced cell counts repeat exactly"
    (Cells.traced_counters a = Cells.traced_counters b);
  expect "every cell reads back its completed increments"
    (List.for_all (fun r -> r.Cells.cr_ok) (a.Cells.t_runs @ b.Cells.t_runs));
  if !failures > 0 then exit 1
