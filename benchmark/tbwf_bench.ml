(* The repo's benchmark. One run measures one workload:

     tbwf_bench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the workload end to end (host-time and
   simulated-time metrics, medians over repeats); --trace 1 is the
   separate traced run: the layer ladder, the counting-sink cell run, the
   world re-driven shard by shard, the campaign cells' own timings, and
   this workload's tracing overhead. Human-readable lines come first;
   the last line of stdout is one JSON object with the keys correct,
   attempted, failed and metrics. A failed output check or a drifting
   deterministic counter sets correct to false and the exit code to 1;
   bad arguments exit 2. See README.md in this directory. *)

open Bench_lib
module Pool = Tbwf_parallel.Pool

let workloads = [ "world-churn"; "cell-closed"; "nemesis-mp" ]

let usage () =
  prerr_endline
    "usage: tbwf_bench --workload (world-churn|cell-closed|nemesis-mp) --seed N \
     --seconds S --trace 0|1";
  exit 2

type args = { workload : string; seed : int; seconds : int; trace : bool }

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest -> go ((flag, value) :: acc) rest
    | [ _ ] -> usage ()
  in
  let pairs = go [] (List.tl (Array.to_list Sys.argv)) in
  let get flag = match List.assoc_opt flag pairs with Some v -> v | None -> usage () in
  let int flag = match int_of_string_opt (get flag) with Some v -> v | None -> usage () in
  List.iter
    (fun (flag, _) ->
      if not (List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ]) then usage ())
    pairs;
  let workload = get "--workload" in
  if not (List.mem workload workloads) then usage ();
  let seconds = int "--seconds" in
  if seconds < 1 then usage ();
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  { workload; seed = int "--seed"; seconds; trace }

(* --- provenance ---------------------------------------------------------- *)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        Some (String.trim (really_input_string ic (in_channel_length ic))))
  with Sys_error _ -> None

(* The commit, read from the checkout's own .git (no process, nothing
   outside the checkout); "unknown" when the tree is not a git checkout. *)
let commit () =
  let packed name =
    Option.bind (read_file ".git/packed-refs") (fun text ->
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ sha; r ] when r = name -> Some sha
            | _ -> None)
          (String.split_on_char '\n' text))
  in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head ->
    let name = String.sub head 5 (String.length head - 5) in
    (match read_file (".git/" ^ name) with
    | Some sha -> sha
    | None -> Option.value (packed name) ~default:"unknown")
  | Some sha -> sha

let nproc = Domain.recommended_domain_count ()
let jobs = max 1 (min nproc 8)

(* --- checks -------------------------------------------------------------- *)

(* Every output check and every exact-repeat comparison is one attempted
   unit; a failing one is reported on stderr and counted. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let check name ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "CHECK FAILED: %s\n%!" name
  end

let count_units (r : Measure.repeat) name =
  tally.attempted <- tally.attempted + r.Measure.units;
  tally.failed <- tally.failed + r.Measure.failed;
  if r.Measure.failed > 0 then
    Printf.eprintf "CHECK FAILED: %s: %d of %d units\n%!" name r.Measure.failed r.Measure.units

let exact_check e = check (Printf.sprintf "%s repeat exactly" e.Stats.label) (not (Stats.drifted e))

(* --- end-to-end runs ----------------------------------------------------- *)

(* The warm-up repeat runs first and is not timed: caches fill and lazy
   initialisation finishes before set-up and the measured repeats are
   timed. It counts as an attempted unit like the others. The peak
   resident set is read at the end, over everything the run did; set-up
   counts are fixed and every repeat starts from a collected heap, so it
   does not grow with the number of repeats a host's speed allows. *)
let end_to_end ?domains ~seconds ~setup_per_section ~setup ~min_repeats repeat =
  let warm = repeat () in
  let ratio_exact = Stats.exact "ops_per_100k_steps" in
  let setup_s = Measure.setup_samples ~per_section:setup_per_section setup in
  let reps =
    Measure.repeat_for ?domains ~seconds:(float_of_int seconds) ~min_repeats repeat
  in
  let rss =
    match Measure.peak_rss_mb () with
    | Some mb -> mb
    | None -> failwith "peak RSS needs /proc/self/status"
  in
  List.iter
    (fun r -> Stats.observe ratio_exact (Measure.ops_per_100k_steps r))
    (warm :: List.map fst reps);
  exact_check ratio_exact;
  let rate name f =
    let m = Measure.median_metric name "1/s" (List.map (fun (_, cal) -> f cal) reps) in
    let raw = Stats.median (List.map (fun (raw, _) -> f raw) reps) in
    { m with Measure.note = Printf.sprintf "%s, calibrated; wall clock %.6g" m.Measure.note raw }
  in
  Measure.
    [
      rate "steps_per_s" steps_per_s;
      rate "ops_per_s" ops_per_s;
      median_metric "setup_s" "s" setup_s;
      metric "peak_rss_mb" "MB" ~note:"VmHWM at the end of the run" rss;
      metric "ops_per_100k_steps" "ops" ~note:"simulated time, exact" (ops_per_100k_steps warm);
    ]

let run_end_to_end a =
  let seed = Int64.of_int a.seed in
  let seconds = a.seconds in
  let counted name r =
    count_units r name;
    r
  in
  let metrics, extras =
    match a.workload with
    | "cell-closed" ->
      let det = Stats.exact "cell-closed steps, ops and op-step percentiles" in
      let op_steps = ref [] and unread = ref 0.0 in
      let metrics =
        end_to_end ~seconds ~setup_per_section:300 ~min_repeats:5
          ~setup:(fun () -> Cells.setup_once ~seed)
          (fun () ->
            let runs = Cells.run_once ~seed in
            Stats.observe det (Cells.counters runs);
            op_steps := List.concat_map (fun r -> r.Cells.cr_op_steps) runs;
            let r = counted "counter read-back" (Cells.repeat_of runs) in
            unread := float_of_int r.Measure.failed /. float_of_int r.Measure.units;
            r)
      in
      exact_check det;
      ( metrics,
        Measure.
          [
            metric "op_steps_p50" "steps" (float_of_int (Stats.percentile !op_steps 0.5));
            metric "op_steps_p99" "steps" (float_of_int (Stats.percentile !op_steps 0.99));
            metric "op_count" "count" (float_of_int (List.length !op_steps));
            metric "fail_ratio" "ratio" ~note:"cells failing the read-back" !unread;
          ] )
    | "world-churn" ->
      let pool = Pool.create ~domains:jobs () in
      let det = Stats.exact "tbwf-world/v1 aggregate" in
      let holds = ref 0 in
      let metrics =
        end_to_end ~domains:jobs ~seconds ~setup_per_section:6 ~min_repeats:3
          ~setup:(fun () -> World_churn.setup_once ~seed)
          (fun () ->
            let r = World_churn.run_once ~pool ~seed in
            Stats.observe det r.World_churn.aggregate;
            holds := r.World_churn.holds;
            counted "world run" r.World_churn.repeat)
      in
      exact_check det;
      ( metrics,
        [
          Measure.metric "fail_ratio" "ratio" ~note:"shards whose verdict does not hold"
            (float_of_int (World_churn.shards - !holds) /. float_of_int World_churn.shards);
        ] )
    | _ ->
      let pool = Pool.create ~domains:jobs () in
      let det = Stats.exact "nemesis-mp cell counters and verdicts" in
      let contradicting = ref [] and cells = ref 1 in
      let metrics =
        end_to_end ~domains:jobs ~seconds ~setup_per_section:40 ~min_repeats:2
          ~setup:(fun () -> Nemesis_mp.setup_once ~seed)
          (fun () ->
            let r = Nemesis_mp.run_once ~pool ~seed in
            Stats.observe det (Nemesis_mp.counters r);
            contradicting := Nemesis_mp.contradicting r;
            cells := List.length r.Nemesis_mp.cells;
            counted "online verdict = post-hoc verdict" (Nemesis_mp.repeat_of r))
      in
      exact_check det;
      ( metrics,
        [
          Measure.metric "fail_ratio" "ratio"
            ~note:("cells contradicting their campaign: " ^ String.concat " " !contradicting)
            (float_of_int (List.length !contradicting) /. float_of_int !cells);
        ] )
  in
  print_endline "end-to-end metrics:";
  Measure.print_report metrics;
  print_endline "also measured (simulated time, exact per seed):";
  Measure.print_report extras;
  metrics

(* --- the traced run ------------------------------------------------------ *)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let sum_float = List.fold_left ( +. ) 0.0

let run_traced a =
  let seed = Int64.of_int a.seed in
  let pool = Pool.create ~domains:jobs () in
  let ladder = Ladder.run ~repeats:5 ~seed in
  check
    ("ladder rungs repeat exactly; drifted: " ^ String.concat " " ladder.Ladder.drifted)
    (ladder.Ladder.drifted = []);
  (* cell-closed under the counting sink, twice: every count must repeat *)
  let cells, cells_factor = Measure.calibrated (fun () -> Cells.run_traced ~seed) in
  let cells' = Cells.run_traced ~seed in
  check "traced cell counts repeat exactly"
    (Cells.traced_counters cells = Cells.traced_counters cells');
  List.iter (fun r -> check "counter read-back (traced)" r.Cells.cr_ok) (cells.Cells.t_runs @ cells'.Cells.t_runs);
  (* world-churn at one domain and at all of them, then re-driven; each
     a calibrated section whose factor rescales the times taken in it *)
  let w1, w1_factor =
    Measure.calibrated (fun () ->
        World_churn.run_once ~pool:(Pool.create ~domains:1 ()) ~seed)
  in
  let wn, wn_factor = Measure.calibrated ~domains:jobs (fun () -> World_churn.run_once ~pool ~seed) in
  check "tbwf-world/v1 aggregate identical at jobs 1 and jobs nproc"
    (w1.World_churn.aggregate = wn.World_churn.aggregate);
  let rd, rd_factor = Measure.calibrated ~domains:jobs (fun () -> World_churn.redrive ~pool ~seed) in
  let merged = rd.World_churn.rd_merged in
  check "re-driven shards fold to the world's steps and ops"
    (Tbwf_telemetry.Collector.total_steps merged = wn.World_churn.repeat.Measure.steps
    && Array.fold_left ( + ) 0 (Tbwf_telemetry.Collector.app_completed merged)
       = wn.World_churn.repeat.Measure.ops);
  let shards = w1.World_churn.repeat.Measure.units in
  let shard_s = List.map (fun s -> s *. w1_factor) w1.World_churn.shard_seconds in
  (* nemesis-mp: the campaign cells' own wall times and telemetry *)
  let nem, nem_factor = Measure.calibrated ~domains:jobs (fun () -> Nemesis_mp.run_once ~pool ~seed) in
  List.iter
    (fun c -> check "online verdict = post-hoc verdict" c.Nemesis_mp.agrees)
    nem.Nemesis_mp.cells;
  let cell_s = List.map (fun c -> c.Nemesis_mp.seconds *. nem_factor) nem.Nemesis_mp.cells in
  let sent = List.fold_left (fun acc c -> acc + c.Nemesis_mp.sent) 0 nem.Nemesis_mp.cells in
  let dropped = List.fold_left (fun acc c -> acc + c.Nemesis_mp.dropped) 0 nem.Nemesis_mp.cells in
  let nem_rep = Nemesis_mp.repeat_of nem in
  (* this workload's tracing overhead: the traced path against one
     untraced repeat in the same process, both in calibrated seconds *)
  let rate (r : Measure.repeat) factor = Measure.steps_per_s { r with seconds = r.seconds *. factor } in
  let untraced, traced =
    match a.workload with
    | "cell-closed" ->
      let runs, factor = Measure.calibrated (fun () -> Cells.run_once ~seed) in
      rate (Cells.repeat_of runs) factor, rate (Cells.repeat_of cells.Cells.t_runs) cells_factor
    | "world-churn" ->
      ( rate wn.World_churn.repeat wn_factor,
        float_of_int wn.World_churn.repeat.Measure.steps
        /. (rd.World_churn.rd_seconds *. rd_factor) )
    | _ ->
      let again, factor = Measure.calibrated ~domains:jobs (fun () -> Nemesis_mp.run_once ~pool ~seed) in
      rate (Nemesis_mp.repeat_of again) factor, rate nem_rep nem_factor
  in
  let speedup =
    if jobs > 1 then
      Measure.metric "parallel.speedup" "x"
        ~note:(Printf.sprintf "world-churn, jobs 1 over jobs %d" jobs)
        (w1.World_churn.repeat.Measure.seconds /. wn.World_churn.repeat.Measure.seconds)
    else
      {
        Measure.name = "parallel.speedup";
        unit_ = "x";
        value = None;
        note = "null: nproc = 1, so there is no second domain to compare against";
      }
  in
  let metrics =
    Ladder.metrics ladder
    @ Cells.traced_metrics cells
    @ Measure.
        [
          metric "telemetry.merge_s" "s" ~note:"Collector.merge fold over the world's shards"
            (rd.World_churn.rd_merge_s *. rd_factor);
          median_metric "world.shard_s_p50" "s" shard_s;
          metric "world.shard_s_max" "s" (List.fold_left Float.max 0.0 shard_s);
          metric "check.world_fail_ratio" "ratio" ~note:"shards whose verdict does not hold"
            (ratio (shards - w1.World_churn.holds) shards);
          metric "net.msgs_per_op" "msgs" (ratio sent nem_rep.ops);
          metric "net.drop_ratio" "ratio" (ratio dropped sent);
          median_metric "nemesis.cell_s_p50" "s" cell_s;
          metric "nemesis.cell_s_max" "s" (List.fold_left Float.max 0.0 cell_s);
          metric "check.nemesis_fail_ratio" "ratio"
            ~note:("cells contradicting their campaign: " ^ String.concat " " (Nemesis_mp.contradicting nem))
            (ratio (List.length (Nemesis_mp.contradicting nem)) (List.length nem.Nemesis_mp.cells));
          metric "parallel.utilization" "ratio" ~note:"world-churn shard seconds / (wall x domains)"
            (sum_float wn.World_churn.shard_seconds
            /. (wn.World_churn.repeat.Measure.seconds *. float_of_int jobs));
          metric "parallel.nemesis_utilization" "ratio"
            ~note:"nemesis-mp cell seconds / (wall x domains)"
            (sum_float (List.map (fun c -> c.Nemesis_mp.seconds) nem.Nemesis_mp.cells)
            /. (nem.Nemesis_mp.wall *. float_of_int jobs));
          speedup;
          metric "trace.steps_per_s" "1/s" ~note:(a.workload ^ ", traced path") traced;
          metric "trace.overhead_share" "ratio"
            ~note:(Printf.sprintf "1 - traced/untraced, untraced %.6g steps/s" untraced)
            (1.0 -. (traced /. untraced));
        ]
  in
  print_endline "per-layer metrics (traced run):";
  Measure.print_report metrics;
  metrics

let () =
  let a = parse_args () in
  Printf.printf
    "tbwf-bench: workload %s, seed %d, seconds %d, trace %d\n\
     provenance: commit %s, nproc %d, jobs %d, ocaml %s\n%!"
    a.workload a.seed a.seconds (Bool.to_int a.trace) (commit ()) nproc jobs Sys.ocaml_version;
  let metrics = if a.trace then run_traced a else run_end_to_end a in
  let correct = tally.failed = 0 in
  print_endline
    (Measure.result_line ~correct ~attempted:tally.attempted ~failed:tally.failed metrics);
  if not correct then exit 1
