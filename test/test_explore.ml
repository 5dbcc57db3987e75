(* Schedule exploration: the invariants of the clean scenarios hold over
   EVERY interleaving; the planted bugs are found by exhaustive search and
   by fuzzing; witnesses shrink, serialize and replay deterministically;
   and the partial-order reduction prunes an order of magnitude of
   schedules without changing any verdict. *)

open Tbwf_sim
open Tbwf_check
open Tbwf_experiments

let find name =
  match Explore_scenarios.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario %s" name

let check_option_schedule = Alcotest.(option (list int))

(* --- clean scenarios: no violating schedule exists ----------------------- *)

let test_clean_all_schedules () =
  List.iter
    (fun name ->
      let s = find name in
      let outcome = Explore_scenarios.exhaustive s in
      Alcotest.check check_option_schedule
        (name ^ ": no violating schedule") None outcome.Explore.violation;
      Alcotest.(check bool) (name ^ ": search exhausted") true
        outcome.Explore.exhausted;
      Alcotest.(check bool) (name ^ ": nontrivial exploration") true
        (outcome.Explore.schedules > 5))
    [ "atomic2"; "abortable2"; "qa2"; "regs3" ]

(* --- explorers agree, reduction is real ---------------------------------- *)

let test_por_agrees_and_reduces () =
  let naive_total = ref 0 and por_total = ref 0 in
  List.iter
    (fun s ->
      let naive = Explore_scenarios.exhaustive_naive s in
      let dfs = Explore_scenarios.exhaustive ~por:false s in
      let por = Explore_scenarios.exhaustive s in
      let found o = o.Explore.violation <> None in
      Alcotest.(check bool)
        (s.Explore_scenarios.name ^ ": naive verdict")
        s.Explore_scenarios.expect_violation (found naive);
      Alcotest.(check bool)
        (s.Explore_scenarios.name ^ ": dfs verdict")
        s.Explore_scenarios.expect_violation (found dfs);
      Alcotest.(check bool)
        (s.Explore_scenarios.name ^ ": por verdict")
        s.Explore_scenarios.expect_violation (found por);
      Alcotest.(check bool)
        (s.Explore_scenarios.name ^ ": por never explores more than dfs")
        true
        (por.Explore.schedules <= dfs.Explore.schedules);
      naive_total := !naive_total + naive.Explore.schedules;
      por_total := !por_total + por.Explore.schedules)
    Explore_scenarios.all;
  Alcotest.(check bool)
    (Fmt.str "POR executes >=10x fewer schedules (naive %d vs POR %d)"
       !naive_total !por_total)
    true
    (!naive_total >= 10 * !por_total)

let test_por_reduction_on_disjoint_registers () =
  let s = find "regs3" in
  let naive = Explore_scenarios.exhaustive_naive s in
  let por = Explore_scenarios.exhaustive s in
  Alcotest.(check bool)
    (Fmt.str "regs3 alone >=10x (naive %d vs POR %d)" naive.Explore.schedules
       por.Explore.schedules)
    true
    (naive.Explore.schedules >= 10 * por.Explore.schedules)

(* --- violations: found, witnessed, replayable ---------------------------- *)

let test_explorer_finds_violations () =
  List.iter
    (fun name ->
      let s = find name in
      let outcome = Explore_scenarios.exhaustive s in
      match outcome.Explore.violation with
      | None -> Alcotest.failf "%s: no witness found" name
      | Some witness ->
        Alcotest.(check bool) (name ^ ": witness replays to a violation")
          false
          (Explore_scenarios.replay s witness);
        (* the witness round-trips through the schedule text format *)
        let sched = Explore_scenarios.schedule_of s witness in
        (match Schedule.of_string (Schedule.to_string sched) with
        | Ok parsed ->
          Alcotest.(check (list int)) (name ^ ": schedule round-trip") witness
            (Schedule.pids parsed)
        | Error msg -> Alcotest.failf "%s: round-trip failed: %s" name msg))
    [ "broken1"; "mutex2" ]

(* --- budget: both the exhausted and the partial path --------------------- *)

let test_budget_partial_outcome () =
  let s = find "regs3" in
  let partial = Explore_scenarios.exhaustive ~max_schedules:10 s in
  Alcotest.(check int) "stopped exactly at the budget" 10
    partial.Explore.schedules;
  Alcotest.(check bool) "partial search is flagged" false
    partial.Explore.exhausted;
  Alcotest.check check_option_schedule "no violation in the covered part"
    None partial.Explore.violation;
  let full = Explore_scenarios.exhaustive s in
  Alcotest.(check bool) "full search is exhausted" true full.Explore.exhausted

let test_budget_partial_outcome_naive () =
  let s = find "regs3" in
  let partial = Explore_scenarios.exhaustive_naive ~max_schedules:25 s in
  Alcotest.(check int) "naive stopped at the budget" 25
    partial.Explore.schedules;
  Alcotest.(check bool) "naive partial search is flagged" false
    partial.Explore.exhausted;
  let small = Explore_scenarios.exhaustive_naive (find "broken1") in
  Alcotest.(check bool) "small naive search is exhausted"
    true
    (* the naive explorer stops at the first violation; it never exceeded
       its budget, so the space it set out to cover is done *)
    small.Explore.exhausted

(* --- fuzzing + shrinking ------------------------------------------------- *)

let test_fuzz_finds_and_shrinks_mutex () =
  let s = find "mutex2" in
  let f = Explore_scenarios.fuzz ~seed:0xF00DL ~runs:2_000 s in
  match f.Explore.counterexample with
  | None -> Alcotest.fail "fuzzer missed the mutual-exclusion violation"
  | Some minimal ->
    let original = Option.get f.Explore.shrunk_from in
    Alcotest.(check bool) "shrinking never grows" true
      (List.length minimal <= original);
    Alcotest.(check bool) "minimal schedule still violates" false
      (Explore_scenarios.replay s minimal);
    (* 1-minimality: dropping any single step loses the violation *)
    List.iteri
      (fun i _ ->
        let without = List.filteri (fun j _ -> j <> i) minimal in
        Alcotest.(check bool)
          (Fmt.str "dropping step %d loses the violation" i)
          true
          (Explore_scenarios.replay s without))
      minimal

let test_fuzz_clean_scenario_finds_nothing () =
  let f = Explore_scenarios.fuzz ~seed:42L ~runs:300 (find "atomic2") in
  Alcotest.check check_option_schedule "no counterexample on atomic2" None
    f.Explore.counterexample;
  Alcotest.(check int) "all runs executed" 300 f.Explore.fuzz_runs;
  (* budget exhausted without a witness: the partial outcome must name
     the batch that was in flight and its derived stream seed, so the
     search is resumable *)
  let last = (300 / Explore.fuzz_batch_runs) - 1 in
  (match f.Explore.exhausted_batch with
  | Some (k, task_seed) ->
    Alcotest.(check int) "last batch recorded" last k;
    Alcotest.(check int64)
      "derived stream seed recorded"
      (Tbwf_sim.Rng.task_seed ~master:42L last)
      task_seed
  | None -> Alcotest.fail "exhausted run must record the in-flight batch")

let test_fuzz_witness_has_no_exhausted_batch () =
  let f = Explore_scenarios.fuzz ~seed:0xF00DL ~runs:2_000 (find "mutex2") in
  Alcotest.(check bool) "witness found" true (f.Explore.counterexample <> None);
  Alcotest.(check bool)
    "no exhausted batch on a witnessing run" true
    (f.Explore.exhausted_batch = None)

(* --- committed counterexample: the regression replay --------------------- *)

(* Found by `tbwf_explore fuzz mutex2` and shrunk to 1-minimality: both
   processes pass the check-then-set race and enter the critical section.
   Committed in serialized form; must reproduce byte-deterministically. *)
let committed_mutex_violation = "tbwf-sched v1 n=2 seed=1\n1x2 0x2 1 0 1 0\n"

let test_committed_counterexample_replays () =
  match Schedule.of_string committed_mutex_violation with
  | Error msg -> Alcotest.failf "committed schedule unparseable: %s" msg
  | Ok sched ->
    Alcotest.(check int) "n preserved" 2 (Schedule.n sched);
    Alcotest.(check int) "length preserved" 8 (Schedule.length sched);
    let s = find "mutex2" in
    Alcotest.(check bool) "committed schedule violates mutual exclusion"
      false
      (Explore_scenarios.replay s (Schedule.pids sched));
    (* and does so on every replay — determinism *)
    Alcotest.(check bool) "second replay identical" false
      (Explore_scenarios.replay s (Schedule.pids sched))

let () =
  Alcotest.run "explore"
    [
      ( "exhaustive",
        [
          Alcotest.test_case "clean scenarios hold on all schedules" `Slow
            test_clean_all_schedules;
          Alcotest.test_case "explorer finds planted violations" `Quick
            test_explorer_finds_violations;
          Alcotest.test_case "budget yields partial outcome" `Quick
            test_budget_partial_outcome;
          Alcotest.test_case "naive budget yields partial outcome" `Quick
            test_budget_partial_outcome_naive;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "POR agrees with naive and reduces >=10x" `Slow
            test_por_agrees_and_reduces;
          Alcotest.test_case "POR >=10x on disjoint-register scenario" `Slow
            test_por_reduction_on_disjoint_registers;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "fuzz finds and shrinks mutex violation" `Quick
            test_fuzz_finds_and_shrinks_mutex;
          Alcotest.test_case "fuzz finds nothing on a clean scenario" `Quick
            test_fuzz_clean_scenario_finds_nothing;
          Alcotest.test_case "witnessing fuzz has no exhausted batch" `Quick
            test_fuzz_witness_has_no_exhausted_batch;
          Alcotest.test_case "committed counterexample replays" `Quick
            test_committed_counterexample_replays;
        ] );
    ]
