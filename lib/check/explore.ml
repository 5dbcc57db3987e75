open Tbwf_sim

type outcome = {
  schedules : int;
  violation : int list option;
  exhausted : bool;
}

type fuzz_outcome = {
  fuzz_runs : int;
  counterexample : int list option;
  shrunk_from : int option;
  exhausted_batch : (int * int64) option;
}

(* --- replay ------------------------------------------------------------- *)

let replay_checked ~max_steps ~scenario ~make_runtime pids =
  let rt = make_runtime () in
  let invariant = scenario rt in
  let ok = ref (invariant ()) in
  let steps = ref 0 in
  let mismatches = ref 0 in
  List.iter
    (fun pid ->
      if !ok && !steps < max_steps then begin
        let runnable = Runtime.runnable_pids rt in
        if pid >= 0 && Array.exists (fun p -> p = pid) runnable then begin
          Runtime.step rt ~pid;
          incr steps;
          if not (invariant ()) then ok := false
        end
        else if pid >= 0 then incr mismatches
      end)
    pids;
  Runtime.stop rt;
  !ok, !mismatches

let replay ~max_steps ~scenario ~make_runtime pids =
  fst (replay_checked ~max_steps ~scenario ~make_runtime pids)

(* --- incremental DFS with sleep-set partial-order reduction -------------- *)

module IntMap = Map.Make (Int)

(* One level of the DFS stack: the choice point reached after executing the
   [f_cur] branches of all shallower frames. [f_sleep] is fixed when the
   frame is created (inherited from the parent per the sleep-set rule);
   [f_done] accumulates fully-explored sibling branches together with their
   observed access footprints. *)
type frame = {
  f_runnable : int array;
  f_sleep : Independence.footprint IntMap.t;
  mutable f_done : (int * Independence.footprint) list;
  mutable f_cur : int;
  mutable f_cur_fp : Independence.footprint;
}

(* The full DFS, optionally restricted to one root branch: [root = Some
   (pid, prior)] pins the depth-0 frame to [pid] with the footprints of
   the already-explored earlier root branches pre-seeded as its [f_done]
   — exactly the state the sequential search has when it starts that
   branch's subtree, which is what makes the root-split parallel search
   below explore the same reduced tree, branch for branch. *)
let exhaustive_dfs ?(max_schedules = 200_000) ?(por = true) ?root ~max_steps
    ~scenario ~make_runtime () =
  if max_steps < 1 then invalid_arg "Explore.exhaustive: max_steps < 1";
  let schedules = ref 0 in
  let violation = ref None in
  let exhausted = ref true in
  let stack : frame option array = Array.make max_steps None in
  let stack_len = ref 0 in
  let frame d =
    match stack.(d) with Some f -> f | None -> assert false
  in
  (match root with
  | None -> ()
  | Some (pid, prior) ->
    stack.(0) <-
      Some
        {
          f_runnable = [| pid |];
          f_sleep = IntMap.empty;
          f_done = prior;
          f_cur = pid;
          f_cur_fp = Independence.empty;
        };
    stack_len := 1);
  (* Sleep set for the state reached by executing [f.f_cur] from [f]'s
     state: processes whose pending step is independent of every step taken
     since they were put to sleep stay asleep — exploring them here would
     only permute commuting steps of an already-explored schedule. *)
  let child_sleep d =
    if (not por) || d = 0 then IntMap.empty
    else begin
      let p = frame (d - 1) in
      let merged =
        List.fold_left
          (fun m (pid, fp) -> IntMap.add pid fp m)
          p.f_sleep p.f_done
      in
      IntMap.filter
        (fun _ fp -> Independence.commute fp p.f_cur_fp)
        merged
    end
  in
  (* Execute one complete schedule: replay the branch recorded in each
     stack frame, then extend depth-first (always picking the smallest
     non-sleeping runnable pid) until quiescence, the step bound, or a
     fully-slept state. The invariant is evaluated after every step, so a
     single execution checks every prefix of the schedule — this is what
     makes the DFS incremental compared to running each prefix as its own
     schedule. *)
  let execute () =
    incr schedules;
    let rt = make_runtime () in
    let invariant = scenario rt in
    let trace = Runtime.trace rt in
    let fail () = violation := Some (Trace.schedule trace) in
    let stop_run = ref false in
    if not (invariant ()) then begin
      fail ();
      stop_run := true
    end;
    let depth = ref 0 in
    (* replay the committed prefix *)
    while (not !stop_run) && !depth < !stack_len do
      let f = frame !depth in
      let mark = Trace.n_ops trace in
      Runtime.step rt ~pid:f.f_cur;
      f.f_cur_fp <- Independence.of_events (Trace.ops_from trace mark);
      incr depth;
      if not (invariant ()) then begin
        fail ();
        stop_run := true
      end
    done;
    (* extend to a maximal schedule *)
    while (not !stop_run) && !depth < max_steps do
      let runnable = Runtime.runnable_pids rt in
      if Array.length runnable = 0 then stop_run := true
      else begin
        let sleep = child_sleep !depth in
        match
          Array.to_list runnable
          |> List.find_opt (fun pid -> not (IntMap.mem pid sleep))
        with
        | None -> stop_run := true (* every enabled step is asleep *)
        | Some pid ->
          let f =
            {
              f_runnable = runnable;
              f_sleep = sleep;
              f_done = [];
              f_cur = pid;
              f_cur_fp = Independence.empty;
            }
          in
          stack.(!depth) <- Some f;
          stack_len := !depth + 1;
          let mark = Trace.n_ops trace in
          Runtime.step rt ~pid;
          f.f_cur_fp <- Independence.of_events (Trace.ops_from trace mark);
          incr depth;
          if not (invariant ()) then begin
            fail ();
            stop_run := true
          end
      end
    done;
    Runtime.stop rt
  in
  (* Move the deepest frame to its next unexplored branch, popping frames
     whose branches are all explored or asleep. *)
  let rec backtrack () =
    if !stack_len = 0 then false
    else begin
      let f = frame (!stack_len - 1) in
      f.f_done <- (f.f_cur, f.f_cur_fp) :: f.f_done;
      let next =
        Array.to_list f.f_runnable
        |> List.find_opt (fun pid ->
               (not (List.mem_assoc pid f.f_done))
               && not (IntMap.mem pid f.f_sleep))
      in
      match next with
      | Some pid ->
        f.f_cur <- pid;
        true
      | None ->
        stack.(!stack_len - 1) <- None;
        stack_len := !stack_len - 1;
        backtrack ()
    end
  in
  let continue_search = ref true in
  while !continue_search && !violation = None do
    if !schedules >= max_schedules then begin
      exhausted := false;
      continue_search := false
    end
    else begin
      execute ();
      if !violation = None then continue_search := backtrack ()
    end
  done;
  { schedules = !schedules; violation = !violation; exhausted = !exhausted }

(* --- root-split parallel exploration -------------------------------------- *)

(* Merge per-root-branch outcomes into the sequential search's outcome.
   The sequential DFS explores branch 0's subtree to completion, then
   branch 1's, and so on, counting schedules globally against
   [max_schedules] and stopping at the first violation. Each parallel
   branch task ran the same subtree with the full budget, so replaying
   the branch order with a simulated global budget reproduces the
   sequential outcome exactly — including which violation wins (lowest
   branch, not first-to-finish) — except when the budget bites partway
   through a branch, where the merged outcome is clamped to the
   sequential one (budget reached, no violation, not exhausted). *)
let merge_root_outcomes ~max_schedules outcomes =
  let nb = Array.length outcomes in
  let rec go b acc all_exhausted =
    if b >= nb then
      { schedules = acc; violation = None; exhausted = all_exhausted }
    else begin
      let o = outcomes.(b) in
      let remaining = max_schedules - acc in
      match o.violation with
      | Some _ when o.schedules <= remaining ->
        (* the sequential search reaches this branch's violating schedule
           before the budget: it stops right there *)
        { schedules = acc + o.schedules; violation = o.violation;
          exhausted = true }
      | _ ->
        if o.schedules < remaining then
          go (b + 1) (acc + o.schedules) (all_exhausted && o.exhausted)
        else if
          b = nb - 1 && o.schedules = remaining && o.exhausted
          && o.violation = None
        then
          (* the whole tree finishes exactly at the budget; the sequential
             explorer only notices the budget when work remains *)
          { schedules = acc + o.schedules; violation = None;
            exhausted = all_exhausted }
        else
          (* budget reached partway: the sequential search stops at
             [max_schedules] schedules without reaching a violation *)
          { schedules = max_schedules; violation = None; exhausted = false }
    end
  in
  go 0 0 true

(* Footprint of taking [pid]'s first step from the initial state — the
   value the sequential DFS records into the root frame's [f_done] when
   it finishes that branch (the first step of a branch is deterministic,
   so precomputing it from a probe run observes the identical value). *)
let root_footprint ~scenario ~make_runtime pid =
  let rt = make_runtime () in
  let (_ : unit -> bool) = scenario rt in
  let trace = Runtime.trace rt in
  let mark = Trace.n_ops trace in
  Runtime.step rt ~pid;
  let fp = Independence.of_events (Trace.ops_from trace mark) in
  Runtime.stop rt;
  fp

let exhaustive ?max_schedules ?por ?pool ~max_steps ~scenario ~make_runtime ()
    =
  let sequential () =
    exhaustive_dfs ?max_schedules ?por ~max_steps ~scenario ~make_runtime ()
  in
  match pool with
  | None -> sequential ()
  | Some pool when Tbwf_parallel.Pool.domains pool <= 1 -> sequential ()
  | Some pool ->
    (* Probe the initial state: the root branches are the runnable pids
       in array order, exactly the branches the root frame of the
       sequential DFS iterates. *)
    let rt = make_runtime () in
    let invariant = scenario rt in
    let initially_ok = invariant () in
    let roots = Runtime.runnable_pids rt in
    Runtime.stop rt;
    if (not initially_ok) || Array.length roots <= 1 then sequential ()
    else begin
      let fps =
        Array.map (fun pid -> root_footprint ~scenario ~make_runtime pid) roots
      in
      let branch b =
        let prior =
          List.init b (fun i -> roots.(i), fps.(i))
        in
        exhaustive_dfs ?max_schedules ?por ~root:(roots.(b), prior)
          ~max_steps ~scenario ~make_runtime ()
      in
      let outcomes =
        Tbwf_parallel.Pool.map pool
          (Array.init (Array.length roots) Fun.id)
          branch
      in
      merge_root_outcomes
        ~max_schedules:(Option.value max_schedules ~default:200_000)
        outcomes
    end

(* --- the pre-reduction explorer, kept as the baseline -------------------- *)

(* Execute one script on a fresh runtime: set up the scenario, run under
   the script policy, evaluate the invariant, and report the branching
   factors observed plus the pid schedule actually followed. *)
let run_script ~max_steps ~scenario ~make_runtime script =
  let rt = make_runtime () in
  let invariant = scenario rt in
  let policy = Policy.of_script script in
  Runtime.run rt ~policy ~steps:max_steps;
  let branching = Policy.branching_of_script policy in
  let sched =
    (* the scripted steps come first; everything after is idle padding *)
    List.filteri
      (fun i _ -> i < List.length branching)
      (Trace.schedule (Runtime.trace rt))
  in
  let holds = invariant () in
  Runtime.stop rt;
  holds, branching, sched

exception Budget

(* Depth-first search over choice scripts, exactly as this module worked
   before partial-order reduction: every prefix is executed from scratch as
   its own schedule, and extension is detected by probing with one extra
   choice. Kept as the comparison baseline for the reduction (E15) and for
   invariants that a reduced search is not sound for (see the mli). *)
let exhaustive_naive ?(max_schedules = 200_000) ~max_steps ~scenario
    ~make_runtime () =
  let schedules = ref 0 in
  let violation = ref None in
  let exhausted = ref true in
  let run script =
    if !schedules >= max_schedules then begin
      exhausted := false;
      raise Budget
    end;
    incr schedules;
    run_script ~max_steps ~scenario ~make_runtime script
  in
  let rec explore prefix =
    if !violation = None then begin
      let script = List.rev prefix in
      let holds, branching, sched = run script in
      if not holds then violation := Some sched
      else if
        List.length branching = List.length script
        && List.length script < max_steps
      then begin
        let holds', branching', sched' = run (script @ [ 0 ]) in
        if List.length branching' > List.length script then
          if not holds' then violation := Some sched'
          else begin
            let k = List.nth branching' (List.length script) in
            for c = 0 to k - 1 do
              explore (c :: prefix)
            done
          end
      end
    end
  in
  (try explore [] with Budget -> ());
  { schedules = !schedules; violation = !violation; exhausted = !exhausted }

(* --- random-schedule fuzzing with shrinking ------------------------------ *)

(* Runs per fuzz batch. Fuzzing is partitioned into fixed-size batches,
   batch [k] drawing from its own stream seeded [Rng.task_seed ~master k]
   — never from a shared stream — so each batch's schedules are a pure
   function of (master seed, k) and the partition is the same at every
   job count. The reported outcome is always that of the lowest-index
   witnessing batch, counting every run up to and including the witness:
   a pool merely runs later batches speculatively. *)
let fuzz_batch_runs = 25

let fuzz_n_batches runs =
  if runs < 0 then invalid_arg "Explore.fuzz: runs < 0";
  (runs + fuzz_batch_runs - 1) / fuzz_batch_runs

let fuzz_batch_size ~runs k = min fuzz_batch_runs (runs - (k * fuzz_batch_runs))

(* Walk batch results in index order, early-stopping at the first
   witness. [run_batch k] returns (runs executed, witness if any). *)
let fuzz_select ?pool ~runs run_batch =
  let n_batches = fuzz_n_batches runs in
  let executed = ref 0 in
  let witness = ref None in
  let consume (e, w) =
    executed := !executed + e;
    match w with
    | Some _ ->
      witness := w;
      raise Exit
    | None -> ()
  in
  (try
     match pool with
     | Some pool when Tbwf_parallel.Pool.domains pool > 1 && n_batches > 1 ->
       Tbwf_parallel.Pool.map pool (Array.init n_batches Fun.id) run_batch
       |> Array.iter consume
     | _ ->
       for k = 0 to n_batches - 1 do
         consume (run_batch k)
       done
   with Exit -> ());
  !executed, !witness

let fuzz ?(seed = 0x5EED5EEDL) ?(runs = 1_000) ?pool ~max_steps ~scenario
    ~make_runtime () =
  let run_batch k =
    let rng = Rng.create (Rng.task_seed ~master:seed k) in
    let count = fuzz_batch_size ~runs k in
    let witness = ref None in
    let executed = ref 0 in
    while !witness = None && !executed < count do
      incr executed;
      let rt = make_runtime () in
      let invariant = scenario rt in
      let sched = ref [] in
      let steps = ref 0 in
      let stop_run = ref (not (invariant ())) in
      if !stop_run then witness := Some [];
      while (not !stop_run) && !steps < max_steps do
        let runnable = Runtime.runnable_pids rt in
        if Array.length runnable = 0 then stop_run := true
        else begin
          let pid = runnable.(Rng.int rng (Array.length runnable)) in
          Runtime.step rt ~pid;
          sched := pid :: !sched;
          incr steps;
          if not (invariant ()) then begin
            witness := Some (List.rev !sched);
            stop_run := true
          end
        end
      done;
      Runtime.stop rt
    done;
    !executed, !witness
  in
  let executed, witness = fuzz_select ?pool ~runs run_batch in
  match witness with
  | None ->
    (* Budget exhausted without a witness: record the batch that was in
       flight (the last one, by the in-order selection contract) and its
       derived stream seed, so a longer re-run can pick
       up the search from exactly this stream instead of restarting the
       whole partition blind. *)
    let exhausted_batch =
      let n_batches = fuzz_n_batches runs in
      if n_batches = 0 then None
      else
        let k = n_batches - 1 in
        Some (k, Rng.task_seed ~master:seed k)
    in
    {
      fuzz_runs = executed;
      counterexample = None;
      shrunk_from = None;
      exhausted_batch;
    }
  | Some pids ->
    let fails candidate =
      not (replay ~max_steps ~scenario ~make_runtime candidate)
    in
    let minimal = if pids = [] then [] else Shrink.ddmin ~fails pids in
    {
      fuzz_runs = executed;
      counterexample = Some minimal;
      shrunk_from = Some (List.length pids);
      exhausted_batch = None;
    }

(* --- fuzzing schedules *and* fault plans --------------------------------- *)

type 'plan fault_fuzz_outcome = {
  plan_runs : int;
  plan_counterexample : (int list * 'plan) option;
  plan_shrunk_from : int option;
}

let fuzz_faults ?(seed = 0x5EED5EEDL) ?(runs = 1_000) ?pool ~gen_plan
    ~shrink_plan ~max_steps ~scenario ~make_runtime () =
  let run_batch k =
    let rng = Rng.create (Rng.task_seed ~master:seed k) in
    let count = fuzz_batch_size ~runs k in
    let witness = ref None in
    let executed = ref 0 in
    while !witness = None && !executed < count do
      incr executed;
      let plan = gen_plan rng in
      let rt = make_runtime plan () in
      let invariant = scenario plan rt in
      let sched = ref [] in
      let steps = ref 0 in
      let stop_run = ref (not (invariant ())) in
      if !stop_run then witness := Some ([], plan);
      while (not !stop_run) && !steps < max_steps do
        let runnable = Runtime.runnable_pids rt in
        if Array.length runnable = 0 then stop_run := true
        else begin
          let pid = runnable.(Rng.int rng (Array.length runnable)) in
          Runtime.step rt ~pid;
          sched := pid :: !sched;
          incr steps;
          if not (invariant ()) then begin
            witness := Some (List.rev !sched, plan);
            stop_run := true
          end
        end
      done;
      Runtime.stop rt
    done;
    !executed, !witness
  in
  let executed, witness = fuzz_select ?pool ~runs run_batch in
  match witness with
  | None ->
    { plan_runs = executed; plan_counterexample = None; plan_shrunk_from = None }
  | Some (pids, plan) ->
    (* Alternate dimensions: shrink the schedule under the found plan,
       then the plan under the shrunk schedule, then the schedule once
       more under the shrunk plan — each shrink can only enable the other,
       and one extra round suffices for the small plans we generate. *)
    let fails_with plan candidate =
      not
        (replay ~max_steps ~scenario:(scenario plan)
           ~make_runtime:(make_runtime plan) candidate)
    in
    let sched1 =
      if pids = [] then [] else Shrink.ddmin ~fails:(fails_with plan) pids
    in
    let plan' = shrink_plan ~fails:(fun p -> fails_with p sched1) plan in
    let sched2 =
      if sched1 = [] then []
      else Shrink.ddmin ~fails:(fails_with plan') sched1
    in
    {
      plan_runs = executed;
      plan_counterexample = Some (sched2, plan');
      plan_shrunk_from = Some (List.length pids);
    }
