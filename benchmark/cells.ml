(* cell-closed: one System.build cell per system, closed-loop counter
   increments under round robin, shared memory, nil sink, no trace.

   The benchmark spawns the clients itself, through a wrapped [invoke]
   that records each operation's span in simulated steps, and a
   [next_op] it can switch off. After the measured steps the clients are
   drained (their in-flight increments finish, no new ones start) and the
   counter must read back exactly the increments that completed. *)

open Tbwf_sim
module System = Tbwf_system.System

(* Retry is left out: under round robin it livelocks (0 operations in 1M
   steps), the expected behaviour of an obstruction-free baseline. *)
let systems = System.[ Tbwf_atomic; Tbwf_abortable; Tbwf_universal; Naive_booster ]
let n = 4
let steps_per_cell = 250_000
let pids = List.init n Fun.id

type cell = {
  stack : System.stack;
  policy : Policy.t;
  stop : bool ref;
  op_steps : int list ref;  (** steps from invoke to return, per completed op *)
}

let build ~seed i system =
  let stack =
    System.build ~seed:(Rng.task_seed ~master:seed i) ~record_trace:false
      ~client_pids:[] ~n system
  in
  let rt = stack.System.rt in
  let stop = ref false in
  let op_steps = ref [] in
  let invoke op =
    let t0 = Runtime.now rt in
    let r = stack.System.invoke op in
    op_steps := (Runtime.now rt - t0) :: !op_steps;
    r
  in
  let next_op ~pid:_ ~k:_ = if !stop then None else Some Tbwf_objects.Counter.inc in
  Tbwf_core.Workload.spawn_clients rt ~pids ~stats:stack.System.stats ~invoke
    ~next_op;
  { stack; policy = Policy.round_robin (); stop; op_steps }

let sum = Array.fold_left ( + ) 0
let completed cell = sum cell.stack.System.stats.Tbwf_core.Workload.completed

(* Stop issuing, let in-flight operations finish, then read the counter
   without taking a step. It must equal the completed increments. *)
let read_back cell =
  let rt = cell.stack.System.rt in
  let stats = cell.stack.System.stats in
  cell.stop := true;
  let pending () = sum stats.Tbwf_core.Workload.issued - sum stats.completed in
  let rec drain rounds =
    if pending () > 0 && rounds > 0 then begin
      Runtime.run rt ~policy:cell.policy ~steps:10_000;
      drain (rounds - 1)
    end
  in
  drain 100;
  let ok =
    pending () = 0
    &&
    match cell.stack.System.qa.Tbwf_objects.Qa_intf.peek_state () with
    | Value.Int v -> v = completed cell
    | _ -> false
  in
  Runtime.stop rt;
  ok

let setup_once ~seed =
  List.iteri (fun i system -> Runtime.stop (build ~seed i system).stack.System.rt) systems

(* One cell run: the measured steps, then the untimed read-back. *)
type cell_run = {
  cr_steps : int;
  cr_ops : int;
  cr_seconds : float;
  cr_op_steps : int list;
  cr_ok : bool;
}

let run_cell ?sink_of ~seed i system =
  let cell = build ~seed i system in
  let rt = cell.stack.System.rt in
  Option.iter (fun f -> Runtime.set_sink rt (f cell.stack)) sink_of;
  let (), seconds =
    Measure.timed (fun () -> Runtime.run rt ~policy:cell.policy ~steps:steps_per_cell)
  in
  let steps = Runtime.now rt and ops = completed cell in
  let op_steps = !(cell.op_steps) in
  { cr_steps = steps; cr_ops = ops; cr_seconds = seconds; cr_op_steps = op_steps; cr_ok = read_back cell }

(* The deterministic counters of one repeat, per system: steps, completed
   ops and the op-span percentiles. *)
let counters runs =
  List.map
    (fun r ->
      r.cr_steps, r.cr_ops, Stats.percentile r.cr_op_steps 0.5,
      Stats.percentile r.cr_op_steps 0.99)
    runs

let repeat_of runs =
  {
    Measure.steps = List.fold_left (fun a r -> a + r.cr_steps) 0 runs;
    ops = List.fold_left (fun a r -> a + r.cr_ops) 0 runs;
    seconds = List.fold_left (fun a r -> a +. r.cr_seconds) 0.0 runs;
    units = List.length runs;
    failed = List.length (List.filter (fun r -> not r.cr_ok) runs);
  }

let run_once ~seed = List.mapi (fun i system -> run_cell ~seed i system) systems

(* --- the traced run: a benchmark-owned counting sink -------------------- *)

type counts = {
  layer_steps : int array;  (** indexed by [Sink.layer_index] *)
  layer_invokes : int array;
  mutable abort_decisions : int;
  mutable epochs : int;
  mutable epoch_leader : int;
  mutable flips : int;
  mutable qa_responses : int;
  mutable qa_aborts : int;
}

let fresh_counts () =
  {
    layer_steps = Array.make Sink.n_layers 0;
    layer_invokes = Array.make Sink.n_layers 0;
    abort_decisions = 0;
    epochs = 0;
    epoch_leader = -1;
    flips = 0;
    qa_responses = 0;
    qa_aborts = 0;
  }

let bump a i = a.(i) <- a.(i) + 1

(* Counts steps and invokes per layer, register abort decisions, leader
   epochs (a process announcing itself while someone else held the epoch,
   as the collector defines them), suspicion flips, and the responses of
   the cell's query-abortable object with how many were aborts. *)
let counting_sink c (stack : System.stack) =
  let qa_id =
    match stack.System.qa.Tbwf_objects.Qa_intf.view with
    | Tbwf_objects.Qa_intf.Direct s | Tbwf_objects.Qa_intf.Universal s -> s.Shared.id
  in
  c.epoch_leader <- -1;
  {
    Sink.active = true;
    on_step = (fun ~step:_ ~pid:_ ~layer -> bump c.layer_steps (Sink.layer_index layer));
    on_invoke =
      (fun ~step:_ ~pid:_ ~layer ~obj_id:_ ~obj_name:_ ~op:_ ->
        bump c.layer_invokes (Sink.layer_index layer));
    on_respond =
      (fun ~step:_ ~pid:_ ~layer:_ ~obj_id ~obj_name:_ ~op:_ ~result ->
        if obj_id = qa_id then begin
          c.qa_responses <- c.qa_responses + 1;
          match result with Value.Abort -> c.qa_aborts <- c.qa_aborts + 1 | _ -> ()
        end);
    on_signal =
      (fun ~step:_ ~pid signal ->
        match signal with
        | Sink.Abort_decision _ -> c.abort_decisions <- c.abort_decisions + 1
        | Sink.Leader_view { leader = Some l } when l = pid && l <> c.epoch_leader ->
          c.epochs <- c.epochs + 1;
          c.epoch_leader <- l
        | Sink.Suspicion_flip _ -> c.flips <- c.flips + 1
        | _ -> ());
  }

type traced = {
  t_runs : cell_run list;
  t_counts : counts;
}

let run_traced ~seed =
  let c = fresh_counts () in
  let runs =
    List.mapi (fun i system -> run_cell ~sink_of:(counting_sink c) ~seed i system) systems
  in
  { t_runs = runs; t_counts = c }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let traced_metrics t =
  let c = t.t_counts in
  let r = repeat_of t.t_runs in
  let total = Array.fold_left ( + ) 0 c.layer_steps in
  let layer l = c.layer_steps.(Sink.layer_index l) in
  let invokes l = c.layer_invokes.(Sink.layer_index l) in
  let op_steps = List.concat_map (fun r -> r.cr_op_steps) t.t_runs in
  Measure.
    [
      metric "registers.abort_decisions" "count" (float_of_int c.abort_decisions);
      metric "registers.abort_ratio" "ratio" ~note:"per Omega and Monitor register invoke"
        (ratio c.abort_decisions (invokes Sink.Omega + invokes Sink.Monitor));
      metric "objects.qa.abort_ratio" "ratio" (ratio c.qa_aborts c.qa_responses);
      metric "omega.step_share" "ratio" (ratio (layer Sink.Omega + layer Sink.Monitor) total);
      metric "omega.leader_epochs" "count" (float_of_int c.epochs);
      metric "monitor.suspicion_flips" "count" (float_of_int c.flips);
      metric "core.steps_per_op" "steps" (ratio r.steps r.ops);
      metric "core.app_step_share" "ratio" (ratio (layer Sink.App) total);
      metric "op_steps_p50" "steps" (float_of_int (Stats.percentile op_steps 0.5));
      metric "op_steps_p99" "steps" (float_of_int (Stats.percentile op_steps 0.99));
      metric "op_count" "count" (float_of_int (List.length op_steps));
    ]

(* The traced counters that must repeat exactly. *)
let traced_counters t =
  let c = t.t_counts in
  ( counters t.t_runs,
    (Array.to_list c.layer_steps, Array.to_list c.layer_invokes),
    (c.abort_decisions, c.epochs, c.flips, c.qa_responses, c.qa_aborts) )
