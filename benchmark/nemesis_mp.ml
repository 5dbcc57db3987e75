(* nemesis-mp: Campaign.run of one network campaign on the
   message-passing substrate, all five systems, pooled over every domain
   the machine offers, at the campaign's own calibrated (quick) horizon.

   Verdicts are read only through [row_as_expected] and structural
   equality: the online verdict must equal the post-hoc verdict in every
   cell (an output check), and a cell that contradicts its campaign's
   prediction counts towards the fail ratio. *)

module System = Tbwf_system.System
module Campaign = Tbwf_nemesis.Campaign
module Fault_plan = Tbwf_nemesis.Fault_plan
module Collector = Tbwf_telemetry.Collector

(* A loss storm: messages drop at a ramping rate, so quorum operations
   retransmit, and the slowdown control keeps the baselines failing. One
   campaign keeps a repeat short enough to calibrate tightly. *)
let campaign = Option.get (Campaign.find "net-drop-storm")

let substrate = System.Message_passing Tbwf_net.Net.default_config

type cell = {
  system : string;
  steps : int;
  ops : int;
  seconds : float;  (** [rr_seconds]: build + run + verdict *)
  sent : int;
  dropped : int;
  as_expected : bool;
  agrees : bool;  (** online verdict = post-hoc verdict *)
  verdict : Tbwf_check.Degradation.verdict;
}

let cell_of_row (row : Campaign.row) =
  let r = row.Campaign.row_result in
  let t = r.Campaign.rr_telemetry in
  {
    system = Campaign.system_name row.Campaign.row_system;
    steps = Collector.total_steps t;
    ops = Array.fold_left ( + ) 0 (Collector.app_completed t);
    seconds = r.Campaign.rr_seconds;
    sent = Collector.net_sent t;
    dropped = Collector.net_dropped t;
    as_expected = row.Campaign.row_as_expected;
    agrees = r.Campaign.rr_online = r.Campaign.rr_verdict;
    verdict = r.Campaign.rr_verdict;
  }

type run = { cells : cell list; wall : float }

let run_once ~pool ~seed =
  let outcome, wall =
    Measure.timed (fun () -> Campaign.run ~substrate ~quick:true ~seed ~pool campaign)
  in
  { cells = List.map cell_of_row outcome.Campaign.o_rows; wall }

let repeat_of run =
  {
    Measure.steps = List.fold_left (fun a c -> a + c.steps) 0 run.cells;
    ops = List.fold_left (fun a c -> a + c.ops) 0 run.cells;
    seconds = run.wall;
    units = List.length run.cells;
    failed = List.length (List.filter (fun c -> not c.agrees) run.cells);
  }

let contradicting run =
  List.filter_map (fun c -> if c.as_expected then None else Some c.system) run.cells

(* Everything about a cell that the seed fixes. *)
let counters run =
  List.map (fun c -> c.steps, c.ops, c.sent, c.dropped, c.as_expected, c.verdict) run.cells

(* The pre-step work of every cell: the campaign's plan instantiated at
   the substrate's dimensions and compiled (substrate events, abort
   policies, schedule policy, prediction), the pool created, and every
   system's stack built over it with its collector. *)
let setup_once ~seed =
  let (_ : Tbwf_parallel.Pool.t) = Tbwf_parallel.Pool.create () in
  let n, horizon = Campaign.substrate_dimensions ~substrate ~quick:true () in
  let plan = Campaign.plan campaign ~n ~horizon in
  let config =
    {
      Tbwf_net.Net.default_config with
      Tbwf_net.Net.replicas = Fault_plan.replicas plan;
      events = Fault_plan.net_events plan;
    }
  in
  let abort target =
    Fault_plan.abort_policy plan ~target ~base:Tbwf_registers.Abort_policy.Always
  in
  List.iter
    (fun system ->
      let stack =
        System.build ~substrate:(System.Message_passing config) ~seed
          ~qa_policy:(abort Fault_plan.Qa) ~mesh_policy:(abort Fault_plan.Omega_mesh)
          ~telemetry:true ~n system
      in
      Fault_plan.install_crashes plan stack.System.rt;
      let (_ : Tbwf_sim.Policy.t) = Fault_plan.policy plan in
      let (_ : Tbwf_check.Degradation.prediction) = Fault_plan.prediction plan in
      Tbwf_sim.Runtime.stop stack.System.rt)
    Campaign.all_systems
