(* world-churn: World.run with the default cell shape (n=4, 1 joiner,
   1 leaver, the three paper systems, shared memory, open-loop
   Poisson/Zipf KV traffic at mean gap 600, telemetry and the online
   checker on), sharded wide enough for a run of a few seconds and fanned
   over every domain the machine offers.

   Verdicts are read only through [summary.sum_holds]. The tbwf-world/v1
   aggregate must be byte-identical across repeats of one seed and
   between one domain and all of them. *)

open Tbwf_sim
module System = Tbwf_system.System
module World = Tbwf_world.World
module Collector = Tbwf_telemetry.Collector

let shards = 128
let config ~seed = { World.default with World.shards; seed }

type run = {
  repeat : Measure.repeat;
  aggregate : string;  (** the tbwf-world/v1 record *)
  holds : int;
  shard_seconds : float list;  (** wall time of each shard, shard order *)
}

let run_once ~pool ~seed =
  let c = config ~seed in
  let shard_seconds = ref [] in
  let on_shard r = shard_seconds := r.World.ws_seconds :: !shard_seconds in
  let summary, seconds = Measure.timed (fun () -> World.run ~pool ~on_shard c) in
  {
    repeat =
      {
        Measure.steps = summary.World.sum_steps;
        ops = summary.World.sum_completed;
        seconds;
        units = c.World.shards;
        failed = 0;
      };
    aggregate = Tbwf_telemetry.Json.to_string summary.World.sum_json;
    holds = summary.World.sum_holds;
    shard_seconds = List.rev !shard_seconds;
  }

(* The pre-step work of every shard, done once each: the cell's stack
   with its collector, its open-loop clients, its churn plan compiled
   into a policy and a prediction, and the online checker. *)
let setup_once ~seed =
  let c = config ~seed in
  let (_ : Tbwf_parallel.Pool.t) = Tbwf_parallel.Pool.create () in
  for shard = 0 to c.World.shards - 1 do
    let system = List.nth c.World.systems (shard mod List.length c.World.systems) in
    let shard_seed = Rng.task_seed ~master:c.World.seed shard in
    let churn = World.churn_schedule c ~shard in
    let plan =
      Tbwf_nemesis.Fault_plan.make ~n:c.World.n ~horizon:c.World.horizon
        (List.map
           (fun (pid, at, retires) ->
             if retires then Tbwf_nemesis.Fault_plan.Retire { pid; at }
             else Tbwf_nemesis.Fault_plan.Crash { pid; at })
           churn.World.ch_leaves)
    in
    let stack =
      System.build ~seed:shard_seed ~record_trace:false
        ~spec:Tbwf_objects.Kv_store.spec ~client_pids:[] ~telemetry:true
        ~telemetry_window:c.World.window ?telemetry_retain:c.World.retain
        ~n:c.World.n system
    in
    let rt = stack.System.rt in
    (* the clients never run here, so the key mix they would draw is moot *)
    Tbwf_core.Workload.Open_loop.spawn_clients rt
      ~pids:(List.init (c.World.n - c.World.joiners) Fun.id)
      ~stats:stack.System.stats ~invoke:stack.System.invoke ~profile:c.World.profile
      ~seed:shard_seed ~until:c.World.horizon
      ~op_of_key:(fun ~pid ~k:_ ~key:_ -> Tbwf_objects.Kv_store.put "k" (Value.Int pid));
    Tbwf_nemesis.Fault_plan.install_crashes plan rt;
    let (_ : Policy.t) = Tbwf_nemesis.Fault_plan.policy plan in
    let (_ : Tbwf_check.Degradation.Online.t) =
      Tbwf_check.Degradation.Online.create (Tbwf_nemesis.Fault_plan.prediction plan)
    in
    Runtime.stop rt
  done

(* --- the traced run ------------------------------------------------------ *)

(* The world re-driven from outside: every shard as a timed
   [World.run_shard] call fanned over [pool], then the collectors folded
   in shard order with the fold timed on its own. *)
type redriven = {
  rd_seconds : float;  (** shards plus fold *)
  rd_merge_s : float;
  rd_merged : Collector.t;
}

let redrive ~pool ~seed =
  let c = config ~seed in
  let t0 = Measure.now () in
  let results =
    Tbwf_parallel.Pool.map pool (Array.init c.World.shards Fun.id) (fun shard ->
        World.run_shard c ~shard)
  in
  let merged, merge_s =
    Measure.timed (fun () ->
        Array.fold_left
          (fun acc r ->
            match acc with
            | None -> Some r.World.ws_telemetry
            | Some m -> Some (Collector.merge m r.World.ws_telemetry))
          None results
        |> Option.get)
  in
  { rd_seconds = Measure.now () -. t0; rd_merge_s = merge_s; rd_merged = merged }
