open Tbwf_sim
open Tbwf_registers
open Tbwf_core
open Tbwf_objects

(* Every layer below runs a fixed seed derived from [base_seed]. *)
let base_seed = 101L

let scheduler_steps steps () =
  let rt = Runtime.create ~seed:base_seed ~n:4 () in
  for pid = 0 to 3 do
    Runtime.spawn rt ~pid ~name:"spin" (fun () ->
        while true do
          Runtime.yield ()
        done)
  done;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps;
  Runtime.stop rt

let atomic_register_ops steps () =
  let rt = Runtime.create ~seed:(Int64.add base_seed 1L) ~n:4 () in
  let reg = Atomic_reg.create rt ~name:"r" ~codec:Codec.int ~init:0 in
  for pid = 0 to 3 do
    Runtime.spawn rt ~pid ~name:"rw" (fun () ->
        while true do
          let v = Atomic_reg.read reg in
          Atomic_reg.write reg (v + 1)
        done)
  done;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps;
  Runtime.stop rt

let abortable_register_ops steps () =
  let rt = Runtime.create ~seed:(Int64.add base_seed 2L) ~n:2 () in
  let reg =
    Abortable_reg.create rt ~name:"r" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy:Abort_policy.Always ()
  in
  Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
      let k = ref 0 in
      while true do
        incr k;
        let (_ : bool) = Abortable_reg.write reg !k in
        ()
      done);
  Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
      while true do
        let (_ : int option) = Abortable_reg.read reg in
        ()
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps;
  Runtime.stop rt

let qa_object_ops steps () =
  let rt = Runtime.create ~seed:(Int64.add base_seed 3L) ~n:4 () in
  let qa =
    Qa_object.create rt ~name:"qa" ~spec:Counter.spec
      ~policy:Abort_policy.Always ()
  in
  for pid = 0 to 3 do
    Runtime.spawn rt ~pid ~name:"apply" (fun () ->
        while true do
          let (_ : Value.t) = qa.Qa_intf.invoke Counter.inc in
          let (_ : Value.t) = qa.Qa_intf.query () in
          ()
        done)
  done;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps;
  Runtime.stop rt

let full_tbwf_ops steps () =
  let stack =
    Scenario.build ~seed:(Int64.add base_seed 4L) ~n:4
      ~omega:Scenario.Omega_atomic ~spec:Counter.spec
      ~next_op:(Workload.forever Counter.inc)
      ~client_pids:[ 0; 1; 2; 3 ] ()
  in
  Runtime.run stack.Scenario.rt ~policy:(Policy.round_robin ()) ~steps;
  Runtime.stop stack.Scenario.rt

(* The same client workload with the Ω∆'s registers emulated over the
   simulated network (ABD quorums against 3 replica server pids); the
   ratio against [full_tbwf_ops] is the substrate overhead. *)
let full_tbwf_ops_mp steps () =
  let stack =
    Tbwf_system.System.build
      ~substrate:
        (Tbwf_system.System.Message_passing Tbwf_net.Net.default_config)
      ~seed:(Int64.add base_seed 5L) ~n:4 ~spec:Counter.spec
      ~next_op:(Workload.forever Counter.inc)
      ~client_pids:[ 0; 1; 2; 3 ] Tbwf_system.System.Tbwf_atomic
  in
  Runtime.run stack.Tbwf_system.System.rt
    ~policy:(Policy.round_robin ()) ~steps;
  Runtime.stop stack.Tbwf_system.System.rt

(* Same workload as [full_tbwf_ops] but with a telemetry collector
   attached: the difference between the two rows is the cost of live
   telemetry. [full_tbwf_ops] itself runs with the default nil sink, so
   its row doubles as the "telemetry disabled" baseline. *)
let full_tbwf_ops_telemetry steps () =
  let stack =
    Scenario.build ~seed:(Int64.add base_seed 4L) ~n:4 ~omega:Scenario.Omega_atomic
      ~spec:Counter.spec
      ~next_op:(Workload.forever Counter.inc)
      ~client_pids:[ 0; 1; 2; 3 ] ()
  in
  let (_ : Tbwf_telemetry.Collector.t) =
    Tbwf_telemetry.Collector.attach stack.Scenario.rt
  in
  Runtime.run stack.Scenario.rt ~policy:(Policy.round_robin ()) ~steps;
  Runtime.stop stack.Scenario.rt

(* The full streaming configuration tbwf_soak runs: collector plus the
   windowed tail-rate monitor plus the online degradation checker in one
   sink tee, with a v2 record emitted (and dropped) every 2 500 steps.
   The ratio against [full_tbwf_ops] is the cost of watching a run while
   it executes. *)
let full_tbwf_ops_streaming steps () =
  let n = 4 in
  let stack =
    Scenario.build ~seed:(Int64.add base_seed 4L) ~n
      ~omega:Scenario.Omega_atomic ~spec:Counter.spec
      ~next_op:(Workload.forever Counter.inc)
      ~client_pids:[ 0; 1; 2; 3 ] ()
  in
  let rt = stack.Scenario.rt in
  let telemetry = Tbwf_telemetry.Collector.attach rt in
  let prediction =
    {
      Tbwf_check.Degradation.pred_n = n;
      pred_timely = [ 0; 1; 2; 3 ];
      pred_from = steps / 2;
      pred_bound = n;
      pred_emergent = None;
    }
  in
  let online = Tbwf_check.Degradation.Online.create prediction in
  let tm = Tbwf_check.Tail_monitor.create ~n ~window:2_500 () in
  Runtime.set_sink rt
    (Sink.tee
       (Tbwf_check.Tail_monitor.sink tm)
       (Sink.tee
          (Tbwf_telemetry.Collector.sink telemetry)
          (Tbwf_check.Degradation.Online.sink online)));
  Tbwf_telemetry.Collector.emit_every telemetry ~every:2_500
    ~extra:(fun ~window:_ ->
      [
        ( "verdict",
          Tbwf_check.Degradation.verdict_json
            (Tbwf_check.Degradation.Online.verdict online) );
        "tail_monitor", Tbwf_check.Tail_monitor.to_json tm;
      ])
    (fun (_ : Tbwf_telemetry.Json.t) -> ());
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps;
  Tbwf_telemetry.Collector.stream_flush telemetry;
  Runtime.stop rt

let layers =
  [
    "scheduler (yield only)", scheduler_steps;
    "atomic register read/write", atomic_register_ops;
    "abortable register (always-abort)", abortable_register_ops;
    "query-abortable object", qa_object_ops;
    "full TBWF op (election + QA)", full_tbwf_ops;
    "full TBWF op (message-passing substrate)", full_tbwf_ops_mp;
    "full TBWF op + live telemetry", full_tbwf_ops_telemetry;
    "full TBWF op + streaming telemetry", full_tbwf_ops_streaming;
  ]

type row = { layer : string; steps : int; seconds : float; steps_per_sec : float }

type result = { rows : row list }

let compute ?(quick = false) () =
  let steps = if quick then 20_000 else 200_000 in
  let rows =
    List.map
      (fun (layer, f) ->
        let start = Sys.time () in
        f steps ();
        let seconds = Sys.time () -. start in
        {
          layer;
          steps;
          seconds;
          steps_per_sec =
            (if seconds <= 0.0 then 0.0 else float_of_int steps /. seconds);
        })
      layers
  in
  { rows }

let report fmt result =
  let table =
    Table.create ~title:"E10: simulator throughput per stack layer"
      ~columns:[ "layer"; "steps"; "seconds"; "steps/sec" ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [
          row.layer;
          Table.cell_int row.steps;
          Fmt.str "%.3f" row.seconds;
          Fmt.str "%.0f" row.steps_per_sec;
        ])
    result.rows;
  Table.print fmt table
