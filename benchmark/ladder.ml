(* The layer ladder: each rung is a small closed system built from one
   layer's public functions (and the rungs below it), run under round
   robin on the calling domain. A rung reports host ns per simulated step
   and minor words allocated per step ([Gc.minor_words] counts per
   domain, which is why rungs never leave the calling domain); a rung's
   marginal cost is its ns/step minus the rung below it.

   Words per step, completed operations and abort counts are pure
   functions of the rung and seed, so they must repeat exactly. *)

open Tbwf_sim
open Tbwf_registers
module System = Tbwf_system.System

let n = 4
let spin () = while true do Runtime.yield () done

(* A rung's runtime, ready to run, and a probe for its deterministic
   counters (completed operations, aborts), read after the run. *)
type built = { rt : Runtime.t; probe : unit -> int list }

type rung = {
  name : string;  (** metric prefix *)
  below : string option;  (** the rung whose cost this one adds to *)
  steps : int;
  build : seed:int64 -> built;
}

let no_probe () = []

let scheduler ~seed =
  let rt = Runtime.create ~seed ~n () in
  for pid = 0 to n - 1 do
    Runtime.spawn rt ~pid ~name:"spin" spin
  done;
  { rt; probe = no_probe }

let atomic_registers ~seed =
  let rt = Runtime.create ~seed ~n () in
  let reg = Atomic_reg.create rt ~name:"r" ~codec:Codec.int ~init:0 in
  for pid = 0 to n - 1 do
    Runtime.spawn rt ~pid ~name:"rw" (fun () ->
        while true do
          Atomic_reg.write reg (Atomic_reg.read reg + 1)
        done)
  done;
  { rt; probe = (fun () -> [ Atomic_reg.peek reg ]) }

(* One writer and one reader on an always-abort-on-overlap register. *)
let abortable_registers ~seed =
  let rt = Runtime.create ~seed ~n:2 () in
  let reg =
    Abortable_reg.create rt ~name:"r" ~codec:Codec.int ~init:0 ~writer:0 ~reader:1
      ~policy:Abort_policy.Always ()
  in
  let ops = ref 0 and aborts = ref 0 in
  let count ok =
    incr ops;
    if not ok then incr aborts
  in
  Runtime.spawn rt ~pid:0 ~name:"w" (fun () ->
      while true do
        count (Abortable_reg.write reg !ops)
      done);
  Runtime.spawn rt ~pid:1 ~name:"r" (fun () ->
      while true do
        count (Option.is_some (Abortable_reg.read reg))
      done);
  { rt; probe = (fun () -> [ !ops; !aborts ]) }

let qa_object ~seed =
  let rt = Runtime.create ~seed ~n () in
  let qa =
    Tbwf_objects.Qa_object.create rt ~name:"qa" ~spec:Tbwf_objects.Counter.spec
      ~policy:Abort_policy.Always ()
  in
  for pid = 0 to n - 1 do
    Runtime.spawn rt ~pid ~name:"apply" (fun () ->
        while true do
          let (_ : Value.t) = qa.Tbwf_objects.Qa_intf.invoke Tbwf_objects.Counter.inc in
          let (_ : Value.t) = qa.Tbwf_objects.Qa_intf.query () in
          ()
        done)
  done;
  { rt; probe = (fun () -> [ Value.to_int (qa.Tbwf_objects.Qa_intf.peek_state ()) ]) }

(* Figures 2-3 Omega-Delta with its activity monitors, and no clients. *)
let omega ~seed =
  let rt = Runtime.create ~seed ~n () in
  let (_ : Tbwf_omega.Omega_registers.t) = System.install_atomic rt in
  { rt; probe = no_probe }

let completed_probe (stack : System.stack) () =
  [ Array.fold_left ( + ) 0 stack.System.stats.Tbwf_core.Workload.completed ]

(* The full Figure-7 operation over tbwf-atomic: clients on every pid
   issuing counter increments. *)
let full_op ?(record_trace = false) ?(telemetry = false) ?substrate ~seed () =
  let stack =
    System.build ?substrate ~seed ~record_trace ~telemetry ~n System.Tbwf_atomic
  in
  stack, { rt = stack.System.rt; probe = completed_probe stack }

let core ~seed = snd (full_op ~seed ())
let traced ~seed = snd (full_op ~record_trace:true ~seed ())
let telemetry ~seed = snd (full_op ~telemetry:true ~seed ())

(* The collector and the online degradation checker teed into one sink,
   as every world shard and campaign cell runs them. *)
let online ~steps ~seed =
  let stack, built = full_op ~telemetry:true ~seed () in
  let prediction =
    {
      Tbwf_check.Degradation.pred_n = n;
      pred_timely = List.init n Fun.id;
      pred_from = steps / 2;
      pred_bound = n;
      pred_emergent = None;
    }
  in
  let checker = Tbwf_check.Degradation.Online.create prediction in
  Runtime.set_sink built.rt
    (Sink.tee
       (Tbwf_telemetry.Collector.sink (Option.get stack.System.telemetry))
       (Tbwf_check.Degradation.Online.sink checker));
  built

let message_passing ~seed =
  snd (full_op ~substrate:(System.Message_passing Tbwf_net.Net.default_config) ~seed ())

let rungs =
  [
    { name = "sim"; below = None; steps = 2_000_000; build = scheduler };
    { name = "registers.atomic"; below = Some "sim"; steps = 1_000_000; build = atomic_registers };
    { name = "registers.abortable"; below = Some "sim"; steps = 1_000_000; build = abortable_registers };
    { name = "objects.qa"; below = Some "sim"; steps = 1_000_000; build = qa_object };
    { name = "omega"; below = Some "registers.atomic"; steps = 400_000; build = omega };
    { name = "core"; below = Some "omega"; steps = 400_000; build = core };
    { name = "sim.trace"; below = Some "core"; steps = 400_000; build = traced };
    { name = "telemetry"; below = Some "core"; steps = 400_000; build = telemetry };
    {
      name = "check.online";
      below = Some "telemetry";
      steps = 400_000;
      build = online ~steps:400_000;
    };
    { name = "net"; below = Some "core"; steps = 200_000; build = message_passing };
  ]

type sample = { ns : float; words : float; counters : int list }

(* ns/step is in calibrated nanoseconds (see {!Measure.calibrated}). *)
let run_rung rung ~seed =
  let b = rung.build ~seed in
  let policy = Policy.round_robin () in
  let (words, seconds), factor =
    Measure.calibrated (fun () ->
        let w0 = Gc.minor_words () in
        let t0 = Measure.now () in
        Runtime.run b.rt ~policy ~steps:rung.steps;
        let t1 = Measure.now () in
        Gc.minor_words () -. w0, t1 -. t0)
  in
  let steps = float_of_int (Runtime.now b.rt) in
  let counters = Runtime.now b.rt :: b.probe () in
  Runtime.stop b.rt;
  { ns = seconds *. factor *. 1e9 /. steps; words = words /. steps; counters }

type result = {
  samples : (string * sample list) list;  (** per rung, in repeat order *)
  drifted : string list;  (** rungs whose deterministic counters moved *)
}

(* One warm-up pass, then [repeats] passes over every rung. Rungs are
   interleaved within a pass, so slow drift in the host affects every
   rung alike and same-pass ratios stay fair. *)
let run ~repeats ~seed =
  List.iter (fun r -> ignore (run_rung r ~seed)) rungs;
  let passes = List.init repeats (fun _ -> List.map (fun r -> run_rung r ~seed) rungs) in
  let samples = List.mapi (fun i r -> r.name, List.map (fun p -> List.nth p i) passes) rungs in
  let drifted =
    List.filter_map
      (fun (name, ss) ->
        let e = Stats.exact name in
        List.iter (fun s -> Stats.observe e (s.words, s.counters)) ss;
        if Stats.drifted e then Some name else None)
      samples
  in
  { samples; drifted }

let ns_of res name = List.map (fun s -> s.ns) (List.assoc name res.samples)

(* Median over passes of a same-pass ratio or difference. *)
let paired f res a b = Stats.median (List.map2 f (ns_of res a) (ns_of res b))

let metrics res =
  let ns name =
    let m = Measure.median_metric (name ^ ".ns_per_step") "ns" (ns_of res name) in
    match (List.find (fun r -> r.name = name) rungs).below with
    | None -> m
    | Some below ->
      { m with Measure.note = m.Measure.note ^ Printf.sprintf ", marginal over %s %.6g ns" below (paired ( -. ) res name below) }
  in
  let words name =
    let s = List.hd (List.assoc name res.samples) in
    Measure.metric (name ^ ".words_per_step") "words" s.words
  in
  Measure.
    [
      ns "sim";
      words "sim";
      metric "sim.trace.ns_per_step" "ns" ~note:"full op, trace on minus off"
        (paired ( -. ) res "sim.trace" "core");
      ns "registers.atomic";
      words "registers.atomic";
      ns "registers.abortable";
      words "registers.abortable";
      ns "objects.qa";
      words "objects.qa";
      ns "omega";
      words "omega";
      ns "core";
      words "core";
      ns "telemetry";
      words "telemetry";
      metric "telemetry.cost_ratio" "x" ~note:"over core" (paired ( /. ) res "telemetry" "core");
      ns "check.online";
      metric "check.online.cost_ratio" "x" ~note:"over telemetry"
        (paired ( /. ) res "check.online" "telemetry");
      ns "net";
      words "net";
      metric "net.cost_ratio" "x" ~note:"per step, over core" (paired ( /. ) res "net" "core");
    ]
