(* The message-passing substrate: the simulated network's transport and
   fault timeline, the quorum register emulations (including the
   crash-mid-quorum and heal-mid-operation edge cases), and the
   determinism contract of full stacks built over it. *)

open Tbwf_sim
open Tbwf_registers
open Tbwf_net

(* --- pure timeline queries ------------------------------------------------ *)

let cfg ?(replicas = 3) ?(base_latency = 3) ?(jitter = 2)
    ?(retransmit_every = 12) ?(events = []) () =
  { Net.replicas; base_latency; jitter; retransmit_every; events }

let test_validate () =
  let ok c = Result.is_ok (Net.validate_config c) in
  Alcotest.(check bool) "default ok" true (ok Net.default_config);
  Alcotest.(check bool) "no replicas" false (ok (cfg ~replicas:0 ()));
  Alcotest.(check bool) "negative jitter" false (ok (cfg ~jitter:(-1) ()));
  Alcotest.(check bool)
    "zero base latency" false
    (ok (cfg ~base_latency:0 ()))

let test_partition_timeline () =
  let c =
    cfg
      ~events:
        [
          Net.Ev_partition { at = 100; side = [ 0 ] };
          Net.Ev_heal { at = 200 };
          Net.Ev_partition { at = 300; side = [ 1; 2 ] };
        ]
      ()
  in
  Alcotest.(check bool) "before: open" false (Net.cut_at c ~at:50 0 3);
  Alcotest.(check bool) "cut from side" true (Net.cut_at c ~at:150 0 3);
  Alcotest.(check bool)
    "complement stays connected" false
    (Net.cut_at c ~at:150 1 3);
  Alcotest.(check bool) "healed" false (Net.cut_at c ~at:250 0 3);
  Alcotest.(check bool) "last cut wins" true (Net.cut_at c ~at:350 1 3);
  Alcotest.(check bool)
    "within new side: open" false
    (Net.cut_at c ~at:350 1 2)

let test_drop_and_delay_interpolation () =
  let c =
    cfg
      ~events:
        [
          Net.Ev_drop
            { from_ = 100; until = 300; rate0 = 0.0; rate1 = 1.0; node = None };
          Net.Ev_delay
            {
              from_ = 100;
              until = 300;
              extra0 = 0.0;
              extra1 = 10.0;
              node = Some 2;
            };
        ]
      ()
  in
  Alcotest.(check (float 1e-9)) "before window" 0.0 (Net.drop_rate_at c ~at:50 0 3);
  Alcotest.(check (float 1e-9)) "window start" 0.0 (Net.drop_rate_at c ~at:100 0 3);
  Alcotest.(check (float 1e-9)) "midpoint" 0.5 (Net.drop_rate_at c ~at:200 0 3);
  Alcotest.(check (float 1e-9)) "after window" 0.0 (Net.drop_rate_at c ~at:300 0 3);
  Alcotest.(check int) "delay matches node" 5 (Net.extra_delay_at c ~at:200 2 4);
  Alcotest.(check int) "delay other link" 0 (Net.extra_delay_at c ~at:200 0 4)

(* --- transport ------------------------------------------------------------ *)

(* Two clients + 3 replicas; client 1 posts to client 0, who polls until
   delivery. Exercises send/poll, latency bounds, and key demux. *)
let test_send_poll () =
  let config = cfg () in
  let rt = Runtime.create ~seed:7L ~n:5 () in
  let net = Net.create rt ~config in
  let got = ref [] in
  let key = Net.fresh_key net ~pid:0 in
  Runtime.spawn rt ~pid:1 ~name:"sender" (fun () ->
      Net.send net ~dst:0 ~key (Value.Int 42);
      Net.send net ~dst:0 ~key (Value.Int 43));
  Runtime.spawn rt ~pid:0 ~name:"receiver" (fun () ->
      while List.length !got < 2 do
        List.iter
          (fun (src, k, v) -> got := (src, k, v) :: !got)
          (Net.poll net ~key)
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:2_000;
  Runtime.stop rt;
  Alcotest.(check int) "both delivered" 2 (List.length !got);
  List.iter
    (fun (src, k, _) ->
      Alcotest.(check int) "from sender" 1 src;
      Alcotest.(check int) "key echoed" key k)
    !got

(* A full partition of the receiver drops everything; after the heal,
   retransmitted messages get through. *)
let test_partition_drops_heal_delivers () =
  let config =
    cfg
      ~events:
        [ Net.Ev_partition { at = 0; side = [ 0 ] }; Net.Ev_heal { at = 400 } ]
      ()
  in
  let rt = Runtime.create ~seed:7L ~n:5 () in
  let net = Net.create rt ~config in
  let got = ref 0 in
  let before_heal = ref (-1) in
  let key = Net.fresh_key net ~pid:0 in
  Runtime.spawn rt ~pid:1 ~name:"sender" (fun () ->
      (* keep retransmitting; sends before the heal are cut at send time *)
      while !got = 0 do
        Net.send net ~dst:0 ~key (Value.Int 1);
        Runtime.yield ()
      done);
  Runtime.spawn rt ~pid:0 ~name:"receiver" (fun () ->
      while !got = 0 do
        (match Net.poll net ~key with
        | [] -> ()
        | l -> got := List.length l);
        if !got > 0 && Runtime.now rt < 400 then before_heal := Runtime.now rt
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:3_000;
  Runtime.stop rt;
  Alcotest.(check bool) "delivered after heal" true (!got > 0);
  Alcotest.(check int) "nothing before heal" (-1) !before_heal

(* --- quorum registers ----------------------------------------------------- *)

let client_pids = [ 0; 1 ]
let mp_runtime ?(seed = 11L) ?(events = []) () =
  let config = cfg ~events () in
  let rt = Runtime.create ~seed ~n:(2 + config.Net.replicas) () in
  let net = Net.create rt ~config in
  let cluster = Mp_reg.Cluster.create rt ~net in
  rt, cluster

(* One writer incrementing, one reader: reads must be monotonic (ABD's
   read-back phase), and the final peek must be the last completed
   write. *)
let test_abd_monotonic_reads () =
  let rt, cluster = mp_runtime () in
  let r = Mp_reg.atomic cluster ~name:"R" ~codec:Codec.int ~init:0 in
  let written = ref 0 and seen = ref [] in
  Runtime.spawn rt ~pid:0 ~name:"writer" (fun () ->
      for k = 1 to 50 do
        r.Reg.write k;
        written := k
      done);
  Runtime.spawn rt ~pid:1 ~name:"reader" (fun () ->
      while true do
        seen := r.Reg.read () :: !seen
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:60_000;
  Runtime.stop rt;
  ignore client_pids;
  let seen = List.rev !seen in
  Alcotest.(check bool) "writer made progress" true (!written >= 10);
  Alcotest.(check bool) "reader made progress" true (List.length seen >= 10);
  let monotonic =
    fst
      (List.fold_left
         (fun (ok, prev) v -> (ok && v >= prev, v))
         (true, min_int) seen)
  in
  Alcotest.(check bool) "reads monotonic" true monotonic;
  Alcotest.(check int) "peek sees last write" !written (r.Reg.peek ())

(* Satellite: the writer crashes at an arbitrary step — including between
   ABD phase 1 (timestamp query) and phase 2 (the actual write round).
   Whatever the crash point, readers must stay monotonic and keep
   completing reads afterwards. *)
let qcheck_writer_crash_mid_quorum =
  QCheck.Test.make ~name:"ABD: writer crash at any step keeps reads monotonic"
    ~count:40
    QCheck.(int_range 50 4_000)
    (fun crash_step ->
      let rt, cluster = mp_runtime ~seed:23L () in
      let r = Mp_reg.atomic cluster ~name:"R" ~codec:Codec.int ~init:0 in
      let seen = ref [] and reads_after_crash = ref 0 in
      Runtime.crash_at rt ~pid:0 ~step:crash_step;
      Runtime.spawn rt ~pid:0 ~name:"writer" (fun () ->
          for k = 1 to 1_000 do
            r.Reg.write k
          done);
      Runtime.spawn rt ~pid:1 ~name:"reader" (fun () ->
          while true do
            let v = r.Reg.read () in
            seen := v :: !seen;
            if Runtime.now rt > crash_step then incr reads_after_crash
          done);
      Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:12_000;
      Runtime.stop rt;
      let seen = List.rev !seen in
      let monotonic =
        fst
          (List.fold_left
             (fun (ok, prev) v -> (ok && v >= prev, v))
             (true, min_int) seen)
      in
      monotonic && !reads_after_crash > 0)

(* Minority replica crash: quorums shrink to the live majority and every
   register kind keeps operating. *)
let test_minority_replica_crash_tolerated () =
  let rt, cluster = mp_runtime () in
  let a = Mp_reg.atomic cluster ~name:"A" ~codec:Codec.int ~init:0 in
  let s =
    Mp_reg.regular cluster ~name:"S" ~codec:Codec.int ~init:0 ~writer:0
  in
  (* replica 2 is pid 4 *)
  Runtime.crash_at rt ~pid:4 ~step:500;
  let done_ops = ref 0 in
  Runtime.spawn rt ~pid:0 ~name:"writer" (fun () ->
      for k = 1 to 40 do
        a.Reg.write k;
        s.Reg.write k;
        done_ops := k
      done);
  Runtime.spawn rt ~pid:1 ~name:"reader" (fun () ->
      while true do
        ignore (a.Reg.read ());
        ignore (s.Reg.read ())
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:60_000;
  Runtime.stop rt;
  Alcotest.(check int) "all writes completed despite the crash" 40 !done_ops

(* Satellite: a partition isolating a replica *majority* blocks quorum
   operations mid-flight; the heal lets the same in-flight operations
   complete via retransmission — across register kinds. *)
let test_partition_heals_mid_operation () =
  (* replicas are pids 2,3,4: cutting {2,3} leaves only replica 4
     reachable — no quorum — from step 300 until the heal at 2000. *)
  let events =
    [
      Net.Ev_partition { at = 300; side = [ 2; 3 ] }; Net.Ev_heal { at = 2_000 };
    ]
  in
  let rt, cluster = mp_runtime ~events () in
  let a = Mp_reg.atomic cluster ~name:"A" ~codec:Codec.int ~init:0 in
  let s =
    Mp_reg.regular cluster ~name:"S" ~codec:Codec.int ~init:0 ~writer:0
  in
  let ab =
    Mp_reg.abortable cluster ~name:"B" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy:Abort_policy.Always ~write_effect:None
  in
  let log = ref [] in
  let record k = log := (k, Runtime.now rt) :: !log in
  Runtime.spawn rt ~pid:0 ~name:"writer" (fun () ->
      for k = 1 to 30 do
        a.Reg.write k;
        record `A;
        s.Reg.write k;
        record `S;
        ignore (ab.Reg.Abortable.write k);
        record `B
      done);
  Runtime.spawn rt ~pid:1 ~name:"reader" (fun () ->
      while true do
        ignore (a.Reg.read ());
        ignore (s.Reg.read ());
        ignore (ab.Reg.Abortable.read ());
        record `R
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:80_000;
  Runtime.stop rt;
  let during, after =
    List.partition (fun (_, at) -> at < 2_000) !log
  in
  let stalled =
    List.for_all (fun (_, at) -> at < 450) during
    (* a short grace window: operations in flight when the cut lands may
       still complete off majority replies that left before it *)
  in
  Alcotest.(check bool) "no completions under a majority cut" true stalled;
  Alcotest.(check bool)
    "all kinds complete after the heal" true
    (List.exists (fun (k, _) -> k = `A) after
    && List.exists (fun (k, _) -> k = `S) after
    && List.exists (fun (k, _) -> k = `B) after
    && List.exists (fun (k, _) -> k = `R) after)

(* MP abortable: contention-gated policies never fire (writes succeed),
   Unconditional fires exactly as on shared memory. *)
let test_mp_abortable_policies () =
  let rt, cluster = mp_runtime () in
  let always =
    Mp_reg.abortable cluster ~name:"G" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1 ~policy:Abort_policy.Always ~write_effect:None
  in
  let doomed =
    Mp_reg.abortable cluster ~name:"D" ~codec:Codec.int ~init:0 ~writer:0
      ~reader:1
      ~policy:(Abort_policy.Unconditional (fun _ -> true))
      ~write_effect:None
  in
  let ok_writes = ref 0 and aborted_writes = ref 0 in
  Runtime.spawn rt ~pid:0 ~name:"writer" (fun () ->
      for k = 1 to 20 do
        if always.Reg.Abortable.write k then incr ok_writes;
        if not (doomed.Reg.Abortable.write k) then incr aborted_writes
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:40_000;
  Runtime.stop rt;
  Alcotest.(check int) "contention-gated never aborts solo quorums" 20
    !ok_writes;
  Alcotest.(check int) "unconditional always aborts" 20 !aborted_writes

(* --- full stacks over message passing ------------------------------------- *)

let build_mp_stack ?(seed = 3L) () =
  Tbwf_system.System.build ~seed
    ~substrate:(Tbwf_system.System.Message_passing (cfg ()))
    ~telemetry:true ~n:2 Tbwf_system.System.Tbwf_atomic

let mp_policy =
  (* empty plan sized for the stack: a timely rotation over clients and
     replica pids alike *)
  Tbwf_nemesis.Fault_plan.policy
    (Tbwf_nemesis.Fault_plan.make ~replicas:3 ~n:2 ~horizon:100_000 [])

let test_mp_stack_progresses () =
  let stack = build_mp_stack () in
  Runtime.run stack.Tbwf_system.System.rt ~policy:mp_policy ~steps:40_000;
  let completed = stack.Tbwf_system.System.stats.Tbwf_core.Workload.completed in
  Runtime.stop stack.Tbwf_system.System.rt;
  Array.iteri
    (fun pid c ->
      Alcotest.(check bool)
        (Fmt.str "client %d completed ops (got %d)" pid c)
        true (c > 0))
    completed;
  let telemetry = Option.get stack.Tbwf_system.System.telemetry in
  Alcotest.(check bool)
    "messages flowed" true
    (Tbwf_telemetry.Collector.net_sent telemetry > 0)

(* Same (system, seed, config): byte-identical fingerprints and
   telemetry; and replaying the recorded schedule reproduces both. *)
let qcheck_mp_replay_byte_identical =
  QCheck.Test.make
    ~name:"message-passing run replays byte-identically" ~count:10
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let seed = Int64.of_int seed in
      let run policy steps =
        let stack = build_mp_stack ~seed () in
        Runtime.run stack.Tbwf_system.System.rt ~policy ~steps;
        let fp = Trace.fingerprint (Runtime.trace stack.Tbwf_system.System.rt) in
        let snap =
          Tbwf_telemetry.Collector.snapshot_string
            (Option.get stack.Tbwf_system.System.telemetry)
        in
        let sched = Trace.schedule (Runtime.trace stack.Tbwf_system.System.rt) in
        Runtime.stop stack.Tbwf_system.System.rt;
        fp, snap, sched
      in
      let fp, snap, sched = run mp_policy 8_000 in
      let fp', snap', _ = run (Policy.replay sched) 8_000 in
      String.equal fp fp' && String.equal snap snap')

let () =
  Alcotest.run "net"
    [
      ( "timeline",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "partition" `Quick test_partition_timeline;
          Alcotest.test_case "drop/delay interpolation" `Quick
            test_drop_and_delay_interpolation;
        ] );
      ( "transport",
        [
          Alcotest.test_case "send/poll" `Quick test_send_poll;
          Alcotest.test_case "partition drops, heal delivers" `Quick
            test_partition_drops_heal_delivers;
        ] );
      ( "registers",
        [
          Alcotest.test_case "ABD monotonic reads" `Quick
            test_abd_monotonic_reads;
          QCheck_alcotest.to_alcotest qcheck_writer_crash_mid_quorum;
          Alcotest.test_case "minority replica crash" `Quick
            test_minority_replica_crash_tolerated;
          Alcotest.test_case "partition heals mid-operation" `Quick
            test_partition_heals_mid_operation;
          Alcotest.test_case "abortable policies" `Quick
            test_mp_abortable_policies;
        ] );
      ( "stacks",
        [
          Alcotest.test_case "stack progresses" `Quick test_mp_stack_progresses;
          QCheck_alcotest.to_alcotest qcheck_mp_replay_byte_identical;
        ] );
    ]
