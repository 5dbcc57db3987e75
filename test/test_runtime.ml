open Tbwf_sim

let value = Alcotest.testable Value.pp Value.equal

(* A trivial cell object for runtime tests: applies writes, answers reads,
   and records contention flags. *)
let make_cell rt =
  let contents = ref (Value.Int 0) in
  let overlaps = ref [] in
  let contentions = ref [] in
  let obj =
    Runtime.register_object rt ~name:"cell" ~respond:(fun ctx ->
        overlaps := ctx.Shared.overlapped :: !overlaps;
        contentions := ctx.Shared.step_contended :: !contentions;
        match ctx.Shared.op with
        | Value.Pair (Str "write", v) ->
          contents := v;
          Value.Unit
        | Value.Pair (Str "read", _) -> !contents
        | _ -> assert false)
  in
  obj, contents, overlaps, contentions

let test_single_task_runs_to_completion () =
  let rt = Runtime.create ~n:1 () in
  let counter = ref 0 in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      for _ = 1 to 10 do
        incr counter;
        Runtime.yield ()
      done);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.(check int) "body completed" 10 !counter;
  Alcotest.(check bool) "stopped early when done" true (Runtime.now rt < 100)

let test_register_op_spans_two_steps () =
  let rt = Runtime.create ~n:1 () in
  let obj, _, _, _ = make_cell rt in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      let (_ : Value.t) = Runtime.call obj Value.read_op in
      ());
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  (* invoke step + response step *)
  Alcotest.(check int) "two steps" 2 (Runtime.now rt)

let test_solo_ops_not_overlapped () =
  let rt = Runtime.create ~n:1 () in
  let obj, contents, overlaps, contentions = make_cell rt in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      let (_ : Value.t) = Runtime.call obj (Value.write_op (Value.Int 7)) in
      let (_ : Value.t) = Runtime.call obj Value.read_op in
      ());
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.check value "write applied" (Value.Int 7) !contents;
  Alcotest.(check bool) "no overlap" true (List.for_all not !overlaps);
  Alcotest.(check bool) "no contention" true (List.for_all not !contentions)

let test_interleaved_ops_overlap () =
  let rt = Runtime.create ~n:2 () in
  let obj, _, overlaps, contentions = make_cell rt in
  for pid = 0 to 1 do
    Runtime.spawn rt ~pid ~name:"t" (fun () ->
        let (_ : Value.t) = Runtime.call obj Value.read_op in
        ())
  done;
  (* Round robin: p0 invokes, p1 invokes, p0 responds, p1 responds. *)
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.(check (list bool)) "both overlapped" [ true; true ] !overlaps;
  Alcotest.(check (list bool)) "both step-contended" [ true; true ] !contentions

let test_pending_op_overlaps_but_does_not_contend () =
  let rt = Runtime.create ~n:2 () in
  let obj, _, overlaps, contentions = make_cell rt in
  (* p0 invokes an op and then never runs again (Silent after step 0), so
     its operation stays pending. p1's later ops overlap that pending op,
     but p0 generates no steps, so p1 is not step-contended (after p1's
     first op window, which contains p0's invocation). *)
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      let (_ : Value.t) = Runtime.call obj Value.read_op in
      ());
  Runtime.spawn rt ~pid:1 ~name:"t" (fun () ->
      for _ = 1 to 3 do
        let (_ : Value.t) = Runtime.call obj Value.read_op in
        ()
      done);
  let policy =
    Policy.of_patterns
      [ 0, Policy.Switch_at (1, Policy.Every { period = 1; offset = 0 }, Policy.Silent);
        1, Policy.Weighted 1.0 ]
  in
  Runtime.run rt ~policy ~steps:100;
  (* p0 invoked at step 0 and froze; p1's three ops all overlap that pending
     operation, but the frozen process generates no events inside their
     windows, so none of them is step-contended. *)
  Alcotest.(check int) "three responses" 3 (List.length !overlaps);
  Alcotest.(check bool) "all overlapped (pending op)" true
    (List.for_all Fun.id !overlaps);
  Alcotest.(check (list bool)) "none step-contended" [ false; false; false ]
    !contentions

let test_crash_stops_process () =
  let rt = Runtime.create ~n:2 () in
  let steps_taken = Array.make 2 0 in
  for pid = 0 to 1 do
    Runtime.spawn rt ~pid ~name:"t" (fun () ->
        while true do
          steps_taken.(pid) <- steps_taken.(pid) + 1;
          Runtime.yield ()
        done)
  done;
  Runtime.crash_at rt ~pid:0 ~step:20;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.(check bool) "pid 0 crashed" true (Runtime.crashed rt ~pid:0);
  Alcotest.(check bool) "pid 1 alive" false (Runtime.crashed rt ~pid:1);
  Alcotest.(check bool) "pid 0 stopped near crash point" true
    (steps_taken.(0) <= 12);
  Alcotest.(check bool) "pid 1 kept going" true (steps_taken.(1) > 40);
  Runtime.stop rt

let test_crash_resolves_pending_op () =
  let rt = Runtime.create ~n:2 () in
  let responded = ref 0 in
  let obj =
    Runtime.register_object rt ~name:"o" ~respond:(fun _ctx ->
        incr responded;
        Value.Unit)
  in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      let (_ : Value.t) = Runtime.call obj (Value.write_op (Value.Int 1)) in
      ());
  Runtime.spawn rt ~pid:1 ~name:"spin" (fun () ->
      while true do
        Runtime.yield ()
      done);
  (* Crash p0 right after its invoke step (p0 runs at step 0, crash at 1). *)
  Runtime.crash_at rt ~pid:0 ~step:1;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:10;
  Alcotest.(check int) "pending op resolved at crash" 1 !responded;
  Runtime.stop rt

let test_multi_task_round_robin () =
  let rt = Runtime.create ~n:1 () in
  let log = ref [] in
  for task = 0 to 2 do
    Runtime.spawn rt ~pid:0 ~name:(Fmt.str "t%d" task) (fun () ->
        for _ = 1 to 3 do
          log := task :: !log;
          Runtime.yield ()
        done)
  done;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.(check (list int)) "tasks interleaved round-robin"
    [ 0; 1; 2; 0; 1; 2; 0; 1; 2 ]
    (List.rev !log)

let test_self () =
  let rt = Runtime.create ~n:3 () in
  let seen = Array.make 3 (-1) in
  for pid = 0 to 2 do
    Runtime.spawn rt ~pid ~name:"t" (fun () -> seen.(pid) <- Runtime.self ())
  done;
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:10;
  Alcotest.(check (array int)) "self returns own pid" [| 0; 1; 2 |] seen

let test_determinism_same_seed () =
  let run seed =
    let rt = Runtime.create ~seed ~n:3 () in
    let obj, contents, _, _ = make_cell rt in
    for pid = 0 to 2 do
      Runtime.spawn rt ~pid ~name:"t" (fun () ->
          for k = 1 to 20 do
            let (_ : Value.t) =
              Runtime.call obj (Value.write_op (Value.Int ((pid * 100) + k)))
            in
            ()
          done)
    done;
    Runtime.run rt ~policy:(Policy.weighted [| 0, 1.0; 1, 2.0; 2, 3.0 |]) ~steps:500;
    let trace = Runtime.trace rt in
    let pids = List.init (Trace.length trace) (Trace.pid_at trace) in
    pids, !contents
  in
  let t1, c1 = run 123L in
  let t2, c2 = run 123L in
  let t3, _ = run 321L in
  Alcotest.(check (list int)) "same seed, same schedule" t1 t2;
  Alcotest.check value "same seed, same state" c1 c2;
  Alcotest.(check bool) "different seed, different schedule" true (t1 <> t3)

let test_await () =
  let rt = Runtime.create ~n:2 () in
  let flag = ref false in
  let done_waiting = ref false in
  Runtime.spawn rt ~pid:0 ~name:"waiter" (fun () ->
      Runtime.await (fun () -> !flag);
      done_waiting := true);
  Runtime.spawn rt ~pid:1 ~name:"setter" (fun () ->
      for _ = 1 to 10 do
        Runtime.yield ()
      done;
      flag := true);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:100;
  Alcotest.(check bool) "await completed after flag" true !done_waiting

let test_stop_unwinds_tasks () =
  let rt = Runtime.create ~n:1 () in
  let cleaned = ref false in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      try
        while true do
          Runtime.yield ()
        done
      with Runtime.Simulation_over as e ->
        cleaned := true;
        raise e);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:10;
  Runtime.stop rt;
  Alcotest.(check bool) "teardown reached task" true !cleaned

let test_spawn_during_run () =
  let rt = Runtime.create ~n:1 () in
  let child_ran = ref false in
  Runtime.spawn rt ~pid:0 ~name:"parent" (fun () ->
      Runtime.spawn rt ~pid:0 ~name:"child" (fun () -> child_ran := true);
      Runtime.yield ());
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:10;
  Alcotest.(check bool) "dynamically spawned task ran" true !child_ran

let test_idle_steps_advance_time () =
  let rt = Runtime.create ~n:1 () in
  Runtime.spawn rt ~pid:0 ~name:"t" (fun () ->
      while true do
        Runtime.yield ()
      done);
  let policy = Policy.of_patterns [ 0, Policy.Silent ] in
  Runtime.run rt ~policy ~steps:50;
  Alcotest.(check int) "idle steps counted" 50 (Runtime.now rt);
  Runtime.stop rt

(* --- deferred events: the due-step guard -------------------------------- *)

(* A task on pid 0 registers a crash, a retirement or a task activation
   for pid 1 at its step [registered_at], due [offset] steps from then.
   Whichever entry point advances time — [run], [step] or [idle_step] —
   the event must land at the same step: a sink records the Crash or
   Retire signal, or pid 1's first step once the activated task runs
   (every driver steps pid 1 as soon as it is runnable). *)
type deferred = Crash | Retire | Spawn
type driver = Run | Step | Idle

let registered_at = 5
let horizon = 20

let firing_step kind ~offset driver =
  let rt = Runtime.create ~record_trace:false ~n:2 () in
  let fired = ref None in
  let note step = if !fired = None then fired := Some step in
  Runtime.set_sink rt
    {
      Sink.nil with
      active = true;
      on_step = (fun ~step ~pid ~layer:_ -> if pid = 1 then note step);
      on_signal =
        (fun ~step ~pid:_ s ->
          match s with
          | Sink.Crash { pid = 1 } | Sink.Retire { pid = 1 } -> note step
          | _ -> ());
    };
  let forever () =
    while true do
      Runtime.yield ()
    done
  in
  let registered = ref false in
  Runtime.spawn rt ~pid:0 ~name:"registrar" (fun () ->
      while Runtime.now rt < registered_at do
        Runtime.yield ()
      done;
      let at = Runtime.now rt + offset in
      (match kind with
      | Crash -> Runtime.crash_at rt ~pid:1 ~step:at
      | Retire -> Runtime.retire rt ~at ~pid:1
      | Spawn -> Runtime.spawn_at rt ~pid:1 ~at ~name:"late" forever);
      registered := true;
      forever ());
  (match driver with
  | Run ->
    (* [of_script] picks [runnable.(1 mod len)]: pid 1 whenever it is
       runnable, pid 0 otherwise *)
    let policy = Policy.of_script (List.init horizon (fun _ -> 1)) in
    Runtime.run rt ~policy ~steps:horizon
  | Step ->
    while Runtime.now rt < horizon do
      try Runtime.step rt ~pid:1
      with Invalid_argument _ -> Runtime.step rt ~pid:0
    done
  | Idle ->
    (* an activation shows only once pid 1 runs, so for [Spawn] each
       step tries pid 1 before idling *)
    while Runtime.now rt < horizon do
      if not !registered then Runtime.step rt ~pid:0
      else if kind = Spawn then
        try Runtime.step rt ~pid:1 with Invalid_argument _ -> Runtime.idle_step rt
      else Runtime.idle_step rt
    done);
  Runtime.stop rt;
  !fired

let test_due_guard () =
  List.iter
    (fun (kind, name, earliest) ->
      List.iter
        (fun (offset, timing) ->
          (* a crash or an activation lands at the next step boundary at
             the earliest; a retirement due now applies at once *)
          let expected =
            Some (Int.max (registered_at + offset) (registered_at + earliest))
          in
          List.iter
            (fun (driver, driver_name) ->
              Alcotest.(check (option int))
                (Fmt.str "%s %s under %s" name timing driver_name)
                expected
                (firing_step kind ~offset driver))
            [ Run, "run"; Step, "step"; Idle, "idle_step" ])
        [ 0, "at the current step"; -3, "at a past step"; 5, "at a future step" ])
    [ Crash, "crash_at", 1; Retire, "retire ~at", 0; Spawn, "spawn_at", 1 ]

let () =
  Alcotest.run "runtime"
    [
      ( "unit",
        [
          Alcotest.test_case "single task completes" `Quick
            test_single_task_runs_to_completion;
          Alcotest.test_case "op spans two steps" `Quick
            test_register_op_spans_two_steps;
          Alcotest.test_case "solo ops not overlapped" `Quick
            test_solo_ops_not_overlapped;
          Alcotest.test_case "interleaved ops overlap" `Quick
            test_interleaved_ops_overlap;
          Alcotest.test_case "pending op overlaps without contending" `Quick
            test_pending_op_overlaps_but_does_not_contend;
          Alcotest.test_case "crash stops process" `Quick test_crash_stops_process;
          Alcotest.test_case "crash resolves pending op" `Quick
            test_crash_resolves_pending_op;
          Alcotest.test_case "multi-task round robin" `Quick
            test_multi_task_round_robin;
          Alcotest.test_case "self" `Quick test_self;
          Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
          Alcotest.test_case "await" `Quick test_await;
          Alcotest.test_case "stop unwinds tasks" `Quick test_stop_unwinds_tasks;
          Alcotest.test_case "spawn during run" `Quick test_spawn_during_run;
          Alcotest.test_case "idle steps advance time" `Quick
            test_idle_steps_advance_time;
          Alcotest.test_case "deferred events fire on their due step" `Quick
            test_due_guard;
        ] );
    ]
