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

(* --- parked awaits ---------------------------------------------------- *)

(* [Runtime.await] parks a task whose first test fails and re-tests the
   condition at each of its steps. Everything observable must be what
   the explicit loop [while not (cond ()) do yield () done] gives: each
   run below is made twice, once per waiting style, and the sink's
   event stream, the trace fingerprint, the final step, the task's own
   observations and the RNG state after the run are compared. *)
type wait_style = Parked | Loop

type interrupt =
  | Run_out  (* the run ends with the waiter still parked *)
  | Crash_at of int
  | Retire_at of int
  | Stop_at of int  (* run this many steps, then [Runtime.stop] *)
  | Raise_at of int  (* the condition raises once time reaches this *)

exception Cond_failed of int

(* What one run shows; [parked] is not compared, it places interrupts. *)
type await_obs = {
  events : string;  (* the sink's stream *)
  fingerprint : string;
  final_step : int;
  resumed_at : int list;  (* steps at which the waiter got past a wait *)
  unwound : bool;  (* unwound while waiting *)
  raised : int option;  (* the step a raising condition failed the run *)
  report : string;  (* what the runtime printed for it *)
  rng_next : int64;
  parked : int list;  (* steps that begin with the waiter waiting *)
}

let wait style cond =
  match style with
  | Parked -> Runtime.await cond
  | Loop ->
    while not (cond ()) do
      Runtime.yield ()
    done

(* pid 0 runs a waiter that alternates between waiting on pid 1's
   counter and on time, with a second task beside it, so a parked task
   is skipped and resumed inside its process's round robin; pid 1 bumps
   the counter every few of its steps through a shared cell; pid 2
   writes the cell without end. *)
let await_run ~style ~policy ~interrupt =
  let rt = Runtime.create ~seed:11L ~n:3 () in
  let waiting = ref false in
  let parked = ref [] in
  let log = Buffer.create 4096 in
  let add fmt = Fmt.kstr (Buffer.add_string log) fmt in
  Runtime.set_sink rt
    {
      Sink.active = true;
      on_step =
        (fun ~step ~pid ~layer:_ ->
          if !waiting then parked := step :: !parked;
          add "s%d:%d " step pid);
      on_invoke =
        (fun ~step ~pid ~layer:_ ~obj_id ~obj_name:_ ~op ->
          add "i%d:%d:%d:%a " step pid obj_id Value.pp op);
      on_respond =
        (fun ~step ~pid ~layer:_ ~obj_id ~obj_name:_ ~op:_ ~result ->
          add "r%d:%d:%d:%a " step pid obj_id Value.pp result);
      on_signal =
        (fun ~step ~pid s ->
          add "g%d:%d:%s " step pid
            (match s with
            | Sink.Crash _ -> "crash"
            | Sink.Retire _ -> "retire"
            | _ -> "other"));
    };
  let cell, _, _, _ = make_cell rt in
  let counter = ref 0 in
  let seen = ref [] in
  let unwound = ref false in
  let raise_at = match interrupt with Raise_at s -> s | _ -> max_int in
  Runtime.spawn rt ~pid:0 ~name:"waiter" (fun () ->
      try
        for round = 1 to 1_000 do
          waiting := true;
          (* raises only from a re-test, i.e. while parked *)
          let tests = ref 0 in
          let guard () =
            incr tests;
            if !tests > 1 && Runtime.now rt >= raise_at then
              raise (Cond_failed (Runtime.now rt))
          in
          if round mod 3 = 0 then begin
            let until = Runtime.now rt + 4 in
            wait style (fun () ->
                guard ();
                Runtime.now rt >= until)
          end
          else
            wait style (fun () ->
                guard ();
                !counter >= round);
          waiting := false;
          seen := Runtime.now rt :: !seen;
          let (_ : Value.t) =
            Runtime.call cell (Value.write_op (Value.Int round))
          in
          ()
        done
      with Runtime.Simulation_over as e ->
        unwound := !waiting;
        raise e);
  Runtime.spawn rt ~pid:0 ~name:"beside" (fun () ->
      while true do
        Runtime.yield ()
      done);
  Runtime.spawn rt ~pid:1 ~name:"bumper" (fun () ->
      while true do
        for _ = 1 to 3 do
          Runtime.yield ()
        done;
        let (_ : Value.t) = Runtime.call cell Value.read_op in
        incr counter
      done);
  Runtime.spawn rt ~pid:2 ~name:"writer" (fun () ->
      while true do
        let (_ : Value.t) = Runtime.call cell (Value.write_op (Value.Int 0)) in
        ()
      done);
  (match interrupt with
  | Crash_at step -> Runtime.crash_at rt ~pid:0 ~step
  | Retire_at at -> Runtime.retire rt ~at ~pid:0
  | Run_out | Stop_at _ | Raise_at _ -> ());
  let steps = match interrupt with Stop_at s -> s | _ -> 400 in
  let errors = Buffer.create 64 in
  let raised =
    let err = Format.err_formatter in
    let saved = Format.pp_get_formatter_out_functions err () in
    Format.pp_set_formatter_output_functions err
      (Buffer.add_substring errors)
      ignore;
    let raised =
      match Runtime.run rt ~policy:(policy ()) ~steps with
      | () -> None
      | exception Cond_failed at -> Some at
    in
    Format.pp_print_flush err ();
    Format.pp_set_formatter_out_functions err saved;
    raised
  in
  (match interrupt with Stop_at _ -> Runtime.stop rt | _ -> ());
  {
    events = Buffer.contents log;
    fingerprint = Trace.fingerprint (Runtime.trace rt);
    final_step = Runtime.now rt;
    resumed_at = List.rev !seen;
    unwound = !unwound;
    raised;
    report = Buffer.contents errors;
    rng_next = Rng.next (Rng.copy (Runtime.rng rt));
    parked = List.rev !parked;
  }

let await_policies =
  [
    ("round robin", fun () -> Policy.round_robin ());
    ( "patterns",
      fun () ->
        Policy.of_patterns
          [
            0, Policy.Every { period = 3; offset = 1 };
            1, Policy.Weighted 1.0;
            2, Policy.Flicker { active = 7; sleep = 5; growth = 1.3 };
          ] );
  ]

(* A crash, retirement or stop lands before the step it is due at, so
   to land while the waiter is parked it is due at a step that begins
   with the waiter waiting (the [n]-th such step from step 100 of an
   uninterrupted run). *)
let await_interrupts ~policy =
  let { parked; _ } = await_run ~style:Parked ~policy ~interrupt:Run_out in
  let parked_step n = List.nth (List.filter (fun s -> s >= 100) parked) n in
  [
    "run out", Run_out;
    "crash while parked", Crash_at (parked_step 0);
    "retire while parked", Retire_at (parked_step 3);
    "stop while parked", Stop_at (parked_step 6);
    "condition raises", Raise_at 150;
  ]

let test_parked_await_matches_loop () =
  List.iter
    (fun (pname, policy) ->
      List.iter
        (fun (iname, interrupt) ->
          let label what = Fmt.str "%s, %s: %s" pname iname what in
          let p = await_run ~style:Parked ~policy ~interrupt in
          let l = await_run ~style:Loop ~policy ~interrupt in
          Alcotest.(check string) (label "sink events") l.events p.events;
          Alcotest.(check string) (label "trace fingerprint") l.fingerprint
            p.fingerprint;
          Alcotest.(check int) (label "final step") l.final_step p.final_step;
          Alcotest.(check (list int)) (label "resume steps") l.resumed_at
            p.resumed_at;
          Alcotest.(check bool) (label "unwound") l.unwound p.unwound;
          Alcotest.(check (option int)) (label "raised") l.raised p.raised;
          Alcotest.(check string) (label "raise report") l.report p.report;
          Alcotest.(check int64) (label "rng after run") l.rng_next p.rng_next;
          (* the runs must exercise what they are named after *)
          Alcotest.(check bool) (label "waiter resumed") true
            (List.length p.resumed_at >= 5);
          (match interrupt with
          | Crash_at _ | Retire_at _ | Stop_at _ ->
            Alcotest.(check bool) (label "waiter was unwound") true p.unwound
          | Raise_at _ ->
            Alcotest.(check bool) (label "condition raised") true
              (p.raised <> None && p.report <> "")
          | Run_out -> ()))
        (await_interrupts ~policy))
    await_policies

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
          Alcotest.test_case "parked await matches the yield loop" `Quick
            test_parked_await_matches_loop;
          Alcotest.test_case "stop unwinds tasks" `Quick test_stop_unwinds_tasks;
          Alcotest.test_case "spawn during run" `Quick test_spawn_during_run;
          Alcotest.test_case "idle steps advance time" `Quick
            test_idle_steps_advance_time;
          Alcotest.test_case "deferred events fire on their due step" `Quick
            test_due_guard;
        ] );
    ]
