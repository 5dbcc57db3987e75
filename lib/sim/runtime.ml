exception Simulation_over

type pending = {
  p_pid : int;
  p_obj : Shared.t;
  p_op : Value.t;
  p_invoke_step : int;
  p_layer : Sink.layer;  (* layer of the invoking task, for telemetry *)
  mutable p_overlapped : bool;
  mutable p_overlap_ops : Value.t list;
  p_events_at_invoke : int;
      (* object event-counter value just after this op's invocation *)
}

type task_state =
  | Ready of (unit -> unit)
  | Suspended_local of (unit, unit) Effect.Deep.continuation
  | Suspended_await of (unit, unit) Effect.Deep.continuation * (unit -> bool)
      (* parked in [await]: the runtime tests the condition at each of
         the task's steps and resumes the fiber only once it holds *)
  | Suspended_call of (Value.t, unit) Effect.Deep.continuation * pending
  | Running
  | Finished

type task = {
  t_name : string;
  t_pid : int;
  t_layer : Sink.layer;
  mutable t_state : task_state;
}

(* Tasks live in a growable array (spawn order, first [n_tasks] slots) so
   the per-step round-robin pick walks the array in place; [live] counts
   tasks not yet Finished, so runnability is one comparison instead of a
   list scan. *)
type proc = {
  pid : int;
  mutable tasks : task array;
  mutable n_tasks : int;
  mutable live : int;
  mutable next_task : int;  (* round-robin cursor *)
  mutable is_crashed : bool;
  mutable is_retired : bool;
}

(* Deferred membership events: late task activations and graceful
   retirements scheduled for a future step. [crashes] predates this list
   and keeps its own (unsorted, prepend-order) representation; events
   carry a creation sequence number so same-step events apply in the
   deterministic order they were scheduled, independent of list shape. *)
type event_kind =
  | Ev_task of { pid : int; name : string; layer : Sink.layer;
                 state : task_state }
  | Ev_retire of int

type t = {
  mutable num : int;
  rng : Rng.t;
  obj_rng : Rng.t;
  trace : Trace.t;
  mutable procs : proc array;  (* first [num] slots are the processes *)
  mutable step : int;
  mutable next_obj_id : int;
  (* Object ids are dense (allocated by [register_object]), so in-flight
     ops and event counters index arrays instead of hashtables. *)
  mutable pending_by_obj : pending list array;  (* obj id -> in-flight ops *)
  mutable events_by_obj : int array;
      (* obj id -> number of invocation/response events so far *)
  mutable crashes : (int * int) list;  (* (step, pid), unsorted *)
  mutable events : (int * int * event_kind) list;
      (* (due step, creation seq, kind), unsorted *)
  mutable next_event_seq : int;
  mutable next_due : int;
      (* earliest due step in [events] and [crashes], [max_int] if both
         are empty: [apply_due] returns at once before it *)
  mutable sink : Sink.t;  (* telemetry sink; Sink.nil = disabled *)
  (* Cached runnable-pid set, recomputed only when membership can have
     changed (spawn, a proc's last task finishing, a crash). The cache is
     replaced by a fresh array on recomputation, never mutated in place,
     so arrays handed to policies (and captured by e.g.
     [Policy.Replay_mismatch]) stay stable. *)
  mutable runnable_cache : int array;
  mutable runnable_dirty : bool;
}

type _ Effect.t +=
  | Yield : unit Effect.t
  | Await : (unit -> bool) -> unit Effect.t
  | Call : Shared.t * Value.t -> Value.t Effect.t
  | Self : int Effect.t

let create ?(seed = 0xC0FFEEL) ?(record_trace = true) ~n () =
  if n < 1 then invalid_arg "Runtime.create: need at least one process";
  let trace = Trace.create () in
  if not record_trace then Trace.disable trace;
  {
    num = n;
    rng = Rng.create seed;
    (* A stream of its own, derived from the seed: object-level random
       decisions (abort draws, safe-register garbage, write effects) must
       not share the scheduling policy's stream, or a replayed schedule —
       which consumes no scheduling randomness — would shift every object
       draw and diverge from the run it replays. *)
    obj_rng = Rng.create (Int64.logxor seed 0x6F626A5F726E6721L);
    trace;
    procs =
      Array.init n (fun pid ->
          {
            pid;
            tasks = [||];
            n_tasks = 0;
            live = 0;
            next_task = 0;
            is_crashed = false;
            is_retired = false;
          });
    step = 0;
    next_obj_id = 0;
    pending_by_obj = Array.make 16 [];
    events_by_obj = Array.make 16 0;
    crashes = [];
    events = [];
    next_event_seq = 0;
    next_due = max_int;
    sink = Sink.nil;
    runnable_cache = [||];
    runnable_dirty = true;
  }

let n t = t.num
let rng t = t.rng
let obj_rng t = t.obj_rng
let trace t = t.trace
let now t = t.step

(* --- telemetry ---------------------------------------------------------- *)

let set_sink t sink = t.sink <- sink
let clear_sink t = t.sink <- Sink.nil
let telemetry_active t = t.sink.Sink.active

(* Emit a structured signal on behalf of [pid] at the current step. Cheap
   when disabled, but call sites should still guard on [telemetry_active]
   before allocating the signal payload. *)
let signal t ~pid s =
  if t.sink.Sink.active then t.sink.Sink.on_signal ~step:t.step ~pid s

let ensure_obj t id =
  let len = Array.length t.events_by_obj in
  if id >= len then begin
    let cap = max (id + 1) (2 * len) in
    let events = Array.make cap 0 in
    Array.blit t.events_by_obj 0 events 0 len;
    t.events_by_obj <- events;
    let pending = Array.make cap [] in
    Array.blit t.pending_by_obj 0 pending 0 len;
    t.pending_by_obj <- pending
  end

let register_object t ~name ~respond =
  let id = t.next_obj_id in
  t.next_obj_id <- id + 1;
  ensure_obj t id;
  Shared.make ~id ~name ~respond

let push_task t ~pid ~name ~layer state =
  if pid < 0 || pid >= t.num then invalid_arg "Runtime.spawn: bad pid";
  let proc = t.procs.(pid) in
  let task = { t_name = name; t_pid = pid; t_layer = layer; t_state = state } in
  let cap = Array.length proc.tasks in
  if proc.n_tasks = cap then begin
    let grown = Array.make (max 4 (2 * cap)) task in
    Array.blit proc.tasks 0 grown 0 cap;
    proc.tasks <- grown
  end;
  proc.tasks.(proc.n_tasks) <- task;
  proc.n_tasks <- proc.n_tasks + 1;
  proc.live <- proc.live + 1;
  t.runnable_dirty <- true

let spawn ?(layer = Sink.Other) t ~pid ~name body =
  push_task t ~pid ~name ~layer (Ready body)

let crash_at t ~pid ~step =
  t.crashes <- (step, pid) :: t.crashes;
  t.next_due <- Int.min t.next_due step

let crashed t ~pid = t.procs.(pid).is_crashed
let retired t ~pid = t.procs.(pid).is_retired

(* --- dynamic membership -------------------------------------------------- *)

let fresh_proc pid =
  {
    pid;
    tasks = [||];
    n_tasks = 0;
    live = 0;
    next_task = 0;
    is_crashed = false;
    is_retired = false;
  }

(* Grow the process table by one (amortized doubling; pre-built slots
   beyond [num] are placeholders with the right pid). A fresh process has
   no tasks, so it is not runnable until something is spawned on it —
   joining the membership and joining the schedule are separate moments. *)
let add_process t =
  let pid = t.num in
  let cap = Array.length t.procs in
  if pid = cap then
    t.procs <-
      Array.init
        (max 4 (2 * cap))
        (fun i -> if i < cap then t.procs.(i) else fresh_proc i);
  t.num <- pid + 1;
  pid

let schedule_event t ~step kind =
  let seq = t.next_event_seq in
  t.next_event_seq <- seq + 1;
  t.events <- (step, seq, kind) :: t.events;
  t.next_due <- Int.min t.next_due step

let spawn_late ?(layer = Sink.Other) ?at t ~name body =
  let pid = add_process t in
  (match at with
  | Some at when at > t.step ->
    schedule_event t ~step:at (Ev_task { pid; name; layer; state = Ready body })
  | _ -> push_task t ~pid ~name ~layer (Ready body));
  pid

let spawn_at ?(layer = Sink.Other) t ~pid ~at ~name body =
  if pid < 0 || pid >= t.num then invalid_arg "Runtime.spawn_at: bad pid";
  if at <= t.step then push_task t ~pid ~name ~layer (Ready body)
  else
    schedule_event t ~step:at (Ev_task { pid; name; layer; state = Ready body })

let yield () = Effect.perform Yield
let call obj op = Effect.perform (Call (obj, op))
let self () = Effect.perform Self

(* One local step per test, as [while not (cond ()) do yield () done]
   takes, but a task whose first test fails parks instead of switching
   fibers per test: the runtime re-tests [cond] at each of its steps. *)
let await cond = if not (cond ()) then Effect.perform (Await cond)

(* All transitions into [Finished] funnel through here so the proc's
   [live] count decrements exactly once per task: crash/stop teardown
   first finishes the task, then discontinues its continuation, and the
   handler's [exnc] lands here a second time as a no-op. *)
let finish_task t task =
  match task.t_state with
  | Finished -> ()
  | Ready _ | Suspended_local _ | Suspended_await _ | Suspended_call _
  | Running ->
    task.t_state <- Finished;
    let proc = t.procs.(task.t_pid) in
    proc.live <- proc.live - 1;
    if proc.live = 0 then t.runnable_dirty <- true

(* --- pending-operation bookkeeping ------------------------------------- *)

let events_of t obj_id = t.events_by_obj.(obj_id)

let bump_events t obj_id =
  t.events_by_obj.(obj_id) <- t.events_by_obj.(obj_id) + 1

let add_pending t pend =
  let obj_id = pend.p_obj.Shared.id in
  let existing = t.pending_by_obj.(obj_id) in
  if existing <> [] then begin
    pend.p_overlapped <- true;
    List.iter
      (fun other ->
        other.p_overlapped <- true;
        other.p_overlap_ops <- pend.p_op :: other.p_overlap_ops;
        pend.p_overlap_ops <- other.p_op :: pend.p_overlap_ops)
      existing
  end;
  t.pending_by_obj.(obj_id) <- pend :: existing

let remove_pending t pend =
  let obj_id = pend.p_obj.Shared.id in
  match t.pending_by_obj.(obj_id) with
  | [ only ] when only == pend ->
    (* the overwhelmingly common case: the op was alone on its object *)
    t.pending_by_obj.(obj_id) <- [];
    0
  | existing ->
    let remaining = List.filter (fun other -> other != pend) existing in
    t.pending_by_obj.(obj_id) <- remaining;
    List.length remaining

let respond_pending t pend =
  let remaining = remove_pending t pend in
  let obj_id = pend.p_obj.Shared.id in
  let step_contended = events_of t obj_id > pend.p_events_at_invoke in
  bump_events t obj_id;
  let ctx =
    {
      Shared.pid = pend.p_pid;
      invoke_step = pend.p_invoke_step;
      respond_step = t.step;
      overlapped = pend.p_overlapped;
      overlap_ops = pend.p_overlap_ops;
      step_contended;
      pending_others = remaining;
      rng = t.obj_rng;
      op = pend.p_op;
    }
  in
  let result = pend.p_obj.Shared.respond ctx in
  Trace.record_respond t.trace ~step:t.step ~pid:pend.p_pid
    ~obj_id:pend.p_obj.Shared.id ~obj_name:pend.p_obj.Shared.name
    ~op:pend.p_op ~result;
  if t.sink.Sink.active then
    t.sink.Sink.on_respond ~step:t.step ~pid:pend.p_pid ~layer:pend.p_layer
      ~obj_id:pend.p_obj.Shared.id ~obj_name:pend.p_obj.Shared.name
      ~op:pend.p_op ~result;
  result

(* --- task execution ----------------------------------------------------- *)

let handler t task =
  let open Effect.Deep in
  {
    retc = (fun () -> finish_task t task);
    exnc =
      (fun e ->
        match e with
        | Simulation_over -> finish_task t task
        | e ->
          let bt = Printexc.get_raw_backtrace () in
          Fmt.epr "task %S (pid %d) raised: %s@." task.t_name task.t_pid
            (Printexc.to_string e);
          Printexc.raise_with_backtrace e bt);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
          Some
            (fun (k : (a, unit) continuation) ->
              task.t_state <- Suspended_local k)
        | Await cond ->
          Some
            (fun (k : (a, unit) continuation) ->
              task.t_state <- Suspended_await (k, cond))
        | Call (obj, op) ->
          Some
            (fun (k : (a, unit) continuation) ->
              ensure_obj t obj.Shared.id;
              bump_events t obj.Shared.id;
              let pend =
                {
                  p_pid = task.t_pid;
                  p_obj = obj;
                  p_op = op;
                  p_invoke_step = t.step;
                  p_layer = task.t_layer;
                  p_overlapped = false;
                  p_overlap_ops = [];
                  p_events_at_invoke = events_of t obj.Shared.id;
                }
              in
              add_pending t pend;
              Trace.record_invoke t.trace ~step:t.step ~pid:task.t_pid
                ~obj_id:obj.Shared.id ~obj_name:obj.Shared.name ~op;
              if t.sink.Sink.active then
                t.sink.Sink.on_invoke ~step:t.step ~pid:task.t_pid
                  ~layer:task.t_layer ~obj_id:obj.Shared.id
                  ~obj_name:obj.Shared.name ~op;
              task.t_state <- Suspended_call (k, pend))
        | Self -> Some (fun (k : (a, unit) continuation) -> continue k task.t_pid)
        | _ -> None);
  }

let runnable_task task =
  match task.t_state with
  | Ready _ | Suspended_local _ | Suspended_await _ | Suspended_call _ -> true
  | Running | Finished -> false

let proc_runnable proc =
  (not proc.is_crashed) && (not proc.is_retired) && proc.live > 0

(* Pick the next runnable task of [proc], round-robin over the task array
   starting at the cursor. The cursor never exceeds [n_tasks], so one
   subtraction wraps the index. *)
let pick_task proc =
  let tasks = proc.tasks in
  let count = proc.n_tasks in
  let rec search tries idx =
    if tries >= count then None
    else
      let idx = if idx >= count then idx - count else idx in
      let task = tasks.(idx) in
      if runnable_task task then begin
        proc.next_task <- idx + 1;
        Some task
      end
      else search (tries + 1) (idx + 1)
  in
  search 0 proc.next_task

let exec_task_step t task =
  match task.t_state with
  | Ready body ->
    task.t_state <- Running;
    Effect.Deep.match_with body () (handler t task)
  | Suspended_local k ->
    task.t_state <- Running;
    Effect.Deep.continue k ()
  | Suspended_await (k, cond) -> (
    match cond () with
    | false -> ()
    | true ->
      task.t_state <- Running;
      Effect.Deep.continue k ()
    | exception e ->
      task.t_state <- Running;
      Effect.Deep.discontinue k e)
  | Suspended_call (k, pend) ->
    let result = respond_pending t pend in
    task.t_state <- Running;
    Effect.Deep.continue k result
  | Running | Finished -> assert false

(* Resolve any in-flight operation so the object's state is well defined,
   then unwind every suspended task — the shared teardown under both
   crashes and graceful retirements. *)
let unwind_tasks t proc =
  let finish task =
    match task.t_state with
    | Suspended_call (k, pend) ->
      let (_ : Value.t) = respond_pending t pend in
      finish_task t task;
      (try Effect.Deep.discontinue k Simulation_over with Simulation_over -> ())
    | Suspended_local k | Suspended_await (k, _) ->
      finish_task t task;
      (try Effect.Deep.discontinue k Simulation_over with Simulation_over -> ())
    | Ready _ -> finish_task t task
    | Running | Finished -> ()
  in
  for i = 0 to proc.n_tasks - 1 do
    finish proc.tasks.(i)
  done

let crash_proc t proc =
  proc.is_crashed <- true;
  t.runnable_dirty <- true;
  if t.sink.Sink.active then
    signal t ~pid:proc.pid (Sink.Crash { pid = proc.pid });
  unwind_tasks t proc

let retire_proc t proc =
  proc.is_retired <- true;
  t.runnable_dirty <- true;
  if t.sink.Sink.active then
    signal t ~pid:proc.pid (Sink.Retire { pid = proc.pid });
  unwind_tasks t proc;
  (* A retired process never runs again: drop its task storage so a
     long-lived world with heavy churn compacts as members leave. *)
  proc.tasks <- [||];
  proc.n_tasks <- 0;
  proc.live <- 0;
  proc.next_task <- 0

let retire ?at t ~pid =
  if pid < 0 || pid >= t.num then invalid_arg "Runtime.retire: bad pid";
  match at with
  | Some at when at > t.step -> schedule_event t ~step:at (Ev_retire pid)
  | _ ->
    let proc = t.procs.(pid) in
    if not (proc.is_crashed || proc.is_retired) then retire_proc t proc

let apply_due_crashes t =
  match t.crashes with
  | [] -> ()
  | _ ->
    let due, later = List.partition (fun (s, _) -> s <= t.step) t.crashes in
    t.crashes <- later;
    List.iter
      (fun (_, pid) ->
        let proc = t.procs.(pid) in
        if not proc.is_crashed then crash_proc t proc)
      due

(* Due membership events apply in creation order (the seq numbers — the
   list itself is prepend-ordered), then due crashes: a crash and a
   retirement due at the same step leave the process crashed. Activation
   on a process that crashed or retired first is dropped. *)
let apply_due_events t =
  match t.events with
  | [] -> ()
  | _ ->
    let due, later =
      List.partition (fun (s, _, _) -> s <= t.step) t.events
    in
    t.events <- later;
    List.sort (fun (_, a, _) (_, b, _) -> compare (a : int) b) due
    |> List.iter (fun (_, _, kind) ->
           match kind with
           | Ev_task { pid; name; layer; state } ->
             let proc = t.procs.(pid) in
             if not (proc.is_crashed || proc.is_retired) then
               push_task t ~pid ~name ~layer state
           | Ev_retire pid ->
             let proc = t.procs.(pid) in
             if not (proc.is_crashed || proc.is_retired) then
               retire_proc t proc)

(* In a churn shard the joiner's activation and the leaver's departure
   stay pending for up to half the run, so the common case — nothing due
   yet — is one comparison, not a partition of the pending lists. *)
let apply_due t =
  if t.step >= t.next_due then begin
    apply_due_events t;
    apply_due_crashes t;
    t.next_due <-
      List.fold_left
        (fun due (s, _) -> Int.min due s)
        (List.fold_left (fun due (s, _, _) -> Int.min due s) max_int t.events)
        t.crashes
  end

let recompute_runnable t =
  (* Index loops bounded by [num], not [Array.iter]: the table's capacity
     can exceed the membership after amortized growth. *)
  let count = ref 0 in
  for i = 0 to t.num - 1 do
    if proc_runnable t.procs.(i) then incr count
  done;
  let fresh = Array.make !count 0 in
  let j = ref 0 in
  for i = 0 to t.num - 1 do
    let p = t.procs.(i) in
    if proc_runnable p then begin
      fresh.(!j) <- p.pid;
      incr j
    end
  done;
  t.runnable_cache <- fresh;
  t.runnable_dirty <- false

(* The public accessor copies the cache: callers of the original
   implementation received a fresh array per call and could do anything
   with it; only the internal hot loop reads the cache directly. *)
let runnable_pids t =
  apply_due t;
  if t.runnable_dirty then recompute_runnable t;
  Array.copy t.runnable_cache

let run_task_step t ~pid task =
  Trace.record_step t.trace ~pid;
  if t.sink.Sink.active then
    t.sink.Sink.on_step ~step:t.step ~pid ~layer:task.t_layer;
  exec_task_step t task

let step t ~pid =
  apply_due t;
  if pid < 0 || pid >= t.num then invalid_arg "Runtime.step: bad pid";
  let proc = t.procs.(pid) in
  if not (proc_runnable proc) then
    invalid_arg (Fmt.str "Runtime.step: pid %d is not runnable" pid);
  (match pick_task proc with
  | None -> assert false (* proc_runnable guarantees a runnable task *)
  | Some task -> run_task_step t ~pid task);
  t.step <- t.step + 1

let record_idle_step t =
  Trace.record_step t.trace ~pid:(-1);
  if t.sink.Sink.active then
    t.sink.Sink.on_step ~step:t.step ~pid:(-1) ~layer:Sink.Other

let idle_step t =
  apply_due t;
  record_idle_step t;
  t.step <- t.step + 1

let run t ~policy ~steps =
  let deadline = t.step + steps in
  let pick = Policy.next policy in
  let continue_run = ref true in
  while !continue_run && t.step < deadline do
    apply_due t;
    if t.runnable_dirty then recompute_runnable t;
    let runnable = t.runnable_cache in
    if Array.length runnable = 0 then
      (* Nobody is runnable now, but a scheduled activation may still be
         due before the deadline: idle toward it rather than stopping —
         "no runnable task" only ends the run once no task can appear. *)
      if
        List.exists
          (fun (s, _, k) ->
            s < deadline
            && match k with Ev_task _ -> true | Ev_retire _ -> false)
          t.events
      then begin
        record_idle_step t;
        t.step <- t.step + 1
      end
      else continue_run := false
    else begin
      (match pick ~step:t.step ~runnable ~rng:t.rng with
      | None -> record_idle_step t (* idle step *)
      | Some pid ->
        (match pick_task t.procs.(pid) with
        | None -> record_idle_step t
        | Some task -> run_task_step t ~pid task));
      t.step <- t.step + 1
    end
  done

let stop t =
  let teardown task =
    match task.t_state with
    | Suspended_local k | Suspended_await (k, _) ->
      finish_task t task;
      (try Effect.Deep.discontinue k Simulation_over with Simulation_over -> ())
    | Suspended_call (k, pend) ->
      let (_ : int) = remove_pending t pend in
      finish_task t task;
      (try Effect.Deep.discontinue k Simulation_over with Simulation_over -> ())
    | Ready _ -> finish_task t task
    | Running | Finished -> ()
  in
  for p = 0 to t.num - 1 do
    let proc = t.procs.(p) in
    for i = 0 to proc.n_tasks - 1 do
      teardown proc.tasks.(i)
    done
  done
