(* Operation-span tracing.

   The runtime's invoke/respond events pair up into {e spans}: one span per
   shared-object operation, from its invocation step to its response step.
   The tracer aggregates spans as they close — per-layer latency
   sketches, abort/retry streaks per process, and contention windows
   (maximal periods during which an object had two or more operations in
   flight). Everything is derived from the event stream in event order, so
   a replayed schedule produces an identical aggregate. *)

open Tbwf_sim

(* A span is contended iff another operation on its object was in flight
   at its invoke, or another invoke on its object came before its
   response: while it is open it counts in [open_count], so any such
   invoke sees two or more in flight.

   Each pid's open spans sit in a flat int stack, oldest first, [stride]
   ints per span: the object id, the invoke step, and the object's
   [invokes] count including this one shifted left by one, whose low bit
   is set iff another operation was in flight at invoke. Under a full
   system (client, Ω∆ and monitor tasks) a pid has about six open spans,
   one per task, and responses come back
   mostly oldest first: a close scans newest-first, then shifts the newer
   spans down one slot in a loop ([Array.blit] is a C call even for an
   empty range). None of it allocates. *)
let stride = 3

(* A well-formed run closes every span it opens, but a sink attached
   mid-run (or a workload that dies between invoke and respond) can leak
   open spans; capping the per-pid stack keeps the tracer memory-bounded
   on arbitrarily long runs. 256 in-flight ops per process is far beyond
   anything a real stack issues. *)
let max_open_spans = 256

type t = {
  n : int;
  tails : Quantile.t array;  (* indexed by Sink.layer_index *)
  stacks : int array array;  (* per pid, [stride] ints per open span *)
  depth : int array;  (* per pid, open spans on [stacks.(pid)] *)
  (* obj_id is the runtime's dense sequential object id, so the
     per-object in-flight state lives in flat arrays grown on demand —
     this is the sink's hot path (two updates per register operation)
     and a hash table here costs an allocation per call. *)
  mutable open_count : int array;  (* obj_id -> in-flight spans *)
  mutable in_window : bool array;  (* obj_id -> contention window open *)
  mutable invokes : int array;  (* obj_id -> invokes seen *)
  abort_streak : int array;  (* per pid, current run of Abort results *)
  streaks : Quantile.t;  (* lengths of completed abort streaks *)
  mutable completed : int;
  mutable contended_spans : int;
  mutable contention_windows : int;
}

let initial_objs = 64

let create ~n =
  {
    n;
    tails = Array.init Sink.n_layers (fun _ -> Quantile.create ());
    stacks = Array.make n [||];
    depth = Array.make n 0;
    open_count = Array.make initial_objs 0;
    in_window = Array.make initial_objs false;
    invokes = Array.make initial_objs 0;
    abort_streak = Array.make n 0;
    streaks = Quantile.create ();
    completed = 0;
    contended_spans = 0;
    contention_windows = 0;
  }

let ensure_obj t obj_id =
  if obj_id >= Array.length t.open_count then begin
    let cap = Int.max (2 * Array.length t.open_count) (obj_id + 1) in
    let open_count = Array.make cap 0 in
    Array.blit t.open_count 0 open_count 0 (Array.length t.open_count);
    t.open_count <- open_count;
    let in_window = Array.make cap false in
    Array.blit t.in_window 0 in_window 0 (Array.length t.in_window);
    t.in_window <- in_window;
    let invokes = Array.make cap 0 in
    Array.blit t.invokes 0 invokes 0 (Array.length t.invokes);
    t.invokes <- invokes
  end

(* Room for one more span on [pid]'s stack: at the cap the oldest span
   is dropped; below it the stack doubles when full. *)
let reserve t pid =
  let d = t.depth.(pid) in
  let s = t.stacks.(pid) in
  if d >= max_open_spans then begin
    for i = 0 to ((d - 1) * stride) - 1 do
      s.(i) <- s.(i + stride)
    done;
    t.depth.(pid) <- d - 1
  end
  else if d * stride = Array.length s then begin
    let cap = Int.min max_open_spans (Int.max 4 (2 * d)) in
    let grown = Array.make (cap * stride) 0 in
    Array.blit s 0 grown 0 (d * stride);
    t.stacks.(pid) <- grown
  end

let on_invoke t ~pid ~obj_id ~step =
  if pid >= 0 && pid < t.n && obj_id >= 0 then begin
    ensure_obj t obj_id;
    let opens = t.open_count.(obj_id) + 1 in
    t.open_count.(obj_id) <- opens;
    let seen = t.invokes.(obj_id) + 1 in
    t.invokes.(obj_id) <- seen;
    reserve t pid;
    let s = t.stacks.(pid) in
    let d = t.depth.(pid) in
    let base = d * stride in
    s.(base) <- obj_id;
    s.(base + 1) <- step;
    s.(base + 2) <- (seen lsl 1) lor Bool.to_int (opens >= 2);
    t.depth.(pid) <- d + 1;
    if opens >= 2 && not t.in_window.(obj_id) then begin
      t.in_window.(obj_id) <- true;
      t.contention_windows <- t.contention_windows + 1
    end
  end

(* Index of the newest open span on [obj_id] among the first [i + 1]
   spans of [s], or -1. The annotations keep the comparison an integer
   one: left polymorphic, [=] would call [caml_equal] per span. *)
let rec newest_on (s : int array) (obj_id : int) i =
  if i < 0 || s.(i * stride) = obj_id then i else newest_on s obj_id (i - 1)

let on_respond t ~pid ~layer ~obj_id ~step ~aborted =
  if pid >= 0 && pid < t.n then begin
    (* Close the newest open span of [pid] on this object; skip silently if
       the sink was attached mid-operation and the invoke was never seen. *)
    let s = t.stacks.(pid) in
    let d = t.depth.(pid) in
    let i = newest_on s obj_id (d - 1) in
    if i >= 0 then begin
      let base = i * stride in
      let invoke = s.(base + 1) and bits = s.(base + 2) in
      for j = base to ((d - 1) * stride) - 1 do
        s.(j) <- s.(j + stride)
      done;
      t.depth.(pid) <- d - 1;
      t.completed <- t.completed + 1;
      Quantile.observe t.tails.(Sink.layer_index layer) (step - invoke);
      if bits land 1 = 1 || t.invokes.(obj_id) > bits lsr 1 then
        t.contended_spans <- t.contended_spans + 1;
      (* the matching invoke already sized the per-object arrays *)
      let opens = Int.max 0 (t.open_count.(obj_id) - 1) in
      t.open_count.(obj_id) <- opens;
      if opens = 0 then t.in_window.(obj_id) <- false
    end;
    if aborted then t.abort_streak.(pid) <- t.abort_streak.(pid) + 1
    else if t.abort_streak.(pid) > 0 then begin
      Quantile.observe t.streaks t.abort_streak.(pid);
      t.abort_streak.(pid) <- 0
    end
  end

(* Merge the closed-span aggregates of two tracers (latency sketches,
   completed streaks, contention totals). In-flight state — open spans and
   running abort streaks — is per-run and deliberately dropped: merging is
   for fan-out over independent runs, each of which has already finished. *)
let merge a b =
  if a.n <> b.n then invalid_arg "Span.merge: process counts differ";
  {
    n = a.n;
    tails = Array.init Sink.n_layers (fun i -> Quantile.merge a.tails.(i) b.tails.(i));
    stacks = Array.make a.n [||];
    depth = Array.make a.n 0;
    open_count = Array.make initial_objs 0;
    in_window = Array.make initial_objs false;
    invokes = Array.make initial_objs 0;
    abort_streak = Array.make a.n 0;
    streaks = Quantile.merge a.streaks b.streaks;
    completed = a.completed + b.completed;
    contended_spans = a.contended_spans + b.contended_spans;
    contention_windows = a.contention_windows + b.contention_windows;
  }

let tail_of t layer = t.tails.(Sink.layer_index layer)
let completed t = t.completed

let to_json t =
  Json.Obj
    [
      "completed", Json.Int t.completed;
      ( "tails",
        Json.Obj
          (List.map
             (fun layer ->
               Sink.layer_name layer, Quantile.to_json (tail_of t layer))
             Sink.layers) );
      "abort_streaks", Quantile.to_json t.streaks;
      ( "open_abort_streaks",
        Json.Arr (Array.to_list t.abort_streak |> List.map (fun s -> Json.Int s))
      );
      ( "contention",
        Json.Obj
          [
            "windows", Json.Int t.contention_windows;
            "contended_spans", Json.Int t.contended_spans;
          ] );
    ]
