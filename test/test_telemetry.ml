open Tbwf_sim
open Tbwf_core
open Tbwf_objects
open Tbwf_experiments
open Tbwf_telemetry

(* --- Series -------------------------------------------------------------- *)

let test_series_windows () =
  let s = Series.create ~window:10 ~n:2 () in
  Series.bump s ~pid:0 ~step:5;
  Series.bump s ~pid:0 ~step:15;
  Series.bump s ~pid:1 ~step:25;
  Series.bump s ~pid:9 ~step:25;
  (* out of range: ignored *)
  Alcotest.(check int) "windows" 3 (Series.windows s);
  Alcotest.(check (array int)) "row 0 (padded)" [| 1; 1; 0 |]
    (Series.row s ~pid:0);
  Alcotest.(check (array int)) "row 1 (lazy growth padded)" [| 0; 0; 1 |]
    (Series.row s ~pid:1);
  Alcotest.(check (array int)) "totals" [| 2; 1 |] (Series.totals s);
  Alcotest.(check int) "tail_total from w1" 1
    (Series.tail_total s ~pid:0 ~from_window:1);
  Alcotest.(check (float 1e-9)) "mean per window" (2.0 /. 3.0)
    (Series.mean_per_window s ~pid:0)

let test_series_growth () =
  let s = Series.create ~window:2 ~n:1 () in
  for step = 0 to 999 do
    Series.bump s ~pid:0 ~step
  done;
  Alcotest.(check int) "windows after growth" 500 (Series.windows s);
  Alcotest.(check int) "total preserved" 1000 (Series.total s ~pid:0);
  Alcotest.(check bool) "every window holds 2" true
    (Array.for_all (fun c -> c = 2) (Series.row s ~pid:0))

(* --- Quantile ------------------------------------------------------------- *)

let test_quantile_exact_small () =
  let q = Quantile.create () in
  for v = 0 to 15 do
    Quantile.observe q v
  done;
  Alcotest.(check int) "count" 16 (Quantile.count q);
  Alcotest.(check int) "max" 15 (Quantile.max_value q);
  Alcotest.(check (float 1e-9)) "mean" 7.5 (Quantile.mean q);
  (* values 0..15 live in exact buckets: every quantile is exact *)
  Alcotest.(check int) "p50 exact" 7 (Quantile.quantile q 0.5);
  Alcotest.(check int) "p999 is max" 15 (Quantile.p999 q);
  Quantile.observe q (-3);
  Alcotest.(check int) "negative clamps to 0" 17 (Quantile.count q)

let test_quantile_error_bound () =
  let q = Quantile.create () in
  List.iter (Quantile.observe q) [ 100; 1_000; 50_000; 1_000_000 ];
  List.iter
    (fun (v, p) ->
      let b = Quantile.quantile q p in
      Alcotest.(check bool)
        (Fmt.str "upper bound at p=%.3f (%d for %d)" p b v)
        true
        (b >= v && b - v <= (v / 16) + 1))
    [ 100, 0.25; 1_000, 0.5; 50_000, 0.75; 1_000_000, 1.0 ];
  Alcotest.(check int) "max clamps the top quantile" 1_000_000
    (Quantile.p999 q)

let sketch_of values =
  let q = Quantile.create () in
  List.iter (Quantile.observe q) values;
  q

let qcheck_quantile_merge_algebra =
  QCheck.Test.make
    ~name:"quantile merge is associative, commutative and order-free"
    ~count:100
    QCheck.(
      triple
        (small_list (int_range 0 100_000))
        (small_list (int_range 0 100_000))
        (small_list (int_range 0 100_000)))
    (fun (xs, ys, zs) ->
      let a = sketch_of xs and b = sketch_of ys and c = sketch_of zs in
      Quantile.equal
        (Quantile.merge (Quantile.merge a b) c)
        (Quantile.merge a (Quantile.merge b c))
      && Quantile.equal (Quantile.merge a b) (Quantile.merge b a)
      (* merging sketches = sketching the concatenation, any order *)
      && Quantile.equal
           (Quantile.merge a (Quantile.merge b c))
           (sketch_of (List.rev_append xs (List.rev_append ys zs))))

(* The one-shift-per-bit floor log2 the sketch used before its halving
   search; [bucket_of] must agree with it everywhere, or sketches would
   stop being byte-identical to earlier ones. *)
let reference_bucket_of v =
  let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v lsr 1) in
  if v < 16 then v
  else
    let k = log2 0 v in
    16 + ((k - 4) * 16) + ((v lsr (k - 4)) - 16)

let check_bucket v =
  Alcotest.(check int) (Fmt.str "bucket of %d" v) (reference_bucket_of v)
    (Quantile.bucket_of v)

let test_quantile_bucket_edges () =
  for k = 0 to 61 do
    let p = 1 lsl k in
    List.iter check_bucket [ p - 1; p; p + 1 ]
  done;
  check_bucket max_int;
  check_bucket (max_int - 1)

let qcheck_quantile_bucket_random =
  QCheck.Test.make ~name:"bucket_of agrees with the bit-by-bit log2"
    ~count:1000
    QCheck.(make Gen.(map (fun v -> v land max_int) int))
    (fun v -> Quantile.bucket_of v = reference_bucket_of v)

(* --- Span ---------------------------------------------------------------- *)

let test_span_latency_and_streaks () =
  let sp = Span.create ~n:2 in
  Span.on_invoke sp ~pid:0 ~obj_id:1 ~step:0;
  Span.on_respond sp ~pid:0 ~layer:Sink.App ~obj_id:1 ~step:5 ~aborted:false;
  Alcotest.(check int) "completed" 1 (Span.completed sp);
  let lat = Span.tail_of sp Sink.App in
  Alcotest.(check int) "latency count" 1 (Quantile.count lat);
  Alcotest.(check (float 1e-9)) "latency mean" 5.0 (Quantile.mean lat);
  (* Three aborts then a success: one streak of length 3. *)
  List.iter
    (fun step ->
      Span.on_invoke sp ~pid:1 ~obj_id:1 ~step;
      Span.on_respond sp ~pid:1 ~layer:Sink.App ~obj_id:1 ~step:(step + 1)
        ~aborted:true)
    [ 10; 12; 14 ];
  Span.on_invoke sp ~pid:1 ~obj_id:1 ~step:16;
  Span.on_respond sp ~pid:1 ~layer:Sink.App ~obj_id:1 ~step:17 ~aborted:false;
  match Span.to_json sp with
  | Json.Obj fields -> (
    Alcotest.(check bool) "all five spans completed" true
      (List.assoc "completed" fields = Json.Int 5);
    match List.assoc "abort_streaks" fields with
    | Json.Obj h ->
      Alcotest.(check bool) "one closed streak" true
        (List.assoc "count" h = Json.Int 1);
      Alcotest.(check bool) "streak length 3" true
        (List.assoc "max" h = Json.Int 3)
    | _ -> Alcotest.fail "abort_streaks should be a sketch object")
  | _ -> Alcotest.fail "span json should be an object"

let test_span_contention () =
  let sp = Span.create ~n:2 in
  Span.on_invoke sp ~pid:0 ~obj_id:7 ~step:0;
  Span.on_invoke sp ~pid:1 ~obj_id:7 ~step:1;
  (* both spans overlap on object 7: one contention window *)
  Span.on_respond sp ~pid:0 ~layer:Sink.App ~obj_id:7 ~step:2 ~aborted:false;
  Span.on_respond sp ~pid:1 ~layer:Sink.App ~obj_id:7 ~step:3 ~aborted:false;
  (* a solo operation afterwards does not reopen the window *)
  Span.on_invoke sp ~pid:0 ~obj_id:7 ~step:4;
  Span.on_respond sp ~pid:0 ~layer:Sink.App ~obj_id:7 ~step:5 ~aborted:false;
  match Span.to_json sp with
  | Json.Obj fields -> (
    match List.assoc "contention" fields with
    | Json.Obj c ->
      Alcotest.(check bool) "one window" true
        (List.assoc "windows" c = Json.Int 1);
      Alcotest.(check bool) "two contended spans" true
        (List.assoc "contended_spans" c = Json.Int 2)
    | _ -> Alcotest.fail "contention should be an object")
  | _ -> Alcotest.fail "span json should be an object"

(* Contention marking against a direct model: each span in flight on an
   object becomes contended whenever an invoke on that object finds
   another operation in flight. Events are (is_invoke, pid, obj); a
   respond closes the pid's newest open span on the object, if any. *)
let model_contended_spans events =
  let spans = ref [] (* (pid, obj, contended), newest first *) in
  let contended = ref 0 in
  List.iter
    (fun (invoke, pid, obj) ->
      if invoke then begin
        spans := (pid, obj, ref false) :: !spans;
        let in_flight = List.filter (fun (_, o, _) -> o = obj) !spans in
        if List.length in_flight >= 2 then
          List.iter (fun (_, _, c) -> c := true) in_flight
      end
      else
        match List.find_opt (fun (p, o, _) -> p = pid && o = obj) !spans with
        | None -> ()
        | Some ((_, _, c) as sp) ->
          spans := List.filter (fun s -> s != sp) !spans;
          if !c then incr contended)
    events;
  !contended

let qcheck_span_contention_model =
  QCheck.Test.make ~name:"contended spans match the in-flight model"
    ~count:300
    QCheck.(
      list_of_size Gen.(0 -- 60) (triple bool (int_range 0 2) (int_range 0 2)))
    (fun events ->
      let sp = Span.create ~n:3 in
      List.iteri
        (fun step (invoke, pid, obj_id) ->
          if invoke then Span.on_invoke sp ~pid ~obj_id ~step
          else
            Span.on_respond sp ~pid ~layer:Sink.App ~obj_id ~step ~aborted:false)
        events;
      match Span.to_json sp with
      | Json.Obj fields -> (
        match List.assoc "contention" fields with
        | Json.Obj c ->
          List.assoc "contended_spans" c
          = Json.Int (model_contended_spans events)
        | _ -> false)
      | _ -> false)

(* The tracer before its flat per-pid stacks, kept as the model: open
   spans are a newest-first list per pid, a respond closes the newest one
   on its object, and an invoke at [max_open_spans] keeps only the newest
   [max_open_spans - 1] before pushing. *)
let model_max_open_spans = 256

type model_span = { m_obj : int; m_invoke : int; m_seen : int; m_contended : bool }

let model_span_run ~n events =
  let open_spans = Array.make n [] in
  let open_count = Hashtbl.create 8 and in_window = Hashtbl.create 8 in
  let invokes = Hashtbl.create 8 in
  let get h k = Option.value ~default:0 (Hashtbl.find_opt h k) in
  let tails = Array.init Sink.n_layers (fun _ -> Quantile.create ()) in
  let completed = ref 0 and contended = ref 0 and windows = ref 0 in
  List.iteri
    (fun step (invoke, pid, obj, layer) ->
      if invoke then begin
        let opens = get open_count obj + 1 in
        Hashtbl.replace open_count obj opens;
        let seen = get invokes obj + 1 in
        Hashtbl.replace invokes obj seen;
        let kept =
          List.filteri
            (fun i _ -> i < model_max_open_spans - 1)
            open_spans.(pid)
        in
        open_spans.(pid) <-
          { m_obj = obj; m_invoke = step; m_seen = seen; m_contended = opens >= 2 }
          :: kept;
        if opens >= 2 && not (Hashtbl.mem in_window obj) then begin
          Hashtbl.replace in_window obj ();
          incr windows
        end
      end
      else
        match List.find_opt (fun sp -> sp.m_obj = obj) open_spans.(pid) with
        | None -> ()
        | Some sp ->
          open_spans.(pid) <- List.filter (fun o -> o != sp) open_spans.(pid);
          incr completed;
          Quantile.observe tails.(Sink.layer_index layer) (step - sp.m_invoke);
          if sp.m_contended || get invokes obj > sp.m_seen then incr contended;
          let opens = Int.max 0 (get open_count obj - 1) in
          Hashtbl.replace open_count obj opens;
          if opens = 0 then Hashtbl.remove in_window obj)
    events;
  !completed, tails, !windows, !contended

let span_run ~n events =
  let sp = Span.create ~n in
  List.iteri
    (fun step (invoke, pid, obj_id, layer) ->
      if invoke then Span.on_invoke sp ~pid ~obj_id ~step
      else Span.on_respond sp ~pid ~layer ~obj_id ~step ~aborted:false)
    events;
  sp

let contention_of sp =
  match Span.to_json sp with
  | Json.Obj fields -> (
    match List.assoc "contention" fields with
    | Json.Obj c -> (
      match List.assoc "windows" c, List.assoc "contended_spans" c with
      | Json.Int w, Json.Int cs -> w, cs
      | _ -> Alcotest.fail "contention counts should be ints")
    | _ -> Alcotest.fail "contention should be an object")
  | _ -> Alcotest.fail "span json should be an object"

let span_matches_model ~n events =
  let sp = span_run ~n events in
  let completed, tails, windows, contended = model_span_run ~n events in
  Span.completed sp = completed
  && List.for_all
       (fun layer ->
         Quantile.equal (Span.tail_of sp layer) tails.(Sink.layer_index layer))
       Sink.layers
  && contention_of sp = (windows, contended)

let span_event =
  QCheck.Gen.(
    quad bool (int_range 0 2) (int_range 0 3) (oneofl Sink.layers))

let print_span_events =
  QCheck.Print.(
    list (fun (i, p, o, l) ->
        Fmt.str "%s(p%d,o%d,%s)" (if i then "inv" else "resp") p o
          (Sink.layer_name l)))

let qcheck_span_stack_model =
  QCheck.Test.make ~name:"span stacks match the list model" ~count:300
    (QCheck.make ~print:print_span_events
       QCheck.Gen.(list_size (0 -- 80) span_event))
    (fun events -> span_matches_model ~n:3 events)

(* Leaky runs: invokes far outnumber responds, so a pid's open spans pass
   [max_open_spans] and the stack must drop its oldest span exactly where
   the list did, then still close the newest match. *)
let qcheck_span_stack_model_leaky =
  QCheck.Test.make ~name:"span stacks match the list model past the cap"
    ~count:40
    (QCheck.make ~print:print_span_events
       QCheck.Gen.(
         list_size (700 -- 1200)
           (map
              (fun (roll, pid, obj, layer) -> roll < 9, pid, obj, layer)
              (quad (int_bound 9) (int_range 0 1) (int_range 0 3)
                 (oneofl Sink.layers)))))
    (fun events -> span_matches_model ~n:2 events)

let test_span_orphan_respond () =
  let sp = Span.create ~n:1 in
  (* A respond with no recorded invoke (collector attached mid-run) is
     silently ignored rather than crashing or corrupting counts. *)
  Span.on_respond sp ~pid:0 ~layer:Sink.App ~obj_id:3 ~step:9 ~aborted:false;
  Alcotest.(check int) "nothing completed" 0 (Span.completed sp)

(* --- Json ---------------------------------------------------------------- *)

let test_json_printing () =
  let doc =
    Json.Obj
      [
        "s", Json.Str "a\"b\n";
        "i", Json.Int (-3);
        "f", Json.Float 1.5;
        "g", Json.Float 2.0;
        "a", Json.Arr [ Json.Bool true; Json.Null ];
      ]
  in
  Alcotest.(check string) "compact deterministic"
    "{\"s\":\"a\\\"b\\n\",\"i\":-3,\"f\":1.5,\"g\":2.0,\"a\":[true,null]}"
    (Json.to_string doc)

let test_json_schema () =
  let doc =
    Json.Obj
      [
        "b", Json.Arr [ Json.Int 1; Json.Int 2; Json.Int 3 ];
        "a", Json.Obj [ "x", Json.Str "s" ];
        "e", Json.Arr [];
      ]
  in
  Alcotest.(check (list string)) "sorted deduped paths"
    [
      ": object";
      "a.x: string";
      "a: object";
      "b: array";
      "b[]: int";
      "e: array";
    ]
    (Json.schema_paths doc)

(* --- Collector on a live scenario ---------------------------------------- *)

let build_stack ~seed =
  Scenario.build ~seed ~n:3 ~omega:Scenario.Omega_atomic ~spec:Counter.spec
    ~next_op:(Workload.forever Counter.inc)
    ~client_pids:[ 0; 1; 2 ] ()

let test_collector_agrees_with_workload () =
  let stack = build_stack ~seed:42L in
  let telemetry = Collector.attach ~window:256 stack.Scenario.rt in
  Runtime.run stack.Scenario.rt ~policy:(Policy.round_robin ()) ~steps:6_000;
  Runtime.stop stack.Scenario.rt;
  Alcotest.(check (array int)) "app_completed = workload completed"
    stack.Scenario.stats.Workload.completed
    (Collector.app_completed telemetry);
  Alcotest.(check (array int)) "series totals = workload completed"
    stack.Scenario.stats.Workload.completed
    (Series.totals (Collector.app_ops telemetry));
  Alcotest.(check int) "every step attributed" 6_000
    (Collector.total_steps telemetry);
  let per_pid = Collector.steps_per_pid telemetry in
  Alcotest.(check int) "pid + idle steps = total" 6_000
    (Collector.idle_steps telemetry + Array.fold_left ( + ) 0 per_pid);
  Array.iteri
    (fun pid steps ->
      let by_layer =
        List.fold_left
          (fun acc layer -> acc + Collector.layer_steps telemetry ~pid layer)
          0 Sink.layers
      in
      Alcotest.(check int) (Fmt.str "pid %d layers sum" pid) steps by_layer)
    per_pid;
  Alcotest.(check int) "handoffs = epochs"
    (Collector.leader_epochs telemetry)
    (List.length (Collector.handoffs telemetry));
  Alcotest.(check bool) "leadership changed hands at least once" true
    (Collector.leader_epochs telemetry >= 1)

let test_sink_lifecycle () =
  let rt = Runtime.create ~seed:7L ~n:2 () in
  Alcotest.(check bool) "nil sink inactive by default" false
    (Runtime.telemetry_active rt);
  let (_ : Collector.t) = Collector.attach rt in
  Alcotest.(check bool) "collector active" true (Runtime.telemetry_active rt);
  Runtime.clear_sink rt;
  Alcotest.(check bool) "cleared" false (Runtime.telemetry_active rt);
  Runtime.stop rt

let test_snapshot_deterministic () =
  let snap seed =
    let stack = build_stack ~seed in
    let telemetry = Collector.attach stack.Scenario.rt in
    let policy = Scenario.degraded_policy ~n:3 ~timely:[ 2 ] () in
    Runtime.run stack.Scenario.rt ~policy ~steps:4_000;
    Runtime.stop stack.Scenario.rt;
    Collector.snapshot_string telemetry
  in
  Alcotest.(check string) "same seed, same snapshot" (snap 5L) (snap 5L);
  Alcotest.(check bool) "different seed, different snapshot" false
    (String.equal (snap 5L) (snap 6L))

(* --- the replay property -------------------------------------------------- *)

(* Telemetry must be a pure function of the run: replaying the recorded
   schedule on a fresh identically-seeded stack reproduces the snapshot
   byte for byte. *)
let qcheck_snapshot_replay_stable =
  QCheck.Test.make ~name:"snapshot byte-identical under schedule replay"
    ~count:25
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let seed = Int64.of_int seed in
      let stack = build_stack ~seed in
      let telemetry = Collector.attach ~window:128 stack.Scenario.rt in
      let policy = Scenario.degraded_policy ~n:3 ~timely:[ 1; 2 ] () in
      Runtime.run stack.Scenario.rt ~policy ~steps:3_000;
      let sched = Trace.schedule (Runtime.trace stack.Scenario.rt) in
      let original = Collector.snapshot_string telemetry in
      Runtime.stop stack.Scenario.rt;
      let stack' = build_stack ~seed in
      let telemetry' = Collector.attach ~window:128 stack'.Scenario.rt in
      Runtime.run stack'.Scenario.rt ~policy:(Policy.replay sched)
        ~steps:3_000;
      let replayed = Collector.snapshot_string telemetry' in
      Runtime.stop stack'.Scenario.rt;
      String.equal original replayed)

(* --- merge tie-break ------------------------------------------------------ *)

(* Collector.merge interleaves step-sorted event lists chronologically;
   on EQUAL steps the first argument's events come first. That argument-
   order tie-break (not domain completion order) is what makes pooled
   matrix telemetry byte-identical at any job count — pin it directly. *)
let test_merge_tie_break_order () =
  let feed changes =
    let c = Collector.create ~n:3 () in
    let sink = Collector.sink c in
    List.iter
      (fun (step, leader) ->
        sink.Sink.on_signal ~step ~pid:leader
          (Sink.Leader_view { leader = Some leader }))
      changes;
    c
  in
  (* same steps in both collectors: every merge point is a tie *)
  let a = feed [ 10, 0; 20, 1 ] in
  let b = feed [ 10, 2; 20, 0 ] in
  let leaders c =
    List.map (fun e -> e.Collector.le_step, e.Collector.le_leader)
      (Collector.handoffs c)
  in
  Alcotest.(check (list (pair int int)))
    "a's events first on equal steps"
    [ 10, 0; 10, 2; 20, 1; 20, 0 ]
    (leaders (Collector.merge a b));
  Alcotest.(check (list (pair int int)))
    "argument order decides, not content"
    [ 10, 2; 10, 0; 20, 0; 20, 1 ]
    (leaders (Collector.merge b a))

(* --- merge edge cases ------------------------------------------------------ *)

let test_merge_empty_collectors () =
  let a = Collector.create ~n:2 () and b = Collector.create ~n:2 () in
  let m = Collector.merge a b in
  Alcotest.(check int) "no steps" 0 (Collector.total_steps m);
  Alcotest.(check (array int)) "no completions" [| 0; 0 |]
    (Collector.app_completed m);
  Alcotest.(check int) "no handoffs" 0 (List.length (Collector.handoffs m));
  Alcotest.(check bool) "snapshot still renders" true
    (String.length (Collector.snapshot_string m) > 0);
  Alcotest.check_raises "mismatched n rejected"
    (Invalid_argument "Collector.merge: process counts differ")
    (fun () -> ignore (Collector.merge a (Collector.create ~n:3 ())))

(* Merging a shared-memory collector (no net events, zero counters) with
   a message-passing one must keep the net section additive — the world
   aggregate merges whatever shards a run holds. *)
let test_merge_net_section () =
  let sm = Collector.create ~n:2 () in
  let mp = Collector.create ~n:2 () in
  let sink = Collector.sink mp in
  sink.Sink.on_signal ~step:5 ~pid:0
    (Sink.Message { src = 0; dst = 1; latency = 3; dropped = false });
  sink.Sink.on_signal ~step:6 ~pid:1
    (Sink.Message { src = 1; dst = 0; latency = 2; dropped = true });
  List.iter
    (fun m ->
      Alcotest.(check int) "sent sums" 2 (Collector.net_sent m);
      Alcotest.(check int) "dropped sums" 1 (Collector.net_dropped m);
      Alcotest.(check int) "only delivered latencies" 1
        (Quantile.count (Collector.net_latency m)))
    [ Collector.merge sm mp; Collector.merge mp sm ]

(* --- v2 stream schema golden ---------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let stream_schema_golden () =
  (* dune runtest runs with cwd = _build/default/test; `dune exec` from
     the repo root does not. *)
  match
    List.find_opt Sys.file_exists
      [ "golden/telemetry_stream.schema"; "test/golden/telemetry_stream.schema" ]
  with
  | Some p -> read_file p
  | None -> Alcotest.fail "telemetry_stream.schema golden not found"

let test_stream_schema_pinned () =
  let stack = build_stack ~seed:42L in
  let rt = stack.Scenario.rt in
  let telemetry = Collector.attach ~window:256 rt in
  let tm = Tbwf_check.Tail_monitor.create ~n:3 ~window:2000 () in
  Runtime.set_sink rt
    (Sink.tee (Tbwf_check.Tail_monitor.sink tm) (Collector.sink telemetry));
  let last = ref None in
  Collector.emit_every telemetry ~every:2000
    ~extra:(fun ~window:_ ->
      [ "tail_monitor", Tbwf_check.Tail_monitor.to_json tm ])
    (fun record -> last := Some record);
  Runtime.run rt ~policy:(Policy.round_robin ()) ~steps:6_000;
  Collector.stream_flush telemetry;
  Runtime.stop rt;
  match !last with
  | None -> Alcotest.fail "no stream record emitted"
  | Some record ->
    Alcotest.(check string) "tbwf-telemetry/v2 record schema"
      (stream_schema_golden ())
      (Json.schema_string record)

(* --- bounded live memory --------------------------------------------------- *)

(* The long-horizon configuration (no trace recording, a retained rate
   series, capped event lists, fixed-size sketches) must hold the
   collector's live words flat: 10x the steps, no growth. This is the
   invariant that lets a catalogue world run tens of millions of steps
   in a few dozen MB. *)
let live_words_after steps =
  let n = 4 in
  let stack =
    Tbwf_system.System.build ~seed:11L ~record_trace:false ~telemetry:true
      ~telemetry_window:256 ~telemetry_retain:64 ~n
      Tbwf_system.System.Tbwf_atomic
  in
  let rt = stack.Tbwf_system.System.rt in
  let telemetry = Option.get stack.Tbwf_system.System.telemetry in
  Runtime.run rt
    ~policy:(Scenario.degraded_policy ~n ~timely:[ 1; 2; 3 ] ())
    ~steps;
  Runtime.stop rt;
  Obj.reachable_words (Obj.repr telemetry)

let test_bounded_live_words () =
  let short = live_words_after 100_000 in
  let long = live_words_after 1_000_000 in
  Alcotest.(check bool)
    (Fmt.str "live words bounded (%d @ 100k steps, %d @ 1M)" short long)
    true
    (long <= short + (short / 10))

let () =
  Alcotest.run "telemetry"
    [
      ( "series",
        [
          Alcotest.test_case "windows" `Quick test_series_windows;
          Alcotest.test_case "growth" `Quick test_series_growth;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "exact small values" `Quick
            test_quantile_exact_small;
          Alcotest.test_case "relative error bound" `Quick
            test_quantile_error_bound;
          QCheck_alcotest.to_alcotest qcheck_quantile_merge_algebra;
          Alcotest.test_case "bucket_of at power-of-two edges" `Quick
            test_quantile_bucket_edges;
          QCheck_alcotest.to_alcotest qcheck_quantile_bucket_random;
        ] );
      ( "span",
        [
          Alcotest.test_case "latency and streaks" `Quick
            test_span_latency_and_streaks;
          Alcotest.test_case "contention windows" `Quick test_span_contention;
          QCheck_alcotest.to_alcotest qcheck_span_contention_model;
          QCheck_alcotest.to_alcotest qcheck_span_stack_model;
          QCheck_alcotest.to_alcotest qcheck_span_stack_model_leaky;
          Alcotest.test_case "orphan respond ignored" `Quick
            test_span_orphan_respond;
        ] );
      ( "json",
        [
          Alcotest.test_case "printing" `Quick test_json_printing;
          Alcotest.test_case "schema paths" `Quick test_json_schema;
        ] );
      ( "collector",
        [
          Alcotest.test_case "agrees with workload" `Quick
            test_collector_agrees_with_workload;
          Alcotest.test_case "sink lifecycle" `Quick test_sink_lifecycle;
          Alcotest.test_case "deterministic snapshot" `Quick
            test_snapshot_deterministic;
          Alcotest.test_case "merge tie-break order" `Quick
            test_merge_tie_break_order;
          Alcotest.test_case "merge of empty collectors" `Quick
            test_merge_empty_collectors;
          Alcotest.test_case "merge net section (SM vs MP)" `Quick
            test_merge_net_section;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "v2 record schema pinned" `Quick
            test_stream_schema_pinned;
          Alcotest.test_case "bounded live words over 1M steps" `Slow
            test_bounded_live_words;
        ] );
      ( "replay",
        [ QCheck_alcotest.to_alcotest qcheck_snapshot_replay_stable ] );
    ]
