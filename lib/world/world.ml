open Tbwf_sim
open Tbwf_core
open Tbwf_check
open Tbwf_nemesis
open Tbwf_telemetry
module System = Tbwf_system.System

let schema_version = "tbwf-world/v2"

type cells = Churn | Catalogue

type config = {
  cells : cells;
  shards : int;
  n : int;
  joiners : int;
  leavers : int;
  retire_fraction : float;
  horizon : int;
  every : int option;
  window : int;
  retain : int option;
  systems : System.id list;
  substrate : System.substrate;
  profile : Workload.Open_loop.profile;
  seed : int64;
}

(* Cell size and horizon are coupled: the canonical Fig-7 protocol
   completes about one operation per Ω∆ election cycle, rotated across
   the cell's candidates, so the per-pid completion rate falls roughly
   as 1/(n * cycle) — a bigger cell needs a proportionally longer
   horizon before the verdict's tail floor is honest. The default is
   small cells, and a mean arrival gap well above the service time:
   a world that saturates every cell turns the QA abort/query recovery
   into a livelock lottery, which is the campaign layer's experiment
   to run deliberately, not the world's default. *)
let default =
  {
    cells = Churn;
    shards = 8;
    n = 4;
    joiners = 1;
    leavers = 1;
    retire_fraction = 0.5;
    horizon = 24_000;
    every = None;
    window = 1024;
    retain = Some 64;
    systems = System.paper_systems;
    substrate = System.Shared_memory;
    profile = { Workload.Open_loop.mean_gap = 600.0; keys = 64; zipf = 1.1 };
    seed = 0x574F_524CL (* "WORL" *);
  }

let validate c =
  let fail fmt = Format.kasprintf invalid_arg ("World: " ^^ fmt) in
  if c.shards < 1 then fail "shards must be positive (got %d)" c.shards;
  if c.n < 2 then fail "n must be at least 2 (got %d)" c.n;
  if c.cells = Churn then begin
    if c.joiners < 0 || c.joiners >= c.n then
      fail "joiners must be in [0, n) (got %d of n=%d)" c.joiners c.n;
    (* at least one initially-active pid must stay for the whole run, so
       the cell always has a member the verdict can anchor on *)
    if c.leavers < 0 || c.leavers > c.n - c.joiners - 1 then
      fail
        "leavers must be in [0, n - joiners - 1] (got %d of n=%d, joiners=%d)"
        c.leavers c.n c.joiners;
    if c.retire_fraction < 0.0 || c.retire_fraction > 1.0 then
      fail "retire_fraction must be in [0, 1] (got %g)" c.retire_fraction;
    Workload.Open_loop.validate c.profile
  end;
  if c.horizon < 8 then fail "horizon must be at least 8 (got %d)" c.horizon;
  (match c.every with
  | Some e when e < 1 -> fail "every must be positive (got %d)" e
  | _ -> ());
  if c.window < 1 then fail "window must be positive (got %d)" c.window;
  (match c.retain with
  | Some r when r < 1 -> fail "retain must be positive (got %d)" r
  | _ -> ());
  if c.systems = [] then fail "systems must be non-empty"

(* Systems-major: shard i runs system (i mod |systems|) and, in a
   catalogue world, campaign (i / |systems|) mod |catalogue|, so any
   shard count covers the systems as evenly as possible. *)
let shard_cell c ~shard =
  let systems = List.length c.systems in
  let system = List.nth c.systems (shard mod systems) in
  match c.cells with
  | Churn -> system, None
  | Catalogue ->
    let campaigns = List.length Campaign.catalogue in
    system, Some (List.nth Campaign.catalogue (shard / systems mod campaigns))

type churn = {
  ch_joins : (int * int) list;
  ch_leaves : (int * int * bool) list;
}

(* The churn stream is a private split of the shard seed: the cell's own
   rng (scheduling) and object rng must not move when the churn knobs
   do, or a churn-free world would not be comparable to a churned one at
   the same seed. *)
let churn_stream_salt = 0x6368_7572_6e21L (* "churn!" *)

let churn_schedule c ~shard =
  match c.cells with
  | Catalogue -> { ch_joins = []; ch_leaves = [] }
  | Churn ->
    let shard_seed = Rng.task_seed ~master:c.seed shard in
    let rng = Rng.create (Int64.logxor shard_seed churn_stream_salt) in
    let h = c.horizon in
    (* joiners are the top pids: capacity-membership keeps the initially
       active prefix dense, which keeps the per-pid arrays readable *)
    let joins =
      List.init c.joiners (fun i ->
          c.n - c.joiners + i, (h / 8) + Rng.int rng (max 1 (h / 4)))
    in
    (* leavers come from the initially-active pids, except pid 0: the
       shuffle picks which ones, the draw order fixes when. Keeping pid 0
       is the validated "at least one stable member" anchor. *)
    let eligible = Array.init (c.n - c.joiners - 1) (fun i -> i + 1) in
    Rng.shuffle rng eligible;
    (* the leave window ends at h/2: a crash just before the verdict tail
       would charge the re-election turbulence to the tail, which is the
       campaign layer's experiment, not the world's *)
    let leaves =
      List.init c.leavers (fun i ->
          ( eligible.(i),
            (h / 4) + Rng.int rng (max 1 (h / 4)),
            Rng.bool rng c.retire_fraction ))
    in
    { ch_joins = joins; ch_leaves = leaves }

(* Leaves and catalogue faults alike become one fault plan, so
   prediction, policy and installation all run through the one nemesis
   pipeline; joins are not faults and stay a runtime affair
   ({!Runtime.spawn_at}). *)
let plan_of c ~churn campaign =
  let replicas =
    match c.substrate with
    | System.Shared_memory -> 0
    | System.Message_passing config -> config.Tbwf_net.Net.replicas
  in
  let atoms =
    match campaign with
    | Some campaign ->
      Fault_plan.atoms (Campaign.plan campaign ~n:c.n ~horizon:c.horizon)
    | None ->
      List.map
        (fun (pid, at, retires) ->
          if retires then Fault_plan.Retire { pid; at }
          else Fault_plan.Crash { pid; at })
        churn.ch_leaves
  in
  Fault_plan.make ~replicas ~n:c.n ~horizon:c.horizon atoms

(* Alternating writes and reads over the drawn Zipf key: every pid
   exercises both paths, and the hot keys contend across the cell. *)
let op_of_key ~pid ~k ~key =
  let name = "k" ^ string_of_int key in
  if k land 1 = 0 then Tbwf_objects.Kv_store.put name (Value.Int pid)
  else Tbwf_objects.Kv_store.get name

type shard_result = {
  ws_shard : int;
  ws_system : System.id;
  ws_campaign : Campaign.t option;
  ws_plan : Fault_plan.t;
  ws_expect_holds : bool;
  ws_jsonl : string;
  ws_telemetry : Collector.t;
  ws_verdict : Degradation.verdict;
  ws_churn : churn;
  ws_completed : int;
  ws_seconds : float;
}

let run_shard c ~shard =
  let start = Unix.gettimeofday () in
  let system, campaign = shard_cell c ~shard in
  let shard_seed = Rng.task_seed ~master:c.seed shard in
  let churn = churn_schedule c ~shard in
  let plan = plan_of c ~churn campaign in
  let abort_policy target =
    Fault_plan.abort_policy plan ~target
      ~base:Tbwf_registers.Abort_policy.Always
  in
  (* A churn cell is a key-value store whose clients the world spawns; a
     catalogue cell keeps the registry's stock closed-loop counter
     clients on every pid. *)
  let spec, client_pids =
    match campaign with
    | None -> Some Tbwf_objects.Kv_store.spec, Some []
    | Some _ -> None, None
  in
  let stack =
    System.build ~substrate:c.substrate ~seed:shard_seed ~record_trace:false
      ~qa_policy:(abort_policy Fault_plan.Qa)
      ~mesh_policy:(abort_policy Fault_plan.Omega_mesh)
      ?spec ?client_pids ~telemetry:true ~telemetry_window:c.window
      ?telemetry_retain:c.retain ~n:c.n system
  in
  let rt = stack.System.rt in
  let telemetry = Option.get stack.System.telemetry in
  if Option.is_none campaign then begin
    (* Initially-active members drive open-loop traffic from step 0; each
       joiner's client is the same body deferred to its join step. The Ω∆
       mesh installed by [build] covers all [n] pids either way — a joiner
       is a dormant but timely member until its client wakes. *)
    let initial = List.init (c.n - c.joiners) Fun.id in
    Workload.Open_loop.spawn_clients rt ~pids:initial ~stats:stack.System.stats
      ~invoke:stack.System.invoke ~profile:c.profile ~seed:shard_seed
      ~until:c.horizon ~op_of_key;
    List.iter
      (fun (pid, at) ->
        Runtime.spawn_at ~layer:Sink.App rt ~pid ~at ~name:"open-loop"
          (Workload.Open_loop.client_body rt ~pid ~stats:stack.System.stats
             ~invoke:stack.System.invoke ~profile:c.profile ~seed:shard_seed
             ~until:c.horizon ~op_of_key))
      churn.ch_joins
  end;
  Fault_plan.install_crashes plan rt;
  let _, prediction, min_ops =
    Campaign.tail_contract ~substrate:c.substrate plan
  in
  let online = Degradation.Online.create ~min_ops prediction in
  let checked =
    Sink.tee (Collector.sink telemetry) (Degradation.Online.sink online)
  in
  let buf = Buffer.create 256 in
  (match c.every with
  | None -> Runtime.set_sink rt checked
  | Some every ->
    (* Tee order fixes what each record sees: the monitor (first) has
       closed exactly the record's window, the collector (second) emits,
       the checker (last) has consumed exactly the covered steps. *)
    let tm = Tail_monitor.create ~n:c.n ~window:every () in
    Runtime.set_sink rt (Sink.tee (Tail_monitor.sink tm) checked);
    let campaign_field =
      match campaign with
      | Some campaign -> [ "campaign", Json.Str (Campaign.name campaign) ]
      | None -> []
    in
    Collector.emit_every telemetry ~every
      ~extra:(fun ~window:_ ->
        [
          "shard", Json.Int shard;
          "system", Json.Str (System.to_string system);
        ]
        @ campaign_field
        @ [
            ( "verdict",
              Degradation.verdict_json (Degradation.Online.verdict online) );
            "tail_monitor", Tail_monitor.to_json tm;
          ])
      (fun record ->
        Buffer.add_string buf (Json.to_string record);
        Buffer.add_char buf '\n'));
  Runtime.run rt ~policy:(Fault_plan.policy plan) ~steps:c.horizon;
  if c.every <> None then Collector.stream_flush telemetry;
  let verdict = Degradation.Online.verdict online in
  Runtime.stop rt;
  {
    ws_shard = shard;
    ws_system = system;
    ws_campaign = campaign;
    ws_plan = plan;
    ws_expect_holds =
      (match campaign with
      | Some campaign -> not (List.mem system (Campaign.expect_fail campaign))
      | None -> true);
    ws_jsonl = Buffer.contents buf;
    ws_telemetry = telemetry;
    ws_verdict = verdict;
    ws_churn = churn;
    ws_completed =
      Array.fold_left ( + ) 0 (Collector.app_completed telemetry);
    ws_seconds = Unix.gettimeofday () -. start;
  }

type summary = {
  sum_json : Json.t;
  sum_as_predicted : bool;
  sum_holds : int;
  sum_completed : int;
  sum_steps : int;
}

(* Per-system tallies small enough to keep for the whole world; the
   collectors themselves fold into one running merge and are dropped. *)
type per_system = {
  mutable py_shards : int;
  mutable py_completed : int;
  mutable py_holds : int;
  mutable py_as_predicted : int;
}

type agg = {
  mutable merged : Collector.t option;
  epoch_sketch : Quantile.t;  (* per-shard leader-epoch churn *)
  by_system : (System.id * per_system) list;
  mutable holds : int;
  mutable as_predicted : int;
  mutable joins : int;
  mutable planned_retires : int;
  mutable planned_crashes : int;
}

(* The batch size is a fixed constant — independent of the pool — so
   the fold order (shard order) and hence the aggregate are
   byte-identical for any --jobs value; it only bounds how many shard
   results are live at once. Small enough that the in-flight batch of
   collectors stays within the streaming memory contract (a world run's
   live heap must not outgrow a handful of shards), large enough to
   keep every pool domain fed. *)
let batch_size = 32

let fold_shard agg r =
  agg.merged <-
    (match agg.merged with
    | None -> Some r.ws_telemetry
    | Some m -> Some (Collector.merge m r.ws_telemetry));
  Quantile.observe agg.epoch_sketch (Collector.leader_epochs r.ws_telemetry);
  let py = List.assoc r.ws_system agg.by_system in
  let holds = r.ws_verdict.Degradation.holds in
  py.py_shards <- py.py_shards + 1;
  py.py_completed <- py.py_completed + r.ws_completed;
  if holds then begin
    py.py_holds <- py.py_holds + 1;
    agg.holds <- agg.holds + 1
  end;
  if holds = r.ws_expect_holds then begin
    py.py_as_predicted <- py.py_as_predicted + 1;
    agg.as_predicted <- agg.as_predicted + 1
  end;
  agg.joins <- agg.joins + List.length r.ws_churn.ch_joins;
  List.iter
    (function
      | Fault_plan.Retire _ -> agg.planned_retires <- agg.planned_retires + 1
      | Fault_plan.Crash _ -> agg.planned_crashes <- agg.planned_crashes + 1
      | _ -> ())
    (Fault_plan.atoms r.ws_plan)

let summary_json c agg =
  let merged =
    match agg.merged with
    | Some m -> m
    | None -> assert false (* shards >= 1 is validated *)
  in
  let total_steps = Collector.total_steps merged in
  let completed = Array.fold_left ( + ) 0 (Collector.app_completed merged) in
  (* A sim-time rate: ops per 100k simulated steps. Wall-clock ops/sec
     would poison the artifact's determinism; it goes to stderr. *)
  let per_100k =
    if total_steps = 0 then 0 else completed * 100_000 / total_steps
  in
  let systems =
    List.filter_map
      (fun (sys, py) ->
        if py.py_shards = 0 then None
        else
          Some
            (Json.Obj
               [
                 "system", Json.Str (System.to_string sys);
                 "shards", Json.Int py.py_shards;
                 "completed", Json.Int py.py_completed;
                 "verdict_holds", Json.Int py.py_holds;
                 "as_predicted", Json.Int py.py_as_predicted;
               ]))
      agg.by_system
  in
  Json.Obj
    [
      "schema", Json.Str schema_version;
      ( "cells",
        Json.Str
          (match c.cells with Churn -> "churn" | Catalogue -> "catalogue") );
      "shards", Json.Int c.shards;
      "n", Json.Int c.n;
      "total_processes", Json.Int (c.shards * c.n);
      "horizon_per_shard", Json.Int c.horizon;
      ( "profile",
        Json.Obj
          [
            "mean_gap", Json.Float c.profile.Workload.Open_loop.mean_gap;
            "keys", Json.Int c.profile.Workload.Open_loop.keys;
            "zipf", Json.Float c.profile.Workload.Open_loop.zipf;
          ] );
      ( "steps",
        Json.Obj
          [
            "total", Json.Int total_steps;
            "idle", Json.Int (Collector.idle_steps merged);
          ] );
      ( "ops",
        Json.Obj
          [
            "completed", Json.Int completed;
            "per_100k_steps", Json.Int per_100k;
          ] );
      ( "app_tail",
        Quantile.to_json (Span.tail_of (Collector.spans merged) Sink.App) );
      ( "leader_epochs",
        Json.Obj
          [
            "total", Json.Int (Collector.leader_epochs merged);
            "per_shard", Quantile.to_json agg.epoch_sketch;
          ] );
      ( "churn",
        Json.Obj
          [
            "joins", Json.Int agg.joins;
            "planned_retires", Json.Int agg.planned_retires;
            "planned_crashes", Json.Int agg.planned_crashes;
            "observed_retires", Json.Int (Collector.retire_count merged);
            "observed_crashes", Json.Int (Collector.crash_count merged);
          ] );
      "systems", Json.Arr systems;
      "verdict_holds", Json.Int agg.holds;
      "as_predicted", Json.Int agg.as_predicted;
      "all_as_predicted", Json.Bool (agg.as_predicted = c.shards);
    ]

let run ?pool ?(on_shard = fun _ -> ()) c =
  validate c;
  let agg =
    {
      merged = None;
      epoch_sketch = Quantile.create ();
      by_system =
        List.map
          (fun sys ->
            ( sys,
              {
                py_shards = 0;
                py_completed = 0;
                py_holds = 0;
                py_as_predicted = 0;
              } ))
          c.systems;
      holds = 0;
      as_predicted = 0;
      joins = 0;
      planned_retires = 0;
      planned_crashes = 0;
    }
  in
  let run_batch from count =
    let shards = Array.init count (fun i -> from + i) in
    let results =
      match pool with
      | Some pool when Tbwf_parallel.Pool.domains pool > 1 ->
        Tbwf_parallel.Pool.map pool shards (fun shard -> run_shard c ~shard)
      | _ -> Array.map (fun shard -> run_shard c ~shard) shards
    in
    Array.iter
      (fun r ->
        on_shard r;
        fold_shard agg r)
      results
  in
  let rec go from =
    if from < c.shards then begin
      run_batch from (min batch_size (c.shards - from));
      go (from + batch_size)
    end
  in
  go 0;
  let merged = Option.get agg.merged in
  {
    sum_json = summary_json c agg;
    sum_as_predicted = agg.as_predicted = c.shards;
    sum_holds = agg.holds;
    sum_completed = Array.fold_left ( + ) 0 (Collector.app_completed merged);
    sum_steps = Collector.total_steps merged;
  }
