(* Long-horizon soak CLI: many independent shards, each a (system,
   campaign) cell from the nemesis catalogue run for a long horizon with
   the memory-bounded telemetry configuration — no trace recording, a
   ring-buffered rate series, streaming v2 JSONL snapshots, and the
   online degradation checker standing in for the post-hoc one (there is
   no trace to check post hoc).

   Output contract: stdout carries the deterministic artifact — every
   shard's JSONL stream in shard order, then one tbwf-soak/v1 aggregate
   record — and is byte-identical for any --jobs value (shards fan out
   over a Pool, which merges in canonical task order). Wall-clock
   numbers (per-shard seconds, ops/sec) go to stderr only. *)

open Cmdliner
open Tbwf_sim
open Tbwf_check
open Tbwf_nemesis
open Tbwf_telemetry

let soak_schema_version = "tbwf-soak/v1"

(* Shard i runs system (i mod |systems|) under campaign
   (i / |systems|) mod |catalogue| — systems-major, so any shard count
   covers the systems as evenly as possible. *)
let shard_cell ~shard =
  let systems = Array.of_list Campaign.all_systems in
  let catalogue = Array.of_list Campaign.catalogue in
  let system = systems.(shard mod Array.length systems) in
  let campaign =
    catalogue.(shard / Array.length systems mod Array.length catalogue)
  in
  system, campaign

type shard_result = {
  sr_shard : int;
  sr_system : Campaign.system;
  sr_campaign : string;
  sr_jsonl : string;  (* the shard's v2 stream, one record per line *)
  sr_telemetry : Collector.t;
  sr_verdict : Tbwf_check.Degradation.verdict;
  sr_expected_fail : bool;
  sr_seconds : float;
  sr_rss_kb : int option;
      (* process VmHWM when the shard finished: host diagnostics for
         stderr, never part of the stdout artifact *)
}

let run_shard ~shard ~n ~horizon ~every ~window ~retain ~master_seed =
  let start = Unix.gettimeofday () in
  let system, campaign = shard_cell ~shard in
  let plan = Campaign.plan campaign ~n ~horizon in
  let seed = Rng.task_seed ~master:master_seed shard in
  let qa_policy =
    Fault_plan.abort_policy plan ~target:Fault_plan.Qa
      ~base:Tbwf_registers.Abort_policy.Always
  in
  let mesh_policy =
    Fault_plan.abort_policy plan ~target:Fault_plan.Omega_mesh
      ~base:Tbwf_registers.Abort_policy.Always
  in
  let stack =
    Tbwf_system.System.build ~seed ~record_trace:false ~qa_policy ~mesh_policy
      ~telemetry:true ~telemetry_window:window ~telemetry_retain:retain ~n
      system
  in
  let rt = stack.Tbwf_system.System.rt in
  let telemetry = Option.get stack.Tbwf_system.System.telemetry in
  Fault_plan.install_crashes plan rt;
  (* The verdict comes from the online checker alone, since trace
     recording is off. *)
  let _, prediction, min_ops =
    Campaign.tail_contract ~substrate:Tbwf_system.System.Shared_memory plan
  in
  let online = Degradation.Online.create ~min_ops prediction in
  let tm = Tail_monitor.create ~n ~window:every () in
  (* Tee order fixes what each record sees: the monitor (first) has
     closed exactly the record's window, the collector (second) emits,
     the checker (last) has consumed exactly the covered steps. *)
  Runtime.set_sink rt
    (Sink.tee (Tail_monitor.sink tm)
       (Sink.tee (Collector.sink telemetry) (Degradation.Online.sink online)));
  let buf = Buffer.create 4096 in
  Collector.emit_every telemetry ~every
    ~extra:(fun ~window:_ ->
      [
        "shard", Json.Int shard;
        "system", Json.Str (Campaign.system_name system);
        "campaign", Json.Str (Campaign.name campaign);
        ( "verdict",
          Degradation.verdict_json (Degradation.Online.verdict online) );
        "tail_monitor", Tail_monitor.to_json tm;
      ])
    (fun record ->
      Buffer.add_string buf (Json.to_string record);
      Buffer.add_char buf '\n');
  Runtime.run rt ~policy:(Fault_plan.policy plan) ~steps:horizon;
  Collector.stream_flush telemetry;
  let verdict = Degradation.Online.verdict online in
  Runtime.stop rt;
  {
    sr_shard = shard;
    sr_system = system;
    sr_campaign = Campaign.name campaign;
    sr_jsonl = Buffer.contents buf;
    sr_telemetry = telemetry;
    sr_verdict = verdict;
    sr_expected_fail = List.mem system (Campaign.expect_fail campaign);
    sr_seconds = Unix.gettimeofday () -. start;
    sr_rss_kb = Resource.peak_rss_kb ();
  }

(* The aggregate record: per-system merged telemetry (collectors merge
   in shard order, so the aggregate is order-fixed), completion-time
   tails of the app layer, epoch churn, and the verdict tally. *)
let aggregate ~n ~horizon ~every ~shards results =
  let by_system sys =
    List.filter (fun r -> r.sr_system = sys) results
  in
  let quantile_json q =
    Json.Obj
      [
        "count", Json.Int (Quantile.count q);
        "p50", Json.Int (Quantile.p50 q);
        "p99", Json.Int (Quantile.p99 q);
        "p999", Json.Int (Quantile.p999 q);
        "max", Json.Int (Quantile.max_value q);
      ]
  in
  let systems =
    List.filter_map
      (fun sys ->
        match by_system sys with
        | [] -> None
        | rs ->
          let merged =
            Collector.merge_all (List.map (fun r -> r.sr_telemetry) rs)
          in
          let completed =
            Array.fold_left ( + ) 0 (Collector.app_completed merged)
          in
          let holds =
            List.length
              (List.filter
                 (fun r -> r.sr_verdict.Tbwf_check.Degradation.holds)
                 rs)
          in
          let as_expected =
            List.for_all
              (fun r ->
                r.sr_verdict.Tbwf_check.Degradation.holds
                = not r.sr_expected_fail)
              rs
          in
          Some
            (Json.Obj
               [
                 "system", Json.Str (Campaign.system_name sys);
                 "shards", Json.Int (List.length rs);
                 "steps", Json.Int (Collector.total_steps merged);
                 "completed", Json.Int completed;
                 ( "app_tail",
                   quantile_json
                     (Span.tail_of (Collector.spans merged) Sink.App) );
                 "leader_epochs", Json.Int (Collector.leader_epochs merged);
                 "verdict_holds", Json.Int holds;
                 "as_expected", Json.Bool as_expected;
               ])
          )
      Campaign.all_systems
  in
  let all_as_expected =
    List.for_all
      (fun r ->
        r.sr_verdict.Tbwf_check.Degradation.holds = not r.sr_expected_fail)
      results
  in
  Json.Obj
    [
      "schema", Json.Str soak_schema_version;
      "shards", Json.Int shards;
      "n", Json.Int n;
      "horizon_per_shard", Json.Int horizon;
      "every", Json.Int every;
      ( "total_steps",
        Json.Int
          (List.fold_left
             (fun acc r -> acc + Collector.total_steps r.sr_telemetry)
             0 results) );
      "systems", Json.Arr systems;
      "all_as_expected", Json.Bool all_as_expected;
    ]

let soak shards steps every window retain n seed jobs =
  let every = match every with Some e -> e | None -> max 1 (steps / 8) in
  match
    List.find_opt fst
      [
        shards < 1, "--shards";
        steps < 1, "--steps";
        every < 1, "--every";
        window < 1, "--window";
        retain < 1, "--retain";
      ]
  with
  | Some (_, flag) ->
    Fmt.epr "%s must be positive@." flag;
    2
  | None ->
    let master_seed = Int64.of_int seed in
    let pool = Tbwf_parallel.Pool.create ~domains:jobs () in
    let start = Unix.gettimeofday () in
    let results =
      Tbwf_parallel.Pool.map pool
        (Array.init shards (fun i -> i))
        (fun shard ->
          run_shard ~shard ~n ~horizon:steps ~every ~window ~retain
            ~master_seed)
      |> Array.to_list
    in
    let wall = Unix.gettimeofday () -. start in
    (* rss is the process VmHWM when the shard finished — the shard
       whose line first shows a jump is the one that pushed the
       high-water mark *)
    List.iter
      (fun r ->
        print_string r.sr_jsonl;
        Fmt.epr "shard %2d %-16s %-12s %s %6.2fs%s@." r.sr_shard
          (Campaign.system_name r.sr_system)
          r.sr_campaign
          (if r.sr_verdict.Tbwf_check.Degradation.holds then "holds"
           else "fails")
          r.sr_seconds
          (match r.sr_rss_kb with
          | Some kb -> Fmt.str " rss %d kB" kb
          | None -> ""))
      results;
    let agg = aggregate ~n ~horizon:steps ~every ~shards results in
    print_string (Json.to_string agg);
    print_newline ();
    let total_ops =
      List.fold_left
        (fun acc r ->
          acc
          + Array.fold_left ( + ) 0
              (Collector.app_completed r.sr_telemetry))
        0 results
    in
    Fmt.epr "%d shards x %d steps in %.2fs wall (%.0f steps/s, %.0f ops/s)@."
      shards steps wall
      (float_of_int (shards * steps) /. wall)
      (float_of_int total_ops /. wall);
    let all_ok =
      List.for_all
        (fun r ->
          r.sr_verdict.Tbwf_check.Degradation.holds
          = not r.sr_expected_fail)
        results
    in
    if all_ok then 0 else 1

(* --- cmdliner wiring ------------------------------------------------------ *)

let shards_arg =
  Arg.(value & opt int 10
       & info [ "shards" ] ~docv:"N"
           ~doc:"Independent (system, campaign) shards to run; shard i \
                 runs system (i mod 5) under catalogue campaign \
                 ((i / 5) mod 6).")

let steps_arg =
  Arg.(value & opt int 1_000_000
       & info [ "steps" ] ~docv:"STEPS" ~doc:"Horizon per shard, in steps.")

let every_arg =
  Arg.(value & opt (some int) None
       & info [ "every" ] ~docv:"STEPS"
           ~doc:"Streaming snapshot cadence per shard (default: steps/8).")

let window_arg =
  Arg.(value & opt int 1024
       & info [ "window" ] ~docv:"STEPS"
           ~doc:"Telemetry rate-series window, in steps.")

let retain_arg =
  Arg.(value & opt int 64
       & info [ "retain" ] ~docv:"WINDOWS"
           ~doc:"Rate-series windows kept live per shard (older windows \
                 fold into exact totals) — the memory bound.")

let n_arg =
  Arg.(value & opt int 4
       & info [ "n" ] ~docv:"N" ~doc:"Processes per shard.")

let seed_arg =
  Arg.(value & opt int 0x50AC
       & info [ "seed" ] ~docv:"SEED"
           ~doc:"Master seed; shard i runs with the split seed \
                 task_seed(master, i).")

let jobs_arg =
  Arg.(value & opt int (Tbwf_parallel.Pool.default_domains ())
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Domains to fan shards out over (stdout is byte-identical \
                 for any value; 1 disables domains).")

let cmd =
  let doc =
    "long-horizon soak: catalogue campaigns at large step counts with \
     memory-bounded telemetry, streaming JSONL snapshots and online \
     degradation verdicts"
  in
  Cmd.v (Cmd.info "tbwf_soak" ~doc)
    Term.(
      const soak $ shards_arg $ steps_arg $ every_arg $ window_arg
      $ retain_arg $ n_arg $ seed_arg $ jobs_arg)

let () = exit (Cmd.eval' cmd)
