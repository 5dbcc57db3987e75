(* World CLI: the one sharded front-end over lib/world. --cells churn
   (the default) runs independent cells under open-loop traffic with
   client churn; --cells catalogue runs (system, campaign) cells from the
   nemesis catalogue at long horizons with online verdicts, streaming a
   tail monitor's state alongside each record.

   Output contract: stdout carries the deterministic artifact — every
   shard's JSONL stream in shard order (when --every is given), then one
   tbwf-world/v2 aggregate record — and is byte-identical for any --jobs
   value. Wall-clock throughput, per-shard timings and peak-RSS
   diagnostics go to stderr only. Exit 0 iff every shard's verdict
   matches its cell's prediction.

   Memory is bounded by construction: lib/world folds each shard's
   collector into a running merge and drops it, so a
   half-million-process world (e.g. --shards 65536 --n 8) runs in the
   footprint of one in-flight batch. *)

open Cmdliner
open Tbwf_check
open Tbwf_telemetry
module System = Tbwf_system.System
module Campaign = Tbwf_nemesis.Campaign
module World = Tbwf_world.World

let substrate_of = function
  | `Shared_memory -> System.Shared_memory
  | `Message_passing -> System.Message_passing Tbwf_net.Net.default_config

let world cells shards n joiners leavers retire_fraction steps every window
    retain mean_gap keys zipf substrate system seed jobs =
  let systems =
    match system, cells with
    | None, World.Churn -> System.paper_systems
    | None, World.Catalogue -> System.all
    | Some name, _ -> (
      match System.of_string name with
      | Ok sys -> [ sys ]
      | Error msg ->
        Fmt.epr "--system: %s@." msg;
        exit 2)
  in
  let steps =
    match steps, cells with
    | Some steps, _ -> steps
    | None, World.Churn -> World.default.World.horizon
    | None, World.Catalogue -> snd (Campaign.dimensions ~quick:true)
  in
  let config =
    {
      World.cells;
      shards;
      n;
      joiners;
      leavers;
      retire_fraction;
      horizon = steps;
      every;
      window;
      retain = Some retain;
      systems;
      substrate = substrate_of substrate;
      profile = { Tbwf_core.Workload.Open_loop.mean_gap; keys; zipf };
      seed = Int64.of_int seed;
    }
  in
  match World.validate config with
  | exception Invalid_argument msg ->
    Fmt.epr "%s@." msg;
    2
  | () ->
    let pool = Tbwf_parallel.Pool.create ~domains:jobs () in
    let start = Unix.gettimeofday () in
    (* Per-shard stderr lines are only worth reading at small scale; a
       big world gets a progress line per thousand shards instead. A
       shard whose verdict misses its prediction is named at any scale,
       so every failure can be replayed from its line. *)
    let chatty = shards <= 64 in
    let done_shards = ref 0 in
    let on_shard (r : World.shard_result) =
      print_string r.World.ws_jsonl;
      incr done_shards;
      let holds = r.World.ws_verdict.Degradation.holds in
      if chatty || holds <> r.World.ws_expect_holds then begin
        Fmt.epr "shard %4d %-16s %s%s %s ops=%d %6.2fs@." r.World.ws_shard
          (System.to_string r.World.ws_system)
          (if holds then "holds" else "fails")
          (if holds = r.World.ws_expect_holds then "" else " [!]")
          (match r.World.ws_campaign with
          | Some campaign -> Campaign.name campaign
          | None ->
            Fmt.str "joins=%d leaves=%d"
              (List.length r.World.ws_churn.World.ch_joins)
              (List.length r.World.ws_churn.World.ch_leaves))
          r.World.ws_completed r.World.ws_seconds
      end;
      if (not chatty) && !done_shards mod 1024 = 0 then
        Fmt.epr "world %6d/%d shards %7.1fs%s@." !done_shards shards
          (Unix.gettimeofday () -. start)
          (match Resource.peak_rss_kb () with
          | Some kb -> Fmt.str " peak-rss %d kB" kb
          | None -> "")
    in
    let summary = World.run ~pool ~on_shard config in
    let wall = Unix.gettimeofday () -. start in
    print_string (Json.to_string summary.World.sum_json);
    print_newline ();
    Fmt.epr
      "%d shards x %d procs (%d total) x %d steps in %.2fs wall (%.0f \
       steps/s, %.0f ops/s)%s@."
      shards n (shards * n) steps wall
      (float_of_int summary.World.sum_steps /. wall)
      (float_of_int summary.World.sum_completed /. wall)
      (match Resource.peak_rss_kb () with
      | Some kb -> Fmt.str ", peak-rss %d kB" kb
      | None -> "");
    if summary.World.sum_as_predicted then 0 else 1

(* --- cmdliner wiring ------------------------------------------------------ *)

let cells_arg =
  Arg.(value
       & opt (enum [ "churn", World.Churn; "catalogue", World.Catalogue ])
           World.Churn
       & info [ "cells" ] ~docv:"KIND"
           ~doc:"What each shard runs: churn (open-loop KV traffic under \
                 drawn joins and leaves) or catalogue (shard i runs \
                 system (i mod |systems|) under nemesis catalogue \
                 campaign ((i / |systems|) mod 6), with the stock \
                 closed-loop counter clients; exit 0 iff every verdict \
                 matches the campaign's prediction).")

let shards_arg =
  Arg.(value & opt int 8
       & info [ "shards" ] ~docv:"N"
           ~doc:"Independent cells; shard i runs system (i mod |systems|) \
                 with seed task_seed(master, i).")

let n_arg =
  Arg.(value & opt int 4
       & info [ "n" ] ~docv:"N"
           ~doc:"Processes per cell (the cell's capacity).")

let joiners_arg =
  Arg.(value & opt int 1
       & info [ "joiners" ] ~docv:"N"
           ~doc:"Processes per cell that join mid-run (the top pids; \
                 their clients activate at a drawn step).")

let leavers_arg =
  Arg.(value & opt int 1
       & info [ "leavers" ] ~docv:"N"
           ~doc:"Initially-active processes per cell that leave mid-run \
                 (retire or crash); pid 0 always stays.")

let retire_fraction_arg =
  Arg.(value & opt float 0.5
       & info [ "retire-fraction" ] ~docv:"P"
           ~doc:"Probability a leaver retires gracefully rather than \
                 crashing.")

let steps_arg =
  Arg.(value & opt (some int) None
       & info [ "steps" ] ~docv:"STEPS"
           ~doc:"Horizon per shard, in steps (default: 24000 for churn \
                 cells, the quick campaign horizon 96000 for catalogue \
                 cells).")

let every_arg =
  Arg.(value & opt (some int) None
       & info [ "every" ] ~docv:"STEPS"
           ~doc:"Per-shard streaming snapshot cadence; omit to stream \
                 nothing (the aggregate record is always emitted).")

let window_arg =
  Arg.(value & opt int 1024
       & info [ "window" ] ~docv:"STEPS"
           ~doc:"Telemetry rate-series window, in steps.")

let retain_arg =
  Arg.(value & opt int 64
       & info [ "retain" ] ~docv:"WINDOWS"
           ~doc:"Rate-series windows kept live per shard — the per-shard \
                 memory bound.")

let mean_gap_arg =
  Arg.(value & opt float 600.0
       & info [ "mean-gap" ] ~docv:"STEPS"
           ~doc:"Mean open-loop inter-arrival gap, in steps.")

let keys_arg =
  Arg.(value & opt int 64
       & info [ "keys" ] ~docv:"N" ~doc:"Zipf key universe size per cell.")

let zipf_arg =
  Arg.(value & opt float 1.1
       & info [ "zipf" ] ~docv:"S"
           ~doc:"Zipf popularity exponent; 0 is uniform.")

let substrate_arg =
  Arg.(value
       & opt
           (enum
              [
                "shared-memory", `Shared_memory;
                "message-passing", `Message_passing;
              ])
           `Shared_memory
       & info [ "substrate" ] ~docv:"KIND"
           ~doc:"Register substrate per cell: shared-memory or \
                 message-passing (quorum emulation over the default \
                 network).")

let system_arg =
  Arg.(value & opt (some string) None
       & info [ "system" ] ~docv:"NAME"
           ~doc:"Run every shard on one system instead of cycling the \
                 paper systems (churn cells) or all five systems \
                 (catalogue cells).")

let seed_arg =
  Arg.(value & opt int 0x574C
       & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed.")

let jobs_arg =
  Arg.(value & opt int (Tbwf_parallel.Pool.default_domains ())
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Domains to fan shards out over (stdout is byte-identical \
                 for any value; 1 disables domains).")

let cmd =
  let doc =
    "sharded world runs: many independent cells — open-loop \
     Poisson/Zipf traffic with mid-run client churn (joins, graceful \
     retires, crashes), or the nemesis catalogue's fault classes — \
     aggregated into one tbwf-world/v2 record at bounded memory"
  in
  Cmd.v (Cmd.info "tbwf_world" ~doc)
    Term.(
      const world $ cells_arg $ shards_arg $ n_arg $ joiners_arg $ leavers_arg
      $ retire_fraction_arg $ steps_arg $ every_arg $ window_arg $ retain_arg
      $ mean_gap_arg $ keys_arg $ zipf_arg $ substrate_arg $ system_arg
      $ seed_arg $ jobs_arg)

let () = exit (Cmd.eval' cmd)
