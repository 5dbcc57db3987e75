(* Run the experiment suite: all tables from EXPERIMENTS.md, or a single
   experiment by id. Each experiment renders into its own buffer — one
   pool task per experiment — and the buffers print in registry order, so
   stdout is byte-identical at any --jobs value. Wall-clock timings go to
   stderr (they vary run to run by nature). *)

open Cmdliner

let run quick jobs ids =
  let fmt = Fmt.stdout in
  let entries =
    match ids with
    | [] -> List.map Result.ok Tbwf_experiments.Registry.all
    | ids ->
      List.map
        (fun id ->
          match Tbwf_experiments.Registry.find id with
          | Some entry -> Ok entry
          | None -> Error id)
        ids
  in
  let known, unknown =
    List.partition_map
      (function Ok e -> Either.Left e | Error id -> Either.Right id)
      entries
  in
  if unknown <> [] then begin
    List.iter
      (fun id -> Fmt.epr "unknown experiment %S (known: E1..E18)@." id)
      unknown;
    exit 2
  end;
  let pool = Tbwf_parallel.Pool.create ~domains:jobs () in
  let results =
    Tbwf_parallel.Pool.map pool (Array.of_list known) (fun entry ->
        let buf = Buffer.create 4096 in
        let bfmt = Format.formatter_of_buffer buf in
        let start = Unix.gettimeofday () in
        entry.Tbwf_experiments.Registry.run ~quick bfmt;
        Format.pp_print_flush bfmt ();
        Buffer.contents buf, Unix.gettimeofday () -. start)
  in
  let total = ref 0.0 in
  List.iteri
    (fun i entry ->
      let body, elapsed = results.(i) in
      Fmt.pf fmt "@.=== %s: %s ===@." entry.Tbwf_experiments.Registry.id
        entry.Tbwf_experiments.Registry.title;
      Fmt.pf fmt "%s" body;
      Fmt.epr "[%s: %.2fs]@." entry.Tbwf_experiments.Registry.id elapsed;
      total := !total +. elapsed)
    known;
  if List.length known > 1 then Fmt.epr "[total: %.2fs]@." !total;
  Fmt.flush fmt ()

let quick =
  let doc = "Run smaller configurations (seconds instead of minutes)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let jobs =
  let doc =
    "Domains to fan experiments out over (stdout is byte-identical for \
     any value; 1 disables domains)."
  in
  Arg.(value & opt int (Tbwf_parallel.Pool.default_domains ())
       & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let ids =
  let doc = "Experiment ids to run (default: all of E1..E18)." in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let cmd =
  let doc = "regenerate the TBWF evaluation tables" in
  let info = Cmd.info "experiments" ~doc in
  Cmd.v info Term.(const run $ quick $ jobs $ ids)

let () = exit (Cmd.eval cmd)
