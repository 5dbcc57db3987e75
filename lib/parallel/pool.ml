(* A dependency-free OCaml 5 domain pool for run-level fan-out.

   Every parallel workload in this repo is embarrassingly parallel at the
   run level: independent seeded simulations (campaign cells, fuzz
   batches, explore root branches, experiments) that never share a
   runtime. The pool hands the task indices out one at a time from one
   atomic counter, captures per-task exceptions (a
   failed cell reports against its index, it does not kill the pool), and
   writes every result into the task's own slot of a preallocated array —
   so the output order is the canonical task order no matter which domain
   finished first, and the result is byte-identical for any domain count.

   One domain (or one task) bypasses domains entirely: the sequential
   path is a plain loop, with no spawn, no atomics and no join, so
   [~domains:1] reproduces single-threaded behaviour exactly.

   Each map call spawns its (at most [domains - 1]) worker domains
   afresh and joins them before returning. Runs here last milliseconds to
   minutes, so spawn cost is noise; keeping domains scoped to one call
   means an exception can never leak a wedged worker. *)

type t = { domains : int }

type error = { task : int; message : string; backtrace : string }

exception Task_failed of error list

let () =
  Printexc.register_printer (function
    | Task_failed errors ->
      Some
        (Printf.sprintf "Pool.Task_failed [%s]"
           (String.concat "; "
              (List.map
                 (fun e -> Printf.sprintf "task %d: %s" e.task e.message)
                 errors)))
    | _ -> None)

(* Leave headroom above the machine: hyper-oversubscribing domains only
   thrashes minor heaps. The default follows the runtime's
   recommendation, capped so CI boxes with huge core counts don't spawn
   a domain army for five tasks. *)
let max_domains = 64
let default_cap = 8

let default_domains () =
  max 1 (min default_cap (Domain.recommended_domain_count ()))

let create ?domains () =
  let d = match domains with Some d -> d | None -> default_domains () in
  { domains = max 1 (min max_domains d) }

let domains t = t.domains

let capture_error task exn =
  {
    task;
    message = Printexc.to_string exn;
    backtrace = Printexc.get_backtrace ();
  }

let run t ~tasks f =
  if tasks < 0 then invalid_arg "Pool.run: negative task count";
  if tasks = 0 then [||]
  else begin
    let results = Array.make tasks None in
    let exec i =
      results.(i) <-
        Some (try Ok (f i) with exn -> Error (capture_error i exn))
    in
    let d = min t.domains tasks in
    if d <= 1 then
      for i = 0 to tasks - 1 do
        exec i
      done
    else begin
      (* Self-scheduling one task per claim: a task is a whole seeded
         run (milliseconds at least), so one atomic increment per task is
         noise, while a multi-task chunk can leave a domain idle for
         several task-times at the end of a batch. Tasks are claimed
         dynamically but land in fixed slots, so distribution order never
         shows in the output. *)
      let next = Atomic.make 0 in
      let worker () =
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          if i >= tasks then continue := false else exec i
        done
      in
      let workers = Array.init (d - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join workers
    end;
    Array.map
      (function Some r -> r | None -> assert false (* every slot filled *))
      results
  end

let errors_of results =
  Array.to_list results
  |> List.filter_map (function Error e -> Some e | Ok _ -> None)

let force results =
  match errors_of results with
  | [] -> Array.map (function Ok v -> v | Error _ -> assert false) results
  | errors -> raise (Task_failed errors)

let try_map t xs f = run t ~tasks:(Array.length xs) (fun i -> f xs.(i))
let map t xs f = force (try_map t xs f)
let try_map_seeded t seeds f = try_map t seeds f
let map_seeded t seeds f = map t seeds f
