(* Timing, repeat loops and result printing shared by every workload. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  r, now () -. t0

(* One repeat of an end-to-end workload. *)
type repeat = {
  steps : int;  (** simulated steps executed *)
  ops : int;  (** application operations completed *)
  seconds : float;  (** host seconds the steps took *)
  units : int;  (** cells, shards or campaign cells run *)
  failed : int;  (** of [units], how many failed an output check *)
}

let steps_per_s r = float_of_int r.steps /. r.seconds
let ops_per_s r = float_of_int r.ops /. r.seconds

(* Simulated-time throughput: a pure function of the inputs. *)
let ops_per_100k_steps r = float_of_int r.ops *. 100_000.0 /. float_of_int r.steps

(* --- host-speed calibration ------------------------------------------------

   The host this benchmark runs on is shared: over a minute its speed
   drifts by a quarter or more, uniformly across workloads. A fixed,
   benchmark-owned reference loop (allocation and hashing, no repo code)
   is timed between measured sections, and each section's host seconds
   are rescaled by how slow the reference ran around it:

     calibrated seconds = host seconds x nominal / reference seconds

   where the reference's time is the mean of the runs just before and
   just after the section. A change to the repo's code moves the section
   and not the reference, so it shows in full; a host slowdown moves
   both and cancels. Raw wall-clock figures are printed beside the
   calibrated ones. *)

let reference_loop () =
  let h = Hashtbl.create 16 in
  let acc = ref 0 in
  for i = 1 to 300_000 do
    Hashtbl.replace h (i land 1023) [ i; i + 1; i + 2 ];
    match Hashtbl.find_opt h ((i * 7) land 1023) with
    | Some l -> acc := !acc + List.length l
    | None -> ()
  done;
  !acc

(* The reference loop's time on an uncontended core of the 2-core x86-64
   machine the benchmark was calibrated on. *)
let reference_nominal_s = 0.028

(* One reference run on each of [domains] domains at once, timed as a
   whole: a section that fans out over several domains is calibrated
   against the same fan-out, so a slow second core or cross-domain
   collection pauses show in the reference as they do in the section.
   The extra domains are joined before returning. A fan-out shot is
   noisier than a single-domain one (spawns, collection handshakes), so
   it is taken five times and the median kept. *)
let reference_shot ~domains =
  snd
    (timed (fun () ->
         let others =
           List.init (domains - 1) (fun _ ->
               Domain.spawn (fun () -> ignore (Sys.opaque_identity (reference_loop ()))))
         in
         ignore (Sys.opaque_identity (reference_loop ()));
         List.iter Domain.join others))

let reference_seconds ~domains =
  if domains = 1 then reference_shot ~domains
  else Stats.median (List.init 5 (fun _ -> reference_shot ~domains))

let last_reference = ref None

(* Run [f] as a measured section on [domains] domains (default 1).
   Returns its result and the section's calibration factor: multiply
   host seconds measured inside the section by it to get calibrated
   seconds. *)
let calibrated ?(domains = 1) f =
  let before =
    match !last_reference with
    | Some (d, s) when d = domains -> s
    | _ -> reference_seconds ~domains
  in
  let r = f () in
  let after = reference_seconds ~domains in
  last_reference := Some (domains, after);
  r, reference_nominal_s /. ((before +. after) /. 2.0)

(* Calibrated repeats until [seconds] of wall time have passed and at
   least [min_repeats] were measured. [f] returns a repeat in host
   seconds; each comes back twice, in host seconds and in calibrated
   seconds. *)
let repeat_for ?domains ~seconds ~min_repeats f =
  let start = now () in
  let rec go acc count =
    (* every repeat starts from a collected heap, so garbage one repeat
       leaves behind is not charged to the next *)
    Gc.full_major ();
    let r, factor = calibrated ?domains f in
    let acc = (r, { r with seconds = r.seconds *. factor }) :: acc in
    if now () -. start >= seconds && count + 1 >= min_repeats then List.rev acc
    else go acc (count + 1)
  in
  go [] 0

(* Set-up is timed on its own: [f] performs one complete set-up of the
   workload (stack builds, plan compilation, pool creation) and discards
   it. Five calibrated sections of [per_section] set-ups each; returns
   every set-up's calibrated seconds. The count is fixed, not timed, so
   the heap growth set-up leaves behind is the same in every run. *)
let setup_samples ~per_section f =
  let section () =
    let samples, factor =
      calibrated (fun () -> List.init per_section (fun _ -> snd (timed f)))
    in
    List.map (fun s -> s *. factor) samples
  in
  List.concat (List.init 5 (fun _ -> section ()))

let peak_rss_mb () =
  Option.map (fun kb -> float_of_int kb /. 1024.0) (Tbwf_telemetry.Resource.peak_rss_kb ())

(* --- metrics and the result line ---------------------------------------- *)

type metric = {
  name : string;
  unit_ : string;
  value : float option;  (** [None] prints as null, with [note] saying why *)
  note : string;  (** sample count, spread or reason, for the report *)
}

let metric ?(note = "") name unit_ value = { name; unit_; value = Some value; note }

(* The median of host-time samples, noting sample count and spread. *)
let median_metric name unit_ samples =
  let q1, _, q3 = Stats.quartiles samples in
  let note =
    Printf.sprintf "median of %d, q1 %.6g q3 %.6g" (List.length samples) q1 q3
  in
  metric ~note name unit_ (Stats.median samples)

(* Floats print with all their digits; the repo's JSON writer rounds to
   twelve. *)
let json_number = function
  | Some v when Float.is_finite v -> Printf.sprintf "%.17g" v
  | Some _ | None -> "null"

let json_string s = Tbwf_telemetry.Json.(to_string (Str s))

let print_report metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-28s %20s %-6s %s\n" m.name (json_number m.value) m.unit_
        m.note)
    metrics

(* The last line of stdout: the machine-readable result. *)
let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
             (json_number m.value) (json_string m.unit_))
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body
