type t = {
  name : string;
  next : step:int -> runnable:int array -> rng:Rng.t -> int option;
  (* for of_script policies: observed branching factors, reverse order *)
  script_branching : int list ref;
}

let name t = t.name
let next t = t.next

let mem pid runnable = Array.exists (fun p -> p = pid) runnable

let round_robin () =
  let last = ref (-1) in
  let next ~step:_ ~runnable ~rng:_ =
    let len = Array.length runnable in
    if len = 0 then None
    else begin
      (* smallest pid strictly greater than [!last], wrapping around:
         first match in array order (the runtime hands pids sorted) *)
      let rec find i =
        if i >= len then runnable.(0)
        else if runnable.(i) > !last then runnable.(i)
        else find (i + 1)
      in
      let chosen = find 0 in
      last := chosen;
      Some chosen
    end
  in
  { name = "round-robin"; next; script_branching = ref [] }

(* [a] if it already has a slot for [pid], else a copy grown to fit it
   with the new slots set to [fill]: per-pid tables start at the pids a
   policy was given and grow for the pids the runtime hands it. *)
let fit a (pid : int) fill =
  let len = Array.length a in
  if pid < len then a
  else begin
    let b = Array.make (Int.max (2 * len) (pid + 1)) fill in
    Array.blit a 0 b 0 len;
    b
  end

(* Seeded-random choice among [runnable] by the pid-indexed [weights]; -1
   when no weight is positive (then no random draw is made). The sums run
   in [runnable] order, so the choice for a given draw is fixed. *)
let weighted_pick rng (weights : float array) (runnable : int array) =
  let len = Array.length runnable in
  let total = ref 0.0 in
  for i = 0 to len - 1 do
    total := !total +. weights.(runnable.(i))
  done;
  if !total <= 0.0 then -1
  else begin
    let target = Rng.float rng *. !total in
    let acc = ref 0.0 in
    let chosen = ref (-1) in
    let i = ref 0 in
    while !chosen < 0 && !i < len do
      let p = runnable.(!i) in
      acc := !acc +. weights.(p);
      if !acc > target then chosen := p;
      incr i
    done;
    (* floating-point slack: fall back to the last candidate *)
    if !chosen < 0 then runnable.(len - 1) else !chosen
  end

let weighted weights =
  let cap = Array.fold_left (fun m (p, _) -> Int.max m (p + 1)) 0 weights in
  let table = ref (Array.make cap 1.0) in
  Array.iter (fun (pid, w) -> if pid >= 0 then !table.(pid) <- w) weights;
  let next ~step:_ ~runnable ~rng =
    let len = Array.length runnable in
    if len = 0 then None
    else begin
      table := fit !table runnable.(len - 1) 1.0;
      let p = weighted_pick rng !table runnable in
      if p < 0 then None else Some p
    end
  in
  { name = "weighted"; next; script_branching = ref [] }

type pattern =
  | Every of { period : int; offset : int }
  | Weighted of float
  | Flicker of { active : int; sleep : int; growth : float }
  | Slowing of { initial_gap : int; growth : float; burst : int }
  | Silent
  | Switch_at of int * pattern * pattern

type flicker_state = {
  mutable awake : bool;
  mutable phase_end : int;  (* first step of the next phase *)
  mutable sleep_len : float;
}

type slowing_state = {
  mutable due : int;
  mutable gap : float;
  mutable burst_left : int;
}

(* Everything [of_patterns] keeps per pid, in tables indexed by pid and
   grown together (see [fit]). Flicker and slowing state are created at
   the first step that resolves that pattern for that pid, and are kept
   per pid across [Switch_at]s. *)
type patterns = {
  mutable assigned : pattern array;  (* unnamed pids: [Weighted 1.0] *)
  mutable last_run : int array;  (* -1 = never ran *)
  mutable flickers : flicker_state option array;
  mutable slowers : slowing_state option array;
  mutable weights : float array;  (* this spare step's weight per pid *)
}

let default_pattern = Weighted 1.0

let fit_patterns st (pid : int) =
  if pid >= Array.length st.assigned then begin
    st.assigned <- fit st.assigned pid default_pattern;
    st.last_run <- fit st.last_run pid (-1);
    st.flickers <- fit st.flickers pid None;
    st.slowers <- fit st.slowers pid None;
    st.weights <- fit st.weights pid 0.0
  end

let rec resolve (step : int) = function
  | Switch_at (s, before, after) ->
    if step < s then resolve step before else resolve step after
  | (Every _ | Weighted _ | Flicker _ | Slowing _ | Silent) as p -> p

let slowing_state st (pid : int) (step : int) (initial_gap : int)
    (burst : int) =
  match st.slowers.(pid) with
  | Some s -> s
  | None ->
    let s = { due = step; gap = float_of_int initial_gap; burst_left = burst } in
    st.slowers.(pid) <- Some s;
    s

let flicker_awake st (pid : int) (step : int) (active : int) (sleep : int)
    growth =
  let f =
    match st.flickers.(pid) with
    | Some f -> f
    | None ->
      let f =
        {
          awake = true;
          phase_end = step + active;
          sleep_len = float_of_int sleep;
        }
      in
      st.flickers.(pid) <- Some f;
      f
  in
  while step >= f.phase_end do
    if f.awake then begin
      f.awake <- false;
      f.phase_end <- f.phase_end + int_of_float f.sleep_len;
      f.sleep_len <- f.sleep_len *. growth
    end
    else begin
      f.awake <- true;
      f.phase_end <- f.phase_end + active
    end
  done;
  f.awake

(* The least-recently-run eligible pid in [runnable], the first in pid
   order on ties, or -1. Eligible means holding a hard claim on [step]
   ([Every] due, or [Slowing] due), or, on a [spare] step, any [Every]. *)
let least_recent st (step : int) (runnable : int array) ~spare =
  let best = ref (-1) in
  let best_ran = ref max_int in
  for i = 0 to Array.length runnable - 1 do
    let p = runnable.(i) in
    let eligible =
      match resolve step st.assigned.(p) with
      | Every { period; offset } -> spare || (step - offset) mod period = 0
      | Slowing { initial_gap; growth = _; burst } ->
        (not spare) && step >= (slowing_state st p step initial_gap burst).due
      | Weighted _ | Flicker _ | Silent | Switch_at _ -> false
    in
    if eligible && st.last_run.(p) < !best_ran then begin
      best := p;
      best_ran := st.last_run.(p)
    end
  done;
  !best

let pick_pattern st ~step ~runnable ~rng =
  let len = Array.length runnable in
  if len = 0 then None
  else begin
    fit_patterns st runnable.(len - 1);
    (* hard claims first, least-recently-run so ties starve nobody *)
    let claimant = least_recent st step runnable ~spare:false in
    if claimant >= 0 then begin
      st.last_run.(claimant) <- step;
      (match resolve step st.assigned.(claimant) with
      | Slowing { initial_gap; growth; burst } ->
        let s = slowing_state st claimant step initial_gap burst in
        if s.burst_left > 1 then s.burst_left <- s.burst_left - 1
        else begin
          s.burst_left <- Int.max 1 burst;
          s.due <- step + int_of_float s.gap;
          s.gap <- s.gap *. growth
        end
      | Every _ | Weighted _ | Flicker _ | Silent | Switch_at _ -> ());
      Some claimant
    end
    else begin
      for i = 0 to len - 1 do
        let p = runnable.(i) in
        st.weights.(p) <-
          (match resolve step st.assigned.(p) with
          | Weighted w -> w
          | Flicker { active; sleep; growth } ->
            if flicker_awake st p step active sleep growth then 1.0 else 0.0
          | Every _ | Slowing _ | Silent -> 0.0
          | Switch_at _ -> assert false)
      done;
      let chosen = weighted_pick rng st.weights runnable in
      (* No soft participant this step: give the spare step to an
         off-claim [Every] process (it is willing, merely not due), so
         runs made only of timely processes keep progressing; if truly
         everyone is silent, let the step pass idle. *)
      let chosen =
        if chosen >= 0 then chosen else least_recent st step runnable ~spare:true
      in
      if chosen < 0 then None
      else begin
        st.last_run.(chosen) <- step;
        Some chosen
      end
    end
  end

let of_patterns ?(name = "patterns") assignments =
  let cap = List.fold_left (fun m (p, _) -> Int.max m (p + 1)) 0 assignments in
  let st =
    {
      assigned = Array.make cap default_pattern;
      last_run = Array.make cap (-1);
      flickers = Array.make cap None;
      slowers = Array.make cap None;
      weights = Array.make cap 0.0;
    }
  in
  List.iter (fun (pid, p) -> if pid >= 0 then st.assigned.(pid) <- p) assignments;
  let next ~step ~runnable ~rng = pick_pattern st ~step ~runnable ~rng in
  { name; next; script_branching = ref [] }

let solo_after ~n ~pid ~step =
  let assignments =
    List.init n (fun p ->
        if p = pid then p, Weighted 1.0
        else p, Switch_at (step, Weighted 1.0, Silent))
  in
  let base = of_patterns ~name:(Fmt.str "solo-after-%d" step) assignments in
  (* After the switch point, only [pid] must run, even as the idle fallback. *)
  let next ~step:s ~runnable ~rng =
    if s >= step then (if mem pid runnable then Some pid else None)
    else next base ~step:s ~runnable ~rng
  in
  { name = base.name; next; script_branching = ref [] }

let of_script script =
  let remaining = ref script in
  let branching = ref [] in
  let next ~step:_ ~runnable ~rng:_ =
    if Array.length runnable = 0 then None
    else
      match !remaining with
      | [] -> None
      | choice :: rest ->
        remaining := rest;
        branching := Array.length runnable :: !branching;
        Some runnable.(choice mod Array.length runnable)
  in
  { name = "script"; next; script_branching = branching }

let branching_of_script t = List.rev !(t.script_branching)

exception
  Replay_mismatch of { step : int; pid : int; runnable : int array }

(* Shared core of the replay family. [on_mismatch] decides what happens when
   a recorded non-idle pid is not runnable at its step: the lenient variant
   lets the step pass idle (so shrunk/foreign schedules stay executable),
   the strict one raises, the counting one increments a counter. *)
let replay_with ~name ~on_mismatch pids =
  let remaining = ref pids in
  let next ~step ~runnable ~rng:_ =
    match !remaining with
    | [] -> None
    | pid :: rest ->
      remaining := rest;
      if pid >= 0 && mem pid runnable then Some pid
      else begin
        if pid >= 0 then on_mismatch ~step ~pid ~runnable;
        None (* recorded idle step, or a diverging replay: stay aligned *)
      end
  in
  { name; next; script_branching = ref [] }

let replay pids =
  replay_with ~name:"replay" ~on_mismatch:(fun ~step:_ ~pid:_ ~runnable:_ -> ())
    pids

let replay_strict pids =
  replay_with ~name:"replay-strict"
    ~on_mismatch:(fun ~step ~pid ~runnable ->
      raise (Replay_mismatch { step; pid; runnable }))
    pids

let replay_counting pids =
  let mismatches = ref 0 in
  let t =
    replay_with ~name:"replay-counting"
      ~on_mismatch:(fun ~step:_ ~pid:_ ~runnable:_ -> incr mismatches)
      pids
  in
  t, fun () -> !mismatches
