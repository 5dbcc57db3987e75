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

(* Everything [of_patterns] keeps, compiled per segment: the widest step
   interval [seg_lo, seg_hi) on which no named pid's [Switch_at] chain
   resolves differently. On a segment, every named pid has one leaf
   pattern, and the [Every] leaves become a claim calendar: for each
   residue of [step mod cal_len] (the lcm of their periods), the pids due
   on it, ascending, at [cal_pids.(cal_start.(r) .. cal_start.(r+1)-1)].
   [Every] pids that would grow the calendar past [calendar_cells], and
   [Slowing] pids, are [tested] on every step instead.

   Pid-indexed tables grow (see [fit]) for the pids the runtime hands
   over: pids past the plan are [Weighted 1.0]. Flicker and slowing state
   are created at the first step that finds that pid runnable under that
   pattern, and are kept per pid across [Switch_at]s. *)
type patterns = {
  assigned : pattern array;  (* per named pid; unlisted ones [Weighted 1.0] *)
  flickers : flicker_state option array;  (* per named pid *)
  slowers : slowing_state option array;  (* per named pid *)
  mutable leaves : pattern array;  (* each pid's leaf on the segment *)
  mutable last_run : int array;  (* -1 = never ran *)
  mutable weights : float array;  (* this spare step's weight per pid *)
  mutable picks : int option array;  (* [Some pid], allocated once *)
  mutable seg_lo : int;
  mutable seg_hi : int;
  mutable cal_len : int;
  mutable cal_start : int array;
  mutable cal_pids : int array;
  mutable tested : int array;
  mutable soft : bool;  (* a named pid is [Weighted] or [Flicker] *)
  mutable cal_step : int;  (* the last step looked up, and its residue *)
  mutable cal_res : int;
}

let default_pattern = Weighted 1.0

(* Calendar residues plus entries, at most: a plan whose [Every] periods
   have a larger lcm tests the rest of its [Every] pids with [mod]. *)
let calendar_cells = 4096

let grow_patterns st (pid : int) =
  st.leaves <- fit st.leaves pid default_pattern;
  st.last_run <- fit st.last_run pid (-1);
  st.weights <- fit st.weights pid 0.0;
  st.picks <- Array.init (Array.length st.leaves) Option.some

(* [pattern]'s leaf at [step], narrowing the segment to the steps on
   which the same leaf is reached. *)
let rec resolve st (step : int) = function
  | Switch_at (s, before, after) ->
    if step < s then begin
      if s < st.seg_hi then st.seg_hi <- s;
      resolve st step before
    end
    else begin
      if s > st.seg_lo then st.seg_lo <- s;
      resolve st step after
    end
  | (Every _ | Weighted _ | Flicker _ | Slowing _ | Silent) as p -> p

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Compile the segment holding [step]. *)
let compile st step =
  st.seg_lo <- min_int;
  st.seg_hi <- max_int;
  let timely = ref [] and tested = ref [] and soft = ref false in
  for p = Array.length st.assigned - 1 downto 0 do
    let leaf = resolve st step st.assigned.(p) in
    st.leaves.(p) <- leaf;
    match leaf with
    | Every { period; offset } -> timely := (p, period, offset) :: !timely
    | Slowing _ -> tested := p :: !tested
    | Weighted _ | Flicker _ -> soft := true
    | Silent | Switch_at _ -> ()
  done;
  (* admit [Every] pids in pid order while residues plus entries fit *)
  let len = ref 1 and entries = ref 0 in
  let admitted =
    List.filter
      (fun (p, period, _) ->
        let fits =
          period <= calendar_cells
          &&
          let l = !len / gcd !len period * period in
          let e = (!entries * (l / !len)) + (l / period) in
          l + e <= calendar_cells
          && begin
            len := l;
            entries := e;
            true
          end
        in
        if not fits then tested := p :: !tested;
        fits)
      !timely
  in
  let len = !len in
  (* consing the pids in descending order leaves each residue ascending *)
  let due = Array.make len [] in
  List.iter
    (fun (p, period, offset) ->
      let r = ref (((offset mod period) + period) mod period) in
      while !r < len do
        due.(!r) <- p :: due.(!r);
        r := !r + period
      done)
    (List.rev admitted);
  let start = Array.make (len + 1) 0 in
  Array.iteri (fun r ps -> start.(r + 1) <- start.(r) + List.length ps) due;
  st.cal_len <- len;
  st.cal_start <- start;
  st.cal_pids <- Array.of_list (List.concat (Array.to_list due));
  st.tested <- Array.of_list !tested;
  st.soft <- !soft;
  st.cal_step <- min_int

(* [step mod cal_len], without a division when steps run consecutively *)
let[@inline] residue st step =
  let r =
    if step = st.cal_step + 1 then
      let r = st.cal_res + 1 in
      if r = st.cal_len then 0 else r
    else
      let r = step mod st.cal_len in
      if r < 0 then r + st.cal_len else r
  in
  st.cal_step <- step;
  st.cal_res <- r;
  r

(* [runnable] holds distinct pids in ascending order, so [pid] sits at
   an index of at most [pid]: at exactly [pid] while no lower pid is
   missing, and otherwise found by bisection. *)
let search (pid : int) (runnable : int array) =
  let lo = ref 0 and hi = ref (Int.min (pid + 1) (Array.length runnable)) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if runnable.(mid) < pid then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length runnable && runnable.(!lo) = pid

let[@inline] mem_sorted (pid : int) (runnable : int array) =
  (pid < Array.length runnable && runnable.(pid) = pid) || search pid runnable

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

(* The hard claimant is the least recently run, the lowest pid on ties,
   of the runnable pids that are due: by the calendar, or by their own
   test for [tested] pids. Failing one, soft pids share the step by
   weight — built, and a draw made, only when a soft pid may be runnable:
   with none every weight is 0 and [weighted_pick] returns -1 without
   drawing. Failing that too, the step goes to the least recently run
   willing [Every] pid. *)
let pick_pattern st ~step ~runnable ~rng =
  let len = Array.length runnable in
  if len = 0 then None
  else begin
    let top = runnable.(len - 1) in
    if top >= Array.length st.leaves then grow_patterns st top;
    if step < st.seg_lo || step >= st.seg_hi then compile st step;
    let r = residue st step in
    (* the calendar lists due pids ascending: on ties the first stays *)
    let claimant = ref (-1) and claimant_ran = ref max_int in
    for i = st.cal_start.(r) to st.cal_start.(r + 1) - 1 do
      let p = st.cal_pids.(i) in
      if mem_sorted p runnable then begin
        let ran = st.last_run.(p) in
        if ran < !claimant_ran then begin
          claimant := p;
          claimant_ran := ran
        end
      end
    done;
    for i = 0 to Array.length st.tested - 1 do
      let p = st.tested.(i) in
      if
        mem_sorted p runnable
        &&
        match st.leaves.(p) with
        | Every { period; offset } -> (step - offset) mod period = 0
        | Slowing { initial_gap; growth = _; burst } ->
          step >= (slowing_state st p step initial_gap burst).due
        | Weighted _ | Flicker _ | Silent | Switch_at _ -> false
      then begin
        let ran = st.last_run.(p) in
        if ran < !claimant_ran || (ran = !claimant_ran && p < !claimant)
        then begin
          claimant := p;
          claimant_ran := ran
        end
      end
    done;
    let claimant = !claimant in
    if claimant >= 0 then begin
      st.last_run.(claimant) <- step;
      (match st.leaves.(claimant) with
      | Slowing { initial_gap; growth; burst } ->
        let s = slowing_state st claimant step initial_gap burst in
        if s.burst_left > 1 then s.burst_left <- s.burst_left - 1
        else begin
          s.burst_left <- Int.max 1 burst;
          s.due <- step + int_of_float s.gap;
          s.gap <- s.gap *. growth
        end
      | Every _ | Weighted _ | Flicker _ | Silent | Switch_at _ -> ());
      st.picks.(claimant)
    end
    else begin
      let chosen =
        if not (st.soft || top >= Array.length st.assigned) then -1
        else begin
          for i = 0 to len - 1 do
            let p = runnable.(i) in
            st.weights.(p) <-
              (match st.leaves.(p) with
              | Weighted w -> w
              | Flicker { active; sleep; growth } ->
                if flicker_awake st p step active sleep growth then 1.0 else 0.0
              | Every _ | Slowing _ | Silent -> 0.0
              | Switch_at _ -> assert false)
          done;
          weighted_pick rng st.weights runnable
        end
      in
      (* No soft participant this step: give the spare step to an
         off-claim [Every] process (it is willing, merely not due), so
         runs made only of timely processes keep progressing; if truly
         everyone is silent, let the step pass idle. *)
      let chosen =
        if chosen >= 0 then chosen
        else begin
          let spare = ref (-1) and spare_ran = ref max_int in
          for i = 0 to len - 1 do
            let p = runnable.(i) in
            match st.leaves.(p) with
            | Every _ ->
              let ran = st.last_run.(p) in
              if ran < !spare_ran then begin
                spare := p;
                spare_ran := ran
              end
            | Weighted _ | Flicker _ | Slowing _ | Silent | Switch_at _ -> ()
          done;
          !spare
        end
      in
      if chosen < 0 then None
      else begin
        st.last_run.(chosen) <- step;
        st.picks.(chosen)
      end
    end
  end

let rec check_periods pid = function
  | Every { period; _ } when period < 1 ->
    invalid_arg
      (Fmt.str "Policy.of_patterns: pid %d has Every period %d (< 1)" pid period)
  | Switch_at (_, before, after) ->
    check_periods pid before;
    check_periods pid after
  | Every _ | Weighted _ | Flicker _ | Slowing _ | Silent -> ()

let of_patterns ?(name = "patterns") assignments =
  List.iter (fun (pid, p) -> check_periods pid p) assignments;
  let cap = List.fold_left (fun m (p, _) -> Int.max m (p + 1)) 0 assignments in
  let assigned = Array.make cap default_pattern in
  List.iter (fun (pid, p) -> if pid >= 0 then assigned.(pid) <- p) assignments;
  let st =
    {
      assigned;
      flickers = Array.make cap None;
      slowers = Array.make cap None;
      leaves = Array.make cap default_pattern;
      last_run = Array.make cap (-1);
      weights = Array.make cap 0.0;
      picks = Array.init cap Option.some;
      (* an empty segment: the first pick compiles *)
      seg_lo = max_int;
      seg_hi = min_int;
      cal_len = 1;
      cal_start = [| 0; 0 |];
      cal_pids = [||];
      tested = [||];
      soft = false;
      cal_step = min_int;
      cal_res = 0;
    }
  in
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
