open Tbwf_sim

let run_policy policy ~runnable ~steps =
  let rng = Rng.create 17L in
  let arr = Array.of_list runnable in
  List.init steps (fun step -> Policy.next policy ~step ~runnable:arr ~rng)

let test_round_robin_fair () =
  let choices = run_policy (Policy.round_robin ()) ~runnable:[ 0; 1; 2 ] ~steps:9 in
  Alcotest.(check (list (option int)))
    "perfect rotation"
    [ Some 0; Some 1; Some 2; Some 0; Some 1; Some 2; Some 0; Some 1; Some 2 ]
    choices

let test_round_robin_skips_missing () =
  let policy = Policy.round_robin () in
  let rng = Rng.create 1L in
  let c1 = Policy.next policy ~step:0 ~runnable:[| 0; 1; 2 |] ~rng in
  let c2 = Policy.next policy ~step:1 ~runnable:[| 0; 2 |] ~rng in
  Alcotest.(check (option int)) "starts at 0" (Some 0) c1;
  Alcotest.(check (option int)) "skips crashed 1" (Some 2) c2

let test_weighted_respects_weights () =
  let policy = Policy.weighted [| 0, 10.0; 1, 1.0 |] in
  let choices = run_policy policy ~runnable:[ 0; 1 ] ~steps:5_000 in
  let count pid = List.length (List.filter (fun c -> c = Some pid) choices) in
  Alcotest.(check bool) "heavy pid dominates" true (count 0 > 3 * count 1);
  Alcotest.(check bool) "light pid still runs" true (count 1 > 0)

let test_every_claims () =
  let policy =
    Policy.of_patterns
      [ 0, Policy.Every { period = 3; offset = 0 }; 1, Policy.Weighted 1.0 ]
  in
  let choices = run_policy policy ~runnable:[ 0; 1 ] ~steps:30 in
  List.iteri
    (fun step choice ->
      if step mod 3 = 0 then
        Alcotest.(check (option int)) (Fmt.str "claim at %d" step) (Some 0) choice)
    choices

let test_every_gap_bounded () =
  let policy =
    Policy.of_patterns
      [
        0, Policy.Every { period = 4; offset = 0 };
        1, Policy.Weighted 1.0;
        2, Policy.Weighted 1.0;
      ]
  in
  let choices = run_policy policy ~runnable:[ 0; 1; 2 ] ~steps:2_000 in
  let max_gap = ref 0 and current = ref 0 in
  List.iter
    (fun c ->
      if c = Some 0 then begin
        if !current > !max_gap then max_gap := !current;
        current := 0
      end
      else incr current)
    choices;
  Alcotest.(check bool) "gap bounded by period" true (!max_gap <= 4)

let test_flicker_gaps_grow () =
  let policy =
    Policy.of_patterns
      [
        0, Policy.Flicker { active = 10; sleep = 20; growth = 2.0 };
        1, Policy.Weighted 1.0;
      ]
  in
  let choices = run_policy policy ~runnable:[ 0; 1 ] ~steps:3_000 in
  (* Collect gaps between pid-0 steps; the largest must dwarf the first. *)
  let gaps = ref [] and current = ref 0 and seen = ref false in
  List.iter
    (fun c ->
      if c = Some 0 then begin
        if !seen && !current > 0 then gaps := !current :: !gaps;
        seen := true;
        current := 0
      end
      else incr current)
    choices;
  let gaps = !gaps in
  Alcotest.(check bool) "has gaps" true (List.length gaps > 2);
  let max_gap = List.fold_left max 0 gaps in
  Alcotest.(check bool) "sleep gaps grew past 100" true (max_gap > 100)

let test_slowing_gaps_grow () =
  let policy =
    Policy.of_patterns
      [
        0, Policy.Slowing { initial_gap = 5; growth = 1.5; burst = 1 };
        1, Policy.Weighted 1.0;
      ]
  in
  let choices = run_policy policy ~runnable:[ 0; 1 ] ~steps:3_000 in
  let steps_of_0 =
    List.filteri (fun _ c -> c = Some 0) choices |> List.length
  in
  (* With gaps 5, 7.5, 11.25, ... only ~log-many steps fit in 3000. *)
  Alcotest.(check bool) "pid 0 took a few steps" true (steps_of_0 >= 3);
  Alcotest.(check bool) "pid 0 decelerated" true (steps_of_0 < 30)

let test_slowing_burst () =
  let policy =
    Policy.of_patterns
      [ 0, Policy.Slowing { initial_gap = 100; growth = 2.0; burst = 5 } ]
  in
  (* Alone, the slowing process gets its whole burst in consecutive steps. *)
  let choices = run_policy policy ~runnable:[ 0 ] ~steps:20 in
  let first_five = List.filteri (fun i _ -> i < 5) choices in
  Alcotest.(check (list (option int)))
    "first burst served"
    [ Some 0; Some 0; Some 0; Some 0; Some 0 ]
    first_five;
  Alcotest.(check (option int)) "then idle" None (List.nth choices 5)

let test_silent_never_runs () =
  let policy =
    Policy.of_patterns [ 0, Policy.Silent; 1, Policy.Weighted 1.0 ]
  in
  let choices = run_policy policy ~runnable:[ 0; 1 ] ~steps:500 in
  Alcotest.(check bool) "silent pid never scheduled" true
    (List.for_all (fun c -> c <> Some 0) choices)

let test_switch_at () =
  let policy =
    Policy.of_patterns
      [
        0, Policy.Switch_at (100, Policy.Weighted 1.0, Policy.Silent);
        1, Policy.Weighted 1.0;
      ]
  in
  let choices = run_policy policy ~runnable:[ 0; 1 ] ~steps:400 in
  let before = List.filteri (fun i c -> i < 100 && c = Some 0) choices in
  let after = List.filteri (fun i c -> i >= 100 && c = Some 0) choices in
  Alcotest.(check bool) "ran before switch" true (List.length before > 0);
  Alcotest.(check (list (option int))) "silent after switch" [] after

let test_replay_lenient_vs_strict () =
  let rng = Rng.create 3L in
  (* Recorded pid 1 is not runnable at step 1: lenient passes idle, strict
     raises, counting reports one mismatch. *)
  let sched = [ 0; 1; 0 ] in
  let lenient = Policy.replay sched in
  Alcotest.(check (option int)) "lenient step 0" (Some 0)
    (Policy.next lenient ~step:0 ~runnable:[| 0; 2 |] ~rng);
  Alcotest.(check (option int)) "lenient mismatch passes idle" None
    (Policy.next lenient ~step:1 ~runnable:[| 0; 2 |] ~rng);
  let strict = Policy.replay_strict sched in
  Alcotest.(check (option int)) "strict step 0" (Some 0)
    (Policy.next strict ~step:0 ~runnable:[| 0; 2 |] ~rng);
  (match Policy.next strict ~step:1 ~runnable:[| 0; 2 |] ~rng with
  | exception Policy.Replay_mismatch { step; pid; runnable } ->
    Alcotest.(check int) "mismatch step" 1 step;
    Alcotest.(check int) "mismatch pid" 1 pid;
    Alcotest.(check (array int)) "mismatch runnable" [| 0; 2 |] runnable
  | _ -> Alcotest.fail "strict replay should raise on drift");
  let counting, mismatches = Policy.replay_counting sched in
  ignore (Policy.next counting ~step:0 ~runnable:[| 0; 2 |] ~rng);
  ignore (Policy.next counting ~step:1 ~runnable:[| 0; 2 |] ~rng);
  ignore (Policy.next counting ~step:2 ~runnable:[| 0; 2 |] ~rng);
  Alcotest.(check int) "one mismatch counted" 1 (mismatches ())

let test_replay_strict_faithful () =
  (* On the scenario it was recorded from, strict replay never raises and
     recorded idle steps stay idle. *)
  let rng = Rng.create 4L in
  let sched = [ 0; -1; 1; 0 ] in
  let strict = Policy.replay_strict sched in
  let choices =
    List.mapi
      (fun step _ -> Policy.next strict ~step ~runnable:[| 0; 1 |] ~rng)
      sched
  in
  Alcotest.(check (list (option int)))
    "faithful replay" [ Some 0; None; Some 1; Some 0 ] choices;
  Alcotest.(check (option int)) "exhausted schedule idles" None
    (Policy.next strict ~step:4 ~runnable:[| 0; 1 |] ~rng)

let test_solo_after () =
  let policy = Policy.solo_after ~n:3 ~pid:2 ~step:50 in
  let choices = run_policy policy ~runnable:[ 0; 1; 2 ] ~steps:200 in
  let late = List.filteri (fun i _ -> i >= 50) choices in
  Alcotest.(check bool) "only solo pid after switch" true
    (List.for_all (fun c -> c = Some 2) late);
  let early_others =
    List.filteri (fun i c -> i < 50 && (c = Some 0 || c = Some 1)) choices
  in
  Alcotest.(check bool) "others ran before switch" true
    (List.length early_others > 0)

(* --- schedule golden ------------------------------------------------------ *)

(* The first [golden_steps] picks of three policies, recorded from the
   hash-table implementation that the pid-indexed tables replaced, and
   compared pick by pick: any differing decision fails. On a mismatch the
   current rendering is written to policy_schedules.actual in the test's
   working directory; after an intended change, copy it over the golden. *)

let golden_steps = 20_000

(* One runnable array per step for a run over pids [0, n) in which each
   [(pid, at)] of [leaves] stops being runnable at step [at]; steps with
   the same set share one array, so replaying them allocates nothing. *)
let runnable_sets ~n ~steps leaves =
  let sets = Array.make steps [||] in
  let current = ref (Array.init n Fun.id) in
  for step = 0 to steps - 1 do
    if List.exists (fun (_, at) -> at = step) leaves then
      current :=
        Array.of_list
          (List.filter
             (fun p -> not (List.mem (p, step) leaves))
             (Array.to_list !current));
    sets.(step) <- !current
  done;
  sets

(* Every pattern, a nested [Switch_at], a pid the plan does not name
   (pid 6, which also leaves the runnable set mid-run), simultaneous
   [Every] claims (pids 0 and 2 before step 2000), [Slowing] state created
   at a switch and reused across one (pids 2 and 3), and spare steps that
   reach both the weighted pick and, while pid 5 is silent, pid 6 is gone
   and the flicker sleeps, the willing-[Every] fallback. *)
let mixed_case () =
  let policy =
    Policy.of_patterns ~name:"golden-mixed"
      [
        0, Policy.Every { period = 7; offset = 0 };
        1, Policy.Every { period = 5; offset = 1 };
        ( 2,
          Policy.Switch_at
            ( 2_000,
              Policy.Every { period = 7; offset = 0 },
              Policy.Slowing { initial_gap = 3; growth = 1.1; burst = 0 } ) );
        ( 3,
          Policy.Switch_at
            ( 10_000,
              Policy.Slowing { initial_gap = 2; growth = 1.2; burst = 1 },
              Policy.Slowing { initial_gap = 50; growth = 1.0; burst = 3 } ) );
        4, Policy.Flicker { active = 30; sleep = 40; growth = 1.5 };
        ( 5,
          Policy.Switch_at
            ( 4_000,
              Policy.Weighted 2.0,
              Policy.Switch_at (14_000, Policy.Silent, Policy.Weighted 0.5) ) );
      ]
  in
  policy, runnable_sets ~n:7 ~steps:golden_steps [ 6, 12_000 ]

(* [Policy.weighted] over the mixed case's runnable sets: pid 2 weighs
   nothing and pids 5 and 6 are not listed, so they weigh 1.0. *)
let weighted_case () =
  ( Policy.weighted [| 0, 4.0; 1, 1.0; 2, 0.0; 3, 0.25; 4, 2.5 |],
    runnable_sets ~n:7 ~steps:golden_steps [ 6, 12_000 ] )

(* [World.run_shard]'s policy for shard 0 of the default world, with each
   churn leaver dropping out of the runnable set at its leave step. *)
let world_case () =
  let open Tbwf_world in
  let c = World.default in
  let churn = World.churn_schedule c ~shard:0 in
  let atoms =
    List.map
      (fun (pid, at, retires) ->
        if retires then Tbwf_nemesis.Fault_plan.Retire { pid; at }
        else Tbwf_nemesis.Fault_plan.Crash { pid; at })
      churn.World.ch_leaves
  in
  let plan =
    Tbwf_nemesis.Fault_plan.make ~n:c.World.n ~horizon:c.World.horizon atoms
  in
  ( Tbwf_nemesis.Fault_plan.policy plan,
    runnable_sets ~n:c.World.n ~steps:golden_steps
      (List.map (fun (pid, at, _) -> pid, at) churn.World.ch_leaves) )

(* One character per pick (the pid, or '.' for an idle step), 100 picks
   per line behind the first line's step number. *)
let render name (policy, sets) =
  let buf = Buffer.create (golden_steps * 11 / 10) in
  Buffer.add_string buf ("== " ^ name);
  let rng = Rng.create 17L in
  Array.iteri
    (fun step runnable ->
      if step mod 100 = 0 then Buffer.add_string buf (Fmt.str "\n%6d " step);
      match Policy.next policy ~step ~runnable ~rng with
      | None -> Buffer.add_char buf '.'
      | Some p when p >= 0 && p < 10 -> Buffer.add_char buf (Char.chr (48 + p))
      | Some p -> Alcotest.failf "%s: pid %d does not fit the golden" name p)
    sets;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let schedule_golden_path () =
  List.find_opt Sys.file_exists
    [ "golden/policy_schedules.txt"; "test/golden/policy_schedules.txt" ]
  |> function
  | Some p -> p
  | None -> Alcotest.fail "golden/policy_schedules.txt not found"

let test_schedule_golden () =
  let actual =
    render "mixed" (mixed_case ())
    ^ render "weighted" (weighted_case ())
    ^ render "world-churn" (world_case ())
  in
  let expected =
    In_channel.with_open_bin (schedule_golden_path ()) In_channel.input_all
  in
  if actual <> expected then begin
    Out_channel.with_open_bin "policy_schedules.actual" (fun oc ->
        Out_channel.output_string oc actual);
    let lines = String.split_on_char '\n' in
    let rec first_diff = function
      | e :: es, a :: as_ when e = a -> first_diff (es, as_)
      | e :: _, a :: _ ->
        Alcotest.failf "picks differ:\n  golden %s\n  actual %s" e a
      | _ -> Alcotest.fail "schedule golden length differs"
    in
    first_diff (lines expected, lines actual)
  end

(* Picks are on every world step, so their allocation is gated exactly:
   [Gc.minor_words] is a deterministic count, and a pick allocates
   nothing once its plan is compiled (the first pick compiles it). The
   pick function is taken out of the policy once, as a release build
   does when it inlines [Policy.next]: applying [Policy.next] to all four
   arguments through an opaque module boundary (dune's dev profile)
   allocates by itself. *)
let test_pick_allocation () =
  let policy, sets = world_case () in
  let next = Policy.next policy in
  let rng = Rng.create 17L in
  ignore (next ~step:0 ~runnable:sets.(0) ~rng);
  let before = Gc.minor_words () in
  for step = 1 to 10_000 do
    ignore (next ~step ~runnable:sets.(step) ~rng)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words in 10,000 picks" 0.0 words

(* --- compiled picks against the one-pass model ------------------------ *)

(* The pattern pick as it was before it was compiled per segment: pid-
   indexed tables, and one scan of [runnable] per step that resolves each
   pid's [Switch_at] chain and tests its [Every] claim with [mod]. It
   finds the hard claimant (an [Every] due on [step] or a due [Slowing]),
   the spare claimant (any [Every]) — each the least recently run, the
   first in pid order on ties — and whether a [Weighted] or [Flicker] pid
   could take a soft step; weights are built, and a draw made, only then.
   The compiled pick must match it pick for pick and draw for draw. *)
module One_pass = struct
  open Policy

  type flicker = { mutable awake : bool; mutable phase_end : int;
                   mutable sleep_len : float }

  type slowing = { mutable due : int; mutable gap : float;
                   mutable burst_left : int }

  type t = {
    mutable assigned : pattern array;
    mutable last_run : int array;
    mutable flickers : flicker option array;
    mutable slowers : slowing option array;
    mutable weights : float array;
  }

  let fit a pid fill =
    let len = Array.length a in
    if pid < len then a
    else begin
      let b = Array.make (Int.max (2 * len) (pid + 1)) fill in
      Array.blit a 0 b 0 len;
      b
    end

  let fit_patterns t pid =
    if pid >= Array.length t.assigned then begin
      t.assigned <- fit t.assigned pid (Weighted 1.0);
      t.last_run <- fit t.last_run pid (-1);
      t.flickers <- fit t.flickers pid None;
      t.slowers <- fit t.slowers pid None;
      t.weights <- fit t.weights pid 0.0
    end

  let rec resolve step = function
    | Switch_at (s, before, after) ->
      if step < s then resolve step before else resolve step after
    | p -> p

  let slowing_state t p step initial_gap burst =
    match t.slowers.(p) with
    | Some s -> s
    | None ->
      let s = { due = step; gap = float_of_int initial_gap; burst_left = burst } in
      t.slowers.(p) <- Some s;
      s

  let flicker_awake t p step active sleep growth =
    let f =
      match t.flickers.(p) with
      | Some f -> f
      | None ->
        let f =
          { awake = true; phase_end = step + active;
            sleep_len = float_of_int sleep }
        in
        t.flickers.(p) <- Some f;
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

  let weighted_pick rng weights runnable =
    let len = Array.length runnable in
    let total = ref 0.0 in
    Array.iter (fun p -> total := !total +. weights.(p)) runnable;
    if !total <= 0.0 then -1
    else begin
      let target = Rng.float rng *. !total in
      let acc = ref 0.0 and chosen = ref (-1) and i = ref 0 in
      while !chosen < 0 && !i < len do
        let p = runnable.(!i) in
        acc := !acc +. weights.(p);
        if !acc > target then chosen := p;
        incr i
      done;
      if !chosen < 0 then runnable.(len - 1) else !chosen
    end

  let pick t ~step ~runnable ~rng =
    let len = Array.length runnable in
    if len = 0 then None
    else begin
      fit_patterns t runnable.(len - 1);
      let hard = ref (-1) and hard_ran = ref max_int in
      let spare = ref (-1) and spare_ran = ref max_int in
      let soft = ref false in
      Array.iter
        (fun p ->
          let ran = t.last_run.(p) in
          match resolve step t.assigned.(p) with
          | Every { period; offset } ->
            if ran < !spare_ran then begin
              spare := p;
              spare_ran := ran
            end;
            if (step - offset) mod period = 0 && ran < !hard_ran then begin
              hard := p;
              hard_ran := ran
            end
          | Slowing { initial_gap; burst; _ } ->
            if
              step >= (slowing_state t p step initial_gap burst).due
              && ran < !hard_ran
            then begin
              hard := p;
              hard_ran := ran
            end
          | Weighted _ | Flicker _ -> soft := true
          | Silent | Switch_at _ -> ())
        runnable;
      let claimant = !hard in
      if claimant >= 0 then begin
        t.last_run.(claimant) <- step;
        (match resolve step t.assigned.(claimant) with
        | Slowing { initial_gap; growth; burst } ->
          let s = slowing_state t claimant step initial_gap burst in
          if s.burst_left > 1 then s.burst_left <- s.burst_left - 1
          else begin
            s.burst_left <- Int.max 1 burst;
            s.due <- step + int_of_float s.gap;
            s.gap <- s.gap *. growth
          end
        | _ -> ());
        Some claimant
      end
      else begin
        let chosen =
          if not !soft then -1
          else begin
            Array.iter
              (fun p ->
                t.weights.(p) <-
                  (match resolve step t.assigned.(p) with
                  | Weighted w -> w
                  | Flicker { active; sleep; growth } ->
                    if flicker_awake t p step active sleep growth then 1.0
                    else 0.0
                  | _ -> 0.0))
              runnable;
            weighted_pick rng t.weights runnable
          end
        in
        let chosen = if chosen >= 0 then chosen else !spare in
        if chosen < 0 then None
        else begin
          t.last_run.(chosen) <- step;
          Some chosen
        end
      end
    end

  let of_patterns assignments =
    let cap = List.fold_left (fun m (p, _) -> Int.max m (p + 1)) 0 assignments in
    let t =
      {
        assigned = Array.make cap (Weighted 1.0);
        last_run = Array.make cap (-1);
        flickers = Array.make cap None;
        slowers = Array.make cap None;
        weights = Array.make cap 0.0;
      }
    in
    List.iter (fun (p, pat) -> if p >= 0 then t.assigned.(p) <- pat) assignments;
    pick t
end

(* --- the one-pass model against the three-pass model ------------------ *)

(* The pattern pick as it was written before it became one scan: a
   hard-claim pass, then a weight pass and a weighted draw, then a
   spare-claim pass. It keeps its own per-pid state, as [of_patterns]
   does, and serves as the reference the one-pass model must match pick
   for pick and draw for draw. *)
module Three_pass = struct
  open Policy

  type flicker = { mutable awake : bool; mutable phase_end : int;
                   mutable sleep_len : float }

  type slowing = { mutable due : int; mutable gap : float;
                   mutable burst_left : int }

  type t = {
    assigned : (int, pattern) Hashtbl.t;
    last_run : (int, int) Hashtbl.t;
    flickers : (int, flicker) Hashtbl.t;
    slowers : (int, slowing) Hashtbl.t;
  }

  let rec resolve step = function
    | Switch_at (s, before, after) ->
      if step < s then resolve step before else resolve step after
    | p -> p

  let pattern t p =
    Option.value (Hashtbl.find_opt t.assigned p) ~default:(Weighted 1.0)

  let last_run t p = Option.value (Hashtbl.find_opt t.last_run p) ~default:(-1)

  let slowing_state t p step initial_gap burst =
    match Hashtbl.find_opt t.slowers p with
    | Some s -> s
    | None ->
      let s = { due = step; gap = float_of_int initial_gap; burst_left = burst } in
      Hashtbl.replace t.slowers p s;
      s

  let flicker_awake t p step active sleep growth =
    let f =
      match Hashtbl.find_opt t.flickers p with
      | Some f -> f
      | None ->
        let f =
          { awake = true; phase_end = step + active;
            sleep_len = float_of_int sleep }
        in
        Hashtbl.replace t.flickers p f;
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

  let least_recent t step runnable ~spare =
    let best = ref (-1) and best_ran = ref max_int in
    Array.iter
      (fun p ->
        let eligible =
          match resolve step (pattern t p) with
          | Every { period; offset } -> spare || (step - offset) mod period = 0
          | Slowing { initial_gap; burst; _ } ->
            (not spare) && step >= (slowing_state t p step initial_gap burst).due
          | _ -> false
        in
        if eligible && last_run t p < !best_ran then begin
          best := p;
          best_ran := last_run t p
        end)
      runnable;
    !best

  let weighted_pick rng weights runnable =
    let total = Array.fold_left (fun acc p -> acc +. weights p) 0.0 runnable in
    if total <= 0.0 then -1
    else begin
      let target = Rng.float rng *. total in
      let acc = ref 0.0 and chosen = ref (-1) in
      Array.iter
        (fun p ->
          if !chosen < 0 then begin
            acc := !acc +. weights p;
            if !acc > target then chosen := p
          end)
        runnable;
      if !chosen < 0 then runnable.(Array.length runnable - 1) else !chosen
    end

  let pick t ~step ~runnable ~rng =
    if Array.length runnable = 0 then None
    else begin
      let claimant = least_recent t step runnable ~spare:false in
      if claimant >= 0 then begin
        Hashtbl.replace t.last_run claimant step;
        (match resolve step (pattern t claimant) with
        | Slowing { initial_gap; growth; burst } ->
          let s = slowing_state t claimant step initial_gap burst in
          if s.burst_left > 1 then s.burst_left <- s.burst_left - 1
          else begin
            s.burst_left <- Int.max 1 burst;
            s.due <- step + int_of_float s.gap;
            s.gap <- s.gap *. growth
          end
        | _ -> ());
        Some claimant
      end
      else begin
        let weights = Hashtbl.create 8 in
        Array.iter
          (fun p ->
            Hashtbl.replace weights p
              (match resolve step (pattern t p) with
              | Weighted w -> w
              | Flicker { active; sleep; growth } ->
                if flicker_awake t p step active sleep growth then 1.0 else 0.0
              | _ -> 0.0))
          runnable;
        let chosen = weighted_pick rng (Hashtbl.find weights) runnable in
        let chosen =
          if chosen >= 0 then chosen else least_recent t step runnable ~spare:true
        in
        if chosen < 0 then None
        else begin
          Hashtbl.replace t.last_run chosen step;
          Some chosen
        end
      end
    end

  let of_patterns assignments =
    let t =
      {
        assigned = Hashtbl.create 8;
        last_run = Hashtbl.create 8;
        flickers = Hashtbl.create 8;
        slowers = Hashtbl.create 8;
      }
    in
    List.iter
      (fun (p, pat) -> if p >= 0 then Hashtbl.replace t.assigned p pat)
      assignments;
    pick t
end

(* A random plan over pids [0, named), drawn from [rng]: every pattern,
   [Switch_at] nested up to three deep, [Weighted 0.0], small [Every]
   periods so claims coincide, and now and then a negative pid (ignored)
   or a pid named twice (the later one wins). *)
let random_assignments rng ~named ~horizon =
  let rec pattern depth =
    match Rng.int rng (if depth >= 3 then 5 else 6) with
    | 0 -> Policy.Every { period = 1 + Rng.int rng 5; offset = Rng.int rng 6 }
    | 1 -> Policy.Weighted (Rng.pick rng [| 0.0; 0.5; 1.0; 3.0 |])
    | 2 ->
      Policy.Flicker
        { active = 1 + Rng.int rng 12; sleep = 1 + Rng.int rng 15;
          growth = Rng.pick rng [| 1.0; 1.5; 2.0 |] }
    | 3 ->
      Policy.Slowing
        { initial_gap = Rng.int rng 6; growth = Rng.pick rng [| 1.0; 1.3 |];
          burst = Rng.int rng 4 }
    | 4 -> Policy.Silent
    | _ -> Policy.Switch_at (Rng.int rng horizon, pattern (depth + 1), pattern (depth + 1))
  in
  let named_pids = List.init named (fun p -> p, pattern 0) in
  let extra =
    List.init (Rng.int rng 3) (fun _ ->
        (if Rng.bool rng 0.5 then -1 - Rng.int rng 3 else Rng.int rng (named + 1)),
        pattern 0)
  in
  named_pids @ extra

(* Ascending runnable sets over [0, pids): pids past the plan's are
   unnamed ([Weighted 1.0]); a set may be empty. Most steps keep the
   previous set, as a run does between membership changes. *)
let random_runnable rng ~pids prev =
  if Rng.bool rng 0.8 && prev <> [||] then prev
  else
    Array.of_list
      (List.filter (fun _ -> Rng.bool rng 0.6) (List.init pids Fun.id))

(* Run [got] and [want] side by side, each with its own copy of one RNG,
   at the steps [next_step] walks from 0 over the sets [next_runnable]
   draws, and fail at the first step whose pick or RNG state differs. *)
let agree ~seed ~steps ~next_step ~next_runnable got want =
  let rng = Rng.create (Int64.of_int (seed * 31)) in
  let rng_model = Rng.copy rng in
  let step = ref 0 and runnable = ref [||] in
  for i = 0 to steps - 1 do
    if i > 0 then step := next_step !step;
    runnable := next_runnable !step !runnable;
    let step = !step and runnable = !runnable in
    let got = got ~step ~runnable ~rng in
    let want = want ~step ~runnable ~rng:rng_model in
    if got <> want then
      QCheck.Test.fail_reportf "step %d: pick %a, model %a" step
        Fmt.(option ~none:(any "idle") int) got
        Fmt.(option ~none:(any "idle") int) want;
    if Rng.next (Rng.copy rng) <> Rng.next (Rng.copy rng_model) then
      QCheck.Test.fail_reportf "step %d: rng state differs" step
  done;
  true

let qcheck_one_pass_matches_three_pass =
  QCheck.Test.make ~name:"one-pass picks equal the three-pass model" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let gen = Rng.create (Int64.of_int seed) in
      let horizon = 400 in
      let named = 1 + Rng.int gen 6 in
      let assignments = random_assignments gen ~named ~horizon in
      let pids = named + Rng.int gen 3 in
      agree ~seed ~steps:horizon ~next_step:succ
        ~next_runnable:(fun _ prev -> random_runnable gen ~pids prev)
        (One_pass.of_patterns assignments)
        (Three_pass.of_patterns assignments))

(* A plan made mostly of [Every] pids, so most segments are all-[Every]:
   periods that share the lcm 12, pairwise coprime ones whose lcm
   outgrows the calendar, and ones past the calendar on their own (due
   once in the run); offsets below 0, inside the period and past it;
   [Switch_at]s inside the run; now and then a silent, slowing or soft
   pid. *)
let every_assignments rng ~named ~horizon =
  let every () =
    let period, due =
      match Rng.int rng 4 with
      | 0 | 1 ->
        let period = Rng.pick rng [| 1; 2; 3; 4; 6; 12 |] in
        period, Rng.int rng period
      | 2 ->
        let period = Rng.pick rng [| 5; 7; 11; 13 |] in
        period, Rng.int rng period
      | _ -> Rng.pick rng [| 4099; 5003 |], Rng.int rng horizon
    in
    Policy.Every { period; offset = due + ((Rng.int rng 3 - 1) * period) }
  in
  let rec pattern depth =
    match Rng.int rng 20 with
    | 0 -> Policy.Silent
    | 1 -> Policy.Slowing { initial_gap = Rng.int rng 6; growth = 1.3; burst = 2 }
    | 2 ->
      if Rng.bool rng 0.5 then Policy.Weighted 1.0
      else Policy.Flicker { active = 5; sleep = 9; growth = 1.5 }
    | (3 | 4 | 5) when depth < 2 ->
      Policy.Switch_at (Rng.int rng horizon, pattern (depth + 1), pattern (depth + 1))
    | _ -> every ()
  in
  List.init named (fun p -> p, pattern 0)

(* The [Every] pids of [assignments] due at [step]; a pid named twice
   takes its later pattern, as in [of_patterns]. *)
let due_pids assignments step =
  let rec leaf = function
    | Policy.Switch_at (s, before, after) -> leaf (if step < s then before else after)
    | p -> p
  in
  let latest =
    List.fold_left
      (fun acc (p, pat) -> if p >= 0 then (p, pat) :: List.remove_assoc p acc else acc)
      [] assignments
  in
  List.filter_map
    (fun (p, pat) ->
      match leaf pat with
      | Policy.Every { period; offset } when (step - offset) mod period = 0 -> Some p
      | _ -> None)
    latest

let qcheck_compiled_matches_one_pass =
  QCheck.Test.make ~name:"compiled picks equal the one-pass model" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let gen = Rng.create (Int64.of_int seed) in
      let horizon = 600 in
      let named = 1 + Rng.int gen 8 in
      let assignments =
        if Rng.bool gen 0.7 then every_assignments gen ~named ~horizon
        else random_assignments gen ~named ~horizon
      in
      let pids = named + Rng.int gen 3 in
      let all = List.init pids Fun.id in
      (* in half the runs the steps now and then jump, backwards too *)
      let jumps = Rng.bool gen 0.5 in
      let next_step step =
        if jumps && Rng.int gen 40 = 0 then Rng.int gen horizon else step + 1
      in
      let next_runnable step prev =
        match Rng.int gen 10 with
        | 0 | 1 -> (
          (* everyone but a pid that is due *)
          match due_pids assignments step with
          | [] -> Array.of_list all
          | due ->
            let d = List.nth due (Rng.int gen (List.length due)) in
            Array.of_list (List.filter (( <> ) d) all))
        | 2 | 3 -> random_runnable gen ~pids [||]
        | _ -> if prev = [||] then Array.of_list all else prev
      in
      agree ~seed ~steps:horizon ~next_step ~next_runnable
        (Policy.next (Policy.of_patterns assignments))
        (One_pass.of_patterns assignments))

let test_bad_period_rejected () =
  let contains s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  let rejects name pid assignments =
    match Policy.of_patterns assignments with
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Fmt.str "%s: %S names pid %d" name msg pid)
        true
        (contains msg (Fmt.str "pid %d " pid))
    | _ -> Alcotest.failf "%s: accepted" name
  in
  rejects "period 0" 0 [ 0, Policy.Every { period = 0; offset = 0 } ];
  rejects "negative period" 2
    [ 0, Policy.Weighted 1.0; 2, Policy.Every { period = -3; offset = 0 } ];
  rejects "inside a Switch_at" 3
    [
      0, Policy.Every { period = 2; offset = 0 };
      ( 3,
        Policy.Switch_at
          ( 10,
            Policy.Silent,
            Policy.Switch_at
              (20, Policy.Weighted 1.0, Policy.Every { period = 0; offset = 1 }) ) );
    ]

let () =
  Alcotest.run "policy"
    [
      ( "unit",
        [
          Alcotest.test_case "round robin fair" `Quick test_round_robin_fair;
          Alcotest.test_case "round robin skips missing" `Quick
            test_round_robin_skips_missing;
          Alcotest.test_case "weighted respects weights" `Quick
            test_weighted_respects_weights;
          Alcotest.test_case "every claims its steps" `Quick test_every_claims;
          Alcotest.test_case "every gap bounded" `Quick test_every_gap_bounded;
          Alcotest.test_case "flicker gaps grow" `Quick test_flicker_gaps_grow;
          Alcotest.test_case "slowing gaps grow" `Quick test_slowing_gaps_grow;
          Alcotest.test_case "slowing burst" `Quick test_slowing_burst;
          Alcotest.test_case "silent never runs" `Quick test_silent_never_runs;
          Alcotest.test_case "switch_at" `Quick test_switch_at;
          Alcotest.test_case "replay lenient vs strict" `Quick
            test_replay_lenient_vs_strict;
          Alcotest.test_case "replay strict faithful" `Quick
            test_replay_strict_faithful;
          Alcotest.test_case "solo_after" `Quick test_solo_after;
        ] );
      ( "of_patterns",
        [
          Alcotest.test_case "schedule golden" `Quick test_schedule_golden;
          Alcotest.test_case "pick allocation" `Quick test_pick_allocation;
          QCheck_alcotest.to_alcotest qcheck_one_pass_matches_three_pass;
          QCheck_alcotest.to_alcotest qcheck_compiled_matches_one_pass;
          Alcotest.test_case "bad periods rejected" `Quick
            test_bad_period_rejected;
        ] );
    ]
