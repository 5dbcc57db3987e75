(** The TBWF graceful-degradation contract, checked against a run.

    A fault plan ({!Tbwf_nemesis.Fault_plan}) predicts, for each process,
    whether it is still timely once the plan's last schedule-affecting
    fault has been injected. The paper's contract (Definition 3 plus
    Theorems 7–15) is then:

    - every process the plan predicts timely keeps completing operations
      in the tail of the run — its guarantee survives other processes'
      faults untouched;
    - processes the plan made untimely (or crashed) may stall, but that is
      {e all} that may happen: their faults never revoke anyone else's
      guarantee.

    This module is deliberately plan-agnostic: it consumes a bare
    {!prediction} (who is timely, from when, with what bound), a trace,
    and per-process completed-operation counters snapshotted at the tail
    boundary, so it sits below the nemesis library and any workload type.
    Gracefully-degrading algorithms must satisfy the verdict under every
    plan; boosting-style baselines are expected to violate it under plans
    that make some process non-timely — the negative control that shows
    the checker has teeth. *)

type emergent = {
  em_replicas : int;  (** replica count of the message-passing substrate *)
  em_live : int list;
      (** replicas the plan leaves uncrashed in the final regime *)
  em_reach : (int * int list) list;
      (** per client pid: which live replicas it reaches over links the
          plan leaves timely in the final regime (no partition cut, no
          persistent message loss; a pure delay ramp keeps a link
          timely — slower but bounded, the graceful half of the story) *)
}

type prediction = {
  pred_n : int;  (** process count *)
  pred_timely : int list;
      (** pids the plan predicts remain timely after [pred_from] *)
  pred_from : int;
      (** settle step: the last injected schedule-affecting fault; the
          checked tail is every step from here on *)
  pred_bound : int;
      (** timeliness bound the compiled plan is expected to deliver for
          the predicted-timely processes (Definition 1's gap bound) *)
  pred_emergent : emergent option;
      (** [None] on shared memory (register timeliness is intrinsic).
          [Some _] on a message-passing substrate: register timeliness is
          {e emergent} from link timeliness to a live replica majority,
          and a schedule-timely client that cannot reach a quorum is
          exempt rather than guaranteed *)
}

val emergent_majority : emergent -> int
(** [em_replicas/2 + 1]. *)

val emergent_quorate : emergent -> int -> bool
(** Does this client reach at least a majority of live replicas over
    timely links? *)

type process_verdict = {
  dv_pid : int;
  dv_predicted_timely : bool;
      (** plan-predicted timely {e and} (on a message-passing substrate)
          quorate — the guarantee actually in force *)
  dv_quorate : bool option;
      (** [None] on shared memory; on message passing, whether the client
          reaches a live replica majority over timely links *)
  dv_sched_timely : bool option;
      (** for predicted-timely processes: did the executed schedule
          actually keep the process timely in the tail (sanity check on
          the plan compiler)? [None] for exempt processes *)
  dv_tail_ops : int;  (** operations completed in the tail *)
  dv_tail_steps : int;  (** own steps taken in the tail *)
  dv_ok : bool;
}

type verdict = {
  holds : bool;  (** all predicted-timely processes made their contract *)
  from_step : int;
  processes : process_verdict list;
}

val tail_rate_denominator : int
(** [= 1_500]. The single authoritative statement of the default tail-rate
    floor: a predicted-timely process must complete at least one operation
    per [tail_rate_denominator × (n+1)] tail steps (and never fewer than
    2 in total; see {!required_tail_ops}). The graceful-degradation
    predicate demands a {e rate}, not bare non-zero progress: a booster
    that trusts a decelerating process forever still trickles the odd
    operation through a suspicion window — roughly one per doubling of the
    growing gap, geometrically rarer over time — while every TBWF system
    sustains about one operation per 1.5(n+1)k steps per timely process or
    better. At the nemesis catalogue's dimensions the paper systems
    complete 10–76 tail ops per timely process and the naive booster at
    most 1–2, so this floor separates the two populations with margin on
    both sides. [Tbwf_nemesis.Campaign.required_tail_ops] re-exports the
    derived floor; both cite this comment as the constant's home. *)

val required_tail_ops : n:int -> tail:int -> int
(** [max 2 (tail / (tail_rate_denominator * (n + 1)))] — the default
    [min_ops] for a [tail]-step tail with [n] processes. See
    {!tail_rate_denominator} for the rationale. *)

val check :
  ?min_ops:int ->
  ?require_sched_timely:bool ->
  prediction:prediction ->
  trace:Tbwf_sim.Trace.t ->
  completed_before:int array ->
  completed_after:int array ->
  unit ->
  verdict
(** [check ~prediction ~trace ~completed_before ~completed_after ()]
    verdicts one finished run. [completed_before] is the per-pid
    completed-operation counter snapshotted at [pred_from];
    [completed_after] at the end of the run. A predicted-timely process is
    ok iff it completed at least [min_ops] (default 1) operations in the
    tail and (unless [require_sched_timely] is [false]) the executed
    schedule kept it timely with bound [pred_bound] — a failed schedule
    sanity check means the {e plan compilation} is at fault, not the
    algorithm, and is reported via [dv_sched_timely] so it is never
    mistaken for an algorithm violation. Raises [Invalid_argument] if the
    counter arrays do not have length [pred_n]. *)

(** {2 Online checking}

    The same contract decided incrementally from the event stream, for
    runs too long to keep a trace of. An {!Online.t} consumes the sink
    stream as the run executes — O(n²) memory in the process count,
    independent of the horizon — and its {!Online.verdict} is field-for-
    field equal to what {!check} would return on the finished run's
    trace: the gap bookkeeping replicates [Timeliness.max_gap] (including
    the vacuous never-stepped case) and the verdict assembly replicates
    {!check} verbatim. The differential test in [test/test_nemesis.ml]
    enforces the equality across the full campaign × system matrix on
    both substrates. *)

module Online : sig
  type t

  val create : ?min_ops:int -> ?require_sched_timely:bool -> prediction -> t
  (** Same defaults and meaning as the corresponding {!check}
      arguments. The tail boundary is [prediction.pred_from]: events
      before it only accumulate the pre-tail completion counters. *)

  val sink : t -> Tbwf_sim.Sink.t
  (** Install with [Runtime.set_sink], or compose with a collector's
      sink via [Sink.tee] — the checker only reads [on_step] and
      [Op_complete] signals, other signals just arm the tail boundary,
      and its [on_invoke]/[on_respond] are {!Tbwf_sim.Sink.nil}'s, so a
      tee skips this side for them. *)

  val verdict : t -> verdict
  (** The verdict over everything consumed so far. Non-destructive: safe
      to call per stream window for running verdicts and again at the
      end of the run. *)
end

val min_timely_tail_ops : verdict -> int option
(** Minimum tail operations over predicted-timely processes; [None] if the
    plan predicts nobody timely. *)

val process_json : process_verdict -> Tbwf_telemetry.Json.t
val verdict_json : verdict -> Tbwf_telemetry.Json.t
(** Canonical JSON rendering of a verdict — what the streaming telemetry
    records and the world layer embed. *)

val pp_verdict : Format.formatter -> verdict -> unit
