(** Schedule exploration: exhaustive search with partial-order reduction,
    random fuzzing with shrinking, and deterministic replay.

    The paper's definitions and theorems quantify over {e all} schedules,
    so the simulator's determinism is leveraged three ways:

    - {!exhaustive} enumerates every interleaving of a small scenario up to
      [max_steps], pruned by sleep-set partial-order reduction: two steps
      of different processes that touch disjoint registers — or only read
      the registers they share — commute, so only one of their orders is
      explored (see {!Independence}). The invariant is evaluated after
      {e every} step of every executed schedule, so it must be a safety
      predicate (true in every reachable state), and a violation witness is
      a prefix of some schedule.
    - {!fuzz} samples random schedules from a seeded generator — the bug
      hunter for scenarios too large to exhaust — and shrinks any failing
      schedule to a 1-minimal counterexample by delta debugging
      ({!Shrink.ddmin}).
    - {!replay} re-executes a pid schedule deterministically, which is how
      witnesses are validated, shrunk, and committed as regression tests
      (serialize them with {!Tbwf_sim.Schedule}).

    Witness schedules are pid-per-step lists as recorded by
    {!Tbwf_sim.Trace.schedule}.

    {2 Soundness of the reduction}

    Sleep sets preserve every schedule up to commuting adjacent independent
    steps, and the independence relation is conservative (observed register
    footprints; invocations count as writes), so any invariant that is a
    function of shared-object state or of per-object operation histories —
    linearizability, value-domain safety, occupancy counters implemented as
    shared objects — is checked as exhaustively as without reduction. An
    invariant that observes {e purely local} state which shared-object
    footprints do not protect (e.g. a plain [ref] mutated by two processes)
    can in principle be missed between two commuting steps: route such
    observations through a shared object, or use [~por:false] /
    {!exhaustive_naive}. *)

type outcome = {
  schedules : int;  (** complete schedule executions *)
  violation : int list option;
      (** a witness pid schedule that falsified the invariant, if any;
          replayable with {!replay} and serializable with
          {!Tbwf_sim.Schedule} *)
  exhausted : bool;
      (** [true] iff the search space was fully covered; [false] means the
          [max_schedules] budget was hit first, so the absence of a
          violation is inconclusive *)
}

val exhaustive :
  ?max_schedules:int ->
  ?por:bool ->
  ?pool:Tbwf_parallel.Pool.t ->
  max_steps:int ->
  scenario:(Tbwf_sim.Runtime.t -> unit -> bool) ->
  make_runtime:(unit -> Tbwf_sim.Runtime.t) ->
  unit ->
  outcome
(** [exhaustive ~max_steps ~scenario ~make_runtime ()] runs [scenario rt]
    to set up tasks on a fresh runtime per schedule; the returned thunk is
    the invariant, evaluated after every step. Depth-first search over the
    tree of per-step pid choices; each executed schedule is maximal (all
    tasks finished, or [max_steps] reached), and — unlike the
    pre-reduction explorer — covers all of its own prefixes in a single
    execution instead of re-running each prefix from scratch.

    [por] (default [true]) enables sleep-set partial-order reduction.
    Exploration stops at the first violation (with the witness), or once
    [max_schedules] (default 200 000) schedules have been executed, in
    which case [exhausted] is [false] and [violation] reflects only the
    covered part — exceeding the budget is reported, never raised.

    [pool] fans the search out over the initial state's runnable
    processes: each root branch explores its own subtree on its own
    domain (each schedule still builds its own runtime, so tasks share
    nothing), with earlier branches' first-step footprints pre-seeded so
    every branch prunes exactly as the sequential search would. Outcomes
    merge in branch order under a simulated global budget, so the result
    is identical to the sequential search — same [schedules], same
    winning [violation] — except that when the budget cuts off partway
    through a branch the merged outcome is the budget-reached one. A
    one-domain pool (or a single root branch) falls back to the
    sequential search. *)

val exhaustive_naive :
  ?max_schedules:int ->
  max_steps:int ->
  scenario:(Tbwf_sim.Runtime.t -> unit -> bool) ->
  make_runtime:(unit -> Tbwf_sim.Runtime.t) ->
  unit ->
  outcome
(** The pre-reduction algorithm, kept as the baseline the reduction is
    measured against (experiment E15) and as the fallback for invariants
    outside the reduced search's soundness class: every prefix is executed
    from scratch as its own schedule, so [schedules] counts one execution
    per prefix plus one probe per extension. Same outcome contract as
    {!exhaustive}, including the budget behaviour. *)

type fuzz_outcome = {
  fuzz_runs : int;  (** schedules executed, counting the failing one *)
  counterexample : int list option;
      (** minimal failing pid schedule, if a violation was found *)
  shrunk_from : int option;
      (** length of the original failing schedule before shrinking *)
  exhausted_batch : (int * int64) option;
      (** [Some (k, task_seed)] iff the run budget was exhausted without a
          witness: the index of the batch in flight when the budget ran
          out and its {!Tbwf_sim.Rng.task_seed}-derived stream seed. A
          partial outcome is thereby replayable — a follow-up fuzz can
          resume from exactly that stream. [None] when a counterexample was found. *)
}

val fuzz_batch_runs : int
(** Runs per fuzz batch (25). Fuzzing is partitioned into fixed-size
    batches, batch [k] drawing from its own stream seeded
    [Rng.task_seed ~master:seed k] — the partition is identical at every
    job count, which is what makes pooled fuzzing byte-identical to
    sequential fuzzing. *)

val fuzz :
  ?seed:int64 ->
  ?runs:int ->
  ?pool:Tbwf_parallel.Pool.t ->
  max_steps:int ->
  scenario:(Tbwf_sim.Runtime.t -> unit -> bool) ->
  make_runtime:(unit -> Tbwf_sim.Runtime.t) ->
  unit ->
  fuzz_outcome
(** Execute up to [runs] (default 1000) random schedules of at most
    [max_steps] steps each, choosing uniformly among runnable processes
    with a generator seeded per batch from [seed] (fuzzing is itself
    deterministic: same seed, same schedules). On the first invariant
    violation the failing schedule is shrunk with {!Shrink.ddmin} to a
    schedule on which the violation still reproduces and no single step
    can be removed.

    [pool] runs the {!fuzz_batch_runs}-sized batches across domains; the
    reported outcome is always that of the lowest-index witnessing batch
    (counting runs up to and including the witness), so the result is the
    same at any job count — a pool merely runs later batches
    speculatively. *)

val replay :
  max_steps:int ->
  scenario:(Tbwf_sim.Runtime.t -> unit -> bool) ->
  make_runtime:(unit -> Tbwf_sim.Runtime.t) ->
  int list ->
  bool
(** [replay ~max_steps ~scenario ~make_runtime pids] re-executes a pid
    schedule on a fresh runtime, checking the invariant after every step;
    [true] iff it held throughout. Entries whose pid is not currently
    runnable (finished, crashed — or made meaningless by shrinking) are
    skipped, which keeps every sublist of a schedule executable: exactly
    what {!Shrink.ddmin} needs. *)

val replay_checked :
  max_steps:int ->
  scenario:(Tbwf_sim.Runtime.t -> unit -> bool) ->
  make_runtime:(unit -> Tbwf_sim.Runtime.t) ->
  int list ->
  bool * int
(** Like {!replay}, but also counts mismatched entries — recorded non-idle
    pids that were not runnable and so were skipped. A committed
    counterexample replayed against drifted code should report its
    mismatch count rather than silently checking a different schedule;
    a faithful replay reports 0. *)

(** {2 Fuzzing schedules and fault plans together}

    A run under fault injection is a function of (seed, schedule, fault
    plan), so counterexample search gains a second dimension: the plan.
    {!fuzz_faults} is {!fuzz} generalized over an abstract plan type —
    each run draws a fresh plan from [gen_plan] (using the fuzzer's own
    seeded stream, so plan drawing is as deterministic as schedule
    drawing), builds the runtime and scenario {e for that plan} (the plan
    decides crash injections and abort policies at construction time), and
    random-walks schedules as before. A failing (schedule, plan) pair is
    shrunk in both dimensions: schedule by {!Shrink.ddmin}, plan by the
    caller's [shrink_plan] (typically ddmin over the plan's atoms), then
    the schedule once more under the smaller plan. *)

type 'plan fault_fuzz_outcome = {
  plan_runs : int;  (** (schedule, plan) pairs executed *)
  plan_counterexample : (int list * 'plan) option;
      (** shrunk failing pair, if a violation was found *)
  plan_shrunk_from : int option;
      (** schedule length before shrinking *)
}

val fuzz_faults :
  ?seed:int64 ->
  ?runs:int ->
  ?pool:Tbwf_parallel.Pool.t ->
  gen_plan:(Tbwf_sim.Rng.t -> 'plan) ->
  shrink_plan:(fails:('plan -> bool) -> 'plan -> 'plan) ->
  max_steps:int ->
  scenario:('plan -> Tbwf_sim.Runtime.t -> unit -> bool) ->
  make_runtime:('plan -> unit -> Tbwf_sim.Runtime.t) ->
  unit ->
  'plan fault_fuzz_outcome
(** [shrink_plan ~fails plan] must return a (possibly equal) plan on which
    [fails] still holds — {!Tbwf_nemesis.Fault_plan.shrink} is the
    intended implementation. Everything else is as {!fuzz}, including the
    batched generator streams and [pool]: each batch draws its plans and
    schedules from its own seeded stream. *)
