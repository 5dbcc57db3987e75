(** Common scenario construction for the experiment suite.

    A scenario is a full TBWF stack (Ω∆ implementation + query-abortable
    object + Figure 7 transformation + client workload) plus a schedule
    policy, run in segments with Ω∆ output sampling between segments. *)

type omega_impl =
  | Omega_atomic  (** Figure 3 over activity monitors and atomic registers *)
  | Omega_abortable of Tbwf_registers.Abort_policy.t
      (** Figures 4–6 over abortable registers with this abort policy *)
  | Omega_naive  (** the non-gracefully-degrading booster baseline *)

val pp_omega_impl : Format.formatter -> omega_impl -> unit

type stack = {
  rt : Tbwf_sim.Runtime.t;
  handles : Tbwf_omega.Omega_spec.handle array;
  qa : Tbwf_objects.Qa_intf.t;
  tbwf : Tbwf_core.Tbwf.t;
  stats : Tbwf_core.Workload.stats;
}

val build :
  ?seed:int64 ->
  ?canonical:bool ->
  ?qa_universal:bool ->
  ?qa_policy:Tbwf_registers.Abort_policy.t ->
  n:int ->
  omega:omega_impl ->
  spec:Tbwf_objects.Seq_spec.t ->
  next_op:(pid:int -> k:int -> Tbwf_sim.Value.t option) ->
  client_pids:int list ->
  unit ->
  stack
(** Wire a complete stack. [qa_policy] defaults to always-abort-on-
    contention; [qa_universal] selects the layered RMW-cell construction
    instead of the direct object (default false). *)

val degraded_policy :
  ?untimely_pattern:[ `Flicker of int * int * float | `Slowing of int * float ] ->
  n:int ->
  timely:int list ->
  unit ->
  Tbwf_sim.Policy.t
(** Timely pids take steps in a deterministic interleave (an [Every] claim
    each, so each is timely with bound about twice the number of timely
    processes); the rest follow [untimely_pattern] — by default
    [`Slowing (60, 1.15)], a process whose step gaps grow geometrically
    (never timely, never willingly inactive), the adversary under which the
    baselines of E2 collapse. [`Flicker (active, sleep, growth)] alternates
    eager phases with geometrically growing silences instead. *)

val run_sampled :
  stack ->
  policy:Tbwf_sim.Policy.t ->
  segments:int ->
  segment_steps:int ->
  Tbwf_omega.Omega_spec.sample list
(** Run the stack [segments × segment_steps] further steps, sampling the Ω∆
    outputs after each segment; returns the samples in order. *)
