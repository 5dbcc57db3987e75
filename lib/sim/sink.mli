(** Telemetry sink: the runtime's hook surface for observers.

    The runtime (and the libraries built on it) emit structured events
    through a sink record. The default sink is {!nil}, whose callbacks
    are no-ops and whose [active] flag is false; every instrumentation
    site guards on [active] {e before} building the event's payload, so
    with the nil sink installed the only cost on the hot path is one
    boolean load and branch. Attaching a real sink (see lib/telemetry)
    turns the same sites into a deterministic event stream: events are
    keyed by the simulator's step counter, never by wall-clock, so the
    same (seed, policy) produces a byte-identical stream. *)

(** Which part of the stack a task belongs to (set via
    [Runtime.spawn ~layer]); step attribution groups by it. *)
type layer = App | Omega | Monitor | Other

val layer_name : layer -> string
val layer_index : layer -> int
val layers : layer list
val n_layers : int

(** Structured events from the libraries above the step loop. Payloads
    are allocated only when a sink is active (call sites guard). *)
type signal =
  | Abort_decision of { obj_name : string; is_write : bool }
      (** an abortable register chose to abort the current operation *)
  | Leader_view of { leader : int option }
      (** the acting process's Ω∆ view changed ([None] = no leader) *)
  | Suspicion_flip of { watched : int; suspected : bool }
      (** activity monitor A(p,q) at the acting process p flipped its
          estimate of [watched] = q *)
  | Crash of { pid : int }  (** the runtime crashed process [pid] *)
  | Retire of { pid : int }
      (** the runtime gracefully retired process [pid]: it left the
          membership with any in-flight operation resolved first, so the
          departure is not a failure — checkers and telemetry count it
          apart from {!Crash} *)
  | Op_complete
      (** the acting process completed one workload-level operation (a
          full [Tbwf.invoke] round trip, not an individual register call
          — emitted by [Workload], so it counts exactly what
          [Workload.stats.completed] counts) *)
  | Message of { src : int; dst : int; latency : int; dropped : bool }
      (** the simulated network accepted a message from [src] to [dst];
          [latency] is the assigned delivery delay in steps, and
          [dropped] is true when the message was cut by a partition or a
          loss draw (then [latency] is the would-have-been delay) *)

type t = {
  active : bool;
  on_step : step:int -> pid:int -> layer:layer -> unit;
  on_invoke :
    step:int ->
    pid:int ->
    layer:layer ->
    obj_id:int ->
    obj_name:string ->
    op:Value.t ->
    unit;
  on_respond :
    step:int ->
    pid:int ->
    layer:layer ->
    obj_id:int ->
    obj_name:string ->
    op:Value.t ->
    result:Value.t ->
    unit;
  on_signal : step:int -> pid:int -> signal -> unit;
}

val nil : t
(** The inactive no-op sink; installed by default. *)

val tee : t -> t -> t
(** [tee a b] forwards every event to [a] then [b]; active iff either
    side is. Lets a collector and an online checker observe one run.
    Pass-through: for each callback, if one side's handler is {!nil}'s
    own (physical equality), the tee's handler {e is} the other side's,
    unwrapped — so a side built as [{ nil with on_step = ... }] costs
    nothing on the events it ignores. Events still reach [a] before
    [b]. *)
