(** Windowed completion-rate monitor: the streaming form of the
    tail-rate floor.

    Where {!Degradation} verdicts one tail against one plan prediction,
    this watches the whole run as a sequence of fixed-size step windows
    and records, per process, whether each {e closed} window met a
    completions floor. Long soak runs stream its {!to_json} alongside
    each telemetry record; a process that degrades shows up as a window
    under the floor the moment it happens, not at end of run. O(n)
    memory regardless of horizon, and as deterministic as the event
    stream feeding it. *)

type t

val create : ?floor:int -> ?watch:int list -> n:int -> window:int -> unit -> t
(** [window] is in steps; [floor] (default 1) is the completions a
    closed window must reach to count as ok; [watch] (default all pids)
    restricts whose windows feed the aggregate {!ok} — pass the plan's
    predicted-timely set to mirror the degradation contract's exemption
    of untimely processes. Raises [Invalid_argument] if [window < 1] or
    [floor < 0]. *)

val sink : t -> Tbwf_sim.Sink.t
(** Feed the monitor from a run; compose with other observers via
    [Sink.tee]. A window closes when the first step or signal of a later
    window arrives; call sites only need [on_step] and [Op_complete].
    Its [on_invoke]/[on_respond] are {!Tbwf_sim.Sink.nil}'s, so a tee
    skips this side for them. *)

val n : t -> int
val window : t -> int
val floor : t -> int

val closed_windows : t -> int
val last_rates : t -> int array
(** Per-pid completions in the most recently closed window (zeros before
    the first close). *)

val current_rates : t -> int array
(** Per-pid completions in the still-accumulating window. *)

val ok_windows : t -> int array
(** Per-pid count of closed windows that met the floor. *)

val min_rate : t -> pid:int -> int option
(** Minimum completions over closed windows; [None] before the first
    window closes. *)

val pid_ok : t -> pid:int -> bool
(** Every closed window met the floor (vacuously true at zero closed). *)

val ok : t -> bool
(** {!pid_ok} over the watched set. *)

val to_json : t -> Tbwf_telemetry.Json.t
