(** E10 — cost of the stack (engineering numbers, not a paper claim).

    Micro-workloads exercising each layer: raw scheduler steps, atomic
    register operations, abortable register operations, query-abortable
    object operations, and a full TBWF operation including leader election.
    [compute]/[report] give a coarse self-timed table for the experiments
    binary; [benchmark/run.sh] measures the same layers with repeats and
    spread. *)

type row = { layer : string; steps : int; seconds : float; steps_per_sec : float }

type result = { rows : row list }

val compute : ?quick:bool -> unit -> result
val report : Format.formatter -> result -> unit
