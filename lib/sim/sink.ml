(* Telemetry sink: the runtime's hook surface for observers.

   The runtime (and the libraries built on it) emit structured events
   through a sink record. The default sink is [nil], whose callbacks are
   no-ops and whose [active] flag is false; every instrumentation site
   guards on [active] *before* building the event's payload, so with the
   nil sink installed the only cost on the hot path is one boolean load
   and branch. Attaching a real sink (see lib/telemetry) turns the same
   sites into a deterministic event stream: events are keyed by the
   simulator's step counter, never by wall-clock, so the same (seed,
   policy) produces a byte-identical stream. *)

type layer = App | Omega | Monitor | Other

let layer_name = function
  | App -> "app"
  | Omega -> "omega"
  | Monitor -> "monitor"
  | Other -> "other"

let layer_index = function App -> 0 | Omega -> 1 | Monitor -> 2 | Other -> 3
let layers = [ App; Omega; Monitor; Other ]
let n_layers = 4

(* Structured events from the libraries above the step loop. Payloads are
   allocated only when a sink is active (call sites guard). *)
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

let nil =
  {
    active = false;
    on_step = (fun ~step:_ ~pid:_ ~layer:_ -> ());
    on_invoke =
      (fun ~step:_ ~pid:_ ~layer:_ ~obj_id:_ ~obj_name:_ ~op:_ -> ());
    on_respond =
      (fun ~step:_ ~pid:_ ~layer:_ ~obj_id:_ ~obj_name:_ ~op:_ ~result:_ ->
        ());
    on_signal = (fun ~step:_ ~pid:_ _ -> ());
  }

(* Fan one event stream out to two sinks, first [a] then [b] — the
   composition point that lets a collector and an online checker watch
   the same run. The tee is active if either side is, and call sites
   guard on the *tee*'s flag, so an inactive side just receives (and
   ignores) events its partner paid to build. Where one side's handler
   is [nil]'s own (physically), the other side's handler is used as it
   is, so a checker that ignores invokes and responds costs nothing on
   them. *)
let tee a b =
  {
    active = a.active || b.active;
    on_step =
      (if b.on_step == nil.on_step then a.on_step
       else if a.on_step == nil.on_step then b.on_step
       else fun ~step ~pid ~layer ->
         a.on_step ~step ~pid ~layer;
         b.on_step ~step ~pid ~layer);
    on_invoke =
      (if b.on_invoke == nil.on_invoke then a.on_invoke
       else if a.on_invoke == nil.on_invoke then b.on_invoke
       else fun ~step ~pid ~layer ~obj_id ~obj_name ~op ->
         a.on_invoke ~step ~pid ~layer ~obj_id ~obj_name ~op;
         b.on_invoke ~step ~pid ~layer ~obj_id ~obj_name ~op);
    on_respond =
      (if b.on_respond == nil.on_respond then a.on_respond
       else if a.on_respond == nil.on_respond then b.on_respond
       else fun ~step ~pid ~layer ~obj_id ~obj_name ~op ~result ->
         a.on_respond ~step ~pid ~layer ~obj_id ~obj_name ~op ~result;
         b.on_respond ~step ~pid ~layer ~obj_id ~obj_name ~op ~result);
    on_signal =
      (if b.on_signal == nil.on_signal then a.on_signal
       else if a.on_signal == nil.on_signal then b.on_signal
       else fun ~step ~pid s ->
         a.on_signal ~step ~pid s;
         b.on_signal ~step ~pid s);
  }
