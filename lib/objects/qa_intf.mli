(** The query-abortable object interface T_QA (paper §1.2 footnote 3 and
    §7, after reference [2]).

    An object of type T_QA behaves like one of type T except that:
    - any operation executed concurrently with another may {e abort},
      returning ⊥ ({!Tbwf_sim.Value.Abort}), with or without taking effect;
    - an extra [query] operation tells the calling process the fate of its
      own last non-query operation: the response that operation should have
      returned if it took effect, or F ({!Tbwf_sim.Value.Fail}) if it did
      not. [query] may itself abort.

    Both implementations in this library ({!Qa_object} and {!Qa_universal})
    are wait-free: every call returns after a bounded number of the caller's
    own steps — aborting instead of blocking is exactly what makes the
    universal construction of Figure 7 live. *)

(** Which simulated object an implementation's [invoke]/[query] call, so
    analyses can attribute that object's operations to the QA layer. *)
type view =
  | Direct of Tbwf_sim.Shared.t
      (** a {!Qa_object}: [invoke]/[query] are single operations on this
          object ([Pair (Str "apply", op)] / [Pair (Str "query", Unit)]) *)
  | Universal of Tbwf_sim.Shared.t
      (** a {!Qa_universal} over this RMW cell: [invoke] is one
          [Pair (Str "rmw", Pair (op_id, op))] with client-side op-id
          bookkeeping, [query] is one read with a client-side fate lookup *)

type t = {
  name : string;
  invoke : Tbwf_sim.Value.t -> Tbwf_sim.Value.t;
      (** apply a T-operation; returns its response or [Abort]. Must be
          called from inside a task. *)
  query : unit -> Tbwf_sim.Value.t;
      (** fate of the caller's last non-query operation: a response,
          [Fail], or [Abort]. Must be called from inside a task. *)
  peek_state : unit -> Tbwf_sim.Value.t;
      (** zero-step inspection of the current sequential state, for tests *)
  view : view;
      (** the underlying object (see {!view}) *)
}
