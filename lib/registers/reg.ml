(* First-class register handles and register factories. See reg.mli. *)

type 'a t = {
  name : string;
  read : unit -> 'a;
  write : 'a -> unit;
  peek : unit -> 'a;
}

module Abortable = struct
  type 'a t = {
    name : string;
    read : unit -> 'a option;
    write : 'a -> bool;
    peek : unit -> 'a;
  }
end

type kind = Mwmr | Swmr of { writer : int }

type factory = {
  mk_reg :
    'a. kind:kind -> name:string -> codec:'a Codec.t -> init:'a -> 'a t;
  mk_areg :
    'a.
    name:string ->
    codec:'a Codec.t ->
    init:'a ->
    writer:int ->
    reader:int ->
    policy:Abort_policy.t ->
    write_effect:Abort_policy.write_effect option ->
    'a Abortable.t;
}

let of_atomic reg =
  {
    name = Atomic_reg.name reg;
    read = (fun () -> Atomic_reg.read reg);
    write = (fun v -> Atomic_reg.write reg v);
    peek = (fun () -> Atomic_reg.peek reg);
  }

let of_abortable reg =
  {
    Abortable.name = Abortable_reg.name reg;
    read = (fun () -> Abortable_reg.read reg);
    write = (fun v -> Abortable_reg.write reg v);
    peek = (fun () -> Abortable_reg.peek reg);
  }

let shared_factory rt =
  {
    mk_reg =
      (fun ~kind:_ ~name ~codec ~init ->
        of_atomic (Atomic_reg.create rt ~name ~codec ~init));
    mk_areg =
      (fun ~name ~codec ~init ~writer ~reader ~policy ~write_effect ->
        of_abortable
          (Abortable_reg.create rt ~name ~codec ~init ~writer ~reader ~policy
             ?write_effect ()));
  }
