(* Message-passing register emulations: ABD atomic and time-efficient
   regular registers over the simulated network, plus the client-side
   abortable adapter. See mp_reg.mli for semantics. *)

open Tbwf_sim
module Net = Tbwf_net.Net

type reg_kind = K_atomic | K_regular

type spec = { rkind : reg_kind; rname : string; rinit : Value.t }

(* Per-replica per-register state. Atomic registers use (ts, wid, v);
   regular registers use (sn, v). Unused fields stay at their inits. *)
type rstate = {
  mutable ts : int;
  mutable wid : int;
  mutable sn : int;
  mutable v : Value.t;
}

module Cluster = struct
  type t = {
    rt : Runtime.t;
    net : Net.t;
    specs : (int, spec) Hashtbl.t;
    states : (int, rstate) Hashtbl.t array;  (* one table per replica *)
    mutable next_rid : int;
  }

  let net t = t.net

  let state t ~r ~rid =
    match Hashtbl.find_opt t.states.(r) rid with
    | Some s -> s
    | None ->
      let spec = Hashtbl.find t.specs rid in
      let s = { ts = 0; wid = -1; sn = 0; v = spec.rinit } in
      Hashtbl.add t.states.(r) rid s;
      s

  (* Request handling at replica [r]. Every handler is idempotent (tag
     and sequence updates are monotonic), so retransmitted requests are
     harmless. *)
  let process t ~r payload =
    let open Value in
    match payload with
    | List [ Str "aq"; Int rid ] ->
      let s = state t ~r ~rid in
      List [ Str "aqr"; Int rid; Int s.ts; Int s.wid; s.v ]
    | List [ Str "aw"; Int rid; Int ts; Int wid; v ] ->
      let s = state t ~r ~rid in
      if (ts, wid) > (s.ts, s.wid) then begin
        s.ts <- ts;
        s.wid <- wid;
        s.v <- v
      end;
      List [ Str "awr"; Int rid ]
    | List [ Str "rw"; Int rid; Int sn; v ] ->
      let s = state t ~r ~rid in
      if sn > s.sn then begin
        s.sn <- sn;
        s.v <- v
      end;
      List [ Str "rwr"; Int rid; Int sn ]
    | List [ Str "rq"; Int rid ] ->
      let s = state t ~r ~rid in
      List [ Str "rqr"; Int rid; Int s.sn; s.v ]
    | _ -> Fail

  let server t ~r () =
    while true do
      let msgs = Net.poll t.net ~key:Net.catch_all in
      List.iter
        (fun (src, key, payload) ->
          Net.send t.net ~dst:src ~key (process t ~r payload))
        msgs
    done

  let create rt ~net =
    let replicas = (Net.config net).Net.replicas in
    let t =
      {
        rt;
        net;
        specs = Hashtbl.create 16;
        states = Array.init replicas (fun _ -> Hashtbl.create 16);
        next_rid = 0;
      }
    in
    for r = 0 to replicas - 1 do
      Runtime.spawn ~layer:Sink.Other rt
        ~pid:(Net.replica_pid net r)
        ~name:(Fmt.str "replica[%d]" r)
        (server t ~r)
    done;
    t
end

let alloc (cl : Cluster.t) rkind rname rinit =
  let rid = cl.Cluster.next_rid in
  cl.Cluster.next_rid <- rid + 1;
  Hashtbl.add cl.Cluster.specs rid { rkind; rname; rinit };
  rid

(* Broadcast [request] under a fresh key and block (polling, with
   retransmission to silent replicas) until a majority of distinct
   replicas answered with something [decode] accepts. Returns the
   accepted replies, one slot per replica. *)
let quorum (cl : Cluster.t) ~request ~decode =
  let net = cl.Cluster.net in
  let config = Net.config net in
  let replicas = config.Net.replicas in
  let me = Runtime.self () in
  let key = Net.fresh_key net ~pid:me in
  let replies = Array.make replicas None in
  let count = ref 0 in
  let broadcast ~missing_only =
    for r = 0 to replicas - 1 do
      if (not missing_only) || replies.(r) = None then
        Net.send net ~dst:(Net.replica_pid net r) ~key request
    done
  in
  broadcast ~missing_only:false;
  let polls = ref 0 in
  while !count < Net.majority config do
    List.iter
      (fun (src, _key, payload) ->
        let r = src - Net.n_clients net in
        if r >= 0 && r < replicas && replies.(r) = None then
          match decode payload with
          | Some x ->
            replies.(r) <- Some x;
            incr count
          | None -> ())
      (Net.poll net ~key);
    incr polls;
    if !count < Net.majority config && !polls mod config.Net.retransmit_every = 0
    then broadcast ~missing_only:true
  done;
  replies

let fold_replies replies ~init ~f =
  Array.fold_left
    (fun acc reply -> match reply with Some x -> f acc x | None -> acc)
    init replies

(* --- ABD-style MWMR atomic ------------------------------------------------ *)

let atomic cl ~name ~codec ~init =
  let rid = alloc cl K_atomic name (codec.Codec.enc init) in
  let open Value in
  let decode_query = function
    | List [ Str "aqr"; Int rid'; Int ts; Int wid; v ] when rid' = rid ->
      Some (ts, wid, v)
    | _ -> None
  in
  let decode_ack = function
    | List [ Str "awr"; Int rid' ] when rid' = rid -> Some ()
    | _ -> None
  in
  let query () =
    let replies = quorum cl ~request:(List [ Str "aq"; Int rid ]) ~decode:decode_query in
    fold_replies replies
      ~init:(0, -1, codec.Codec.enc init)
      ~f:(fun (ts, wid, v) (ts', wid', v') ->
        if (ts', wid') > (ts, wid) then (ts', wid', v') else (ts, wid, v))
  in
  let update (ts, wid, v) =
    ignore
      (quorum cl
         ~request:(List [ Str "aw"; Int rid; Int ts; Int wid; v ])
         ~decode:decode_ack)
  in
  let read () =
    (* phase 1: highest tag from a majority; phase 2: write it back, so
       no later read can observe an older tag *)
    let (_, _, v) as tag = query () in
    update tag;
    codec.Codec.dec v
  in
  let write x =
    let ts, _, _ = query () in
    update (ts + 1, Runtime.self (), codec.Codec.enc x)
  in
  let peek () =
    let replicas = (Net.config cl.Cluster.net).Net.replicas in
    let best = ref (0, -1, codec.Codec.enc init) in
    for r = 0 to replicas - 1 do
      match Hashtbl.find_opt cl.Cluster.states.(r) rid with
      | Some s ->
        let ts, wid, _ = !best in
        if (s.ts, s.wid) > (ts, wid) then best := (s.ts, s.wid, s.v)
      | None -> ()
    done;
    let _, _, v = !best in
    codec.Codec.dec v
  in
  {
    Reg.name;
    read;
    write;
    peek;
  }

(* --- time-efficient SWMR regular ----------------------------------------- *)

let regular cl ~name ~codec ~init ~writer =
  let rid = alloc cl K_regular name (codec.Codec.enc init) in
  let open Value in
  let next_sn = ref 0 in
  let decode_ack = function
    | List [ Str "rwr"; Int rid'; Int _sn ] when rid' = rid -> Some ()
    | _ -> None
  in
  let decode_read = function
    | List [ Str "rqr"; Int rid'; Int sn; v ] when rid' = rid -> Some (sn, v)
    | _ -> None
  in
  let write x =
    if Runtime.self () <> writer then
      invalid_arg (Printf.sprintf "Mp_reg %s: pid %d is not the writer" name
                     (Runtime.self ()));
    incr next_sn;
    ignore
      (quorum cl
         ~request:(List [ Str "rw"; Int rid; Int !next_sn; codec.Codec.enc x ])
         ~decode:decode_ack)
  in
  let read () =
    let replies = quorum cl ~request:(List [ Str "rq"; Int rid ]) ~decode:decode_read in
    let _, v =
      fold_replies replies
        ~init:(0, codec.Codec.enc init)
        ~f:(fun (sn, v) (sn', v') -> if sn' > sn then (sn', v') else (sn, v))
    in
    codec.Codec.dec v
  in
  let peek () =
    let replicas = (Net.config cl.Cluster.net).Net.replicas in
    let best = ref (0, codec.Codec.enc init) in
    for r = 0 to replicas - 1 do
      match Hashtbl.find_opt cl.Cluster.states.(r) rid with
      | Some s ->
        let sn, _ = !best in
        if s.sn > sn then best := (s.sn, s.v)
      | None -> ()
    done;
    codec.Codec.dec (snd !best)
  in
  {
    Reg.name;
    read;
    write;
    peek;
  }

(* --- SWSR abortable adapter ----------------------------------------------- *)

let abortable cl ~name ~codec ~init ~writer ~reader ~policy ~write_effect =
  let rt = cl.Cluster.rt in
  let base = regular cl ~name ~codec ~init ~writer in
  let write_effect =
    Option.value write_effect ~default:(Abort_policy.Effect_random 0.5)
  in
  (* The abort is decided before any message leaves: synthesize a solo
     context at the current step, so Unconditional fault policies (which
     key on respond_step and the object stream) behave exactly as on
     shared memory, while contention-gated policies never fire (legal —
     aborting is a permission, not an obligation). *)
  let decide op =
    let step = Runtime.now rt in
    let ctx =
      {
        Shared.pid = Runtime.self ();
        invoke_step = step;
        respond_step = step;
        overlapped = false;
        overlap_ops = [];
        step_contended = false;
        pending_others = 0;
        rng = Runtime.obj_rng rt;
        op;
      }
    in
    Abort_policy.should_abort policy ~contended:false ctx
  in
  let signal_abort ~is_write =
    if Runtime.telemetry_active rt then
      Runtime.signal rt ~pid:(Runtime.self ())
        (Sink.Abort_decision { obj_name = name; is_write })
  in
  let write x =
    if Runtime.self () <> writer then
      invalid_arg (Printf.sprintf "Mp_reg %s: pid %d is not the writer" name
                     (Runtime.self ()));
    if decide (Value.write_op (codec.Codec.enc x)) then begin
      signal_abort ~is_write:true;
      if Abort_policy.write_takes_effect write_effect (Runtime.obj_rng rt) then
        base.Reg.write x;
      false
    end
    else begin
      base.Reg.write x;
      true
    end
  in
  let read () =
    if Runtime.self () <> reader then
      invalid_arg (Printf.sprintf "Mp_reg %s: pid %d is not the reader" name
                     (Runtime.self ()));
    if decide Value.read_op then begin
      signal_abort ~is_write:false;
      None
    end
    else Some (base.Reg.read ())
  in
  {
    Reg.Abortable.name;
    read;
    write;
    peek = base.Reg.peek;
  }

let factory cl =
  {
    Reg.mk_reg =
      (fun ~kind ~name ~codec ~init ->
        match kind with
        | Reg.Mwmr -> atomic cl ~name ~codec ~init
        | Reg.Swmr { writer } -> regular cl ~name ~codec ~init ~writer);
    mk_areg =
      (fun ~name ~codec ~init ~writer ~reader ~policy ~write_effect ->
        abortable cl ~name ~codec ~init ~writer ~reader ~policy ~write_effect);
  }
