open Tbwf_sim
open Tbwf_registers
open Tbwf_core

type omega_impl =
  | Omega_atomic
  | Omega_abortable of Abort_policy.t
  | Omega_naive

let pp_omega_impl fmt = function
  | Omega_atomic -> Fmt.string fmt "atomic-registers"
  | Omega_abortable policy ->
    Fmt.pf fmt "abortable-registers(%a)" Abort_policy.pp policy
  | Omega_naive -> Fmt.string fmt "naive-booster"

type stack = {
  rt : Runtime.t;
  handles : Tbwf_omega.Omega_spec.handle array;
  qa : Tbwf_objects.Qa_intf.t;
  tbwf : Tbwf.t;
  stats : Workload.stats;
}

(* All wiring lives in the System layer; a scenario is a System stack
   narrowed to the boosted systems (so [tbwf] is total). *)

let build ?(seed = 0xC0FFEEL)
    ?(canonical = true) ?(qa_universal = false)
    ?(qa_policy = Abort_policy.Always) ~n ~omega ~spec ~next_op ~client_pids
    () =
  let id, mesh_policy =
    match omega with
    | Omega_atomic -> Tbwf_system.System.Tbwf_atomic, Abort_policy.Always
    | Omega_abortable policy ->
      ( (if qa_universal then Tbwf_system.System.Tbwf_universal
         else Tbwf_system.System.Tbwf_abortable),
        policy )
    | Omega_naive -> Tbwf_system.System.Naive_booster, Abort_policy.Always
  in
  let s =
    Tbwf_system.System.build ~seed ~canonical ~qa_universal
      ~qa_policy ~mesh_policy ~spec ~next_op ~client_pids ~n id
  in
  {
    rt = s.Tbwf_system.System.rt;
    handles = s.Tbwf_system.System.handles;
    qa = s.Tbwf_system.System.qa;
    tbwf = Option.get s.Tbwf_system.System.tbwf;
    stats = s.Tbwf_system.System.stats;
  }

let degraded_policy ?(untimely_pattern = `Slowing (60, 1.15)) ~n ~timely () =
  let k = max 1 (List.length timely) in
  let untimely =
    match untimely_pattern with
    | `Flicker (active, sleep, growth) -> Policy.Flicker { active; sleep; growth }
    | `Slowing (initial_gap, growth) ->
      (* Burst sized so each visit yields at least one heartbeat write even
         with a full monitor mesh multiplexed onto the process. *)
      Policy.Slowing { initial_gap; growth; burst = 8 * n }
  in
  let pattern pid =
    (* A strict rotation: every step is claimed by some timely process, so
       the interleaving is perfectly adversarial for unboosted retries. *)
    match List.find_index (fun p -> p = pid) timely with
    | Some i -> Policy.Every { period = k; offset = i }
    | None -> untimely
  in
  Policy.of_patterns ~name:"degraded" (List.init n (fun pid -> pid, pattern pid))

let run_sampled stack ~policy ~segments ~segment_steps =
  let samples = ref [] in
  for _seg = 1 to segments do
    Runtime.run stack.rt ~policy ~steps:segment_steps;
    samples :=
      Tbwf_omega.Omega_spec.take_sample ~at_step:(Runtime.now stack.rt)
        stack.handles
      :: !samples
  done;
  List.rev !samples
