(* Windowed completion-rate monitor: the streaming form of the tail-rate
   floor. Where [Degradation] verdicts one tail against one prediction,
   this watches the whole run as a sequence of fixed-size step windows
   and records, per process, whether each closed window met a
   completions floor — the signal long soak runs stream out alongside
   the telemetry records. O(n) memory regardless of horizon. *)

open Tbwf_sim
module Json = Tbwf_telemetry.Json

type t = {
  n : int;
  window : int;  (* steps per window *)
  floor : int;  (* completions a window must reach to count as ok *)
  watch : int list;  (* pids whose windows count towards the verdict *)
  current : int array;  (* completions in the accumulating window *)
  last : int array;  (* completions in the last closed window *)
  min_rate : int array;  (* per-pid minimum over closed windows *)
  ok_windows : int array;  (* per-pid closed windows meeting the floor *)
  mutable cw : int;  (* index of the accumulating window *)
  mutable closed : int;  (* number of closed windows *)
}

let create ?(floor = 1) ?(watch : int list option) ~n ~window () =
  if window < 1 then invalid_arg "Tail_monitor.create: window must be positive";
  if floor < 0 then invalid_arg "Tail_monitor.create: floor must be >= 0";
  let watch = match watch with Some w -> w | None -> List.init n Fun.id in
  {
    n;
    window;
    floor;
    watch;
    current = Array.make n 0;
    last = Array.make n 0;
    min_rate = Array.make n max_int;
    ok_windows = Array.make n 0;
    cw = 0;
    closed = 0;
  }

let close_window t =
  for pid = 0 to t.n - 1 do
    let c = t.current.(pid) in
    t.last.(pid) <- c;
    if c < t.min_rate.(pid) then t.min_rate.(pid) <- c;
    if c >= t.floor then t.ok_windows.(pid) <- t.ok_windows.(pid) + 1;
    t.current.(pid) <- 0
  done;
  t.closed <- t.closed + 1;
  t.cw <- t.cw + 1

(* Close every window that ends at or before [step]'s window. The runtime
   emits [on_step] before the step's signals, so by the time a window's
   first [Op_complete] arrives the previous window is already closed. *)
let roll t ~step =
  let w = step / t.window in
  while t.cw < w do
    close_window t
  done

let on_signal t ~step ~pid signal =
  roll t ~step;
  match signal with
  | Sink.Op_complete ->
    if pid >= 0 && pid < t.n then t.current.(pid) <- t.current.(pid) + 1
  | _ -> ()

let sink t =
  {
    Sink.active = true;
    on_step = (fun ~step ~pid:_ ~layer:_ -> roll t ~step);
    (* Only completions count, and [on_signal] rolls before counting
       one, so invokes and responds are left to [Sink.nil]. *)
    on_invoke = Sink.nil.on_invoke;
    on_respond = Sink.nil.on_respond;
    on_signal = (fun ~step ~pid s -> on_signal t ~step ~pid s);
  }

let n t = t.n
let window t = t.window
let floor t = t.floor
let closed_windows t = t.closed
let last_rates t = Array.copy t.last
let current_rates t = Array.copy t.current
let ok_windows t = Array.copy t.ok_windows
let min_rate t ~pid = if t.closed = 0 then None else Some t.min_rate.(pid)

(* A watched pid is ok iff every closed window met the floor. Before any
   window closes the verdict is vacuously true. *)
let pid_ok t ~pid = t.ok_windows.(pid) = t.closed
let ok t = List.for_all (fun pid -> pid_ok t ~pid) t.watch

let to_json t =
  let ints a = Json.Arr (Array.to_list a |> List.map (fun v -> Json.Int v)) in
  Json.Obj
    [
      "window", Json.Int t.window;
      "floor", Json.Int t.floor;
      "watch", Json.Arr (List.map (fun p -> Json.Int p) t.watch);
      "closed", Json.Int t.closed;
      "last", ints t.last;
      "ok_windows", ints t.ok_windows;
      ( "min_rate",
        Json.Arr
          (List.init t.n (fun pid ->
               match min_rate t ~pid with
               | None -> Json.Null
               | Some r -> Json.Int r)) );
      "ok", Json.Bool (ok t);
    ]
