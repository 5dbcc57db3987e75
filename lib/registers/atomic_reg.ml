open Tbwf_sim

type 'a t = {
  obj : Shared.t;
  codec : 'a Codec.t;
  cell : Value.t ref;
  metrics : Metrics.t;
}

let create rt ~name ~codec ~init =
  let metrics = Metrics.create () in
  let cell = ref (codec.Codec.enc init) in
  let respond (ctx : Shared.ctx) =
    match ctx.op with
    | Value.Pair (Str "write", v) ->
      cell := v;
      metrics.writes <- metrics.writes + 1;
      Value.Unit
    | Value.Pair (Str "read", _) ->
      metrics.reads <- metrics.reads + 1;
      !cell
    | op -> invalid_arg (Fmt.str "Atomic_reg %s: bad op %a" name Value.pp op)
  in
  let obj = Runtime.register_object rt ~name ~respond in
  { obj; codec; cell; metrics }

let read t =
  let result = Runtime.call t.obj Value.read_op in
  t.codec.Codec.dec result

let write t v =
  let (_ : Value.t) = Runtime.call t.obj (Value.write_op (t.codec.Codec.enc v)) in
  ()

let peek t = t.codec.Codec.dec !(t.cell)
let metrics t = t.metrics
let name t = t.obj.Shared.name
