module Engine = Marcel.Engine

(* Interior fragments carry the shared [no_callback] instead of an
   [option]: one fewer allocation per fragment on the hot path. *)
let no_callback () = ()

type fragment = { frag_len : int; on_delivered : unit -> unit }

type t = { engine : Engine.t; mtu : int; intake : fragment -> unit }

(* The delivery point is one more cost-free stage: reaching it is a
   stage hand-off like any other. *)
let deliver = Pipeline.stage "deliver"

let create engine ~stages ~mtu =
  if stages = [] then invalid_arg "Stream.create: no stages";
  if mtu <= 0 then invalid_arg "Stream.create: mtu <= 0";
  let intake =
    Pipeline.chain engine
      ~stages:(stages @ [ deliver ])
      ~size:(fun frag -> frag.frag_len)
      ~sink:(fun frag -> frag.on_delivered ())
  in
  { engine; mtu; intake }

let push t ~bytes_count ~on_delivered =
  if bytes_count < 0 then invalid_arg "Stream.push: negative size";
  let rec go remaining =
    if remaining <= t.mtu then t.intake { frag_len = remaining; on_delivered }
    else begin
      t.intake { frag_len = t.mtu; on_delivered = no_callback };
      go (remaining - t.mtu)
    end
  in
  go bytes_count

let inject t ~use ~grain ~bytes_count ~on_crossed ~on_delivered =
  if bytes_count <= 0 then invalid_arg "Stream.inject: size <= 0";
  if grain <= 0 then invalid_arg "Stream.inject: grain <= 0";
  let { Pipeline.fluid; weight; rate_cap; cls } = use in
  let rec go sent =
    let chunk = min grain (bytes_count - sent) in
    let last = sent + chunk >= bytes_count in
    let crossed () =
      push t ~bytes_count:chunk
        ~on_delivered:(if last then on_delivered else no_callback);
      if last then on_crossed () else go (sent + chunk)
    in
    Fluid.start fluid ~bytes_count:chunk ~weight ?rate_cap ~cls
      ~on_done:(fun () ->
        if Engine.pending_now t.engine then
          Engine.at t.engine (Engine.now t.engine) crossed
        else crossed ())
      ()
  in
  go 0
