(* Interior fragments carry the shared [no_callback] instead of an
   [option]: one fewer allocation per fragment on the hot path. *)
let no_callback () = ()

type fragment = { frag_len : int; on_delivered : unit -> unit }

type t = { mtu : int; intake : fragment -> unit }

(* The delivery point is one more cost-free stage: reaching it costs
   the same wake-up event as any other stage hand-off. *)
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
  { mtu; intake }

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
