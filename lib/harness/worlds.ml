module Engine = Marcel.Engine

let built : Engine.t list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let engine () =
  let e = Engine.create () in
  (match Domain.DLS.get built with Some l -> l := e :: !l | None -> ());
  e

let recording f =
  let worlds = ref [] in
  Domain.DLS.set built (Some worlds);
  let v = Fun.protect ~finally:(fun () -> Domain.DLS.set built None) f in
  (v, List.rev !worlds)

let lines label engines =
  List.mapi
    (fun i e ->
      Printf.sprintf
        "%s world %d: events %d fingerprint %d deliveries %d delivery_fp %d\n"
        label i (Engine.events_processed e) (Engine.fingerprint e)
        (Engine.deliveries e)
        (Engine.delivery_fingerprint e))
    engines
  |> String.concat ""
