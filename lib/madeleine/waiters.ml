module Engine = Marcel.Engine
module Time = Marcel.Time

(* [Engine.suspend]'s wake ignores repeat calls, so a parked thread may
   sit both on the list and behind a deadline timer without a guard. *)
type t = { mutable parked : (unit -> unit) list }

let create () = { parked = [] }

let park ?deadline w ~name =
  Engine.suspend ~name (fun wake ->
      w.parked <- wake :: w.parked;
      match deadline with
      | Some (engine, at) -> Engine.at engine at wake
      | None -> ())

let wake_all w =
  let parked = w.parked in
  w.parked <- [];
  List.iter (fun wake -> wake ()) parked

let await w engine ~patience ~name ~until =
  let deadline = Time.add (Engine.now engine) patience in
  while (not (until ())) && Time.( < ) (Engine.now engine) deadline do
    park w ~name ~deadline:(engine, deadline)
  done;
  until ()
