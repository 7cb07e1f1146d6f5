module Engine = Marcel.Engine
module Time = Marcel.Time
module Mailbox = Marcel.Mailbox

type fluid_use = { fluid : Fluid.t; weight : float; rate_cap : float option; cls : int }

type stage = {
  label : string;
  use : fluid_use option;
  per_fragment : Time.span;
  prop : Time.span;
}

let stage ?use ?(per_fragment = 0) ?(prop = 0) label =
  { label; use; per_fragment; prop }

(* One running stage: take a fragment, sleep [per_fragment], cross the
   fluid, hand the fragment on after [prop]. The instants are those of
   one thread per stage looping on a mailbox (docs/MODEL.md), whose
   wake-up on a fragment fed to an idle stage, and resumption after a
   fluid crossing, are zero-delay events. Here both run inline in the
   action that makes them ready unless another event is already queued
   at the instant ({!Engine.pending_now}): that event would have run
   first, so then the hand-off stays an event. *)
type 'a runner = {
  engine : Engine.t;
  spec : stage;
  size : 'a -> int;
  queue : 'a Queue.t;
  mutable idle : bool;
  next : 'a -> unit; (* the fragment's hand-off once it leaves *)
}

let rec serve r frag =
  let pf = r.spec.per_fragment in
  if pf > 0 then
    Engine.at r.engine (Time.add (Engine.now r.engine) pf) (fun () ->
        cross r frag)
  else cross r frag

and cross r frag =
  let bytes_count = r.size frag in
  match r.spec.use with
  | Some { fluid; weight; rate_cap; cls } when bytes_count > 0 ->
      Fluid.start fluid ~bytes_count ~weight ?rate_cap ~cls
        ~on_done:(fun () ->
          if Engine.pending_now r.engine then
            Engine.at r.engine (Engine.now r.engine) (fun () -> leave r frag)
          else leave r frag)
        ()
  | Some _ | None -> leave r frag

and leave r frag =
  let prop = r.spec.prop in
  if Time.equal prop 0 then r.next frag
  else
    Engine.at r.engine (Time.add (Engine.now r.engine) prop) (fun () ->
        r.next frag);
  pick r

and pick r =
  if Queue.is_empty r.queue then r.idle <- true else serve r (Queue.pop r.queue)

let feed r frag =
  if r.idle then begin
    r.idle <- false;
    if Engine.pending_now r.engine then
      Engine.at r.engine (Engine.now r.engine) (fun () -> serve r frag)
    else serve r frag
  end
  else Queue.push frag r.queue

let chain engine ~stages ~size ~sink =
  let runners =
    List.fold_right
      (fun spec runners ->
        let next = match runners with r :: _ -> feed r | [] -> sink in
        { engine; spec; size; queue = Queue.create (); idle = false; next }
        :: runners)
      stages []
  in
  (* Each stage starts as a freshly spawned thread would: one event at
     the current instant, in stage order, after which it takes its first
     fragment or goes idle. *)
  List.iter
    (fun r -> Engine.at engine (Engine.now engine) (fun () -> pick r))
    runners;
  match runners with
  | r :: _ -> feed r
  | [] -> invalid_arg "Pipeline.chain: no stages"

let fragment_sizes ~bytes_count ~mtu =
  if bytes_count = 0 then [ 0 ]
  else begin
    let rec go remaining acc =
      if remaining <= 0 then List.rev acc
      else go (remaining - mtu) (min mtu remaining :: acc)
    in
    go bytes_count []
  end

let run engine ~stages ~bytes_count ~mtu =
  if stages = [] then invalid_arg "Pipeline.run: no stages";
  if mtu <= 0 then invalid_arg "Pipeline.run: mtu <= 0";
  if bytes_count < 0 then invalid_arg "Pipeline.run: negative size";
  let fragments = fragment_sizes ~bytes_count ~mtu in
  let arrived = Mailbox.create () in
  let push = chain engine ~stages ~size:Fun.id ~sink:(Mailbox.put arrived) in
  List.iter push fragments;
  List.iter (fun _ -> ignore (Mailbox.take arrived : int)) fragments
