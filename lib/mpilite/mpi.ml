module Engine = Marcel.Engine
module Time = Marcel.Time
module Ivar = Marcel.Ivar

type status = { status_src : int; status_tag : int; status_len : int }

exception Collective_failed of string

let any_source = -1
let any_tag = -1

type posted = {
  p_src : int;
  p_tag : int;
  p_context : int;
  p_buf : Bytes.t;
  p_done : status Ivar.t;
}

type unexpected = { u_env : Device.envelope; u_data : Bytes.t }

type ctx = {
  c_rank : int;
  c_size : int;
  c_engine : Engine.t;
  mutable c_world : world option; (* set by create_world *)
  device : Device.t;
  mutable posted : posted list; (* in post order *)
  unexpected : unexpected Queue.t;
  mutable probe_waiters : (unit -> unit) list;
  mutable arrival_hooks : (unit -> unit) list;
  mutable liveness : (int -> bool) option;
      (* [None] (the default) keeps the classic blocking receives and a
         byte-identical schedule; with a predicate installed, a
         collective receive polls it and surfaces a typed
         [Collective_failed] naming the dead peer instead of blocking
         forever in the fan-in/fan-out tree. *)
  mutable coll : Madeleine.Collectives.t option;
      (* world-level collectives retargeted onto the fault-tolerant
         vchannel layer (see [use_collectives]) *)
}

and world = {
  ctxs : ctx array;
  mutable next_context : int;
  context_registry : (int * int * int, int) Hashtbl.t;
      (* (parent context, split epoch, color) -> allocated context pair *)
}

type request = status Ivar.t

let user_context = 0
let coll_context = 1
let first_free_context = 2

let matches ~src ~tag ~context (env : Device.envelope) =
  (src = any_source || src = env.Device.env_src)
  && (tag = any_tag || tag = env.Device.env_tag)
  && context = env.Device.env_context

let memcpy_sleep = Simnet.Cost.memcpy

(* Receive completion: the message is the application's from here. *)
let complete c done_ status =
  Engine.note_delivery c.c_engine ~src:status.status_src ~dst:c.c_rank
    ~bytes:status.status_len;
  Ivar.fill done_ status

(* The per-rank progress engine: matches each incoming envelope against
   the posted-receive queue; expected payloads extract directly into the
   user buffer, unexpected ones stage into a temporary. *)
let progress_loop c () =
  while true do
    let env, extract = c.device.Device.dev_next () in
    let rec find_posted acc = function
      | [] -> None
      | p :: rest ->
          if
            matches ~src:p.p_src ~tag:p.p_tag ~context:p.p_context env
            && Bytes.length p.p_buf >= env.Device.env_len
          then begin
            c.posted <- List.rev_append acc rest;
            Some p
          end
          else find_posted (p :: acc) rest
    in
    let status =
      {
        status_src = env.Device.env_src;
        status_tag = env.Device.env_tag;
        status_len = env.Device.env_len;
      }
    in
    match find_posted [] c.posted with
    | Some p ->
        extract p.p_buf ~off:0;
        complete c p.p_done status
    | None ->
        let tmp = Bytes.create env.Device.env_len in
        extract tmp ~off:0;
        (* The extraction blocks for the payload's transfer time, during
           which a matching receive may have been posted: re-check before
           declaring the message unexpected, or it would never be
           reconciled with the waiting request. *)
        (match find_posted [] c.posted with
        | Some p ->
            if Bytes.length p.p_buf < env.Device.env_len then
              invalid_arg "Mpi: matched receive buffer too small";
            memcpy_sleep env.Device.env_len;
            Bytes.blit tmp 0 p.p_buf 0 env.Device.env_len;
            complete c p.p_done status
        | None ->
            Queue.push { u_env = env; u_data = tmp } c.unexpected;
            let ws = c.probe_waiters in
            c.probe_waiters <- [];
            List.iter (fun w -> w ()) ws;
            List.iter (fun h -> h ()) c.arrival_hooks)
  done

let create_world engine ~devices =
  let ctxs =
    Array.mapi
      (fun r device ->
        {
          c_rank = r;
          c_size = Array.length devices;
          c_engine = engine;
          c_world = None;
          device;
          posted = [];
          unexpected = Queue.create ();
          probe_waiters = [];
          arrival_hooks = [];
          liveness = None;
          coll = None;
        })
      devices
  in
  Array.iter
    (fun c ->
      Engine.spawn engine ~daemon:true
        ~name:(Printf.sprintf "mpi.progress.%d" c.c_rank)
        (progress_loop c))
    ctxs;
  let w =
    { ctxs; next_context = first_free_context; context_registry = Hashtbl.create 16 }
  in
  Array.iter (fun c -> c.c_world <- Some w) ctxs;
  w

let ctx w ~rank = w.ctxs.(rank)
let rank c = c.c_rank
let size c = c.c_size
let set_liveness c pred = c.liveness <- pred

let use_collectives w coll =
  Array.iter (fun c -> c.coll <- Some coll) w.ctxs

(* The retargeted verbs speak the vchannel layer's typed failure; fold
   it into this module's so callers match one exception either way. *)
let coll_guard f =
  try f ()
  with Madeleine.Collectives.Collective_failed msg ->
    raise (Collective_failed msg)

let send_ctx c ~dst ~tag ~context data =
  c.device.Device.dev_send ~dst
    {
      Device.env_src = c.c_rank;
      env_tag = tag;
      env_context = context;
      env_len = Bytes.length data;
    }
    data

let take_unexpected c ~src ~tag ~context =
  let found = ref None in
  let keep = Queue.create () in
  Queue.iter
    (fun u ->
      if !found = None && matches ~src ~tag ~context u.u_env then found := Some u
      else Queue.push u keep)
    c.unexpected;
  Queue.clear c.unexpected;
  Queue.transfer keep c.unexpected;
  !found

let irecv_ctx c ~src ~tag ~context buf =
  let done_ = Ivar.create () in
  (match take_unexpected c ~src ~tag ~context with
  | Some u ->
      let len = u.u_env.Device.env_len in
      if Bytes.length buf < len then
        invalid_arg "Mpi.recv: message larger than buffer";
      (* Unexpected path: the staging copy is a real memcpy. *)
      memcpy_sleep len;
      Bytes.blit u.u_data 0 buf 0 len;
      complete c done_
        {
          status_src = u.u_env.Device.env_src;
          status_tag = u.u_env.Device.env_tag;
          status_len = len;
        }
  | None ->
      c.posted <-
        c.posted @ [ { p_src = src; p_tag = tag; p_context = context; p_buf = buf; p_done = done_ } ]);
  done_

let send c ~dst ~tag data = send_ctx c ~dst ~tag ~context:user_context data
let irecv c ~src ~tag buf = irecv_ctx c ~src ~tag ~context:user_context buf
let wait req = Ivar.read req
let waitall reqs = List.map wait reqs
let recv c ~src ~tag buf = wait (irecv c ~src ~tag buf)

let isend c ~dst ~tag data =
  (* The buffer may not be reused until wait; snapshotting it keeps user
     code that modifies it early deterministic (bookkeeping copy, no
     modelled cost). Sender threads to the same peer serialize on the
     connection, so isend order is preserved. *)
  let snapshot = Bytes.copy data in
  let req = Ivar.create () in
  Engine.spawn c.c_engine ~name:(Printf.sprintf "mpi.isend.%d" c.c_rank)
    (fun () ->
      send c ~dst ~tag snapshot;
      Ivar.fill req
        { status_src = c.c_rank; status_tag = tag; status_len = Bytes.length data });
  req

let iprobe c ~src ~tag =
  let found = ref None in
  Queue.iter
    (fun u ->
      if !found = None && matches ~src ~tag ~context:user_context u.u_env then
        found :=
          Some
            {
              status_src = u.u_env.Device.env_src;
              status_tag = u.u_env.Device.env_tag;
              status_len = u.u_env.Device.env_len;
            })
    c.unexpected;
  !found

let on_unexpected c hook = c.arrival_hooks <- hook :: c.arrival_hooks

let probe c ~src ~tag =
  let rec loop () =
    match iprobe c ~src ~tag with
    | Some st -> st
    | None ->
        Engine.suspend ~name:"mpi.probe" (fun wake ->
            c.probe_waiters <- (fun () -> wake ()) :: c.probe_waiters);
        loop ()
  in
  loop ()

(* ---------------- Collectives and communicators ------------------- *)

(* All collectives run over a virtual rank space 0..size-1 with the
   caller-supplied send/receive functions; communicators instantiate
   them with their member mapping and private context. *)

let rel ~me ~root ~size = (me - root + size) mod size
let abs ~root ~size r = (r + root) mod size

let barrier_tag = 1
let bcast_tag = 2
let reduce_tag = 3
let gather_tag = 4
let scatter_tag = 5
let alltoall_tag = 6

let generic_bcast ~size ~me ~root ~vsend ~vrecv buf =
  let m = rel ~me ~root ~size in
  if size > 1 then begin
    let rec highest_mask k = if k * 2 < size then highest_mask (k * 2) else k in
    if m <> 0 then begin
      let parent = m land (m - 1) in
      ignore (vrecv ~src:(abs ~root ~size parent) ~tag:bcast_tag buf)
    end;
    let rec forward mask =
      if mask >= 1 then begin
        if m land ((mask * 2) - 1) = 0 && m + mask < size then
          vsend ~dst:(abs ~root ~size (m + mask)) ~tag:bcast_tag buf;
        forward (mask / 2)
      end
    in
    forward (highest_mask 1)
  end

let generic_fan_in ~size ~me ~root ~vsend ~tag ~combine acc =
  let m = rel ~me ~root ~size in
  let rec go mask acc =
    if mask >= size then acc
    else if m land mask <> 0 then begin
      vsend ~dst:(abs ~root ~size (m - mask)) ~tag acc;
      acc
    end
    else if m + mask < size then begin
      let acc = combine acc ~from:(abs ~root ~size (m + mask)) in
      go (mask * 2) acc
    end
    else go (mask * 2) acc
  in
  go 1 acc

let generic_barrier ~size ~me ~vsend ~vrecv =
  let token = Bytes.create 1 in
  let combine acc ~from =
    ignore (vrecv ~src:from ~tag:barrier_tag token);
    acc
  in
  ignore
    (generic_fan_in ~size ~me ~root:0 ~vsend ~tag:barrier_tag ~combine token);
  generic_bcast ~size ~me ~root:0 ~vsend ~vrecv token

let generic_reduce ~size ~me ~root ~op ~vsend ~vrecv data =
  let combine acc ~from =
    let tmp = Bytes.create (Bytes.length data) in
    ignore (vrecv ~src:from ~tag:reduce_tag tmp);
    op acc tmp
  in
  generic_fan_in ~size ~me ~root ~vsend ~tag:reduce_tag ~combine data

(* World-communicator instantiation (context [coll_context]). *)

let world_vsend c ~dst ~tag data = send_ctx c ~dst ~tag ~context:coll_context data

let liveness_poll_interval = Time.us 200.0

(* A collective receive. Without a liveness predicate this is the
   classic blocking wait (and the schedule is byte-identical to what it
   always was). With one installed, park in short sleeps instead: if
   the awaited peer goes down first, withdraw the posted receive and
   fail typed — the fan-in/fan-out trees otherwise block forever in
   vrecv when a peer dies mid-collective. *)
let wait_coll c ~peer ~tag req =
  match c.liveness with
  | None -> Ivar.read req
  | Some alive ->
      let rec poll () =
        if Ivar.is_filled req then Ivar.read req
        else if peer <> any_source && not (alive peer) then begin
          c.posted <- List.filter (fun p -> p.p_done != req) c.posted;
          raise
            (Collective_failed
               (Printf.sprintf
                  "rank %d died mid-collective (rank %d was waiting on tag %d)"
                  peer c.c_rank tag))
        end
        else begin
          Engine.sleep liveness_poll_interval;
          poll ()
        end
      in
      poll ()

let world_vrecv c ~src ~tag buf =
  wait_coll c ~peer:src ~tag (irecv_ctx c ~src ~tag ~context:coll_context buf)

(* With a Collectives layer installed ({!use_collectives}) the world
   collectives run on the vchannel's fault-tolerant spanning trees
   (gateway combining, crash repair) instead of the binomial trees
   over point-to-point messages; world ranks map one-to-one onto
   vchannel ranks. *)

let barrier c =
  match c.coll with
  | Some coll ->
      coll_guard (fun () -> Madeleine.Collectives.barrier coll ~me:c.c_rank)
  | None ->
      generic_barrier ~size:c.c_size ~me:c.c_rank ~vsend:(world_vsend c)
        ~vrecv:(world_vrecv c)

let bcast c ~root buf =
  match c.coll with
  | Some coll ->
      coll_guard (fun () ->
          let v =
            Madeleine.Collectives.bcast coll ~me:c.c_rank ~root
              (if c.c_rank = root then Some (Bytes.copy buf) else None)
          in
          Bytes.blit v 0 buf 0 (min (Bytes.length v) (Bytes.length buf)))
  | None ->
      generic_bcast ~size:c.c_size ~me:c.c_rank ~root ~vsend:(world_vsend c)
        ~vrecv:(world_vrecv c) buf

let reduce c ~root ~op data =
  match c.coll with
  | Some coll ->
      coll_guard (fun () ->
          Madeleine.Collectives.reduce coll ~me:c.c_rank ~root ~op data)
  | None ->
      generic_reduce ~size:c.c_size ~me:c.c_rank ~root ~op
        ~vsend:(world_vsend c) ~vrecv:(world_vrecv c) data

let allreduce c ~op data =
  match c.coll with
  | Some coll ->
      coll_guard (fun () ->
          Madeleine.Collectives.allreduce coll ~me:c.c_rank ~op data)
  | None ->
      let result = reduce c ~root:0 ~op data in
      let out = Bytes.copy result in
      bcast c ~root:0 out;
      out

let gather c ~root data =
  if c.c_rank = root then begin
    let parts = Array.make c.c_size (Bytes.copy data) in
    for r = 0 to c.c_size - 1 do
      if r <> root then begin
        let buf = Bytes.create (Bytes.length data) in
        ignore (world_vrecv c ~src:r ~tag:gather_tag buf);
        parts.(r) <- buf
      end
    done;
    parts.(root) <- Bytes.copy data;
    Some parts
  end
  else begin
    world_vsend c ~dst:root ~tag:gather_tag data;
    None
  end

let scatter c ~root parts =
  if c.c_rank = root then begin
    match parts with
    | None -> invalid_arg "Mpi.scatter: root must supply parts"
    | Some parts ->
        if Array.length parts <> c.c_size then
          invalid_arg "Mpi.scatter: need one part per rank";
        Array.iteri
          (fun r part ->
            if r <> root then world_vsend c ~dst:r ~tag:scatter_tag part)
          parts;
        Bytes.copy parts.(root)
  end
  else begin
    match parts with
    | Some _ -> invalid_arg "Mpi.scatter: only the root supplies parts"
    | None ->
        (* Block sizes are uniform by contract; learn ours by probing the
           incoming message's envelope. *)
        let rec await () =
          match
            List.find_opt
              (fun u ->
                matches ~src:root ~tag:scatter_tag ~context:coll_context u.u_env)
              (List.of_seq (Queue.to_seq c.unexpected))
          with
          | Some u -> u.u_env.Device.env_len
          | None ->
              Engine.suspend ~name:"mpi.scatter" (fun wake ->
                  c.probe_waiters <- (fun () -> wake ()) :: c.probe_waiters);
              await ()
        in
        let len = await () in
        let buf = Bytes.create len in
        ignore (world_vrecv c ~src:root ~tag:scatter_tag buf);
        buf
  end

let alltoall c blocks =
  if Array.length blocks <> c.c_size then
    invalid_arg "Mpi.alltoall: need one block per rank";
  let out = Array.map Bytes.copy blocks in
  (* Post all receives, fire all sends, then wait: no ordering deadlock. *)
  let recvs =
    List.filter_map
      (fun src ->
        if src = c.c_rank then None
        else begin
          let buf = Bytes.create (Bytes.length blocks.(src)) in
          out.(src) <- buf;
          Some (irecv_ctx c ~src ~tag:alltoall_tag ~context:coll_context buf)
        end)
      (List.init c.c_size Fun.id)
  in
  List.iter
    (fun dst ->
      if dst <> c.c_rank then
        send_ctx c ~dst ~tag:alltoall_tag ~context:coll_context blocks.(dst))
    (List.init c.c_size Fun.id);
  List.iter (fun r -> ignore (wait r)) recvs;
  out.(c.c_rank) <- Bytes.copy blocks.(c.c_rank);
  out

let sendrecv c ~dst ~send_tag send_buf ~src ~recv_tag recv_buf =
  let r = irecv c ~src ~tag:recv_tag recv_buf in
  let s = isend c ~dst ~tag:send_tag send_buf in
  let st = wait r in
  ignore (wait s);
  st

(* ---------------- Communicators ----------------------------------- *)

type comm = {
  cm_ctx : ctx;
  members : int array; (* comm rank -> world rank *)
  my_index : int;
  p2p_context : int;
  coll_ctx : int;
  mutable split_epoch : int;
}

let comm_world c =
  {
    cm_ctx = c;
    members = Array.init c.c_size Fun.id;
    my_index = c.c_rank;
    p2p_context = user_context;
    coll_ctx = coll_context;
    split_epoch = 0;
  }

let comm_rank cm = cm.my_index
let comm_size cm = Array.length cm.members

let index_of_world cm world_rank =
  let rec find i =
    if i >= Array.length cm.members then
      invalid_arg "Mpi: rank not in communicator"
    else if cm.members.(i) = world_rank then i
    else find (i + 1)
  in
  find 0

let csend cm ~dst ~tag data =
  send_ctx cm.cm_ctx ~dst:cm.members.(dst) ~tag ~context:cm.p2p_context data

let crecv cm ~src ~tag buf =
  let world_src = if src = any_source then any_source else cm.members.(src) in
  let st =
    wait (irecv_ctx cm.cm_ctx ~src:world_src ~tag ~context:cm.p2p_context buf)
  in
  { st with status_src = index_of_world cm st.status_src }

let comm_vsend cm ~dst ~tag data =
  send_ctx cm.cm_ctx ~dst:cm.members.(dst) ~tag ~context:cm.coll_ctx data

let comm_vrecv cm ~src ~tag buf =
  let world_src = cm.members.(src) in
  wait_coll cm.cm_ctx ~peer:world_src ~tag
    (irecv_ctx cm.cm_ctx ~src:world_src ~tag ~context:cm.coll_ctx buf)

let cbarrier cm =
  generic_barrier ~size:(comm_size cm) ~me:cm.my_index ~vsend:(comm_vsend cm)
    ~vrecv:(comm_vrecv cm)

let cbcast cm ~root buf =
  generic_bcast ~size:(comm_size cm) ~me:cm.my_index ~root
    ~vsend:(comm_vsend cm) ~vrecv:(comm_vrecv cm) buf

let creduce cm ~root ~op data =
  generic_reduce ~size:(comm_size cm) ~me:cm.my_index ~root ~op
    ~vsend:(comm_vsend cm) ~vrecv:(comm_vrecv cm) data

let callreduce cm ~op data =
  let result = creduce cm ~root:0 ~op data in
  let out = Bytes.copy result in
  cbcast cm ~root:0 out;
  out

(* Split: gather every member's (color, key) at comm rank 0, compute the
   groups deterministically, broadcast the assignment, and draw fresh
   context ids from the world-level registry (shared-heap, keyed so all
   members of a group agree). *)
let comm_split cm ~color ~key =
  let epoch = cm.split_epoch in
  cm.split_epoch <- epoch + 1;
  let n = comm_size cm in
  let me = cm.my_index in
  let mine = Bytes.create 16 in
  Bytes.set_int64_le mine 0 (Int64.of_int color);
  Bytes.set_int64_le mine 8 (Int64.of_int key);
  (* Gather all (color,key) pairs to comm rank 0 and broadcast back. *)
  let table = Bytes.create (16 * n) in
  if me = 0 then begin
    Bytes.blit mine 0 table 0 16;
    for src = 1 to n - 1 do
      let b = Bytes.create 16 in
      ignore (comm_vrecv cm ~src ~tag:scatter_tag b);
      Bytes.blit b 0 table (16 * src) 16
    done
  end
  else comm_vsend cm ~dst:0 ~tag:scatter_tag mine;
  cbcast cm ~root:0 table;
  let colors =
    Array.init n (fun i -> Int64.to_int (Bytes.get_int64_le table (16 * i)))
  in
  let keys =
    Array.init n (fun i -> Int64.to_int (Bytes.get_int64_le table ((16 * i) + 8)))
  in
  (* My group: members with my color, ordered by (key, parent index). *)
  let group =
    List.init n Fun.id
    |> List.filter (fun i -> colors.(i) = color)
    |> List.sort (fun a b -> compare (keys.(a), a) (keys.(b), b))
  in
  let members = Array.of_list (List.map (fun i -> cm.members.(i)) group) in
  let my_index =
    let rec find i lst =
      match lst with
      | [] -> invalid_arg "Mpi.comm_split: self not in group"
      | x :: rest -> if x = me then i else find (i + 1) rest
    in
    find 0 group
  in
  let world =
    match cm.cm_ctx.c_world with
    | Some w -> w
    | None -> invalid_arg "Mpi.comm_split: detached context"
  in
  let registry_key = (cm.p2p_context, epoch, color) in
  let base =
    match Hashtbl.find_opt world.context_registry registry_key with
    | Some b -> b
    | None ->
        let b = world.next_context in
        world.next_context <- b + 2;
        Hashtbl.add world.context_registry registry_key b;
        b
  in
  {
    cm_ctx = cm.cm_ctx;
    members;
    my_index;
    p2p_context = base;
    coll_ctx = base + 1;
    split_epoch = 0;
  }
