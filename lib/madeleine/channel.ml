module Engine = Marcel.Engine
module Mutex = Marcel.Mutex

type t = {
  chan_engine : Engine.t;
  chan_id : int;
  mutable chan_config : Config.t;
  chan_ranks : int list;
  inst : Driver.instance;
  endpoints : (int, endpoint) Hashtbl.t;
  sym :
    (int * int, (int * Iface.send_mode * Iface.recv_mode) Marcel.Mailbox.t)
    Hashtbl.t;
  usage : (int, int ref * int ref) Hashtbl.t; (* tm -> (packets, bytes) *)
}

and endpoint = {
  ep_channel : t;
  ep_rank : int;
  mutable arrival_waiters : (unit -> unit) list;
  mutable scan_from : int; (* rotation cursor for fair any-source scans *)
}

let create session driver ?(config = Config.default) ~ranks () =
  (match ranks with
  | [] | [ _ ] -> invalid_arg "Channel.create: need at least two ranks"
  | _ -> ());
  let sorted = List.sort_uniq compare ranks in
  if List.length sorted <> List.length ranks then
    invalid_arg "Channel.create: duplicate ranks";
  let chan_id = Session.fresh_channel_id session in
  let inst = driver.Driver.instantiate ~channel_id:chan_id ~config ~ranks:sorted in
  let t =
    {
      chan_engine = Session.engine session;
      chan_id;
      chan_config = config;
      chan_ranks = sorted;
      inst;
      endpoints = Hashtbl.create 8;
      sym = Hashtbl.create 16;
      usage = Hashtbl.create 8;
    }
  in
  List.iter
    (fun rank ->
      let ep =
        { ep_channel = t; ep_rank = rank; arrival_waiters = []; scan_from = 0 }
      in
      Hashtbl.add t.endpoints rank ep;
      inst.Driver.on_data ~me:rank (fun () ->
          let waiters = ep.arrival_waiters in
          ep.arrival_waiters <- [];
          List.iter (fun wake -> wake ()) waiters))
    sorted;
  t

let config t = t.chan_config

(* A reliable vchannel re-emits packets after crashes and abandons
   partially-unpacked ones, so the strict FIFO pack/unpack mirror behind
   [checked] no longer holds on its real channels; the Generic TM
   sub-headers carry the same symmetry information end-to-end instead. *)
let relax_checked t = t.chan_config <- { t.chan_config with Config.checked = false }
let ranks t = t.chan_ranks
let id t = t.chan_id
let engine t = t.chan_engine
let fabric t = t.inst.Driver.inst_fabric

let endpoint t ~rank =
  match Hashtbl.find_opt t.endpoints rank with
  | Some ep -> ep
  | None -> raise Not_found

let endpoint_rank ep = ep.ep_rank
let endpoint_channel ep = ep.ep_channel

let check_remote t remote =
  if not (List.mem remote t.chan_ranks) then
    invalid_arg (Printf.sprintf "Madeleine: rank %d not in channel" remote)

let reg_stats ep = ep.ep_channel.inst.Driver.reg_stats ~me:ep.ep_rank

let sender_link ep ~remote =
  check_remote ep.ep_channel remote;
  if remote = ep.ep_rank then invalid_arg "Madeleine: cannot connect to self";
  ep.ep_channel.inst.Driver.sender_link ~src:ep.ep_rank ~dst:remote

let receiver_link ep ~from =
  check_remote ep.ep_channel from;
  if from = ep.ep_rank then invalid_arg "Madeleine: cannot connect to self";
  ep.ep_channel.inst.Driver.receiver_link ~me:ep.ep_rank ~from

(* Scan peers round-robin for an idle link with visible data; sleep on the
   endpoint's arrival board between rounds. The probe and the subsequent
   lock happen without yielding, so the found link cannot be stolen. *)
let wait_any_arrival ep =
  let peers =
    List.filter (fun r -> r <> ep.ep_rank) ep.ep_channel.chan_ranks
  in
  let n = List.length peers in
  let peer_at i = List.nth peers (i mod n) in
  let rec scan tries =
    if tries >= n then begin
      Engine.suspend ~name:"mad.begin_unpacking" (fun wake ->
          ep.arrival_waiters <- (fun () -> wake ()) :: ep.arrival_waiters);
      scan 0
    end
    else begin
      let from = peer_at (ep.scan_from + tries) in
      let link = receiver_link ep ~from in
      if (not (Mutex.locked link.Link.r_mutex)) && link.Link.r_probe () then begin
        ep.scan_from <- ep.scan_from + tries + 1;
        from
      end
      else scan (tries + 1)
    end
  in
  scan 0

let record_usage t ~tm ~bytes_count =
  let packets, bytes =
    match Hashtbl.find_opt t.usage tm with
    | Some entry -> entry
    | None ->
        let entry = (ref 0, ref 0) in
        Hashtbl.add t.usage tm entry;
        entry
  in
  incr packets;
  bytes := !bytes + bytes_count

let tm_usage t =
  Hashtbl.fold (fun tm (p, b) acc -> (tm, !p, !b) :: acc) t.usage []
  |> List.sort compare

let sym_queue t key =
  match Hashtbl.find_opt t.sym key with
  | Some q -> q
  | None ->
      let q = Marcel.Mailbox.create () in
      Hashtbl.add t.sym key q;
      q

let sym_push t ~src ~dst entry = Marcel.Mailbox.put (sym_queue t (src, dst)) entry

(* The check blocks (without simulated cost) until the matching pack has
   executed: an unpack may legitimately run earlier in virtual time than
   its pack, since extraction itself would block on the data anyway. *)
let sym_check t ~src ~dst (len, s, r) =
  match Marcel.Mailbox.take (sym_queue t (src, dst)) with
  | (len', s', r') ->
      if len <> len' || s <> s' || r <> r' then
        raise
          (Config.Symmetry_violation
             (Format.asprintf
                "pack/unpack mismatch on %d->%d: packed (%d, %a, %a) but \
                 unpacked (%d, %a, %a)"
                src dst len' Iface.pp_send_mode s' Iface.pp_recv_mode r' len
                Iface.pp_send_mode s Iface.pp_recv_mode r))
