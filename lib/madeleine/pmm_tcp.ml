(* Protocol Management Module for TCP (paper §7: Madeleine II "currently
   runs on top of BIP, SISCI, TCP, VIA").

   One transmission module, dynamic buffers, with scatter-gather grouping
   (writev/readv) so the aggregating BMM amortizes the hefty Linux 2.2
   kernel overhead across grouped buffers. One pre-established stream per
   node pair per channel carries both directions.

   With [Config.tcp_connect_timeout] set, session setup switches from
   pre-established socketpairs to live listen/connect/accept handshakes
   bounded by that timeout, so a peer that the fault plane has crashed
   surfaces as [Tcpnet.Timeout] instead of hanging the session. *)

module Mutex = Marcel.Mutex
module Ivar = Marcel.Ivar

type pair_conns = { low_end : Tcpnet.conn; high_end : Tcpnet.conn }

(* Pre-established pair, or a pair still in handshake: readers block on
   the ivars, which the connect/accept threads fill. *)
type pair_src =
  | Eager of pair_conns
  | Pending of Tcpnet.conn Ivar.t * Tcpnet.conn Ivar.t  (* low end, high end *)

let conn_for pairs ~me ~peer =
  let key = (min me peer, max me peer) in
  match Hashtbl.find pairs key with
  | Eager p -> if me <= peer then p.low_end else p.high_end
  | Pending (lo, hi) -> Ivar.read (if me <= peer then lo else hi)

(* Reliable-mode sends can give up on a dead peer, and reads can be cut
   short by a peer crash wiping the bytes they were waiting for; surface
   both as the library-level error rather than a transport exception. *)
let guard f =
  try f () with Tcpnet.Timeout { msg; _ } -> raise (Config.Peer_unreachable msg)

let slice buf = (buf.Buf.data, buf.Buf.off, buf.Buf.len)

(* Tcpnet stages the slices itself (one copy per send), so the Bufs go
   down as they are. *)
let send_tm conn =
  {
    Tm.s_name = "tcp";
    s_side =
      Tm.Dynamic_send
        {
          Tm.send_buffer =
            (fun buf -> guard (fun () -> Tcpnet.send_group conn [ slice buf ]));
          send_buffer_group =
            (fun bufs ->
              guard (fun () ->
                  Tcpnet.send_group conn (Bufs.map_to_list slice bufs)));
        };
  }

let recv_tm conn =
  {
    Tm.r_name = "tcp";
    r_side =
      Tm.Dynamic_recv
        {
          Tm.receive_buffer =
            (fun buf ->
              let data, off, len = slice buf in
              guard (fun () -> Tcpnet.recv conn data ~off ~len));
          receive_buffer_group =
            (fun bufs ->
              guard (fun () ->
                  Tcpnet.recv_group conn (Bufs.map_to_list slice bufs)));
        };
    r_probe = (fun () -> Tcpnet.available conn > 0);
  }

let select ~len:_ ~transit:_ _s _r = 0

let health_of c =
  if Tcpnet.is_dead c then Iface.Down
  else
    match Tcpnet.consecutive_failures c with
    | 0 -> Iface.Up
    | n -> Iface.Degraded n

let driver (stack_of : int -> Tcpnet.t) =
  let instantiate ~channel_id ~config ~ranks =
    let pairs = Hashtbl.create 16 in
    let handshake_pair ~timeout low high =
      let stack_lo = stack_of low and stack_hi = stack_of high in
      let engine = Tcpnet.engine stack_lo in
      (* Unique per (channel, pair): the high end listens, the low end
         dials. *)
      let port = (channel_id lsl 10) lor low in
      Tcpnet.listen stack_hi ~port;
      let iv_lo = Ivar.create () and iv_hi = Ivar.create () in
      Marcel.Engine.spawn engine ~daemon:true
        ~name:(Printf.sprintf "tcp.accept.%d.%d-%d" channel_id low high)
        (fun () -> Ivar.fill iv_hi (Tcpnet.accept stack_hi ~port));
      (* Not a daemon: a handshake that cannot complete must surface (as
         Tcpnet.Timeout out of the engine), not be silently discarded. *)
      Marcel.Engine.spawn engine
        ~name:(Printf.sprintf "tcp.connect.%d.%d-%d" channel_id low high)
        (fun () ->
          Ivar.fill iv_lo (Tcpnet.connect ~timeout stack_lo ~node_id:high ~port));
      Pending (iv_lo, iv_hi)
    in
    let rec all_pairs = function
      | [] -> ()
      | a :: rest ->
          List.iter
            (fun b ->
              let low, high = (min a b, max a b) in
              let src =
                match config.Config.tcp_connect_timeout with
                | None ->
                    let low_end, high_end =
                      Tcpnet.socketpair (stack_of low) (stack_of high)
                    in
                    Eager { low_end; high_end }
                | Some timeout -> handshake_pair ~timeout low high
              in
              Hashtbl.add pairs (low, high) src)
            rest;
          all_pairs rest
    in
    all_pairs ranks;
    let sender_link =
      Driver.memo_links (fun ~src ~dst ->
          let conn = conn_for pairs ~me:src ~peer:dst in
          Link.make_sender select
            [| Bmm.send_of_tm ~aggregation:config.Config.aggregation (send_tm conn) |])
    in
    let receiver_link =
      Driver.memo_links (fun ~src ~dst ->
          (* src = me, dst = from *)
          let conn = conn_for pairs ~me:src ~peer:dst in
          let tm = recv_tm conn in
          Link.make_receiver select
            [| Bmm.recv_of_tm tm |]
            ~probe:tm.Tm.r_probe)
    in
    let end_for p ~me ~low =
      match p with
      | Eager p -> Some (if low = me then p.low_end else p.high_end)
      | Pending (lo, hi) -> Ivar.peek (if low = me then lo else hi)
    in
    {
      Driver.inst_name = "tcp";
      inst_fabric =
        (match ranks with
        | r :: _ -> Some (Tcpnet.fabric_name (stack_of r))
        | [] -> None);
      sender_link;
      receiver_link = (fun ~me ~from -> receiver_link ~src:me ~dst:from);
      on_data =
        (fun ~me hook ->
          Hashtbl.iter
            (fun (low, high) p ->
              if low = me || high = me then
                match end_for p ~me ~low with
                | Some c -> Tcpnet.set_data_hook c hook
                | None ->
                    (* Still in handshake: hook up once established. *)
                    let engine = Tcpnet.engine (stack_of me) in
                    let iv =
                      match p with
                      | Pending (lo, hi) -> if low = me then lo else hi
                      | Eager _ -> assert false
                    in
                    Marcel.Engine.spawn engine ~daemon:true
                      ~name:(Printf.sprintf "tcp.hook.%d.%d" channel_id me)
                      (fun () -> Tcpnet.set_data_hook (Ivar.read iv) hook))
            pairs);
      peer_health =
        (fun ~me ~peer ->
          match Hashtbl.find_opt pairs (min me peer, max me peer) with
          | None -> Iface.Up
          | Some p -> (
              match end_for p ~me ~low:(min me peer) with
              | Some c -> health_of c
              | None -> Iface.Up));
      reg_stats = (fun ~me:_ -> None);
    }
  in
  { Driver.driver_name = "tcp"; instantiate }
