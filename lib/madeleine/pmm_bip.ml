(* Protocol Management Module for BIP/Myrinet (paper §5.2.2).

   Two transmission modules, mirroring BIP's two modes:
   - TM 0, "bip-short": small packets aggregate into a static staging
     buffer of one BIP short message; BIP's own credit window provides
     the flow control. The staging copy is a real memcpy.
   - TM 1, "bip-long": dynamic buffers, one receiver-acknowledged
     rendezvous per buffer, zero-copy into the destination. *)

module Engine = Marcel.Engine

let memcpy_sleep = Simnet.Cost.memcpy

let short_tag channel_id = (channel_id * 4) + 0
let long_tag channel_id = (channel_id * 4) + 1
let short_capacity = Config.bip_short_payload

let send_short_tm endpoint ~dst ~tag =
  let staging = Bytes.create short_capacity in
  let fill = ref 0 in
  {
    Tm.s_name = "bip-short";
    s_side =
      Tm.Static_send
        {
          Tm.send_capacity = short_capacity;
          (* Flow control lives inside Bip.send's credit window. *)
          obtain_static_buffer = (fun () -> ());
          write_static =
            (fun buf ->
              memcpy_sleep (Buf.length buf);
              Buf.blit_out buf staging !fill;
              fill := !fill + Buf.length buf);
          ship_static =
            (fun () ->
              Bip.send endpoint ~dst ~tag ~len:!fill staging;
              fill := 0);
        };
  }

(* BIP long messages are sent from, and land at, the user's slice: the
   only host copy is the send-side snapshot inside Bip. *)
let send_long_tm endpoint ~dst ~tag =
  let send_one buf =
    Bip.send endpoint ~dst ~tag ~off:buf.Buf.off ~len:buf.Buf.len buf.Buf.data
  in
  {
    Tm.s_name = "bip-long";
    s_side =
      Tm.Dynamic_send
        {
          Tm.send_buffer = send_one;
          send_buffer_group = (fun bufs -> Bufs.iter send_one bufs);
        };
  }

let recv_short_tm endpoint ~from ~tag =
  let staging = Bytes.create short_capacity in
  let read_off = ref 0 in
  {
    Tm.r_name = "bip-short";
    r_side =
      Tm.Static_recv
        {
          Tm.recv_capacity = short_capacity;
          fetch_static =
            (fun () ->
              let len = Bip.recv endpoint ~src:from ~tag staging in
              read_off := 0;
              len);
          read_static =
            (fun buf ->
              memcpy_sleep (Buf.length buf);
              Buf.blit_in buf staging !read_off;
              read_off := !read_off + Buf.length buf);
          consume_static = (fun () -> ());
        };
    r_probe = (fun () -> Bip.probe endpoint ~src:from ~tag);
  }

let recv_long_tm endpoint ~from ~tag =
  let recv_one buf =
    let len =
      Bip.recv endpoint ~src:from ~tag ~off:buf.Buf.off ~len:buf.Buf.len
        buf.Buf.data
    in
    if len <> Buf.length buf then
      raise
        (Config.Symmetry_violation
           (Printf.sprintf "bip-long: expected %d bytes, got %d"
              (Buf.length buf) len))
  in
  {
    Tm.r_name = "bip-long";
    r_side =
      Tm.Dynamic_recv
        {
          Tm.receive_buffer = recv_one;
          receive_buffer_group = (fun bufs -> Bufs.iter recv_one bufs);
        };
    r_probe = (fun () -> Bip.probe endpoint ~src:from ~tag);
  }

(* The Switch's query (paper Fig. 3, step 2): short messages take the
   optimized buffered path, everything else the rendezvous path. *)
let select ~len ~transit:_ _s _r = if len < Simnet.Netparams.bip_short_max then 0 else 1

let driver (endpoint_of : int -> Bip.t) =
  let instantiate ~channel_id ~config ~ranks:_ =
    let sender_link =
      Driver.memo_links (fun ~src ~dst ->
          let ep = endpoint_of src in
          let tms =
            [|
              send_short_tm ep ~dst ~tag:(short_tag channel_id);
              send_long_tm ep ~dst ~tag:(long_tag channel_id);
            |]
          in
          Link.make_sender select
            (Array.map (Bmm.send_of_tm ~aggregation:config.Config.aggregation) tms))
    in
    let receiver_link =
      Driver.memo_links (fun ~src ~dst ->
          let ep = endpoint_of src in
          let tms =
            [|
              recv_short_tm ep ~from:dst ~tag:(short_tag channel_id);
              recv_long_tm ep ~from:dst ~tag:(long_tag channel_id);
            |]
          in
          let probe () = Array.exists (fun tm -> tm.Tm.r_probe ()) tms in
          Link.make_receiver select (Array.map Bmm.recv_of_tm tms) ~probe)
    in
    {
      Driver.inst_name = "bip";
      inst_fabric = None;
      sender_link;
      receiver_link = (fun ~me ~from -> receiver_link ~src:me ~dst:from);
      on_data = (fun ~me hook -> Bip.set_data_hook (endpoint_of me) hook);
      peer_health = (fun ~me:_ ~peer:_ -> Iface.Up);
      reg_stats = (fun ~me:_ -> None);
    }
  in
  { Driver.driver_name = "bip"; instantiate }
