(* The credit plane of a virtual channel: end-to-end, receiver-granted
   flow control (see credits.mli). All counters are plain cumulative
   ints — only the data-packet sequence number wraps. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Mutex = Marcel.Mutex
module Condition = Marcel.Condition

type core = {
  engine : Engine.t;
  routing : Channel.t Routing.t;
  ship_detached :
    kind:string -> at:int -> Generic_tm.packet_header -> Bytes.t -> unit;
  rel : Reliability.hooks;
}

(* The plane's counters, which {!Vchannel} re-exports. *)
module Stats = struct
  type credit_stats = {
    credit_budget : int;
    grants : int;
    probes : int;
    stalls : int;
  }
end

open Stats

type hooks = {
  charge : src:int -> dst:int -> int -> unit;
  split : Sched.frame list -> Sched.frame list list;
  on_crd : me:int -> Generic_tm.packet_header -> Bytes.t -> unit;
  consumed : me:int -> origin:int -> unit;
  crash : int -> unit -> unit;
  stats : unit -> credit_stats option;
}

(* Send-side counters of one (src, dst) flow, made on its first
   emission. *)
type tx = {
  tx_mu : Mutex.t;
  tx_cond : Condition.t; (* credit-blocked senders wait here *)
  mutable tx_shipped : int;
  mutable tx_granted : int; (* receiver's consumed count, as last heard *)
  mutable tx_probe_gap : Time.span;
      (* wait before the next zero-window probe: doubles per probe,
         reset by a grant that raises [tx_granted] *)
}

(* Receive-side counters of one (me, origin) pair: credits meter the
   pair, whichever flows the bytes belong to. *)
type rx = {
  mutable rx_consumed : int; (* data packets drained by user unpacks *)
  mutable rx_last_grant : int; (* consumed count when we last granted *)
}

type t = {
  core : core;
  cr_budget : int;
  cr_quantum : int;
  tx : tx Pairs.t; (* [src].(dst) *)
  rx : rx Pairs.t; (* [me].(origin) *)
  mutable cr_grants : int;
  mutable cr_probes : int;
  mutable cr_stalls : int;
}

let tx_state c ~src ~dst =
  Pairs.get c.tx src dst (fun () ->
      {
        tx_mu = Mutex.create ();
        tx_cond = Condition.create ();
        tx_shipped = 0;
        tx_granted = 0;
        tx_probe_gap = Config.credit_probe_interval;
      })

let rx_state c ~me ~origin =
  Pairs.get c.rx me origin (fun () -> { rx_consumed = 0; rx_last_grant = 0 })

(* Cumulative grant from the consumer [me] back to the flow's origin: a
   [crd] packet whose 4-byte payload is the number of data packets
   consumed so far. On reliable vchannels it piggybacks the flow's
   cumulative ack ([ack] flag + [seq]), so a grant also trims the
   origin's re-emission log. Rides the normal routed path — gateways
   forward it like data. Best-effort: a lost grant is recovered by the
   sender's zero-window probe. *)
let send_grant c rx ~me ~origin =
  rx.rx_last_grant <- rx.rx_consumed;
  c.cr_grants <- c.cr_grants + 1;
  let ack, seq =
    match c.core.rel.ack_for ~me ~origin with
    | Some seq -> (true, seq)
    | None -> (false, 0)
  in
  let payload = Bytes.create 4 in
  Bytes.set_int32_le payload 0 (Int32.of_int rx.rx_consumed);
  c.core.ship_detached ~kind:"grant" ~at:me
    { (Generic_tm.header ~origin:me ~final_dst:origin ~payload_len:4) with
      seq;
      ack;
      crd = true;
    }
    payload

(* Zero-window probe from a credit-blocked sender: an empty [crd] packet
   the receiver answers with a fresh grant. Covers grants lost to crash
   paths, so a blocked flow can always make progress once the receiver
   consumes. *)
let send_probe c ~src ~dst =
  c.cr_probes <- c.cr_probes + 1;
  c.core.ship_detached ~kind:"probe" ~at:src
    { (Generic_tm.header ~origin:src ~final_dst:dst ~payload_len:0) with
      crd = true;
    }
    Bytes.empty

(* One user unpack drained a whole packet payload at [me]: replenish the
   origin's credits once a grant quantum's worth has been consumed. *)
let consumed c ~me ~origin =
  let rx = rx_state c ~me ~origin in
  rx.rx_consumed <- rx.rx_consumed + 1;
  if rx.rx_consumed - rx.rx_last_grant >= c.cr_quantum then
    send_grant c rx ~me ~origin

(* A grant (or probe answer) reached the flow's origin [me]: its
   piggybacked ack goes to the reliability plane. Grants are cumulative,
   so reordered or duplicated ones apply monotonically. *)
let on_crd c ~me header payload =
  let origin = header.Generic_tm.origin in
  if header.Generic_tm.ack then c.core.rel.on_ack header;
  if header.Generic_tm.payload_len >= 4 then begin
    let consumed = Int32.to_int (Bytes.get_int32_le payload 0) in
    let tx = tx_state c ~src:me ~dst:origin in
    if consumed > tx.tx_granted then begin
      tx.tx_granted <- consumed;
      tx.tx_probe_gap <- Config.credit_probe_interval;
      Condition.broadcast tx.tx_cond
    end
  end
  else if c.core.rel.node_up me then
    (* Zero-window probe: answer with the current consumed count,
       unless this host is down. *)
    send_grant c (rx_state c ~me ~origin) ~me ~origin

(* A sender out of credits parks on the flow's condition variable until
   the receiver's grants catch up. While blocked it ships zero-window
   probes (recovering grants lost to crash paths): the first after
   {!Config.credit_probe_interval}, each next one twice as late up to
   {!Config.credit_probe_max_interval}, since a probe answered with no
   new credit means the receiver is slow, not that a grant was lost; a
   grant that raises the credit resets the interval, and so does a
   crash on the grant route ([crash]). On a reliable vchannel it rides
   out route holes with the usual patience — a flow whose destination
   never comes back surfaces as [Partitioned] here exactly as it would
   when shipping. *)
let wait_credit c tx ~src ~dst =
  let engine = c.core.engine in
  if tx.tx_shipped - tx.tx_granted >= c.cr_budget then begin
    c.cr_stalls <- c.cr_stalls + 1;
    while tx.tx_shipped - tx.tx_granted >= c.cr_budget do
      c.core.rel.await_route ~at:src ~dst;
      if tx.tx_shipped - tx.tx_granted >= c.cr_budget then begin
        let wake_at = Time.add (Engine.now engine) tx.tx_probe_gap in
        Engine.at engine wake_at (fun () -> Condition.broadcast tx.tx_cond);
        Mutex.lock tx.tx_mu;
        Condition.wait tx.tx_cond tx.tx_mu;
        Mutex.unlock tx.tx_mu;
        if
          tx.tx_shipped - tx.tx_granted >= c.cr_budget
          && Time.( <= ) wake_at (Engine.now engine)
        then begin
          send_probe c ~src ~dst;
          tx.tx_probe_gap <-
            min (Time.span_mul tx.tx_probe_gap 2)
              Config.credit_probe_max_interval
        end
      end
    done
  end;
  tx.tx_shipped <- tx.tx_shipped + 1

(* Charge [n] credits to the flow before its packet is numbered, one
   per data-carrying frame. *)
let charge c ~src ~dst n =
  let tx = tx_state c ~src ~dst in
  for _ = 1 to n do
    wait_credit c tx ~src ~dst
  done

(* One aggregate may never need more credits than the pair's whole
   budget: the per-frame charge happens before the packet ships, so
   grants for its own frames cannot arrive while it waits — a train of
   more data frames than [cr_budget] would deadlock. Split such trains
   so each wire packet charges at most the budget. *)
let split c frames =
  let rec groups acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | fr :: rest ->
        let is_data = Bytes.length fr.Sched.fr_data > 0 in
        if is_data && n >= c.cr_budget && cur <> [] then
          groups (List.rev cur :: acc) [ fr ] 1 rest
        else groups acc (fr :: cur) (n + if is_data then 1 else 0) rest
  in
  groups [] [] 0 frames

(* A crash of [node] wipes its counters: its send-side ones are volatile
   like the rest of its session state, and the receive-side ones
   mirror the wiped ones and restart from zero too (leftover pre-crash
   bytes still buffered at a peer may transiently over-grant by at most
   one budget, which the restart window absorbs). A grant that died in
   the crash comes back only through the sender's next probe, so a
   sender a slow receiver had backed off would wait up to
   {!Config.credit_probe_max_interval} for it: every backed-off flow
   whose grants route through (or come from) the crashed node, judged
   on the routes before the crash, probes again from the base interval
   once the returned thunk runs; waking it re-arms its probe timer. *)
let crash c node =
  Pairs.iter_row
    (fun _ tx ->
      tx.tx_shipped <- 0;
      tx.tx_granted <- 0;
      tx.tx_probe_gap <- Config.credit_probe_interval)
    c.tx node;
  Pairs.iter_col
    (fun _ rx ->
      rx.rx_consumed <- 0;
      rx.rx_last_grant <- 0)
    c.rx node;
  let backed_off = ref [] in
  Pairs.iter
    (fun src dst tx ->
      if
        src <> node
        && Time.( < ) Config.credit_probe_interval tx.tx_probe_gap
        && (dst = node
           || List.mem node (Routing.via c.core.routing ~src:dst ~dst:src))
      then backed_off := tx :: !backed_off)
    c.tx;
  let backed_off = List.rev !backed_off in
  fun () ->
    List.iter
      (fun tx ->
        tx.tx_probe_gap <- Config.credit_probe_interval;
        Condition.broadcast tx.tx_cond)
      backed_off

let create ~n ~budget core =
  let c =
    {
      core;
      cr_budget = budget;
      (* Grant every half window: frequent enough that a sender with a
         consuming receiver never runs fully dry, cheap enough that
         grants stay a small fraction of the data. *)
      cr_quantum = max 1 (budget / 2);
      tx = Pairs.create n;
      rx = Pairs.create n;
      cr_grants = 0;
      cr_probes = 0;
      cr_stalls = 0;
    }
  in
  {
    charge = charge c;
    split = split c;
    on_crd = on_crd c;
    consumed = consumed c;
    crash = crash c;
    stats =
      (fun () ->
        Some
          {
            credit_budget = c.cr_budget;
            grants = c.cr_grants;
            probes = c.cr_probes;
            stalls = c.cr_stalls;
          });
  }
