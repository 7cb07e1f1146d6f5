(* Phi-accrual failure detector (Hayashibara et al.), one instance per
   node. Instead of a binary timeout, the detector keeps a running
   estimate of the heartbeat inter-arrival time and expresses suspicion
   as a continuous value

     phi(t) = elapsed_since_last_arrival / (mean_interval * ln 10)

   — the exponential-model approximation of -log10 P(arrival gap >
   elapsed). Crossing [degraded_phi] reports the peer [Degraded];
   crossing [down_phi] reports it [Down]; a successful probe snaps it
   back to [Up]. Channels subscribe to the transitions and reroute
   around a suspected gateway *before* a send has to time out on it.

   The probe loop is activity-gated so a quiescent world can finish:
   probing runs only within [grace] of the last {!touch} (channels touch
   on every packet they move). Once the grace window expires the daemon
   parks on a plain suspend — no pending timer — and the engine can
   drain; the next touch re-arms it. A crashed self also parks: a dead
   host probes nobody, and its restart handler touches the sentinel
   back to life. *)

module Engine = Marcel.Engine
module Time = Marcel.Time

type state = Up | Degraded | Overloaded | Down

let state_name = function
  | Up -> "up"
  | Degraded -> "degraded"
  | Overloaded -> "overloaded"
  | Down -> "down"

type event = {
  ev_at : Time.t;
  ev_peer : int;
  ev_from : state;
  ev_to : state;
  ev_phi : float;
}

type peer = {
  p_id : int;
  mutable p_state : state;
  mutable p_last_arrival : Time.t;
  mutable p_mean_us : float; (* EMA of successful inter-arrival gaps *)
  mutable p_have_arrival : bool;
  mutable p_overloaded : bool; (* load report, orthogonal to liveness *)
}

type t = {
  engine : Engine.t;
  faults : Simnet.Faults.t;
  me : int;
  fabric : string option;
  interval : Time.span;
  degraded_phi : float;
  down_phi : float;
  grace : Time.span;
  mutable peers : peer list;
  mutable cbs : (int -> state -> state -> unit) list;
  mutable last_touch : Time.t;
  mutable park_wake : (unit -> unit) option;
  mutable running : bool;
  mutable probes : int;
  mutable events : event list; (* newest first *)
}

let ln10 = Float.log 10.0

let phi_of _t p now =
  if not p.p_have_arrival then 0.0
  else
    let elapsed = Time.to_us (Time.diff now p.p_last_arrival) in
    elapsed /. (Float.max p.p_mean_us 1.0 *. ln10)

let transition t p to_ phi =
  if p.p_state <> to_ then begin
    let from = p.p_state in
    p.p_state <- to_;
    t.events <-
      {
        ev_at = Engine.now t.engine;
        ev_peer = p.p_id;
        ev_from = from;
        ev_to = to_;
        ev_phi = phi;
      }
      :: t.events;
    List.iter (fun cb -> cb p.p_id from to_) (List.rev t.cbs)
  end

let probe_peer t p =
  let now = Engine.now t.engine in
  t.probes <- t.probes + 1;
  if Simnet.Faults.heartbeat t.faults ?fabric:t.fabric ~src:t.me ~dst:p.p_id ()
  then begin
    (if p.p_have_arrival then begin
       let gap = Time.to_us (Time.diff now p.p_last_arrival) in
       p.p_mean_us <- (0.8 *. p.p_mean_us) +. (0.2 *. gap)
     end);
    p.p_last_arrival <- now;
    p.p_have_arrival <- true;
    (* A live probe clears any liveness suspicion, but an overloaded peer
       is alive *and* shedding load: it stays Overloaded until the load
       report clears. *)
    transition t p (if p.p_overloaded then Overloaded else Up) (phi_of t p now)
  end
  else begin
    (* No arrival: suspicion accrues with the silence. The very first
       probe seeds the arrival clock so a peer that is down from the
       start still accrues from the moment we began watching it. *)
    if not p.p_have_arrival then begin
      p.p_last_arrival <- now;
      p.p_have_arrival <- true
    end;
    let phi = phi_of t p now in
    if phi >= t.down_phi then transition t p Down phi
    else if phi >= t.degraded_phi then transition t p Degraded phi
  end

let rec loop t =
  let now = Engine.now t.engine in
  let idle = Time.( < ) (Time.add t.last_touch t.grace) now in
  if idle || not (Simnet.Faults.node_up t.faults t.me) then begin
    Engine.suspend ~name:(Printf.sprintf "sentinel.park.%d" t.me) (fun wake ->
        t.park_wake <- Some wake);
    t.park_wake <- None;
    loop t
  end
  else begin
    List.iter (fun p -> probe_peer t p) t.peers;
    Engine.sleep t.interval;
    loop t
  end

let touch t =
  t.last_touch <- Engine.now t.engine;
  match t.park_wake with Some wake -> wake () | None -> ()

let fresh_peer t id =
  {
    p_id = id;
    p_state = Up;
    p_last_arrival = Time.zero;
    p_mean_us = Time.to_us t.interval;
    p_have_arrival = false;
    p_overloaded = false;
  }

let learn t id =
  if id <> t.me && not (List.exists (fun p -> p.p_id = id) t.peers) then
    t.peers <- t.peers @ [ fresh_peer t id ]

let forget t id = t.peers <- List.filter (fun p -> p.p_id <> id) t.peers
let watched t = List.map (fun p -> p.p_id) t.peers

let create engine faults ~me ~peers ?fabric ?(interval = Time.us 500.0)
    ?(degraded_phi = 1.0) ?(down_phi = 2.0) ?(grace = Time.ms 2.0) () =
  if degraded_phi <= 0.0 || down_phi < degraded_phi then
    invalid_arg "Sentinel.create: need 0 < degraded_phi <= down_phi";
  let t =
    {
      engine;
      faults;
      me;
      fabric;
      interval;
      degraded_phi;
      down_phi;
      grace;
      peers = [];
      cbs = [];
      last_touch = Engine.now engine;
      park_wake = None;
      running = false;
      probes = 0;
      events = [];
    }
  in
  t.peers <- List.map (fresh_peer t) (List.filter (fun id -> id <> me) peers);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    Engine.spawn t.engine ~daemon:true
      ~name:(Printf.sprintf "sentinel.%d" t.me)
      (fun () -> loop t)
  end

let on_transition t cb = t.cbs <- cb :: t.cbs

let find_peer t id = List.find_opt (fun p -> p.p_id = id) t.peers

let state t id =
  match find_peer t id with Some p -> p.p_state | None -> Up

let phi t id =
  match find_peer t id with
  | Some p -> phi_of t p (Engine.now t.engine)
  | None -> 0.0

let set_overloaded t ~peer flag =
  match find_peer t peer with
  | None -> ()
  | Some p ->
      if p.p_overloaded <> flag then begin
        p.p_overloaded <- flag;
        let now = Engine.now t.engine in
        (* Load reports never override a Down verdict: a dead peer stays
           dead until a probe proves otherwise. *)
        if flag then begin
          if p.p_state <> Down then transition t p Overloaded (phi_of t p now)
        end
        else if p.p_state = Overloaded then transition t p Up (phi_of t p now)
      end

let suspected t =
  List.filter_map
    (fun p ->
      (* Overloaded peers are alive — load shedding is not suspicion. *)
      match p.p_state with
      | Degraded | Down -> Some p.p_id
      | Up | Overloaded -> None)
    t.peers

let probes t = t.probes
let timeline t = List.rev t.events
