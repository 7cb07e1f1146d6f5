(* Live topology and quorum elections over a virtual channel. Every
   simulated rank reads the same snapshot, so an epoch swap is one
   pointer assignment at the coordinator followed by the core's route
   recomputation ({!Vchannel.swap_epoch}). *)

module Engine = Marcel.Engine
module Time = Marcel.Time

exception No_quorum of string

let partitioned fmt =
  Printf.ksprintf (fun msg -> raise (Vchannel.Partitioned msg)) fmt

(* Suppressed membership intents of a partitioned minority, replayed
   through the winning coordinator once the cut heals. *)
type intent = P_join of int | P_drain of int

(* The election fields stay inert unless [election]: candidacy is
   epoch-numbered (term = current epoch + 1), and a commit is
   [Topology.with_coordinator] — which bumps the epoch to exactly the
   term — so two candidates can never both commit the same epoch: the
   loser's re-check ([epoch < term]) fails after the winner's swap.
   Ballots live in the candidate's {!Sentinel} tagged with the voter's
   crash epoch, so a restarted voter's stale ballot stops counting
   without any revocation traffic. *)
type t = {
  vc : Vchannel.t;
  engine : Engine.t;
  patience : Time.span;
  up : int -> bool; (* the fault plane's word; every rank without one *)
  crash_epoch : int -> int;
  mutable snapshot : Topology.t;
  mutable coordinator : int;
      (* follows the snapshot's; a quorum election can move it away
         from the configured one *)
  draining : bool array;
      (* ranks mid-drain: still routable, but accept no new flows *)
  mutable joins : int;
  mutable drains : int;
  waiters : Waiters.t; (* threads parked on the next epoch swap *)
  election : bool;
  quorum : int option; (* pinned ballot quorum; [None] = majority *)
  mutable elections : int; (* committed coordinator changes *)
  mutable attempts : int; (* candidacies started *)
  mutable refusals : int; (* candidacies/epoch bumps refused: no quorum *)
  mutable commits : (int * int) list; (* (epoch, coordinator), newest first *)
  mutable last_latency : Time.span; (* trigger -> commit, last election *)
  mutable running : bool; (* a candidacy is in flight *)
  mutable pending : intent list; (* minority's suppressed intents *)
}

(* ------------------------------------------------------------------ *)
(* The [top] wire format. Membership requests carry a 9-byte payload:
   the op, a rank and an epoch. Election ops extend it by two fields:
   the sender's highest committed epoch and a watermark — the
   candidate's delivery-journal depth on a vote request (the audit
   surface for highest-committed-wins reconciliation), the voter's
   crash epoch on a vote ack (what lets the candidate discard ballots
   from voters that have since restarted). *)

let top_join_req = 1
let top_join_ack = 2
let top_drain_req = 3
let top_vote_req = 4
let top_vote_ack = 5
let top_coord = 6
let top_payload_size = 9
let top_ext_payload_size = 17

let top_payload ~op ~rank ~epoch =
  let b = Bytes.create top_payload_size in
  Bytes.set b 0 (Char.chr op);
  Bytes.set_int32_le b 1 (Int32.of_int rank);
  Bytes.set_int32_le b 5 (Int32.of_int epoch);
  b

let top_ext_payload ~op ~rank ~term ~committed ~watermark =
  let b = Bytes.create top_ext_payload_size in
  Bytes.set b 0 (Char.chr op);
  Bytes.set_int32_le b 1 (Int32.of_int rank);
  Bytes.set_int32_le b 5 (Int32.of_int term);
  Bytes.set_int32_le b 9 (Int32.of_int committed);
  Bytes.set_int32_le b 13 (Int32.of_int watermark);
  b

(* Park until [until ()] holds or patience runs out; epoch swaps wake
   every parked thread. Returns whether the condition was reached. *)
let wait m ~until =
  Waiters.await m.waiters m.engine ~patience:m.patience
    ~name:"membership.epoch" ~until

(* Publish [snap] and let the core reroute around the change. *)
let apply_swap m snap =
  let change = Topology.diff m.snapshot snap in
  m.snapshot <- snap;
  m.coordinator <- Topology.coordinator snap;
  Vchannel.swap_epoch m.vc change;
  Waiters.wake_all m.waiters

(* The members of [viewer]'s side of the world: reachable over hops
   whose sender trusts the receiver (under relative suspicion presence
   of a route IS trust-path reachability), plus [viewer] itself. Under
   no partition this is the whole live membership. *)
let side_members m ~viewer =
  List.filter
    (fun r ->
      m.up r && (r = viewer || Vchannel.reachable m.vc ~src:viewer ~dst:r))
    (Topology.ranks m.snapshot)

(* The ballot quorum in force right now. Unpinned, it is a majority of
   the CURRENT committed membership, not of the founding one — so a
   legitimately shrunk topology (drains below the founding majority)
   keeps its liveness, while two disjoint partition sides still can
   never both hold a majority of the same membership. *)
let quorum_needed m =
  match m.quorum with
  | Some q -> q
  | None -> (List.length (Topology.ranks m.snapshot) / 2) + 1

let side_has_quorum m ~viewer =
  List.length (side_members m ~viewer) >= quorum_needed m

(* Depth of a rank's delivery journals — the watermark a candidacy
   carries so reconciliation debates are auditable on the wire. *)
let journal_watermark m rank =
  List.fold_left
    (fun depth f ->
      if f.Vchannel.flow_dst = rank then depth + f.Vchannel.delivered
      else depth)
    0 (Vchannel.flow_stats m.vc)

(* A [top] payload reached [me]. *)
let on_top m ~me payload =
  if m.up me && Bytes.length payload >= top_payload_size then begin
    let op = Char.code (Bytes.get payload 0) in
    let rank = Int32.to_int (Bytes.get_int32_le payload 1) in
    (* A coordinator that cannot see a quorum refuses to bump the
       epoch: a partitioned minority must surface typed errors, not
       diverge from the majority's membership history. Without
       elections the static coordinator always commits. *)
    let may_commit () =
      (not m.election)
      ||
      let ok = side_has_quorum m ~viewer:me in
      if not ok then m.refusals <- m.refusals + 1;
      ok
    in
    if op = top_join_req then begin
      if
        me = m.coordinator
        && (not (Topology.mem m.snapshot rank))
        && may_commit ()
      then begin
        m.joins <- m.joins + 1;
        m.draining.(rank) <- false;
        apply_swap m (Topology.join m.snapshot rank);
        (* The swap made the joiner routable; the ack rides the
           recomputed routes and carries the epoch it joined. *)
        Vchannel.send_top m.vc ~src:me ~dst:rank
          (top_payload ~op:top_join_ack ~rank
             ~epoch:(Topology.epoch m.snapshot))
      end
    end
    else if op = top_join_ack then Waiters.wake_all m.waiters
    else if op = top_drain_req then begin
      if
        me = m.coordinator
        && Topology.mem m.snapshot rank
        && rank <> m.coordinator
        && may_commit ()
      then begin
        m.drains <- m.drains + 1;
        m.draining.(rank) <- false;
        apply_swap m (Topology.drain m.snapshot rank)
      end
    end
    else if Bytes.length payload >= top_ext_payload_size then begin
      let term = Int32.to_int (Bytes.get_int32_le payload 5) in
      let committed = Int32.to_int (Bytes.get_int32_le payload 9) in
      let watermark = Int32.to_int (Bytes.get_int32_le payload 13) in
      if op = top_vote_req then begin
        (* [rank] asks for this rank's ballot in [term]. Refuse
           candidates behind our committed epoch (highest-committed
           wins on merge) and grant at most one ballot per term; the
           ack carries our crash epoch so the candidate can discard the
           ballot if we restart before it counts. *)
        if
          Topology.mem m.snapshot me
          && committed >= Topology.epoch m.snapshot
        then
          match Vchannel.sentinel m.vc ~rank:me with
          | Some s when Sentinel.grant_vote s ~term ->
              Vchannel.send_top m.vc ~src:me ~dst:rank
                (top_ext_payload ~op:top_vote_ack ~rank:me ~term
                   ~committed:(Topology.epoch m.snapshot)
                   ~watermark:(m.crash_epoch me))
          | _ -> ()
      end
      else if op = top_vote_ack then begin
        (* A ballot granted to this rank: [watermark] is the voter's
           crash epoch at the grant. *)
        Option.iter
          (fun s ->
            Sentinel.record_ballot s ~voter:rank ~term ~voter_epoch:watermark)
          (Vchannel.sentinel m.vc ~rank:me);
        Waiters.wake_all m.waiters
      end
      else if op = top_coord then
        (* Commit announcement from the winner; the swap itself already
           happened at the electorate's shared snapshot — this packet is
           what makes the result observable on the wire and wakes anyone
           parked on the old coordinator. *)
        Waiters.wake_all m.waiters
    end
  end

(* The arbitration every membership change goes through: [rank]'s
   request ships toward the coordinator — a join is not yet routable,
   so it takes a physical first hop; a drain notice rides the routes —
   then waits out the patience for the epoch swap that settles it;
   returns whether [settled ()] holds. A request that cannot leave
   fails at once, unless [persist], which a post-heal replay uses to
   back off a whole patience before retrying. *)
let arbitrate ?(persist = false) m ~op rank settled =
  let payload = top_payload ~op ~rank ~epoch:(Topology.epoch m.snapshot) in
  match
    Vchannel.ship_top ~physical:(op = top_join_req) m.vc ~src:rank
      ~dst:m.coordinator payload
  with
  | () -> wait m ~until:settled
  | exception (Vchannel.Partitioned _ | Config.Peer_unreachable _) ->
      if persist then wait m ~until:settled else settled ()

(* ------------------------------------------------------------------ *)
(* Quorum elections. A candidacy is one round: a self-vote plus vote
   requests to every live member, then a patience-bounded wait for
   [quorum_needed] countable ballots. A minority side's candidacy never
   reaches quorum and is recorded as a refusal. *)

(* The lowest member of the current epoch that is up: who stands when
   there is no trust view to ask — the coordinator crashed (the fault
   plane's word is definitive), or an outsider's join went unanswered. *)
let lowest_live_member m = List.find_opt m.up (Topology.ranks m.snapshot)

let run_election m ~candidate =
  if m.running then
    (* A candidacy is already in flight; park until it settles so
       callers retrying a join/drain observe its outcome. *)
    ignore (wait m ~until:(fun () -> not m.running))
  else begin
    m.running <- true;
    m.attempts <- m.attempts + 1;
    let started = Engine.now m.engine in
    let committed = Topology.epoch m.snapshot in
    let term = committed + 1 in
    (match Vchannel.sentinel m.vc ~rank:candidate with
    | None -> m.refusals <- m.refusals + 1
    | Some s ->
        if Sentinel.grant_vote s ~term then
          Sentinel.record_ballot s ~voter:candidate ~term
            ~voter_epoch:(m.crash_epoch candidate);
        List.iter
          (fun peer ->
            if peer <> candidate && m.up peer then
              Vchannel.send_top m.vc ~src:candidate ~dst:peer
                (top_ext_payload ~op:top_vote_req ~rank:candidate ~term
                   ~committed ~watermark:(journal_watermark m candidate)))
          (Topology.ranks m.snapshot);
        let won =
          wait m ~until:(fun () ->
              List.length (Sentinel.ballots s ~term) >= quorum_needed m)
        in
        if
          won
          && Topology.epoch m.snapshot < term
          && candidate <> Topology.coordinator m.snapshot
        then begin
          let snap = Topology.with_coordinator m.snapshot candidate in
          m.elections <- m.elections + 1;
          m.commits <- (Topology.epoch snap, candidate) :: m.commits;
          m.last_latency <- Time.diff (Engine.now m.engine) started;
          apply_swap m snap;
          List.iter
            (fun peer ->
              if peer <> candidate then
                Vchannel.send_top m.vc ~src:candidate ~dst:peer
                  (top_ext_payload ~op:top_coord ~rank:candidate ~term
                     ~committed:(Topology.epoch snap)
                     ~watermark:(journal_watermark m candidate)))
            (Topology.ranks m.snapshot)
        end
        else if not won then m.refusals <- m.refusals + 1);
    m.running <- false;
    Waiters.wake_all m.waiters
  end

(* Post-heal reconciliation: the shared snapshot already embodies the
   majority's history (highest-committed-wins is structural — the
   minority was refused every bump), so merging is replaying the
   loser's suppressed join/drain intents through the winning
   coordinator, twice at most each. Idempotent against the
   coordinator's membership guards; intents that still cannot get
   through go back on the pending list for the next heal. *)
let replay_pending m =
  let pend = List.rev m.pending in
  m.pending <- [];
  let replay intent ~op rank settled =
    let attempt () = arbitrate ~persist:true m ~op rank settled in
    if not (attempt () || attempt ()) then m.pending <- intent :: m.pending
  in
  List.iter
    (function
      | P_join rank as intent ->
          if not (Topology.mem m.snapshot rank) then
            replay intent ~op:top_join_req rank (fun () ->
                Topology.mem m.snapshot rank)
      | P_drain rank as intent ->
          if Topology.mem m.snapshot rank && rank <> m.coordinator then begin
            (* The routed drain notice needs the trust paths back first:
               suspicion drains via Up probes shortly after the heal, so
               wait for the rank-to-coordinator route before shipping. *)
            ignore
              (wait m ~until:(fun () ->
                   Vchannel.reachable m.vc ~src:rank ~dst:m.coordinator));
            replay intent ~op:top_drain_req rank (fun () ->
                not (Topology.mem m.snapshot rank))
          end)
    pend

(* Healing restores the wire but not the detectors' opinions: touch
   every sentinel so activity-gated probing re-arms and suspicion drains
   organically via Up probes, then replay the minority's suppressed
   join/drain intents once the coordinator's side holds quorum again. *)
let on_heal m _fabric =
  List.iter
    (fun rank -> Option.iter Sentinel.touch (Vchannel.sentinel m.vc ~rank))
    (Vchannel.ranks m.vc);
  Waiters.wake_all m.waiters;
  if m.pending <> [] then
    Engine.spawn m.engine ~daemon:true ~name:"membership.heal.replay"
      (fun () ->
        if wait m ~until:(fun () -> side_has_quorum m ~viewer:m.coordinator)
        then replay_pending m)

(* A crashed coordinator needs no phi verdict: the fault plane's word
   is definitive, so stand a candidate at once. *)
let on_crash m node =
  if node = m.coordinator then begin
    Waiters.wake_all m.waiters;
    match lowest_live_member m with
    | Some candidate ->
        Engine.spawn m.engine ~daemon:true
          ~name:(Printf.sprintf "membership.elect.crash.%d" candidate)
          (fun () -> run_election m ~candidate)
    | None -> ()
  end

(* Every verdict shifts some trust path: wake the parked. When the
   coordinator just went dark for [me], stand the lowest live member of
   [me]'s side (not necessarily [me] — the observer may not be the
   side's natural candidate). *)
let on_verdict m ~me peer state =
  Waiters.wake_all m.waiters;
  if state = Sentinel.Down && peer = m.coordinator then
    Engine.spawn m.engine ~daemon:true
      ~name:(Printf.sprintf "membership.elect.%d" me)
      (fun () ->
        match side_members m ~viewer:me with
        | candidate :: _ -> run_election m ~candidate
        | [] -> ())

(* The view this layer installs. With elections, suspicion becomes
   observer-relative, and alive means "in the committed coordinator's
   trust component" — the committed side's view, so majority trees
   exclude the whole minority, not just directly-suspected neighbours. *)
let install m =
  let fixed = Vchannel.view m.vc in
  let v =
    {
      fixed with
      Vchannel.member = (fun r -> Topology.mem m.snapshot r);
      draining = (fun r -> m.draining.(r));
      on_top = on_top m;
    }
  in
  Vchannel.set_view m.vc
    (if not m.election then v
     else
       {
         v with
         relative = true;
         trusted =
           (fun r ->
             r = m.coordinator
             || Vchannel.reachable m.vc ~src:m.coordinator ~dst:r);
         has_quorum =
           (fun viewer ->
             List.mem viewer (Vchannel.ranks m.vc)
             && m.up viewer && side_has_quorum m ~viewer);
         on_crash = on_crash m;
         on_verdict = on_verdict m;
       })

let create ?coordinator ?(election = false) ?topo_quorum ~version vc =
  let ranks = Vchannel.ranks vc in
  let coordinator = Option.value coordinator ~default:(List.hd ranks) in
  let faults = Vchannel.faults vc in
  let reject fmt = Printf.ksprintf invalid_arg ("Membership.create: " ^^ fmt) in
  if version < 1 then reject "topology version < 1";
  if not (List.mem coordinator ranks) then
    reject "coordinator %d not part of the virtual channel" coordinator;
  (* Election wants a fault plane under it: the sentinels carry both the
     suspicion verdicts a candidacy rides on and the ballot registries. *)
  (if not election then begin
     if Option.is_some topo_quorum then reject "topo_quorum requires election"
   end
   else begin
     if Option.is_none faults then reject "election requires a fault plane";
     let n = List.length ranks in
     match topo_quorum with
     | Some q when q < 1 || q > n -> reject "topo_quorum %d outside 1..%d" q n
     | _ -> ()
   end);
  let up, crash_epoch =
    match faults with
    | Some f -> (Simnet.Faults.node_up f, Simnet.Faults.epoch f)
    | None -> ((fun _ -> true), fun _ -> 0)
  in
  let m =
    {
      vc;
      engine = Vchannel.engine vc;
      patience = Vchannel.patience vc;
      up;
      crash_epoch;
      snapshot = Topology.make ~epoch:version ~coordinator ranks;
      coordinator;
      draining = Array.make (1 + List.fold_left max 0 ranks) false;
      joins = 0;
      drains = 0;
      waiters = Waiters.create ();
      election;
      quorum = topo_quorum;
      elections = 0;
      attempts = 0;
      refusals = 0;
      commits = [];
      last_latency = Time.zero;
      running = false;
      pending = [];
    }
  in
  install m;
  (match faults with
  | Some f when election -> Simnet.Faults.on_heal f (on_heal m)
  | _ -> ());
  m

(* ------------------------------------------------------------------ *)
(* The membership verbs *)

let join m ~rank =
  let invalid fmt = Printf.ksprintf invalid_arg ("Membership.join: " ^^ fmt) in
  if not (List.mem rank (Vchannel.ranks m.vc)) then
    invalid "rank %d not part of the virtual channel" rank;
  if Topology.mem m.snapshot rank then
    invalid "rank %d is already a member" rank;
  if not (m.up rank) then partitioned "Membership.join: rank %d is down" rank;
  let admitted () = Topology.mem m.snapshot rank in
  let attempt () = arbitrate m ~op:top_join_req rank admitted in
  if not (attempt ()) then begin
    if not m.election then
      partitioned
        "Membership.join: coordinator %d did not admit rank %d within patience"
        m.coordinator rank;
    (* Transparently re-targeted: stand a replacement and retry against
       whoever then holds the seat. The joiner is an outsider with an
       empty trust view, so the lowest live member stands. A joiner that
       still cannot get through is on a minority side. *)
    Option.iter (fun candidate -> run_election m ~candidate)
      (lowest_live_member m);
    if not (attempt ()) then begin
      m.pending <- P_join rank :: m.pending;
      raise
        (No_quorum
           (Printf.sprintf
              "Membership.join: no quorum reachable to admit rank %d (intent \
               parked for post-heal replay)"
              rank))
    end
  end;
  Topology.epoch m.snapshot

let drain m ~rank =
  let invalid fmt = Printf.ksprintf invalid_arg ("Membership.drain: " ^^ fmt) in
  if not (Topology.mem m.snapshot rank) then
    invalid "rank %d is not a member" rank;
  if rank = m.coordinator then invalid "rank %d is the coordinator" rank;
  (* Abandoning the drain withdraws its mark. *)
  let abort exn fmt =
    Printf.ksprintf
      (fun msg ->
        m.draining.(rank) <- false;
        raise (exn ("Membership.drain: " ^ msg)))
      fmt
  in
  let partitioned fmt = abort (fun msg -> Vchannel.Partitioned msg) fmt in
  (* Phase 1 — stop accepting new flows involving this rank. *)
  m.draining.(rank) <- true;
  (* Phase 2 — quiesce, so nothing in flight dies with its departure. *)
  let deadline = Time.add (Engine.now m.engine) m.patience in
  let quiet () = Vchannel.quiescent m.vc rank in
  while (not (quiet ())) && Time.( < ) (Engine.now m.engine) deadline do
    Engine.sleep (Time.us 50.0)
  done;
  if not (quiet ()) then
    partitioned "rank %d could not flush its journals within patience" rank;
  (* Phase 3 — tell the coordinator; its epoch swap forgets the rank in
     every sentinel, and the recomputed routes drop it. *)
  let departed () = not (Topology.mem m.snapshot rank) in
  let attempt () = arbitrate m ~op:top_drain_req rank departed in
  if not (attempt ()) then begin
    if not m.election then
      partitioned
        "coordinator %d did not confirm the departure of rank %d within \
         patience"
        m.coordinator rank;
    (* A rank on its way out must not stand itself: the side's lowest
       member other than the drainer stands. *)
    (match List.filter (( <> ) rank) (side_members m ~viewer:rank) with
    | candidate :: _ -> run_election m ~candidate
    | [] -> ());
    if rank <> m.coordinator && not (attempt ()) then begin
      (* Minority side: the rank stays a member until the majority
         hears about it; the intent waits for the post-heal replay. *)
      m.pending <- P_drain rank :: m.pending;
      abort
        (fun msg -> No_quorum msg)
        "no quorum reachable to retire rank %d (intent parked for post-heal \
         replay)"
        rank
    end
  end

(* ------------------------------------------------------------------ *)
(* Views *)

let topology m = m.snapshot
let coordinator m = m.coordinator
let election m = m.election

type topology_stats = {
  topo_epoch : int;
  topo_members : int list;
  topo_coordinator : int;
  topo_joins : int;
  topo_drains : int;
}

let topology_stats m =
  {
    topo_epoch = Topology.epoch m.snapshot;
    topo_members = Topology.ranks m.snapshot;
    topo_coordinator = m.coordinator;
    topo_joins = m.joins;
    topo_drains = m.drains;
  }

type election_stats = {
  quorum : int;
  elections : int;
  attempts : int;
  refusals : int;
  commits : (int * int) list;
  pending : int;
  last_latency_us : float;
}

let election_stats m =
  {
    quorum = quorum_needed m;
    elections = m.elections;
    attempts = m.attempts;
    refusals = m.refusals;
    commits = List.rev m.commits;
    pending = List.length m.pending;
    last_latency_us = Time.to_us m.last_latency;
  }
