(* Tcpnet's loss-recovery policy driven with no engine: hand-written
   traces that pin today's behaviour where a planned refinement will
   change it, and a model check over random traces of sends, losses,
   acks and timer firings. *)

module Time = Marcel.Time
module R = Tcpnet.Recovery

let us = Time.us
let payload = Bytes.make 1000 'x'

let send r ~now ~floor =
  let f = R.on_send r ~now ~data:payload ~crc:0 ~floor in
  R.on_transmit r f ~now ~fresh:true;
  f

let resend r f ~now ~floor =
  R.on_resend r f ~floor;
  R.on_transmit r f ~now ~fresh:false

let seqs frames = List.map (fun (f : R.frame) -> f.seq) frames

let action =
  Alcotest.testable
    (fun ppf -> function
      | R.Idle -> Fmt.string ppf "Idle"
      | Resend fs -> Fmt.pf ppf "Resend %a" Fmt.(Dump.list int) (seqs fs)
      | Probe f -> Fmt.pf ppf "Probe %d" f.seq
      | Rto -> Fmt.string ppf "Rto"
      | Wait t -> Fmt.pf ppf "Wait %d ns" t)
    (fun a b ->
      match (a, b) with
      | R.Resend x, R.Resend y -> seqs x = seqs y
      | Probe x, Probe y -> x.seq = y.seq
      | a, b -> a = b)

(* Adaptive reordering window (RFC 8985 widens it after a spurious
   resend). Today the window is a fixed quarter of the minimum RTT: two
   frames leave at 0, frame 1 is echoed after 100 us, so frame 0 is due
   at 125 us. It is only late, arriving at 150 us, but it is resent at
   125 us. *)
let test_reorder_window () =
  let r = R.create ~max_retries:12 in
  let floor = Time.ms 5.0 in
  let f0 = send r ~now:0 ~floor in
  let _f1 = send r ~now:0 ~floor in
  let wake =
    R.on_ack r ~now:(us 100.0) ~upto:(-1) ~sacks:[ 1 ] ~sent:0 ~seq:1
      ~drained:None
  in
  Alcotest.(check int) "timer armed at the reorder deadline" (us 125.0) wake;
  Alcotest.check action "nothing due inside the window" (R.Wait (us 125.0))
    (R.next r ~now:(us 124.0) ~drained:None);
  Alcotest.check action "frame 0 marked lost at 125 us" (R.Resend [ f0 ])
    (R.next r ~now:(us 125.0) ~drained:None);
  resend r f0 ~now:(us 125.0) ~floor;
  Alcotest.(check int) "one RACK mark" 1 (R.rack_marks r);
  (* The original arrives at 150 us and acks both frames: the resend was
     spurious. *)
  ignore
    (R.on_ack r ~now:(us 250.0) ~upto:1 ~sacks:[] ~sent:0 ~seq:0
       ~drained:None);
  Alcotest.(check int) "all acked" 1 (R.acked r);
  Alcotest.(check int) "one spurious resend" 1 (R.retries r)

(* F-RTO (RFC 5682 sends new data first after an expiry and resends
   the rest only if no ack for an original copy comes back). Today a
   window of 24 frames stalled past its RTO, none of them lost, expires
   and resends all 24. One earlier frame gave an RTT sample of 1 ms, so
   the RTO is SRTT + 4 RTTVAR = 3 ms; the stall lasts 4 ms. *)
let test_stall_resends_window () =
  let r = R.create ~max_retries:12 in
  let floor = Time.ms 1.0 in
  ignore (send r ~now:0 ~floor);
  ignore
    (R.on_ack r ~now:(Time.ms 1.0) ~upto:0 ~sacks:[] ~sent:0 ~seq:0
       ~drained:None);
  let t0 = Time.ms 1.0 in
  let frames = List.init 24 (fun _ -> send r ~now:t0 ~floor) in
  Alcotest.(check int) "RTO 3 ms" (Time.ms 3.0) (R.rto r);
  Alcotest.check action "the stream is busy: no probe, only the RTO"
    (R.Wait (Time.add t0 (Time.ms 3.0)))
    (R.next r ~now:t0 ~drained:None);
  let stall_end = Time.add t0 (Time.ms 4.0) in
  Alcotest.check action "expiry inside the stall" R.Rto
    (R.next r ~now:(Time.add t0 (Time.ms 3.0)) ~drained:None);
  (match R.expire r with
  | R.Resend_all fs ->
      Alcotest.(check (list int)) "every frame resent" (seqs frames) (seqs fs);
      List.iter (fun f -> resend r f ~now:(Time.add t0 (Time.ms 3.0)) ~floor) fs
  | R.Dead -> Alcotest.fail "dead after one expiry");
  Alcotest.(check int) "24 spurious resends" 24 (R.retries r);
  (* The originals arrive after the stall and ack the whole window. *)
  ignore
    (R.on_ack r ~now:stall_end ~upto:24 ~sacks:[] ~sent:t0 ~seq:24
       ~drained:None);
  Alcotest.(check int) "all acked" 24 (R.acked r);
  Alcotest.(check int) "one expiry" 1 (R.rto_expiries r)

(* RTO backoff cap (RFC 6298 allows a ceiling of at least 60 s). Today
   the backoff multiplier stops at 2^10 and no time ceiling applies: a
   lone frame with a 100 ms floor, never acked, waits 102.4 s from its
   eleventh expiry on. *)
let test_rto_cap () =
  let floor = Time.ms 100.0 and max_retries = 20 in
  let r = R.create ~max_retries in
  let f = send r ~now:0 ~floor in
  let now = ref 0 and spans = ref [] and dead = ref false in
  while not !dead do
    match R.next r ~now:!now ~drained:None with
    | R.Wait t ->
        spans := (t - f.sent_at) :: !spans;
        now := t
    | R.Rto -> (
        match R.expire r with
        | R.Dead -> dead := true
        | R.Resend_all fs ->
            Alcotest.(check (list int)) "the lone frame resent" [ 0 ] (seqs fs);
            resend r f ~now:!now ~floor)
    | a -> Alcotest.failf "unexpected %a" (Alcotest.pp action) a
  done;
  let expected =
    List.init max_retries (fun k -> Time.span_mul floor (1 lsl min k 10))
  in
  Alcotest.(check (list int)) "RTO per expiry: doubles, then holds at 2^10"
    expected (List.rev !spans);
  Alcotest.(check bool) "no time ceiling: 102.4 s past RFC 6298's 60 s" true
    (List.nth expected (max_retries - 1) > Time.s 60.0);
  Alcotest.(check int) "dead after exactly max_retries expiries" max_retries
    (R.rto_expiries r)

(* The model check. A trace is one seeded run of a small world around a
   [Recovery.t]: a sender that paces new frames into an 8-frame window,
   a wire that loses copies and acks at random and delays each by a
   random jitter, a receiver that holds frames past a hole and acks
   every arrival with its cumulative point, its held set and the echo
   of the copy, and a retransmitter that runs [next] after every event
   and fires its timer at the instant [next] asks for. Resends cost no
   time. Alongside, the test keeps its own record of what the acks
   told the sender (the SACKed seqs, the echoed copy RACK follows, the
   minimum echoed RTT, the cumulative point) and checks every decision
   against it:
   - no frame a SACK reported is ever chosen for a resend;
   - a frame is newly marked lost only if it was sent before the
     echoed copy and its reorder window (that copy's RTT plus a quarter
     of the minimum RTT) has passed since its own last copy left;
   - at most one probe per flight (between two advances of the
     cumulative point), and none while a marked frame awaits its resend;
   - each expiry doubles the RTO (until the 2^10 cap), and the peer is
     declared dead at exactly [max_retries] expiries without progress. *)
type params = {
  seed : int;
  frames : int;
  loss : float;
  jitter_us : int;
  outage_ms : int; (* everything sent in [1 ms, 1 ms + outage) is lost *)
  lag_us : int;
      (* 0: the retransmitter runs after every event; otherwise only when
         its timer fires, up to this late after each wake request *)
  max_retries : int;
}

type event =
  | Arrive of R.frame * Time.t * bool (* copy sent at, lost on the wire *)
  | Ack of int * int list * Time.t * int (* upto, sacks, echo sent, seq *)

let run_trace p =
  let rng = Random.State.make [| p.seed |] in
  let r = R.create ~max_retries:p.max_retries in
  let floor = Time.ms 2.0 and window = 8 in
  let now = ref 0 and events = ref [] and timer = ref max_int in
  let jitter () = us (float (50 + Random.State.int rng (p.jitter_us + 1))) in
  let outage_from = Time.ms 1.0 in
  let outage_to = Time.add outage_from (Time.ms (float p.outage_ms)) in
  let lost_draw () =
    (!now >= outage_from && !now < outage_to) || Random.State.float rng 1.0 < p.loss
  in
  let schedule at e = events := (at, e) :: !events in
  let wake_by at =
    let lag = us (float (Random.State.int rng (p.lag_us + 1))) in
    timer := min !timer (Time.add at lag)
  in
  (* Wire state and the receiver. *)
  let in_transit = ref 0 and drained_at = ref 0 in
  let rx_next = ref 0 and held = ref [] in
  (* What the acks told the sender, and the frames it has sent. *)
  let sacked = Hashtbl.create 16 and acked = ref (-1) in
  let rack = ref None and min_rtt = ref max_int in
  let flight_probes = ref 0 and consec = ref 0 and dead = ref false in
  let sent = ref [] and to_send = ref p.frames and next_send = ref 0 in
  let errors = ref [] in
  let fail fmt =
    Printf.ksprintf (fun s -> errors := Printf.sprintf "t=%d ns: %s" !now s :: !errors) fmt
  in
  let drained () = if !in_transit > 0 then None else Some !drained_at in
  let transmit f =
    incr in_transit;
    schedule (Time.add !now (jitter ())) (Arrive (f, !now, lost_draw ()))
  in
  let in_flight () = List.filter (fun (f : R.frame) -> f.seq > !acked) !sent in
  (* Runs one call of the policy and checks the frames it newly marked. *)
  let marking call =
    let before = List.map (fun (f : R.frame) -> (f, f.lost)) (in_flight ()) in
    let result = call () in
    List.iter
      (fun ((f : R.frame), was) ->
        if f.lost && not was then
          match !rack with
          | None -> fail "frame %d marked with no echo" f.seq
          | Some (rs, rq, rrtt) ->
              let before_echo = f.sent_at < rs || (f.sent_at = rs && f.seq < rq) in
              let due = Time.add f.sent_at (rrtt + (!min_rtt / 4)) in
              if not before_echo then fail "frame %d marked, sent after the echo" f.seq;
              if !now < due then
                fail "frame %d marked at %d ns, window ends at %d ns" f.seq !now due)
      before;
    result
  in
  let check_unsacked what frames =
    List.iter
      (fun (f : R.frame) ->
        if Hashtbl.mem sacked f.seq then fail "%s picks SACKed frame %d" what f.seq)
      frames
  in
  let resend frames =
    List.iter
      (fun (f : R.frame) ->
        if R.resendable r f then begin
          R.on_resend r f ~floor;
          R.on_transmit r f ~now:!now ~fresh:false;
          transmit f
        end)
      frames
  in
  let rec daemon budget =
    if budget = 0 then fail "retransmitter spins"
    else if not !dead then
      match marking (fun () -> R.next r ~now:!now ~drained:(drained ())) with
      | R.Idle -> timer := max_int
      | Wait t ->
          if t <= !now then fail "wait for a past instant";
          timer := t
      | Resend fs ->
          check_unsacked "RACK" fs;
          resend fs;
          daemon (budget - 1)
      | Probe f ->
          check_unsacked "the probe" [ f ];
          if List.exists (fun (g : R.frame) -> g.lost) (in_flight ()) then
            fail "probe %d while a marked frame awaits its resend" f.seq;
          incr flight_probes;
          if !flight_probes > 1 then fail "second probe in one flight";
          R.probe_sent r;
          resend [ f ];
          daemon (budget - 1)
      | Rto -> (
          let k = !consec and before = R.rto r in
          match R.expire r with
          | R.Dead ->
              if k + 1 <> p.max_retries then fail "dead after %d expiries" (k + 1);
              dead := true
          | Resend_all fs ->
              consec := k + 1;
              if !consec >= p.max_retries then fail "alive after %d expiries" !consec;
              let factor = if k < 10 then 2 else 1 in
              if R.rto r <> before * factor then
                fail "RTO %d -> %d after expiry %d" before (R.rto r) (k + 1);
              check_unsacked "the RTO" fs;
              resend fs;
              daemon (budget - 1))
  in
  let receive (f : R.frame) copy_sent =
    let s = f.seq in
    if s = !rx_next then begin
      incr rx_next;
      let rec drain () =
        match !held with
        | h :: tl when h = !rx_next ->
            held := tl;
            incr rx_next;
            drain ()
        | _ -> ()
      in
      drain ()
    end
    else if s > !rx_next && s < !rx_next + window && not (List.mem s !held) then
      held := List.sort compare (s :: !held);
    if not (lost_draw ()) then
      schedule (Time.add !now (jitter ())) (Ack (!rx_next - 1, !held, copy_sent, s))
  in
  let on_ack upto sacks echo_sent echo_seq =
    if upto > !acked then begin
      acked := upto;
      flight_probes := 0;
      consec := 0
    end;
    List.iter (fun s -> Hashtbl.replace sacked s ()) sacks;
    let rtt = !now - echo_sent in
    min_rtt := min !min_rtt rtt;
    (match !rack with
    | Some (rs, rq, _) when rs > echo_sent || (rs = echo_sent && rq >= echo_seq) -> ()
    | _ -> rack := Some (echo_sent, echo_seq, rtt));
    let at =
      marking (fun () ->
          R.on_ack r ~now:!now ~upto ~sacks ~sent:echo_sent ~seq:echo_seq
            ~drained:(drained ()))
    in
    if at < max_int then wake_by at;
    if R.acked r <> !acked then fail "cumulative point %d, model %d" (R.acked r) !acked
  in
  let steps = ref 0 in
  let finished () =
    !dead || (!to_send = 0 && R.in_flight r = 0) || !steps > 20_000 || !errors <> []
  in
  while not (finished ()) do
    incr steps;
    let can_send = !to_send > 0 && R.in_flight r < window in
    let first =
      List.fold_left (fun m (at, _) -> min m at) max_int !events
      |> min !timer
      |> min (if can_send then max !next_send !now else max_int)
    in
    if first = max_int then fail "no event left with %d frames in flight" (R.in_flight r)
    else begin
      let fired = first = !timer in
      now := first;
      (match List.partition (fun (at, _) -> at = first) !events with
      | (_, e) :: same, rest ->
          events := List.rev_append same rest;
          (match e with
          | Arrive (f, copy_sent, lost) ->
              decr in_transit;
              if !in_transit = 0 then begin
                drained_at := !now;
                let at = R.next_deadline r ~drained:(drained ()) in
                if at < max_int then wake_by at
              end;
              if not lost then receive f copy_sent
          | Ack (upto, sacks, echo_sent, echo_seq) -> on_ack upto sacks echo_sent echo_seq)
      | [], _ ->
          if can_send && !next_send <= !now then begin
            let f = R.on_send r ~now:!now ~data:payload ~crc:0 ~floor in
            R.on_transmit r f ~now:!now ~fresh:true;
            sent := !sent @ [ f ];
            decr to_send;
            next_send := Time.add !now (us (float (Random.State.int rng 200)));
            transmit f;
            if R.is_head r f then wake_by !now
          end);
      if p.lag_us = 0 || fired then daemon 1000
    end
  done;
  List.rev !errors

let prop_recovery_model =
  let gen =
    QCheck.Gen.(
      map
        (fun ((seed, frames, loss), (jitter_us, outage_ms), (lag_us, max_retries)) ->
          { seed; frames; loss; jitter_us; outage_ms; lag_us; max_retries })
        (triple
           (triple int (int_range 1 40) (float_range 0.0 0.4))
           (pair (int_range 0 400)
              (oneof [ return 0; int_range 0 100; int_range 0 8000 ]))
           (pair (oneof [ return 0; int_range 0 3000 ]) (int_range 2 14))))
  in
  let print p =
    Printf.sprintf
      "seed %d frames %d loss %.3f jitter %d us outage %d ms lag %d us \
       max_retries %d"
      p.seed p.frames p.loss p.jitter_us p.outage_ms p.lag_us p.max_retries
  in
  QCheck.Test.make ~name:"recovery decisions agree with the model" ~count:400
    (QCheck.make ~print gen)
    (fun p ->
      match run_trace p with
      | [] -> true
      | e :: _ -> QCheck.Test.fail_reportf "%s" e)

let () =
  Alcotest.run "recovery"
    [
      ( "pinned",
        [
          Alcotest.test_case "adaptive reordering window: late frame resent"
            `Quick test_reorder_window;
          Alcotest.test_case "F-RTO: stalled window resends every frame"
            `Quick test_stall_resends_window;
          Alcotest.test_case "RTO backoff cap: 2^10, no time ceiling" `Quick
            test_rto_cap;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_recovery_model ]);
    ]
