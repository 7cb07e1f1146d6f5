module Time = Marcel.Time

type frame = {
  seq : int;
  data : Bytes.t;
  crc : int;
  mutable sent_at : Time.t;
  mutable floor : Time.span;
  mutable rexmit : bool;
  mutable sacked : bool;
  mutable lost : bool;
}

type t = {
  max_retries : int;
  flight : frame Queue.t; (* oldest first *)
  mutable next_seq : int;
  mutable acked : int; (* highest cumulatively acked seq *)
  mutable bytes : int; (* payload bytes in flight *)
  mutable rack_sent : Time.t; (* the newest copy an ack echoed: sent at *)
  mutable rack_seq : int; (* its seq, or -1: no echo since the last reset *)
  mutable rack_rtt : Time.span; (* its round trip *)
  mutable min_rtt : Time.span; (* smallest echoed round trip since the reset *)
  mutable tlp_ref : Time.t; (* last ack progress or new frame sent *)
  mutable tlp_out : bool; (* this flight's one tail-loss probe is spent *)
  mutable srtt : float; (* smoothed RTT, microseconds *)
  mutable rttvar : float; (* RTT mean deviation, microseconds *)
  mutable have_rtt : bool;
  mutable backoff : int; (* RTO doublings since the last ack progress *)
  mutable consec_fail : int; (* RTO expiries since the last ack progress *)
  mutable retries : int;
  mutable rto_expiries : int;
  mutable rack_marks : int;
  mutable probes : int;
}

let create ~max_retries =
  {
    max_retries;
    flight = Queue.create ();
    next_seq = 0;
    acked = -1;
    bytes = 0;
    rack_sent = Time.zero;
    rack_seq = -1;
    rack_rtt = 0;
    min_rtt = 0;
    tlp_ref = Time.zero;
    tlp_out = false;
    srtt = 0.0;
    rttvar = 0.0;
    have_rtt = false;
    backoff = 0;
    consec_fail = 0;
    retries = 0;
    rto_expiries = 0;
    rack_marks = 0;
    probes = 0;
  }

let resendable r f = f.seq > r.acked && not f.sacked
let is_head r f = match Queue.peek_opt r.flight with Some h -> h == f | None -> false
let acked r = r.acked
let next_seq r = r.next_seq
let in_flight r = Queue.length r.flight
let inflight_bytes r = r.bytes
let consec_fail r = r.consec_fail
let retries r = r.retries
let rto_expiries r = r.rto_expiries
let rack_marks r = r.rack_marks
let probes r = r.probes

let on_send r ~now ~data ~crc ~floor =
  let f =
    {
      seq = r.next_seq;
      data;
      crc;
      sent_at = now;
      floor;
      rexmit = false;
      sacked = false;
      lost = false;
    }
  in
  r.next_seq <- r.next_seq + 1;
  r.bytes <- r.bytes + Bytes.length data;
  Queue.push f r.flight;
  f

let on_resend r f ~floor =
  f.floor <- floor;
  f.rexmit <- true;
  r.retries <- r.retries + 1

(* The loss mark is cleared only when the copy leaves: until then an ack
   must not mark the frame again from its previous copy. *)
let on_transmit r f ~now ~fresh =
  f.sent_at <- now;
  f.lost <- false;
  if fresh then r.tlp_ref <- now

let probe_sent r = r.probes <- r.probes + 1

(* The RACK and probe state describes frames of the current epoch only:
   a reset forgets it, so no deadline is ever computed from a frame of
   the old epoch. *)
let reset r ~purge =
  if purge then begin
    Queue.clear r.flight;
    r.bytes <- 0;
    r.acked <- r.next_seq - 1
  end;
  r.rack_seq <- -1;
  r.tlp_out <- false;
  r.have_rtt <- false;
  r.backoff <- 0;
  r.consec_fail <- 0

(* Jacobson/Karels: srtt += err/8, rttvar += (|err| - rttvar)/4. *)
let rtt_sample r rtt =
  let rtt_us = Time.to_us rtt in
  if not r.have_rtt then begin
    r.srtt <- rtt_us;
    r.rttvar <- rtt_us /. 2.0;
    r.have_rtt <- true
  end
  else begin
    let err = rtt_us -. r.srtt in
    r.srtt <- r.srtt +. (err /. 8.0);
    r.rttvar <- r.rttvar +. ((Float.abs err -. r.rttvar) /. 4.0)
  end

let rto r =
  let head = Queue.peek r.flight in
  let adaptive =
    if r.have_rtt then Time.us (r.srtt +. Float.max (4.0 *. r.rttvar) 100.0)
    else head.floor
  in
  Time.span_mul (max head.floor adaptive) (1 lsl min r.backoff 10)

let rto_deadline r = Time.add (Queue.peek r.flight).sent_at (rto r)

(* RACK (RFC 8985): marks the frames already due and returns whether any
   marked frame awaits its resend, with the earliest deadline still
   pending ([max_int] if none). A resent frame is sent after the copy
   that marked it, so it is marked again only once a frame sent after
   the resend is delivered: a lost resend is found the same way. *)
let rack_detect r now =
  let lost = ref false and next = ref max_int in
  if r.rack_seq >= 0 then begin
    let window = Time.span_add r.rack_rtt (r.min_rtt / 4) in
    Queue.iter
      (fun f ->
        if f.lost then lost := true
        else if
          (not f.sacked)
          && (Time.( < ) f.sent_at r.rack_sent
             || (Time.equal f.sent_at r.rack_sent && f.seq < r.rack_seq))
        then begin
          let due = Time.add f.sent_at window in
          if Time.( <= ) due now then begin
            f.lost <- true;
            r.rack_marks <- r.rack_marks + 1;
            lost := true
          end
          else if due < !next then next := due
        end)
      r.flight
  end;
  (!lost, !next)

(* TLP (RFC 8985). The probe waits for the stream to drain, plus one
   SRTT for the last ack to come back: until then acks are still to
   come, a probe would only queue behind them, and an SRTT learnt from
   small frames would fire it before one MSS frame can be acked. *)
let tlp_deadline r ~rto_at ~drained =
  match drained with
  | Some drained when r.have_rtt && (not r.tlp_out) && r.consec_fail = 0 ->
      let srtt = Time.us r.srtt in
      let at =
        max
          (Time.add r.tlp_ref (Time.span_mul srtt 2))
          (Time.add drained srtt)
      in
      if Time.( < ) at rto_at then at else max_int
  | _ -> max_int

let deadline r ~reorder_at ~drained =
  let rto_at = rto_deadline r in
  min rto_at (min reorder_at (tlp_deadline r ~rto_at ~drained))

let next_deadline r ~drained =
  if Queue.is_empty r.flight then max_int
  else deadline r ~reorder_at:max_int ~drained

(* The ack's timestamp echo (RFC 7323) names the frame copy that
   triggered it, so its round trip is unambiguous even for a resend. *)
let rack_update r now ~sent ~seq =
  let rtt = Time.diff now sent in
  if r.rack_seq < 0 || rtt < r.min_rtt then r.min_rtt <- rtt;
  if
    r.rack_seq < 0
    || Time.( < ) r.rack_sent sent
    || (Time.equal sent r.rack_sent && seq > r.rack_seq)
  then begin
    r.rack_sent <- sent;
    r.rack_seq <- seq;
    r.rack_rtt <- rtt
  end

(* An ack that cumulatively acks or newly SACKs a frame is progress: it
   restarts the probe clock, and a cumulative one opens a new flight.
   The flight and the SACK list both ascend, so one merge walk marks the
   SACKed frames. *)
let on_ack r ~now ~upto ~sacks ~sent ~seq ~drained =
  let progress = ref false in
  if sacks <> [] then begin
    let rest = ref sacks in
    Queue.iter
      (fun f ->
        let rec skip = function s :: tl when s < f.seq -> skip tl | l -> l in
        match skip !rest with
        | s :: tl when s = f.seq ->
            if not f.sacked then begin
              f.sacked <- true;
              f.lost <- false;
              progress := true
            end;
            rest := tl
        | l -> rest := l)
      r.flight
  end;
  if upto > r.acked then begin
    r.acked <- upto;
    while (not (Queue.is_empty r.flight)) && (Queue.peek r.flight).seq <= upto do
      let f = Queue.pop r.flight in
      r.bytes <- r.bytes - Bytes.length f.data;
      (* Karn's rule: never sample RTT from a retransmitted frame. *)
      if not f.rexmit then rtt_sample r (Time.diff now f.sent_at)
    done;
    r.backoff <- 0;
    r.consec_fail <- 0;
    r.tlp_out <- false;
    progress := true
  end;
  if !progress then r.tlp_ref <- now;
  rack_update r now ~sent ~seq;
  if Queue.is_empty r.flight then max_int
  else
    let lost, reorder_at = rack_detect r now in
    if lost then now
    else if !progress || reorder_at < max_int then
      deadline r ~reorder_at ~drained
    else max_int

type action = Idle | Resend of frame list | Probe of frame | Rto | Wait of Time.t

(* The frames in flight that satisfy [p], oldest first. *)
let frames r p =
  List.rev (Queue.fold (fun acc f -> if p f then f :: acc else acc) [] r.flight)

let next r ~now ~drained =
  if Queue.is_empty r.flight then Idle
  else
    let lost, reorder_at = rack_detect r now in
    if lost then Resend (frames r (fun f -> f.lost))
    else begin
      let rto_at = rto_deadline r in
      let tlp_at = tlp_deadline r ~rto_at ~drained in
      if Time.( <= ) tlp_at now then begin
        r.tlp_out <- true;
        (* The head is never SACKed, so there is an unSACKed frame. *)
        Probe
          (Queue.fold
             (fun acc f -> if f.sacked then acc else f)
             (Queue.peek r.flight) r.flight)
      end
      else if Time.( <= ) rto_at now then Rto
      else Wait (min rto_at (min reorder_at tlp_at))
    end

type expiry = Resend_all of frame list | Dead

let expire r =
  r.consec_fail <- r.consec_fail + 1;
  r.rto_expiries <- r.rto_expiries + 1;
  if r.consec_fail >= r.max_retries then Dead
  else begin
    r.backoff <- min (r.backoff + 1) 10;
    Resend_all (frames r (fun f -> not f.sacked))
  end
