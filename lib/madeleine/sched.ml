module Engine = Marcel.Engine
module Time = Marcel.Time
module Mutex = Marcel.Mutex

type strategy =
  | Aggreg of { aggr_max : int option; aggr_flush : Marcel.Time.span option }

let aggreg ?aggr_max ?aggr_flush () = Aggreg { aggr_max; aggr_flush }

type frame = {
  fr_flow : int;
  fr_first : bool;
  fr_last : bool;
  fr_data : Bytes.t;
}

type stats = {
  sched_frames : int;
  sched_merged : int;
  sched_aggregates : int;
  sched_mean_frames : float;
  sched_flush_full : int;
  sched_flush_deadline : int;
  sched_flush_barrier : int;
  sched_flush_flow : int;
}

type reason = Full | Deadline | Barrier | Flow_order

(* Per-(src, dst) pending batch. [frames_rev] holds submitted-but-not-
   emitted small frames newest-first; [gen] increments every time a
   batch is taken, cancelling the deadline timer armed when the batch
   opened. [mu] serializes emission for the pair: whoever flushes holds
   it across the (blocking) emit, so aggregates leave in take order and
   per-flow FIFO survives concurrent flushers. *)
type pending = {
  mutable frames_rev : frame list;
  mutable bytes : int;
  mutable gen : int;
  mu : Mutex.t;
}

type t = {
  engine : Engine.t;
  aggr_max : int;
  aggr_flush : Time.span;
  emit : src:int -> dst:int -> frame list -> unit;
  pairs : (int * int, pending) Hashtbl.t;
  mutable frames : int;
  mutable merged : int;
  mutable aggregates : int;
  mutable emitted_frames : int;
  mutable flush_full : int;
  mutable flush_deadline : int;
  mutable flush_barrier : int;
  mutable flush_flow : int;
}

let create engine ~aggr_max ~aggr_flush ~emit =
  if aggr_max < Generic_tm.flow_frame_header_size + 1 then
    invalid_arg "Sched.create: aggr_max smaller than one framed byte";
  if aggr_flush <= 0 then invalid_arg "Sched.create: aggr_flush must be > 0";
  {
    engine;
    aggr_max;
    aggr_flush;
    emit;
    pairs = Hashtbl.create 32;
    frames = 0;
    merged = 0;
    aggregates = 0;
    emitted_frames = 0;
    flush_full = 0;
    flush_deadline = 0;
    flush_barrier = 0;
    flush_flow = 0;
  }

let pair t key =
  match Hashtbl.find_opt t.pairs key with
  | Some p -> p
  | None ->
      let p = { frames_rev = []; bytes = 0; gen = 0; mu = Mutex.create () } in
      Hashtbl.add t.pairs key p;
      p

let pair_lock t ~src ~dst = (pair t (src, dst)).mu
let frame_wire_size fr = Generic_tm.flow_frame_header_size + Bytes.length fr.fr_data

let note_reason t = function
  | Full -> t.flush_full <- t.flush_full + 1
  | Deadline -> t.flush_deadline <- t.flush_deadline + 1
  | Barrier -> t.flush_barrier <- t.flush_barrier + 1
  | Flow_order -> t.flush_flow <- t.flush_flow + 1

(* Ship one batch. Caller holds [p.mu]. *)
let emit_batch t ~src ~dst frames =
  let n = List.length frames in
  t.aggregates <- t.aggregates + 1;
  t.emitted_frames <- t.emitted_frames + n;
  if n > 1 then t.merged <- t.merged + n;
  t.emit ~src ~dst frames

(* Split a taken batch into [aggr_max]-bounded wire packets. Usually a
   no-op (the submit path flushes before the budget overflows), but
   frames keep accumulating while a flusher is blocked in emit holding
   the pair lock, and the next flusher then takes them all at once. A
   single frame larger than the budget ships alone. *)
let chunk_batch t batch =
  let rec go acc cur cur_bytes = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | fr :: rest ->
        let sz = frame_wire_size fr in
        if cur <> [] && cur_bytes + sz > t.aggr_max then
          go (List.rev cur :: acc) [ fr ] sz rest
        else go acc (fr :: cur) (cur_bytes + sz) rest
  in
  go [] [] 0 batch

(* Take and ship the pending batch. Caller holds [p.mu]. Taking before
   emitting matters: emit blocks (credits, window), other threads keep
   submitting, and their frames must land in the *next* batch rather
   than retroactively join one already on the wire. *)
let flush_locked t ~src ~dst p reason =
  match p.frames_rev with
  | [] -> ()
  | rev ->
      let batch = List.rev rev in
      p.frames_rev <- [];
      p.bytes <- 0;
      p.gen <- p.gen + 1;
      note_reason t reason;
      List.iter (emit_batch t ~src ~dst) (chunk_batch t batch)

let flush t ~src ~dst p reason =
  Mutex.lock p.mu;
  (match flush_locked t ~src ~dst p reason with
  | () -> ()
  | exception e ->
      Mutex.unlock p.mu;
      raise e);
  Mutex.unlock p.mu

(* Opening a batch arms its deadline: the oldest buffered frame never
   waits longer than [aggr_flush]. The timer captures the batch's
   generation; if the batch was flushed for another reason first, the
   generation moved on and the timer is a no-op. Timer callbacks must
   not block, so the actual flush runs in a daemon — terminal delivery
   errors are swallowed there exactly as the ack/grant daemons do. *)
let arm_deadline t ~src ~dst p =
  let gen = p.gen in
  Engine.at t.engine
    (Time.add (Engine.now t.engine) t.aggr_flush)
    (fun () ->
      if p.gen = gen && p.frames_rev <> [] then
        Engine.spawn t.engine ~daemon:true
          ~name:(Printf.sprintf "vchannel.sched.flush.%d->%d" src dst)
          (fun () ->
            try flush t ~src ~dst p Deadline
            with _ -> ()))

let submit t ~src ~dst ~bulk fr =
  let p = pair t (src, dst) in
  t.frames <- t.frames + 1;
  if bulk then begin
    (* Rendezvous-class: ship now, overtaking other flows' buffered
       small frames (the reordering tactic) — but never our own flow's:
       those must leave first or the receiver would see the message
       orders swapped. *)
    Mutex.lock p.mu;
    (match
       if List.exists (fun f -> f.fr_flow = fr.fr_flow) p.frames_rev then
         flush_locked t ~src ~dst p Flow_order;
       emit_batch t ~src ~dst [ fr ]
     with
    | () -> ()
    | exception e ->
        Mutex.unlock p.mu;
        raise e);
    Mutex.unlock p.mu
  end
  else begin
    let sz = frame_wire_size fr in
    if p.bytes > 0 && p.bytes + sz > t.aggr_max then flush t ~src ~dst p Full;
    let was_empty = p.frames_rev = [] in
    p.frames_rev <- fr :: p.frames_rev;
    p.bytes <- p.bytes + sz;
    if was_empty then arm_deadline t ~src ~dst p;
    if p.bytes >= t.aggr_max then flush t ~src ~dst p Full
  end

let flush_pair t ~src ~dst =
  match Hashtbl.find_opt t.pairs (src, dst) with
  | None -> ()
  | Some p -> flush t ~src ~dst p Barrier

let flush_all t ~src =
  Hashtbl.fold (fun (s, d) _ acc -> if s = src then d :: acc else acc) t.pairs []
  |> List.sort compare
  |> List.iter (fun dst -> flush_pair t ~src ~dst)

let stats t =
  {
    sched_frames = t.frames;
    sched_merged = t.merged;
    sched_aggregates = t.aggregates;
    sched_mean_frames =
      (if t.aggregates = 0 then 0.0
       else float_of_int t.emitted_frames /. float_of_int t.aggregates);
    sched_flush_full = t.flush_full;
    sched_flush_deadline = t.flush_deadline;
    sched_flush_barrier = t.flush_barrier;
    sched_flush_flow = t.flush_flow;
  }
