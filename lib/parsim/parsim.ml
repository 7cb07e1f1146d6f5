(* Fixed domain pool + one shared claim index + deterministic collector.

   Jobs are coarse (one whole simulation world each, typically
   milliseconds of host work), so a batch needs no per-worker queues:
   it is published as one job array, and every worker, the submitter
   included, claims the next unclaimed slot with a single
   [Atomic.fetch_and_add] until the index runs past the end. Each job
   is claimed exactly once, and a worker that finishes early simply
   claims more, which balances uneven jobs as well as stealing did.

   The index lives in the published batch, not in the pool: a worker
   that wakes late for a finished batch claims from that batch's spent
   index and finds nothing, instead of re-running an old job against
   the next batch's counter.

   The worker domains are persistent: they park on [batch_cond] between
   batches, so a section with many small batches pays for domain spawns
   once per pool, not once per batch.

   Determinism does not come from the schedule (which is racy by design)
   but from the collector: every job writes its outcome into a result
   slot fixed at submission, and the caller reads the slots in
   submission order only after the batch's remaining-counter reaches
   zero (an acquire point), so no job output is ever observed early,
   late or reordered. *)

type batch = {
  jobs : (unit -> unit) array;
  next : int Atomic.t; (* next unclaimed index into [jobs] *)
}

let no_batch = { jobs = [||]; next = Atomic.make 0 }

type pool = {
  n : int; (* workers, including the submitting domain *)
  lock : Mutex.t;
  batch_cond : Condition.t; (* new batch published or stopping *)
  done_cond : Condition.t; (* current batch fully executed *)
  mutable generation : int;
  mutable stopping : bool;
  mutable dead : bool;
  mutable batch : batch; (* the batch in flight, or [no_batch] *)
  remaining : int Atomic.t; (* jobs of the current batch still to finish *)
  mutable domains : unit Domain.t list;
}

(* Claim and run jobs until the index passes the end of the batch. Jobs
   never enqueue further jobs, so once a claim overshoots this worker
   is done with the batch. Claim [i] runs the [i]-th job from the back:
   the figure sweeps list their cheap small-message points first, so
   starting the costliest worlds first keeps one big job from running
   alone at the end of the batch (about 8% off the figure and chaos
   sections on a 2-core host). *)
let drain b =
  let k = Array.length b.jobs in
  let rec claim () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < k then begin
      b.jobs.(k - 1 - i) ();
      claim ()
    end
  in
  claim ()

let worker t =
  let rec loop last_gen =
    Mutex.lock t.lock;
    while (not t.stopping) && t.generation = last_gen do
      Condition.wait t.batch_cond t.lock
    done;
    let stop = t.stopping and gen = t.generation and batch = t.batch in
    Mutex.unlock t.lock;
    if not stop then begin
      drain batch;
      loop gen
    end
  in
  loop 0

let create ~jobs =
  if jobs < 1 then invalid_arg "Parsim.create: jobs must be at least 1";
  let t =
    {
      n = jobs;
      lock = Mutex.create ();
      batch_cond = Condition.create ();
      done_cond = Condition.create ();
      generation = 0;
      stopping = false;
      dead = false;
      batch = no_batch;
      remaining = Atomic.make 0;
      domains = [];
    }
  in
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  if not t.dead then begin
    t.dead <- true;
    Mutex.lock t.lock;
    t.stopping <- true;
    Condition.broadcast t.batch_cond;
    Mutex.unlock t.lock;
    List.iter Domain.join t.domains
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

type ('a, 'b) outcome = Pending | Value of 'a | Raised of 'b

let run t batch =
  if t.dead then invalid_arg "Parsim.run: pool already shut down";
  if t.n = 1 then List.map (fun (_label, f) -> f ()) batch
  else begin
    let arr = Array.of_list batch in
    let k = Array.length arr in
    if k = 0 then []
    else begin
      let results = Array.make k Pending in
      let jobs =
        Array.mapi
          (fun i (_label, f) () ->
            (results.(i) <-
               (match f () with
               | v -> Value v
               | exception e -> Raised (e, Printexc.get_raw_backtrace ())));
            if Atomic.fetch_and_add t.remaining (-1) = 1 then begin
              Mutex.lock t.lock;
              Condition.broadcast t.done_cond;
              Mutex.unlock t.lock
            end)
          arr
      in
      let b = { jobs; next = Atomic.make 0 } in
      Atomic.set t.remaining k;
      Mutex.lock t.lock;
      t.batch <- b;
      t.generation <- t.generation + 1;
      Condition.broadcast t.batch_cond;
      Mutex.unlock t.lock;
      (* The submitting domain claims jobs too. *)
      drain b;
      Mutex.lock t.lock;
      while Atomic.get t.remaining > 0 do
        Condition.wait t.done_cond t.lock
      done;
      (* Drop the finished jobs so the pool does not keep their closures
         and results alive until the next batch. *)
      t.batch <- no_batch;
      Mutex.unlock t.lock;
      (* Deterministic collection: emit in submission order; on failure
         re-raise the earliest-submitted job's exception. *)
      Array.iter
        (function
          | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
          | Value _ | Pending -> ())
        results;
      Array.to_list
        (Array.map
           (function
             | Value v -> v
             | Pending | Raised _ -> assert false)
           results)
    end
  end
