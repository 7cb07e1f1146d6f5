(* Tests for the marcel cooperative-thread / discrete-event engine. *)

module Engine = Marcel.Engine
module Time = Marcel.Time

let check_i64 = Alcotest.(check int)

(* Runs [f] inside a fresh engine thread and returns the virtual duration
   of the whole run. *)
let run_timed f =
  let e = Engine.create () in
  Engine.spawn e ~name:"main" (fun () -> f e);
  Engine.run e;
  Engine.now e

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_arithmetic () =
  check_i64 "us" 1_500 (Time.us 1.5);
  check_i64 "ms" 2_000_000 (Time.ms 2.0);
  check_i64 "add" 15 (Time.add 5 (Time.ns 10));
  check_i64 "diff" 7 (Time.diff 17 10);
  check_i64 "span_mul" 30 (Time.span_mul 10 3);
  Alcotest.check_raises "negative diff"
    (Invalid_argument "Time.diff: negative result") (fun () ->
      ignore (Time.diff 1 2));
  Alcotest.check_raises "negative span"
    (Invalid_argument "Time.ns: negative") (fun () -> ignore (Time.ns (-1)))

let test_time_rates () =
  (* 1 MB at 100 MB/s = 10 ms *)
  check_i64 "bytes_at_rate" (Time.ms 10.0)
    (Time.bytes_at_rate ~bytes_count:1_000_000 ~mb_per_s:100.0);
  Alcotest.(check (float 1e-9))
    "rate_mb_s" 100.0
    (Time.rate_mb_s ~bytes_count:1_000_000 (Time.ms 10.0))

(* ------------------------------------------------------------------ *)
(* Heap: the engine's event queue, a min-heap on (time, seq) keys. *)

let drain_times q =
  let out = ref [] in
  while not (Marcel.Eventq.is_empty q) do
    out := Marcel.Eventq.min_time q :: !out;
    let (_ : unit -> unit) = Marcel.Eventq.take q in
    ()
  done;
  List.rev !out

let test_heap_sorts () =
  let q = Marcel.Eventq.create () in
  let input = [ 5; 1; 4; 1; 3; 9; 2; 6; 8; 7; 0 ] in
  List.iteri (fun seq t -> Marcel.Eventq.push q ~time:t ~seq ignore) input;
  Alcotest.(check (list int))
    "sorted" (List.sort compare input) (drain_times q);
  Alcotest.(check bool) "empty" true (Marcel.Eventq.is_empty q)

let test_heap_empty_pop () =
  let q = Marcel.Eventq.create () in
  Alcotest.check_raises "pop empty" Not_found (fun () ->
      let (_ : unit -> unit) = Marcel.Eventq.take q in
      ())

let prop_heap_matches_sort =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list small_nat)
    (fun xs ->
      let q = Marcel.Eventq.create () in
      List.iteri (fun seq t -> Marcel.Eventq.push q ~time:t ~seq ignore) xs;
      drain_times q = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_sleep_advances_clock () =
  let d = run_timed (fun _ -> Engine.sleep (Time.us 10.0)) in
  check_i64 "clock" (Time.us 10.0) d

(* The delivery fingerprint sees when, between whom and how much, not
   how many events it took: an extra same-instant hop leaves it alone,
   a moved instant or a different size does not. *)
let test_delivery_fingerprint () =
  let run ?(hop = false) ?(at = 5) ?(bytes = 64) () =
    let e = Engine.create () in
    let deliver () = Engine.note_delivery e ~src:0 ~dst:1 ~bytes in
    Engine.at e at (fun () ->
        if hop then Engine.at e (Engine.now e) deliver else deliver ());
    Engine.at e 9 (fun () -> Engine.note_delivery e ~src:1 ~dst:0 ~bytes:4);
    Engine.run e;
    Alcotest.(check int) "deliveries" 2 (Engine.deliveries e);
    (Engine.events_processed e, Engine.delivery_fingerprint e)
  in
  let events, fp = run () in
  let hop_events, hop_fp = run ~hop:true () in
  Alcotest.(check int) "one more event" (events + 1) hop_events;
  Alcotest.(check int) "same deliveries, same fingerprint" fp hop_fp;
  Alcotest.(check bool) "moved instant" true (snd (run ~at:6 ()) <> fp);
  Alcotest.(check bool) "other size" true (snd (run ~bytes:65 ()) <> fp)

(* [pending_now] sees events queued at the current instant; inside a
   batch, only those queued before the batch began. *)
let test_pending_now () =
  let e = Engine.create () in
  let seen = ref [] in
  let note what = seen := (what, Engine.pending_now e) :: !seen in
  Engine.at e 5 (fun () ->
      note "alone";
      Engine.at e 6 ignore;
      note "later event";
      Engine.batch e (fun () ->
          Engine.at e 5 ignore;
          note "batch after its own");
      note "after batch");
  Engine.at e 7 (fun () ->
      Engine.at e 7 ignore;
      Engine.batch e (fun () -> note "batch after earlier"));
  Engine.run e;
  Alcotest.(check (list (pair string bool)))
    "pending"
    [
      ("alone", false);
      ("later event", false);
      ("batch after its own", false);
      ("after batch", true);
      ("batch after earlier", true);
    ]
    (List.rev !seen)

let test_fifo_same_instant () =
  (* Threads spawned at the same instant run in spawn order. *)
  let order = ref [] in
  let e = Engine.create () in
  for i = 1 to 5 do
    Engine.spawn e ~name:"t" (fun () -> order := i :: !order)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_sleep_interleaving () =
  let log = ref [] in
  let e = Engine.create () in
  let note tag = log := (tag, Engine.now e) :: !log in
  Engine.spawn e ~name:"a" (fun () ->
      Engine.sleep 30;
      note "a");
  Engine.spawn e ~name:"b" (fun () ->
      Engine.sleep 10;
      note "b";
      Engine.sleep 40;
      note "b2");
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "timeline"
    [ ("b", 10); ("a", 30); ("b2", 50) ]
    (List.rev !log)

let test_exception_propagates () =
  let e = Engine.create () in
  Engine.spawn e ~name:"boom" (fun () -> failwith "boom");
  Alcotest.check_raises "boom" (Failure "boom") (fun () -> Engine.run e)

let test_stalled_detection () =
  let e = Engine.create () in
  Engine.spawn e ~name:"stuck" (fun () ->
      ignore (Engine.suspend ~name:"never" (fun _wake -> ())));
  (match Engine.run e with
  | () -> Alcotest.fail "expected Stalled"
  | exception Engine.Stalled [ desc ] ->
      Alcotest.(check string) "desc" "stuck (on never)" desc
  | exception Engine.Stalled _ -> Alcotest.fail "wrong blocked list")

(* Registry swap-remove: a mix of completed, daemon-blocked and
   non-daemon-blocked threads must still yield exactly the non-daemon
   blockers in the stall report, whatever order exits shuffled the
   registry into. *)
let test_stalled_detection_many () =
  let e = Engine.create () in
  for i = 1 to 5 do
    Engine.spawn e ~name:(Printf.sprintf "done%d" i) (fun () ->
        Engine.sleep (i * 3))
  done;
  Engine.spawn e ~daemon:true ~name:"daemon" (fun () ->
      ignore (Engine.suspend ~name:"forever" (fun _wake -> ())));
  Engine.spawn e ~name:"stuck-a" (fun () ->
      Engine.sleep 5;
      ignore (Engine.suspend ~name:"lost-wake" (fun _wake -> ())));
  Engine.spawn e ~name:"stuck-b" (fun () ->
      ignore (Engine.suspend ~name:"dead-box" (fun _wake -> ())));
  (match Engine.run e with
  | () -> Alcotest.fail "expected Stalled"
  | exception Engine.Stalled blocked ->
      Alcotest.(check (list string))
        "blocked set"
        [ "stuck-a (on lost-wake)"; "stuck-b (on dead-box)" ]
        (List.sort compare blocked))

let test_daemon_not_stalled () =
  let e = Engine.create () in
  Engine.spawn e ~daemon:true ~name:"server" (fun () ->
      ignore (Engine.suspend ~name:"forever" (fun _wake -> ())));
  Engine.run e

let test_wake_resumes_at_wakers_time () =
  let e = Engine.create () in
  let waker = ref (fun () -> ()) in
  let resumed_at = ref Time.zero in
  Engine.spawn e ~name:"sleeper" (fun () ->
      Engine.suspend ~name:"wait" (fun wake -> waker := fun () -> wake ());
      resumed_at := Engine.now e);
  Engine.spawn e ~name:"waker" (fun () ->
      Engine.sleep 123;
      !waker ());
  Engine.run e;
  check_i64 "resumed at waker time" 123 !resumed_at

let test_double_wake_ignored () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.spawn e ~name:"sleeper" (fun () ->
      Engine.suspend ~name:"wait" (fun wake ->
          wake ();
          wake ());
      incr count);
  Engine.run e;
  Alcotest.(check int) "resumed once" 1 !count

let test_self_name () =
  let seen = ref "" in
  let e = Engine.create () in
  Engine.spawn e ~name:"alice" (fun () -> seen := Engine.self_name ());
  Engine.run e;
  Alcotest.(check string) "name" "alice" !seen

let test_at_callback () =
  let fired = ref Time.zero in
  let e = Engine.create () in
  Engine.at e 55 (fun () -> fired := Engine.now e);
  Engine.run e;
  check_i64 "at" 55 !fired

let test_run_until_bounded () =
  let e = Engine.create () in
  let hits = ref [] in
  List.iter
    (fun d -> Engine.at e (Time.ns d) (fun () -> hits := d :: !hits))
    [ 10; 20; 30; 40 ];
  Engine.run_until e 25;
  Alcotest.(check (list int)) "only early events" [ 10; 20 ] (List.rev !hits);
  check_i64 "clock at deadline" 25 (Engine.now e);
  (* Resuming picks up the rest. *)
  Engine.run e;
  Alcotest.(check (list int)) "all events" [ 10; 20; 30; 40 ] (List.rev !hits)

let test_at_past_rejected () =
  let e = Engine.create () in
  Engine.spawn e ~name:"t" (fun () ->
      Engine.sleep 10;
      Alcotest.check_raises "past"
        (Invalid_argument "Engine: scheduling in the past") (fun () ->
          Engine.at e 5 (fun () -> ())));
  Engine.run e

(* ------------------------------------------------------------------ *)
(* Mutex *)

let test_mutex_exclusion () =
  let m = Marcel.Mutex.create () in
  let inside = ref 0 and max_inside = ref 0 in
  let d =
    run_timed (fun e ->
        for i = 1 to 4 do
          Engine.spawn e ~name:(Printf.sprintf "w%d" i) (fun () ->
              Marcel.Mutex.with_lock m (fun () ->
                  incr inside;
                  if !inside > !max_inside then max_inside := !inside;
                  Engine.sleep 100;
                  decr inside))
        done)
  in
  Alcotest.(check int) "never concurrent" 1 !max_inside;
  check_i64 "serialized" 400 d

let test_mutex_fifo_handoff () =
  let m = Marcel.Mutex.create () in
  let order = ref [] in
  let e = Engine.create () in
  Engine.spawn e ~name:"holder" (fun () ->
      Marcel.Mutex.lock m;
      Engine.sleep 10;
      Marcel.Mutex.unlock m);
  for i = 1 to 3 do
    Engine.spawn e ~name:"w" (fun () ->
        Engine.sleep (i);
        Marcel.Mutex.lock m;
        order := i :: !order;
        Marcel.Mutex.unlock m)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !order)

let test_mutex_unlock_unlocked () =
  let m = Marcel.Mutex.create () in
  Alcotest.check_raises "unlock" (Invalid_argument "Mutex.unlock: not locked")
    (fun () -> Marcel.Mutex.unlock m)

(* ------------------------------------------------------------------ *)
(* Condition *)

let test_condition_signal () =
  let m = Marcel.Mutex.create () in
  let c = Marcel.Condition.create () in
  let ready = ref false in
  let observed = ref false in
  let e = Engine.create () in
  Engine.spawn e ~name:"waiter" (fun () ->
      Marcel.Mutex.lock m;
      while not !ready do
        Marcel.Condition.wait c m
      done;
      observed := true;
      Marcel.Mutex.unlock m);
  Engine.spawn e ~name:"signaler" (fun () ->
      Engine.sleep 50;
      Marcel.Mutex.lock m;
      ready := true;
      Marcel.Condition.signal c;
      Marcel.Mutex.unlock m);
  Engine.run e;
  Alcotest.(check bool) "observed" true !observed

let test_condition_broadcast () =
  let m = Marcel.Mutex.create () in
  let c = Marcel.Condition.create () in
  let woken = ref 0 in
  let e = Engine.create () in
  for _ = 1 to 3 do
    Engine.spawn e ~name:"waiter" (fun () ->
        Marcel.Mutex.lock m;
        Marcel.Condition.wait c m;
        incr woken;
        Marcel.Mutex.unlock m)
  done;
  Engine.spawn e ~name:"b" (fun () ->
      Engine.sleep 10;
      Marcel.Mutex.lock m;
      Marcel.Condition.broadcast c;
      Marcel.Mutex.unlock m);
  Engine.run e;
  Alcotest.(check int) "all woken" 3 !woken

(* ------------------------------------------------------------------ *)
(* Semaphore *)

let test_semaphore_counts () =
  let s = Marcel.Semaphore.create 2 in
  Alcotest.(check bool) "try1" true (Marcel.Semaphore.try_acquire s);
  Alcotest.(check bool) "try2" true (Marcel.Semaphore.try_acquire s);
  Alcotest.(check bool) "try3" false (Marcel.Semaphore.try_acquire s);
  Marcel.Semaphore.release s;
  Alcotest.(check int) "avail" 1 (Marcel.Semaphore.available s)

let test_semaphore_blocks () =
  (* 2 permits, 4 workers each holding for 100ns: two waves. *)
  let s = Marcel.Semaphore.create 2 in
  let d =
    run_timed (fun e ->
        for _ = 1 to 4 do
          Engine.spawn e ~name:"w" (fun () ->
              Marcel.Semaphore.acquire s;
              Engine.sleep 100;
              Marcel.Semaphore.release s)
        done)
  in
  check_i64 "two waves" 200 d

let test_semaphore_negative () =
  Alcotest.check_raises "neg" (Invalid_argument "Semaphore.create: negative")
    (fun () -> ignore (Marcel.Semaphore.create (-1)))

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let box = Marcel.Mailbox.create () in
  let got = ref [] in
  let e = Engine.create () in
  Engine.spawn e ~name:"producer" (fun () ->
      List.iter (Marcel.Mailbox.put box) [ 1; 2; 3 ]);
  Engine.spawn e ~name:"consumer" (fun () ->
      for _ = 1 to 3 do
        got := Marcel.Mailbox.take box :: !got
      done);
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_take_blocks () =
  let box = Marcel.Mailbox.create () in
  let took_at = ref Time.zero in
  let e = Engine.create () in
  Engine.spawn e ~name:"consumer" (fun () ->
      ignore (Marcel.Mailbox.take box);
      took_at := Engine.now e);
  Engine.spawn e ~name:"producer" (fun () ->
      Engine.sleep 77;
      Marcel.Mailbox.put box ());
  Engine.run e;
  check_i64 "took when put" 77 !took_at

let test_mailbox_bounded_put_blocks () =
  let box = Marcel.Mailbox.create ~capacity:1 () in
  let second_put_at = ref Time.zero in
  let e = Engine.create () in
  Engine.spawn e ~name:"producer" (fun () ->
      Marcel.Mailbox.put box 1;
      Marcel.Mailbox.put box 2;
      second_put_at := Engine.now e);
  Engine.spawn e ~name:"consumer" (fun () ->
      Engine.sleep 40;
      ignore (Marcel.Mailbox.take box);
      Engine.sleep 40;
      ignore (Marcel.Mailbox.take box));
  Engine.run e;
  check_i64 "blocked until first take" 40 !second_put_at

let test_mailbox_capacity_respected () =
  let box = Marcel.Mailbox.create ~capacity:2 () in
  let max_len = ref 0 in
  let e = Engine.create () in
  Engine.spawn e ~name:"producer" (fun () ->
      for i = 1 to 10 do
        Marcel.Mailbox.put box i;
        if Marcel.Mailbox.length box > !max_len then
          max_len := Marcel.Mailbox.length box
      done);
  Engine.spawn e ~name:"consumer" (fun () ->
      for _ = 1 to 10 do
        Engine.sleep 10;
        ignore (Marcel.Mailbox.take box)
      done);
  Engine.run e;
  Alcotest.(check bool) "bounded" true (!max_len <= 2)

let test_mailbox_take_opt () =
  let box = Marcel.Mailbox.create () in
  Alcotest.(check (option int)) "empty" None (Marcel.Mailbox.take_opt box);
  let e = Engine.create () in
  Engine.spawn e ~name:"p" (fun () -> Marcel.Mailbox.put box 9);
  Engine.run e;
  Alcotest.(check (option int)) "one" (Some 9) (Marcel.Mailbox.take_opt box)

(* ------------------------------------------------------------------ *)
(* Ivar *)

let test_ivar_read_blocks () =
  let iv = Marcel.Ivar.create () in
  let got = ref 0 and got_at = ref Time.zero in
  let e = Engine.create () in
  Engine.spawn e ~name:"reader" (fun () ->
      got := Marcel.Ivar.read iv;
      got_at := Engine.now e);
  Engine.spawn e ~name:"writer" (fun () ->
      Engine.sleep 5;
      Marcel.Ivar.fill iv 42);
  Engine.run e;
  Alcotest.(check int) "value" 42 !got;
  check_i64 "at fill time" 5 !got_at

let test_ivar_double_fill () =
  let iv = Marcel.Ivar.create () in
  Marcel.Ivar.fill iv 1;
  Alcotest.(check bool) "filled" true (Marcel.Ivar.is_filled iv);
  Alcotest.(check (option int)) "peek" (Some 1) (Marcel.Ivar.peek iv);
  Alcotest.check_raises "double" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Marcel.Ivar.fill iv 2)

let test_ivar_many_readers () =
  let iv = Marcel.Ivar.create () in
  let sum = ref 0 in
  let e = Engine.create () in
  for _ = 1 to 5 do
    Engine.spawn e ~name:"r" (fun () -> sum := !sum + Marcel.Ivar.read iv)
  done;
  Engine.spawn e ~name:"w" (fun () -> Marcel.Ivar.fill iv 10);
  Engine.run e;
  Alcotest.(check int) "all readers" 50 !sum

let prop_semaphore_bounds_concurrency =
  (* Random worker counts, permit counts and hold times: the number of
     holders never exceeds the permits, everyone eventually runs, and
     all permits return. *)
  QCheck.Test.make ~name:"semaphore bounds concurrency" ~count:80
    QCheck.(
      make
        Gen.(
          let* permits = int_range 1 5 in
          let* holds = list_size (int_range 1 25) (int_range 0 200) in
          return (permits, holds))
        ~print:(fun (p, hs) ->
          Printf.sprintf "permits=%d holds=[%s]" p
            (String.concat ";" (List.map string_of_int hs))))
    (fun (permits, holds) ->
      let e = Engine.create () in
      let sem = Marcel.Semaphore.create permits in
      let inside = ref 0 and peak = ref 0 and completed = ref 0 in
      List.iteri
        (fun i hold ->
          Engine.spawn e ~name:(string_of_int i) (fun () ->
              Marcel.Semaphore.acquire sem;
              incr inside;
              if !inside > !peak then peak := !inside;
              Engine.sleep (hold);
              decr inside;
              Marcel.Semaphore.release sem;
              incr completed))
        holds;
      Engine.run e;
      !peak <= permits
      && !completed = List.length holds
      && Marcel.Semaphore.available sem = permits)

let prop_mailbox_is_fifo_queue =
  (* A mailbox against a reference queue: random interleavings of puts
     and takes deliver exactly the put sequence, in order. *)
  QCheck.Test.make ~name:"mailbox matches a fifo queue" ~count:80
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 0 1000))
    (fun values ->
      let e = Engine.create () in
      let box = Marcel.Mailbox.create () in
      let taken = ref [] in
      List.iteri
        (fun i v ->
          Engine.spawn e ~name:(Printf.sprintf "p%d" i) (fun () ->
              Engine.sleep (((v * 7) mod 50));
              Marcel.Mailbox.put box (i, v)))
        values;
      Engine.spawn e ~name:"consumer" (fun () ->
          for _ = 1 to List.length values do
            taken := Marcel.Mailbox.take box :: !taken
          done);
      Engine.run e;
      (* Every value arrives exactly once; order equals put order, which
         is the (sleep, index) order. *)
      let got = List.rev !taken in
      let expect =
        List.mapi (fun i v -> ((v * 7) mod 50, i, v)) values
        |> List.sort compare
        |> List.map (fun (_, i, v) -> (i, v))
      in
      got = expect)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "marcel"
    [
      ( "time",
        [
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "rates" `Quick test_time_rates;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "empty pop" `Quick test_heap_empty_pop;
          QCheck_alcotest.to_alcotest prop_heap_matches_sort;
        ] );
      ( "engine",
        [
          Alcotest.test_case "sleep advances clock" `Quick
            test_sleep_advances_clock;
          Alcotest.test_case "fifo same instant" `Quick test_fifo_same_instant;
          Alcotest.test_case "delivery fingerprint" `Quick
            test_delivery_fingerprint;
          Alcotest.test_case "pending now" `Quick test_pending_now;
          Alcotest.test_case "sleep interleaving" `Quick
            test_sleep_interleaving;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "stalled detection" `Quick test_stalled_detection;
          Alcotest.test_case "stalled detection many" `Quick
            test_stalled_detection_many;
          Alcotest.test_case "daemon not stalled" `Quick
            test_daemon_not_stalled;
          Alcotest.test_case "wake resumes at waker time" `Quick
            test_wake_resumes_at_wakers_time;
          Alcotest.test_case "double wake ignored" `Quick
            test_double_wake_ignored;
          Alcotest.test_case "self name" `Quick test_self_name;
          Alcotest.test_case "at callback" `Quick test_at_callback;
          Alcotest.test_case "at past rejected" `Quick test_at_past_rejected;
          Alcotest.test_case "run_until bounded" `Quick test_run_until_bounded;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "exclusion" `Quick test_mutex_exclusion;
          Alcotest.test_case "fifo handoff" `Quick test_mutex_fifo_handoff;
          Alcotest.test_case "unlock unlocked" `Quick test_mutex_unlock_unlocked;
        ] );
      ( "condition",
        [
          Alcotest.test_case "signal" `Quick test_condition_signal;
          Alcotest.test_case "broadcast" `Quick test_condition_broadcast;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "counts" `Quick test_semaphore_counts;
          Alcotest.test_case "blocks" `Quick test_semaphore_blocks;
          Alcotest.test_case "negative" `Quick test_semaphore_negative;
          QCheck_alcotest.to_alcotest prop_semaphore_bounds_concurrency;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "take blocks" `Quick test_mailbox_take_blocks;
          Alcotest.test_case "bounded put blocks" `Quick
            test_mailbox_bounded_put_blocks;
          Alcotest.test_case "capacity respected" `Quick
            test_mailbox_capacity_respected;
          Alcotest.test_case "take_opt" `Quick test_mailbox_take_opt;
          QCheck_alcotest.to_alcotest prop_mailbox_is_fifo_queue;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "read blocks" `Quick test_ivar_read_blocks;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "many readers" `Quick test_ivar_many_readers;
        ] );
    ]
