(* Parsim: the parallel sweep engine. Determinism is the contract under
   test — collection order and rendered output must not depend on the
   worker count or on which domain finished first — plus exception
   propagation from worker domains and the engine-per-domain guard. *)

let ordered_ints n = List.init n Fun.id

(* Adversarial durations: the earliest-submitted jobs are the slowest,
   so with several workers the later jobs finish first and any
   completion-ordered collector would return them out of order. *)
let test_ordering_adversarial () =
  Parsim.with_pool ~jobs:4 (fun pool ->
      let n = 24 in
      let got =
        Parsim.run pool
          (List.init n (fun i ->
               ( Printf.sprintf "job-%d" i,
                 fun () ->
                   Unix.sleepf (0.002 *. float_of_int (n - i));
                   i )))
      in
      Alcotest.(check (list int)) "submission order" (ordered_ints n) got)

let test_serial_pool_matches () =
  let jobs () =
    List.init 10 (fun i -> (Printf.sprintf "j%d" i, fun () -> i * i))
  in
  let serial = Parsim.with_pool ~jobs:1 (fun p -> Parsim.run p (jobs ())) in
  let parallel = Parsim.with_pool ~jobs:3 (fun p -> Parsim.run p (jobs ())) in
  Alcotest.(check (list int)) "jobs=1 equals jobs=3" serial parallel

let test_pool_reuse () =
  Parsim.with_pool ~jobs:2 (fun pool ->
      for round = 1 to 5 do
        let got =
          Parsim.run pool
            (List.init 7 (fun i -> ("j", fun () -> (round * 100) + i)))
        in
        Alcotest.(check (list int))
          "batch results"
          (List.init 7 (fun i -> (round * 100) + i))
          got
      done)

let test_empty_and_singleton () =
  Parsim.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "empty batch" [] (Parsim.run pool []);
      Alcotest.(check (list int))
        "singleton batch" [ 42 ]
        (Parsim.run pool [ ("only", fun () -> 42) ]))

exception Boom of int

(* A worker-domain exception must surface in the submitter, and when
   several jobs fail the earliest-submitted failure wins regardless of
   which one's domain raised first. *)
let test_exception_propagation () =
  Parsim.with_pool ~jobs:4 (fun pool ->
      let raised =
        try
          ignore
            (Parsim.run pool
               (List.init 8 (fun i ->
                    ( Printf.sprintf "j%d" i,
                      fun () ->
                        (* The later failing job (5) finishes well before
                           the earlier one (2). *)
                        if i = 2 then begin
                          Unix.sleepf 0.05;
                          raise (Boom 2)
                        end
                        else if i = 5 then raise (Boom 5)
                        else i ))));
          None
        with Boom k -> Some k
      in
      Alcotest.(check (option int)) "earliest failure wins" (Some 2) raised;
      (* The pool survives a failing batch. *)
      Alcotest.(check (list int))
        "pool usable after failure" [ 7 ]
        (Parsim.run pool [ ("ok", fun () -> 7) ]))

(* The claim index must hand out every job exactly once, also in a
   batch whose jobs raise: a double-claimed job would still yield the
   right result list, so each job counts its own runs. *)
let test_each_job_runs_once () =
  Parsim.with_pool ~jobs:4 (fun pool ->
      let n = 600 in
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let raised =
        try
          ignore
            (Parsim.run pool
               (List.init n (fun i ->
                    ( Printf.sprintf "j%d" i,
                      fun () ->
                        Atomic.incr runs.(i);
                        if i mod 97 = 13 then raise (Boom i) else i ))));
          None
        with Boom k -> Some k
      in
      Alcotest.(check (option int)) "earliest failure wins" (Some 13) raised;
      Array.iteri
        (fun i r ->
          Alcotest.(check int) (Printf.sprintf "job %d runs" i) 1 (Atomic.get r))
        runs)

let test_run_after_shutdown () =
  let pool = Parsim.create ~jobs:3 in
  Parsim.shutdown pool;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Parsim.run: pool already shut down") (fun () ->
      ignore (Parsim.run pool [ ("late", fun () -> 0) ]));
  (* A second shutdown is a no-op. *)
  Parsim.shutdown pool

(* The world-isolation invariant: an engine driven from a domain other
   than its creator must be rejected. *)
let test_engine_foreign_domain () =
  let engine = Marcel.Engine.create () in
  let attempted =
    Domain.join
      (Domain.spawn (fun () ->
           try
             Marcel.Engine.spawn engine ~name:"intruder" (fun () -> ());
             `Accepted
           with Invalid_argument _ -> `Rejected))
  in
  Alcotest.(check bool) "foreign spawn rejected" true (attempted = `Rejected);
  (* The owning domain is still allowed to use it. *)
  Marcel.Engine.spawn engine ~name:"owner" (fun () -> ());
  Marcel.Engine.run engine

(* One figure's job set, serial vs 4 domains: the rendered section must
   be byte-identical (the acceptance oracle for parallel sweeps). *)
let test_sweep_byte_identical () =
  let serial = Parsim.with_pool ~jobs:1 Sweeps.fig4 in
  let parallel = Parsim.with_pool ~jobs:4 Sweeps.fig4 in
  Alcotest.(check string) "fig4 --jobs 1 vs --jobs 4" serial parallel;
  Alcotest.(check bool) "section is non-trivial" true
    (String.length serial > 200)

let () =
  Alcotest.run "parsim"
    [
      ( "ordering",
        [
          Alcotest.test_case "adversarial durations" `Quick
            test_ordering_adversarial;
          Alcotest.test_case "serial equals parallel" `Quick
            test_serial_pool_matches;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "empty and singleton" `Quick
            test_empty_and_singleton;
        ] );
      ( "failures",
        [
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "each job runs once" `Quick
            test_each_job_runs_once;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "run after shutdown" `Quick
            test_run_after_shutdown;
          Alcotest.test_case "engine rejects foreign domain" `Quick
            test_engine_foreign_domain;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig4 byte-identical across jobs" `Quick
            test_sweep_byte_identical;
        ] );
    ]
