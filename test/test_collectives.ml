(* Tests for the fault-tolerant collectives layer: topology-aware
   spanning trees over the physical adjacency, gateway combining,
   and mid-collective crash recovery with exactly-once decisions. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Faults = Simnet.Faults
module Vc = Madeleine.Vchannel
module Coll = Madeleine.Collectives

let int_sum a b =
  let r = Bytes.create 8 in
  Bytes.set_int64_le r 0
    (Int64.add (Bytes.get_int64_le a 0) (Bytes.get_int64_le b 0));
  r

(* Rank r contributes r+1 (as a little-endian int64). *)
let contrib r =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int (r + 1));
  b

let sum_over ranks = List.fold_left (fun acc r -> acc + r + 1) 0 ranks

(* 4 ranks over two fast-ethernet fabrics: ethA spans 0,1,2 and ethB
   spans 1,2,3 — ranks 1 and 2 are gateways, ranks 0 and 3 only ever
   reach each other through one of them. *)
let coll_world ~seed =
  let cf =
    Clusterfile.load
      (Printf.sprintf
         {|
faults  seed=%d
network ethA type=tcp
network ethB type=tcp
node n0 nets=ethA
node n1 nets=ethA,ethB
node n2 nets=ethA,ethB
node n3 nets=ethB
channel  c-a net=ethA nodes=n0,n1,n2
channel  c-b net=ethB nodes=n1,n2,n3
vchannel vc  channels=c-a,c-b mtu=4096 reliable=true
|}
         seed)
  in
  ( Clusterfile.engine cf,
    Option.get (Clusterfile.faults cf),
    Clusterfile.vchannel cf "vc" )

let check_gates what gates =
  List.iter
    (fun (tag, ok) ->
      Alcotest.(check bool) (Printf.sprintf "%s: gate %s" what tag) true ok)
    gates

(* ------------------------------------------------------------------ *)
(* The faultless verbs on the spanning tree. *)

let test_tree_verbs () =
  let engine, _faults, vc = coll_world ~seed:3 in
  let coll = Coll.create ~fanout:2 vc in
  let sums = Array.make 4 0 in
  let bcasts = Array.make 4 Bytes.empty in
  let a2a = Array.make 4 [] in
  for r = 0 to 3 do
    Engine.spawn engine ~name:(Printf.sprintf "r%d" r) (fun () ->
        Coll.barrier coll ~me:r;
        sums.(r) <-
          Int64.to_int
            (Bytes.get_int64_le (Coll.allreduce coll ~me:r ~op:int_sum (contrib r)) 0);
        bcasts.(r) <-
          Coll.bcast coll ~me:r ~root:2
            (if r = 2 then Some (Bytes.of_string "hello") else None);
        a2a.(r) <-
          Coll.alltoall coll ~me:r
            (List.init 4 (fun j -> (j, Bytes.make 3 (Char.chr (16 * r + j))))))
  done;
  Engine.run engine;
  for r = 0 to 3 do
    Alcotest.(check int) (Printf.sprintf "rank %d allreduce" r) 10 sums.(r);
    Alcotest.(check bytes)
      (Printf.sprintf "rank %d bcast" r)
      (Bytes.of_string "hello") bcasts.(r);
    Alcotest.(check (list (pair int bytes)))
      (Printf.sprintf "rank %d alltoall" r)
      (List.init 4 (fun i -> (i, Bytes.make 3 (Char.chr ((16 * i) + r)))))
      a2a.(r)
  done;
  let st = Coll.stats coll in
  Alcotest.(check (list int)) "decision covered everyone" [ 0; 1; 2; 3 ]
    st.Coll.last_covered;
  Alcotest.(check bool) "gateways combined in transit" true
    (st.Coll.combined > 0)

(* The flat star is the measured linear baseline: every contribution
   reaches the root individually, nothing combines in transit. *)
let test_flat_baseline () =
  let engine, _faults, vc = coll_world ~seed:4 in
  let coll = Coll.create ~algo:Coll.Flat vc in
  let sums = Array.make 4 0 in
  for r = 0 to 3 do
    Engine.spawn engine ~name:(Printf.sprintf "r%d" r) (fun () ->
        sums.(r) <-
          Int64.to_int
            (Bytes.get_int64_le (Coll.allreduce coll ~me:r ~op:int_sum (contrib r)) 0))
  done;
  Engine.run engine;
  Array.iteri
    (fun r v -> Alcotest.(check int) (Printf.sprintf "rank %d" r) 10 v)
    sums;
  let st = Coll.stats coll in
  Alcotest.(check int) "root saw n-1 contributions" 3 st.Coll.root_contribs;
  Alcotest.(check int) "nothing combined" 0 st.Coll.combined

(* ------------------------------------------------------------------ *)
(* Crash recovery, driven through the chaos harness. *)

let coll_workload ?(seed = 42) name =
  (Option.get (Chaos.find name)).Chaos.run ~seed ~quick:true

let test_crash_mid_barrier () =
  check_gates "crash-barrier" (coll_workload "coll-crash-barrier").Chaos.gates

let test_overloaded_spine_reroute () =
  check_gates "spine-overload" (coll_workload "coll-spine-overload").Chaos.gates

let test_rolling_allreduce () =
  check_gates "rolling-allreduce"
    (coll_workload "coll-rolling-allreduce").Chaos.gates

(* The restarted rank rejoins through the decision journal: its late
   contribution is answered with the recorded decision (or dropped as
   a duplicate), never double-counted. *)
let test_restart_rejoins_exactly_once () =
  let c = coll_workload ~seed:7 "coll-crash-barrier" in
  let gate g = List.assoc ("coll-crash-barrier-" ^ g) c.Chaos.gates in
  Alcotest.(check bool) "everyone completed" true (gate "completed");
  Alcotest.(check bool) "survivors agree" true (gate "agree");
  Alcotest.(check bool) "value = sum over covered set" true
    (gate "exactly-once");
  Alcotest.(check bool) "restarted rank rejoined from the journal" true
    (gate "rejoined-from-journal");
  Alcotest.(check bool) "repair generations ran" true (gate "repaired")

(* Same seed, same world, same schedule — byte-identical outcome
   (including the virtual finish time). *)
let test_deterministic_per_seed () =
  let report () =
    Chaos.render "coll-crash-barrier" (coll_workload ~seed:11 "coll-crash-barrier")
  in
  Alcotest.(check string) "same seed, same report" (report ()) (report ())

(* ------------------------------------------------------------------ *)
(* Property: under any random crash schedule of non-root ranks that
   keeps the world connected (at most one of the two gateways dies),
   every surviving rank's allreduce returns, all survivors agree
   bit-identically, and the value is the sum over the covered set. *)

let prop_survivors_agree =
  QCheck.Test.make ~name:"random crash schedules: survivors agree" ~count:20
    QCheck.(
      list_of_size
        Gen.(int_range 1 2)
        (pair (int_range 1 3) (int_range 5 40 (* x100us *))))
    (fun schedule ->
      (* One crash per rank; keep gateway 2 alive if 1 is also dying
         (killing both would partition ranks 0 and 3 — a quorum
         question, not an agreement one). *)
      let schedule =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) schedule
      in
      let schedule =
        if List.mem_assoc 1 schedule && List.mem_assoc 2 schedule then
          List.remove_assoc 2 schedule
        else schedule
      in
      let crashed = List.map fst schedule in
      let survivors = List.filter (fun r -> not (List.mem r crashed)) [ 0; 1; 2; 3 ] in
      let engine, faults, vc = coll_world ~seed:(97 + List.length schedule) in
      let coll = Coll.create ~fanout:2 vc in
      let results = Array.make 4 None in
      List.iter
        (fun r ->
          Engine.spawn engine ~name:(Printf.sprintf "r%d" r) (fun () ->
              (* Stagger the entries so some crashes land mid-collective. *)
              Engine.sleep (Time.us (1000.0 +. (300.0 *. float_of_int r)));
              results.(r) <-
                Some (Coll.allreduce coll ~me:r ~op:int_sum (contrib r))))
        survivors;
      Engine.spawn engine ~name:"chaos" (fun () ->
          let now = ref 0.0 in
          List.iter
            (fun (rank, t) ->
              let t = float_of_int (t * 100) in
              if t > !now then Engine.sleep (Time.us (t -. !now));
              now := max !now t;
              Faults.crash_now faults ~node:rank ())
            (List.sort (fun (_, a) (_, b) -> compare a b) schedule));
      Engine.run engine;
      let values =
        List.filter_map (fun r -> results.(r)) survivors
      in
      let all_returned = List.length values = List.length survivors in
      let agree =
        match values with
        | [] -> false
        | v :: rest -> List.for_all (Bytes.equal v) rest
      in
      let covered = (Coll.stats coll).Coll.last_covered in
      let value_ok =
        match values with
        | [] -> false
        | v :: _ ->
            Int64.to_int (Bytes.get_int64_le v 0) = sum_over covered
            && List.for_all (fun r -> List.mem r covered) survivors
      in
      all_returned && agree && value_ok)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "collectives"
    [
      ( "tree",
        [
          Alcotest.test_case "verbs on the spanning tree" `Quick
            test_tree_verbs;
          Alcotest.test_case "flat baseline" `Quick test_flat_baseline;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash mid-barrier" `Quick test_crash_mid_barrier;
          Alcotest.test_case "overloaded spine rerouted" `Quick
            test_overloaded_spine_reroute;
          Alcotest.test_case "rolling allreduce" `Quick test_rolling_allreduce;
          Alcotest.test_case "restart rejoins exactly once" `Quick
            test_restart_rejoins_exactly_once;
          Alcotest.test_case "deterministic per seed" `Quick
            test_deterministic_per_seed;
          QCheck_alcotest.to_alcotest prop_survivors_agree;
        ] );
    ]
