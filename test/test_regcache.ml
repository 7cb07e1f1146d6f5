(* Tests for the zero-copy long-message path: the Regcache pin-down
   cache as a unit (LRU order, interval merging, capacity-0 degeneracy,
   eviction accounting), the rendezvous TM end to end on the sisci and
   via fabrics, its fallback to the staged path on gateway transit
   hops, and a QCheck property that delivery is bit-identical with the
   cache on and off. *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Config = Madeleine.Config
module Channel = Madeleine.Channel
module Regcache = Madeleine.Regcache
module Mad = Madeleine.Api
module Vc = Madeleine.Vchannel

(* ------------------------------------------------------------------ *)
(* Regcache unit tests against a mock fabric: handles are stamped
   integers and the log records every register/deregister. *)

type event = Reg of int * int * int | Dereg of int

let mock () =
  let log = ref [] and next = ref 0 in
  let register _mem ~pos ~len =
    let id = !next in
    incr next;
    log := Reg (id, pos, len) :: !log;
    id
  in
  let deregister id = log := Dereg id :: !log in
  (log, register, deregister)

let deregistered log id = List.mem (Dereg id) !log

let use cache mem ~pos ~len =
  let e = Regcache.acquire cache mem ~pos ~len in
  let id = Regcache.handle e in
  Regcache.release cache e;
  id

(* Ranges whose end overflows [max_int] are rejected, not wrapped. *)
let test_acquire_overflow () =
  let _, register, deregister = mock () in
  let cache = Regcache.create ~entries:2 ~register ~deregister () in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises "acquire"
        (Invalid_argument "Regcache.acquire: bad range") (fun () ->
          ignore (Regcache.acquire cache (Bytes.create 16) ~pos ~len)))
    [ (1, max_int); (max_int, 1) ]

let test_lru_eviction_order () =
  let log, register, deregister = mock () in
  let cache = Regcache.create ~entries:2 ~register ~deregister () in
  let a = Bytes.create 64 and b = Bytes.create 64 in
  let c = Bytes.create 64 and d = Bytes.create 64 in
  let ida = use cache a ~pos:0 ~len:64 in
  let idb = use cache b ~pos:0 ~len:64 in
  let idc = use cache c ~pos:0 ~len:64 in
  (* Third distinct buffer: the coldest (a) goes. *)
  Alcotest.(check bool) "a evicted" true (deregistered log ida);
  Alcotest.(check bool) "b kept" false (deregistered log idb);
  (* Touch b, then insert d: c is now the coldest and goes; b survives
     because the hit refreshed it. *)
  Alcotest.(check int) "touch b is a hit" idb (use cache b ~pos:0 ~len:64);
  let _idd = use cache d ~pos:0 ~len:64 in
  Alcotest.(check bool) "c evicted after b touched" true
    (deregistered log idc);
  Alcotest.(check bool) "b still kept" false (deregistered log idb);
  let s = Regcache.stats cache in
  Alcotest.(check int) "evictions" 2 s.Regcache.evictions;
  Alcotest.(check int) "hits" 1 s.Regcache.hits;
  Alcotest.(check int) "entries" 2 s.Regcache.entries

let test_overlap_hit_and_merge () =
  let log, register, deregister = mock () in
  let cache = Regcache.create ~entries:4 ~register ~deregister () in
  let mem = Bytes.create 256 in
  let id0 = use cache mem ~pos:0 ~len:100 in
  (* Fully covered interval: hit, same registration. *)
  Alcotest.(check int) "covered reuse hits" id0 (use cache mem ~pos:20 ~len:50);
  (* Partial overlap [80,180): the old pin and the request merge into
     one hull registration [0,180) — the overlap is never pinned twice. *)
  let e = Regcache.acquire cache mem ~pos:80 ~len:100 in
  Alcotest.(check (pair int int)) "hull interval" (0, 180)
    (Regcache.interval e);
  Alcotest.(check bool) "old pin dropped by merge" true
    (deregistered log id0);
  Regcache.release cache e;
  let s = Regcache.stats cache in
  Alcotest.(check int) "merges" 1 s.Regcache.merges;
  Alcotest.(check int) "hits" 1 s.Regcache.hits;
  Alcotest.(check int) "misses (merge counts)" 2 s.Regcache.misses;
  Alcotest.(check int) "one hull entry" 1 s.Regcache.entries;
  Alcotest.(check int) "pinned = hull" 180 s.Regcache.pinned_bytes

let test_capacity_zero_register_per_send () =
  let log, register, deregister = mock () in
  let cache = Regcache.create ~register ~deregister () in
  let mem = Bytes.create 64 in
  let id0 = use cache mem ~pos:0 ~len:64 in
  Alcotest.(check bool) "release deregisters" true (deregistered log id0);
  (* Nothing retained: the same range registers again. *)
  let id1 = use cache mem ~pos:0 ~len:64 in
  Alcotest.(check bool) "no retention" true (id1 <> id0);
  let s = Regcache.stats cache in
  Alcotest.(check int) "no hits" 0 s.Regcache.hits;
  Alcotest.(check int) "two misses" 2 s.Regcache.misses;
  Alcotest.(check int) "no entries" 0 s.Regcache.entries;
  Alcotest.(check int) "nothing pinned" 0 s.Regcache.pinned_bytes

let test_eviction_accounting () =
  let log, register, deregister = mock () in
  let cache = Regcache.create ~entries:8 ~bytes:150 ~register ~deregister () in
  let a = Bytes.create 128 and b = Bytes.create 128 in
  let ida = use cache a ~pos:0 ~len:100 in
  ignore (use cache b ~pos:0 ~len:100);
  (* 200 pinned bytes > 150 budget: the cold entry is deregistered and
     the books balance. *)
  Alcotest.(check bool) "byte cap evicts cold" true (deregistered log ida);
  let s = Regcache.stats cache in
  Alcotest.(check int) "pinned after eviction" 100 s.Regcache.pinned_bytes;
  Alcotest.(check int) "evictions" 1 s.Regcache.evictions;
  Regcache.flush cache;
  let s = Regcache.stats cache in
  Alcotest.(check int) "flush empties" 0 s.Regcache.entries;
  Alcotest.(check int) "flush unpins" 0 s.Regcache.pinned_bytes;
  (* Every registration the mock ever handed out is deregistered. *)
  let regs, deregs =
    List.fold_left
      (fun (r, d) -> function Reg _ -> (r + 1, d) | Dereg _ -> (r, d + 1))
      (0, 0) !log
  in
  Alcotest.(check int) "every pin matched by an unpin" regs deregs

let test_busy_entries_survive_pressure () =
  let log, register, deregister = mock () in
  let cache = Regcache.create ~entries:1 ~register ~deregister () in
  let a = Bytes.create 64 and b = Bytes.create 64 in
  let ea = Regcache.acquire cache a ~pos:0 ~len:64 in
  let eb = Regcache.acquire cache b ~pos:0 ~len:64 in
  (* Over capacity but both in flight: nothing may be unpinned. *)
  Alcotest.(check bool) "no dereg while busy" true
    (List.for_all (function Dereg _ -> false | Reg _ -> true) !log);
  Regcache.release cache eb;
  Regcache.release cache ea;
  let s = Regcache.stats cache in
  Alcotest.(check int) "shrunk back to capacity" 1 s.Regcache.entries

(* ------------------------------------------------------------------ *)
(* End-to-end rendezvous over the simulated fabrics. *)

let rdv_config =
  {
    Config.default with
    Config.rendezvous_threshold = Some 32768;
    regcache_entries = 8;
  }

(* Content-checked one-way transfers of [sends] messages of
   [bytes_count] from rank 0 to rank 1, reusing one send buffer. *)
let roundtrip world ~bytes_count ~sends =
  let ep0 = Channel.endpoint world.Harness.channel ~rank:0 in
  let ep1 = Channel.endpoint world.Harness.channel ~rank:1 in
  let data = Harness.payload bytes_count 11L in
  let intact = ref true in
  Engine.spawn world.Harness.engine ~name:"send" (fun () ->
      for _ = 1 to sends do
        let oc = Mad.begin_packing ep0 ~remote:1 in
        Mad.pack oc data;
        Mad.end_packing oc
      done);
  Engine.spawn world.Harness.engine ~name:"recv" (fun () ->
      let sink = Bytes.create bytes_count in
      for _ = 1 to sends do
        let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
        Mad.unpack ic sink;
        Mad.end_unpacking ic;
        if not (Bytes.equal sink data) then intact := false
      done);
  Engine.run world.Harness.engine;
  (!intact, Channel.reg_stats ep0)

let test_sisci_rendezvous_end_to_end () =
  let w = Harness.sisci_world ~config:rdv_config () in
  let intact, stats = roundtrip w ~bytes_count:(1 lsl 20) ~sends:16 in
  Alcotest.(check bool) "payloads intact" true intact;
  match stats with
  | None -> Alcotest.fail "no reg_stats after rendezvous sends"
  | Some s ->
      (* One cold miss, then the reused buffer hits: > 90%. *)
      let rate =
        float_of_int s.Regcache.hits
        /. float_of_int (max 1 (s.Regcache.hits + s.Regcache.misses))
      in
      Alcotest.(check bool)
        (Printf.sprintf "hit rate %.2f > 0.9" rate)
        true (rate > 0.9)

let test_sisci_rendezvous_beats_staged () =
  let bytes_count = 1 lsl 20 in
  let staged =
    Harness.mad_pingpong (Harness.sisci_world ()) ~bytes_count ~iters:4
  in
  let rdv =
    Harness.mad_pingpong
      (Harness.sisci_world ~config:rdv_config ())
      ~bytes_count ~iters:4
  in
  let ratio = Time.to_us staged /. Time.to_us rdv in
  Alcotest.(check bool)
    (Printf.sprintf "zero-copy 1MB %.2fx over staged" ratio)
    true (ratio >= 1.2)

let test_via_rendezvous_end_to_end () =
  let w = Harness.via_world ~config:rdv_config () in
  let intact, stats = roundtrip w ~bytes_count:(1 lsl 18) ~sends:8 in
  Alcotest.(check bool) "payloads intact" true intact;
  Alcotest.(check bool) "cache engaged" true
    (match stats with
    | Some s -> s.Regcache.hits + s.Regcache.misses > 0
    | None -> false)

let test_gateway_falls_back_to_staged () =
  (* A 64 kB message over the gateway world with rendezvous armed and
     an MTU big enough that hop payloads cross the threshold: every
     hop is a transit hop (0 -> gw -> 2), so the switch must keep the
     staged path and the message still arrives intact. *)
  let w = Harness.two_cluster_world ~config:rdv_config () in
  let vc = Vc.create w.Harness.cw_session ~mtu:65536 [ w.Harness.ch_sci; w.Harness.ch_myri ] in
  let bytes_count = 65536 in
  let data = Harness.payload bytes_count 12L in
  let intact = ref false in
  Engine.spawn w.Harness.cw_engine ~name:"s" (fun () ->
      let oc = Vc.begin_packing vc ~me:0 ~remote:2 in
      Vc.pack oc data;
      Vc.end_packing oc);
  Engine.spawn w.Harness.cw_engine ~name:"r" (fun () ->
      let sink = Bytes.create bytes_count in
      let ic = Vc.begin_unpacking_from vc ~me:2 ~remote:0 in
      Vc.unpack ic sink;
      Vc.end_unpacking ic;
      intact := Bytes.equal sink data);
  Engine.run w.Harness.cw_engine;
  Alcotest.(check bool) "forwarded payload intact" true !intact;
  (* The sci hop stayed on the staged path: nothing was ever pinned. *)
  let ep0 = Channel.endpoint w.Harness.ch_sci ~rank:0 in
  Alcotest.(check bool) "no registrations on transit hop" true
    (match Channel.reg_stats ep0 with
    | None -> true
    | Some s -> s.Regcache.hits + s.Regcache.misses = 0)

let test_vchannel_direct_hop_uses_rendezvous () =
  (* Same vchannel machinery, but a single-hop route 0 -> 1: the hop is
     origin -> final destination, so rendezvous engages end to end. *)
  let w = Harness.two_cluster_world ~config:rdv_config () in
  let vc = Vc.create w.Harness.cw_session ~mtu:65536 ~credits:64 [ w.Harness.ch_sci ] in
  let bytes_count = 65536 in
  let data = Harness.payload bytes_count 13L in
  let intact = ref false in
  Engine.spawn w.Harness.cw_engine ~name:"s" (fun () ->
      let oc = Vc.begin_packing vc ~me:0 ~remote:1 in
      Vc.pack oc data;
      Vc.end_packing oc);
  Engine.spawn w.Harness.cw_engine ~name:"r" (fun () ->
      let sink = Bytes.create bytes_count in
      let ic = Vc.begin_unpacking_from vc ~me:1 ~remote:0 in
      Vc.unpack ic sink;
      Vc.end_unpacking ic;
      intact := Bytes.equal sink data);
  Engine.run w.Harness.cw_engine;
  Alcotest.(check bool) "payload intact" true !intact;
  let ep0 = Channel.endpoint w.Harness.ch_sci ~rank:0 in
  Alcotest.(check bool) "rendezvous engaged on the direct hop" true
    (match Channel.reg_stats ep0 with
    | Some s -> s.Regcache.hits + s.Regcache.misses > 0
    | None -> false)

(* ------------------------------------------------------------------ *)
(* Property: turning the cache off (register-per-send) never changes
   what arrives — only when pins are charged. *)

let prop_cache_on_off_identical =
  QCheck.Test.make ~name:"delivery bit-identical cache-on vs cache-off"
    ~count:15
    QCheck.(pair (int_range 32768 200_000) (int_range 0 1000))
    (fun (bytes_count, salt) ->
      let run ~entries =
        let config =
          {
            Config.default with
            Config.rendezvous_threshold = Some 32768;
            regcache_entries = entries;
          }
        in
        let w = Harness.sisci_world ~config () in
        let ep0 = Channel.endpoint w.Harness.channel ~rank:0 in
        let ep1 = Channel.endpoint w.Harness.channel ~rank:1 in
        let data = Harness.payload bytes_count (Int64.of_int salt) in
        let received = Bytes.create bytes_count in
        Engine.spawn w.Harness.engine ~name:"send" (fun () ->
            for _ = 1 to 3 do
              let oc = Mad.begin_packing ep0 ~remote:1 in
              Mad.pack oc data;
              Mad.end_packing oc
            done);
        Engine.spawn w.Harness.engine ~name:"recv" (fun () ->
            for _ = 1 to 3 do
              let ic = Mad.begin_unpacking_from ep1 ~remote:0 in
              Mad.unpack ic received;
              Mad.end_unpacking ic
            done);
        Engine.run w.Harness.engine;
        (Bytes.copy received, data)
      in
      let on, sent_on = run ~entries:8 in
      let off, sent_off = run ~entries:0 in
      Bytes.equal on off && Bytes.equal on sent_on && Bytes.equal off sent_off)

let () =
  Alcotest.run "regcache"
    [
      ( "unit",
        [
          Alcotest.test_case "LRU eviction order" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "overlap hit and merge" `Quick
            test_overlap_hit_and_merge;
          Alcotest.test_case "capacity 0 = register per send" `Quick
            test_capacity_zero_register_per_send;
          Alcotest.test_case "deregister-on-eviction accounting" `Quick
            test_eviction_accounting;
          Alcotest.test_case "busy entries survive pressure" `Quick
            test_busy_entries_survive_pressure;
          Alcotest.test_case "acquire overflow" `Quick test_acquire_overflow;
        ] );
      ( "rendezvous",
        [
          Alcotest.test_case "sisci end-to-end + hit rate" `Quick
            test_sisci_rendezvous_end_to_end;
          Alcotest.test_case "sisci zero-copy beats staged" `Quick
            test_sisci_rendezvous_beats_staged;
          Alcotest.test_case "via end-to-end" `Quick
            test_via_rendezvous_end_to_end;
          Alcotest.test_case "gateway transit falls back to staged" `Quick
            test_gateway_falls_back_to_staged;
          Alcotest.test_case "vchannel direct hop uses rendezvous" `Quick
            test_vchannel_direct_hop_uses_rendezvous;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_cache_on_off_identical ] );
    ]
