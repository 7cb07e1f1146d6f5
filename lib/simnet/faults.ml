module Engine = Marcel.Engine
module Time = Marcel.Time

type verdict = Deliver | Drop | Corrupt | Duplicate | Delay of Time.span

type link_faults = {
  mutable drop_rate : float;
  mutable corrupt_rate : float;
  mutable dup_rate : float;
  mutable reorder_rate : float;
  mutable reorder_jitter : Time.span;
  mutable down_until : Time.t;
  mutable rx_cap_mb_s : float option;
}

type stats = {
  frames_dropped : int;
  frames_corrupted : int;
  frames_duplicated : int;
  frames_delayed : int;
  heartbeats_lost : int;
  crashes : int;
  flaps : int;
  stalls : int;
  partitions : int;
  heals : int;
  frames_cut : int;
}

type t = {
  eng : Engine.t;
  rng : Rng.t;
  links : (string * int, link_faults) Hashtbl.t;
  node_down : (int, unit) Hashtbl.t;
  epochs : (int, int) Hashtbl.t;
  (* Directional partition cuts: presence of (fabric, src, dst) means a
     frame src -> dst on that fabric is consumed by the cut. Symmetric
     partitions insert both directions; asymmetric ones only one. *)
  cuts : (string * int * int, unit) Hashtbl.t;
  mutable crash_cbs : (int -> unit) list;
  mutable restart_cbs : (int -> unit) list;
  mutable heal_cbs : (string -> unit) list;
  mutable frames_dropped : int;
  mutable frames_corrupted : int;
  mutable frames_duplicated : int;
  mutable frames_delayed : int;
  mutable heartbeats_lost : int;
  mutable crashes : int;
  mutable flaps : int;
  mutable stalls : int;
  mutable partitions : int;
  mutable heals : int;
  mutable frames_cut : int;
}

let create eng ~seed =
  {
    eng;
    rng = Rng.create ~seed;
    links = Hashtbl.create 16;
    node_down = Hashtbl.create 8;
    epochs = Hashtbl.create 8;
    cuts = Hashtbl.create 16;
    crash_cbs = [];
    restart_cbs = [];
    heal_cbs = [];
    frames_dropped = 0;
    frames_corrupted = 0;
    frames_duplicated = 0;
    frames_delayed = 0;
    heartbeats_lost = 0;
    crashes = 0;
    flaps = 0;
    stalls = 0;
    partitions = 0;
    heals = 0;
    frames_cut = 0;
  }

let engine t = t.eng

let link_state t key =
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
      let l =
        {
          drop_rate = 0.0;
          corrupt_rate = 0.0;
          dup_rate = 0.0;
          reorder_rate = 0.0;
          reorder_jitter = Time.zero;
          down_until = Time.zero;
          rx_cap_mb_s = None;
        }
      in
      Hashtbl.add t.links key l;
      l

let check_rate what rate =
  (* Written so that NaN fails too. *)
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg (Printf.sprintf "Faults.%s: rate %g outside [0, 1]" what rate)

let set_drop t ~fabric ~node ~rate =
  check_rate "set_drop" rate;
  (link_state t (fabric, node)).drop_rate <- rate

let set_corrupt t ~fabric ~node ~rate =
  check_rate "set_corrupt" rate;
  (link_state t (fabric, node)).corrupt_rate <- rate

let set_duplicate t ~fabric ~node ~rate =
  check_rate "set_duplicate" rate;
  (link_state t (fabric, node)).dup_rate <- rate

let set_reorder t ~fabric ~node ~rate ~jitter =
  check_rate "set_reorder" rate;
  if jitter <= 0 then invalid_arg "Faults.set_reorder: jitter must be positive";
  let l = link_state t (fabric, node) in
  l.reorder_rate <- rate;
  l.reorder_jitter <- jitter

let flap_link t ~fabric ~node ~at ~duration =
  t.flaps <- t.flaps + 1;
  let l = link_state t (fabric, node) in
  Engine.at t.eng at (fun () ->
      let until = Time.add (Engine.now t.eng) duration in
      if Time.( < ) l.down_until until then l.down_until <- until)

let slow_receiver t ~fabric ~node ~mb_per_s =
  if not (mb_per_s > 0.0) then
    invalid_arg
      (Printf.sprintf "Faults.slow_receiver: rate %g must be positive"
         mb_per_s);
  (link_state t (fabric, node)).rx_cap_mb_s <- Some mb_per_s

let rx_cap t ~fabric ~node =
  if Hashtbl.length t.links = 0 then None
  else
    match Hashtbl.find_opt t.links (fabric, node) with
    | None -> None
    | Some l -> l.rx_cap_mb_s

let node_up t node = not (Hashtbl.mem t.node_down node)

(* ------------------------------------------------------------------ *)
(* Partitions. A cut is a set of directional (src, dst) pairs on one
   fabric; the check is a plain table lookup, so a plane with no cut
   configured costs one miss and zero randomness. *)

let partitioned t ~fabric ~src ~dst = Hashtbl.mem t.cuts (fabric, src, dst)

let partition t ~fabric ?(oneway = false) a b =
  if a = [] || b = [] then invalid_arg "Faults.partition: empty rank set";
  List.iter
    (fun x ->
      if List.mem x b then
        invalid_arg
          (Printf.sprintf "Faults.partition: rank %d on both sides of the cut"
             x))
    a;
  t.partitions <- t.partitions + 1;
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          Hashtbl.replace t.cuts (fabric, x, y) ();
          if not oneway then Hashtbl.replace t.cuts (fabric, y, x) ())
        b)
    a

let on_heal t f = t.heal_cbs <- f :: t.heal_cbs

let fire_heal t fabric = List.iter (fun cb -> cb fabric) (List.rev t.heal_cbs)

let heal t ~fabric =
  let stale =
    Hashtbl.fold
      (fun ((f, _, _) as key) () acc -> if f = fabric then key :: acc else acc)
      t.cuts []
  in
  if stale <> [] then begin
    t.heals <- t.heals + 1;
    List.iter (Hashtbl.remove t.cuts) stale;
    fire_heal t fabric
  end

let heal_all t =
  if Hashtbl.length t.cuts > 0 then begin
    let fabrics =
      Hashtbl.fold
        (fun (f, _, _) () acc -> if List.mem f acc then acc else f :: acc)
        t.cuts []
    in
    t.heals <- t.heals + 1;
    Hashtbl.reset t.cuts;
    List.iter (fire_heal t) (List.sort compare fabrics)
  end

(* True when the node sits on either side of an active cut on [fabric]:
   its NIC still carries its own partition's traffic, but the link as a
   whole is no longer fully connected. *)
let node_in_cut t ~fabric ~node =
  Hashtbl.length t.cuts > 0
  && Hashtbl.fold
       (fun (f, s, d) () acc -> acc || (f = fabric && (s = node || d = node)))
       t.cuts false

let link_up t ~fabric ~node =
  (not (node_in_cut t ~fabric ~node))
  &&
  match Hashtbl.find_opt t.links (fabric, node) with
  | None -> true
  | Some l -> Time.( <= ) l.down_until (Engine.now t.eng)

let epoch t node =
  match Hashtbl.find_opt t.epochs node with Some e -> e | None -> 0

let on_crash t f = t.crash_cbs <- f :: t.crash_cbs
let on_restart t f = t.restart_cbs <- f :: t.restart_cbs

let do_crash t node =
  if node_up t node then begin
    t.crashes <- t.crashes + 1;
    Hashtbl.replace t.node_down node ();
    List.iter (fun cb -> cb node) (List.rev t.crash_cbs)
  end

let do_restart t node =
  if not (node_up t node) then begin
    Hashtbl.remove t.node_down node;
    Hashtbl.replace t.epochs node (epoch t node + 1);
    List.iter (fun cb -> cb node) (List.rev t.restart_cbs)
  end

let schedule_restart t ~node ~at restart_after =
  match restart_after with
  | None -> ()
  | Some span -> Engine.at t.eng (Time.add at span) (fun () -> do_restart t node)

let crash_node t ~node ~at ?restart_after () =
  Engine.at t.eng at (fun () -> do_crash t node);
  schedule_restart t ~node ~at restart_after

let crash_now t ~node ?restart_after () =
  do_crash t node;
  schedule_restart t ~node ~at:(Engine.now t.eng) restart_after

let stall_pci t node ~at ~duration =
  t.stalls <- t.stalls + 1;
  Engine.at t.eng at (fun () ->
      Engine.spawn t.eng ~daemon:true
        ~name:(Printf.sprintf "faults.stall.%s" node.Node.name)
        (fun () ->
          (* A transfer sized to the bus capacity over [duration] with an
             overwhelming weight: fair sharing starves everyone else for
             roughly that long. *)
          let bytes_count =
            int_of_float
              (Netparams.pci_capacity_mb_s *. 1e6 *. Time.to_s duration)
          in
          Fluid.transfer node.Node.pci ~bytes_count:(max 1 bytes_count)
            ~weight:1000.0 ()))

(* Reliable transports ask once per MTU-sized frame and once per ack,
   so a plane with no cut, or no link fault, skips those lookups. *)
let frame_verdict t ~fabric ~src ~dst =
  if Hashtbl.length t.cuts > 0 && partitioned t ~fabric ~src ~dst then begin
    t.frames_cut <- t.frames_cut + 1;
    Drop
  end
  else if not (node_up t src && node_up t dst) then begin
    t.frames_dropped <- t.frames_dropped + 1;
    Drop
  end
  else if Hashtbl.length t.links = 0 then Deliver
  else begin
    let s = Hashtbl.find_opt t.links (fabric, src) in
    let d = Hashtbl.find_opt t.links (fabric, dst) in
    let now = Engine.now t.eng in
    let link_down = function
      | Some l -> Time.( < ) now l.down_until
      | None -> false
    in
    if link_down s || link_down d then begin
      t.frames_dropped <- t.frames_dropped + 1;
      Drop
    end
    else begin
      let get = function
        | Some l -> (l.drop_rate, l.corrupt_rate)
        | None -> (0.0, 0.0)
      in
      let sd, sc = get s and dd, dc = get d in
      let drop_rate = sd +. dd and corrupt_rate = sc +. dc in
      let verdict = ref Deliver in
      if drop_rate > 0.0 || corrupt_rate > 0.0 then begin
        (* One uniform draw decides drop vs corrupt vs survive. *)
        let r = Rng.float t.rng 1.0 in
        if r < drop_rate then verdict := Drop
        else if r < drop_rate +. corrupt_rate then verdict := Corrupt
      end;
      (* Duplication and reordering are whole-frame events: the NIC (or a
         misbehaving switch) replays or delays a frame it did deliver. *)
      if !verdict = Deliver then begin
        let get2 = function
          | Some l -> (l.dup_rate, l.reorder_rate, l.reorder_jitter)
          | None -> (0.0, 0.0, Time.zero)
        in
        let s_dup, s_re, s_jit = get2 s and d_dup, d_re, d_jit = get2 d in
        let dup_rate = s_dup +. d_dup and reorder_rate = s_re +. d_re in
        if dup_rate > 0.0 || reorder_rate > 0.0 then begin
          let r = Rng.float t.rng 1.0 in
          if r < dup_rate then verdict := Duplicate
          else if r < dup_rate +. reorder_rate then begin
            let jitter = max s_jit d_jit in
            let extra =
              max (Time.ns 1) (Time.span_scale jitter (Rng.float t.rng 1.0))
            in
            verdict := Delay extra
          end
        end
      end;
      (match !verdict with
      | Drop -> t.frames_dropped <- t.frames_dropped + 1
      | Corrupt -> t.frames_corrupted <- t.frames_corrupted + 1
      | Duplicate -> t.frames_duplicated <- t.frames_duplicated + 1
      | Delay _ -> t.frames_delayed <- t.frames_delayed + 1
      | Deliver -> ());
      !verdict
    end
  end

(* Heartbeats are one-fragment control frames: they vanish with a down
   node or a flapped link, and are subject to drop rates (but not to
   corruption — a corrupted heartbeat fails its checksum and counts as
   lost at the receiver, which is the same observable outcome). *)
let heartbeat t ?fabric ~src ~dst () =
  let alive = node_up t src && node_up t dst in
  let delivered =
    alive
    &&
    match fabric with
    | None -> true
    | Some fabric ->
        (not (partitioned t ~fabric ~src ~dst))
        &&
        let s = Hashtbl.find_opt t.links (fabric, src) in
        let d = Hashtbl.find_opt t.links (fabric, dst) in
        let now = Engine.now t.eng in
        let link_down = function
          | Some l -> Time.( < ) now l.down_until
          | None -> false
        in
        (not (link_down s || link_down d))
        &&
        let get = function
          | Some l -> l.drop_rate +. l.corrupt_rate
          | None -> 0.0
        in
        let loss = get s +. get d in
        loss <= 0.0 || Rng.float t.rng 1.0 >= loss
  in
  if not delivered then t.heartbeats_lost <- t.heartbeats_lost + 1;
  delivered

let corrupt_copy t b =
  let b = Bytes.copy b in
  if Bytes.length b > 0 then begin
    let i = Rng.int t.rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF))
  end;
  b

let stats t =
  {
    frames_dropped = t.frames_dropped;
    frames_corrupted = t.frames_corrupted;
    frames_duplicated = t.frames_duplicated;
    frames_delayed = t.frames_delayed;
    heartbeats_lost = t.heartbeats_lost;
    crashes = t.crashes;
    flaps = t.flaps;
    stalls = t.stalls;
    partitions = t.partitions;
    heals = t.heals;
    frames_cut = t.frames_cut;
  }
