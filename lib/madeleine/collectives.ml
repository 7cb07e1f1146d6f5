(* Fault-tolerant collectives over virtual channels (ROADMAP item;
   Yu et al.'s NIC-based combining is the hardware reference point).

   The layer builds epoch-numbered spanning trees from the *physical*
   topology — every tree edge is a single fabric link, taken from the
   channel membership graph — so the interior nodes of a tree are
   genuine gateways, and partial reduction happens in the forwarding
   path: a gateway merges its children's contributions and sends one
   combined payload upward, the software analogue of combining in the
   NIC. A flat baseline ([algo = Flat]) sends every leaf payload
   straight to the root instead; the contrast is the measured
   log-vs-linear scaling figure.

   Robustness is generation-based. Every liveness transition the
   vchannel acts on (crash, restart, suspicion raised or cleared,
   Overloaded watermark edge, topology epoch swap) bumps the layer's
   repair generation through {!Vchannel.set_on_health_change}.
   Contributions are aggregated per (node, generation): a bump
   abandons the partial aggregates of the old generation, wakes every
   parked participant, and re-sends contributions under a fresh tree —
   so no rank is ever counted twice within the generation that
   decides. The root's decision is journalled per collective id
   (first decision wins, modelling the crash-epoch stable journal of
   the reliability plane): a restarted rank re-joining an already
   decided collective gets the journalled value back instead of
   re-opening the aggregation, which is what makes contributions
   exactly-once across a crash/restart cycle. *)

module Engine = Marcel.Engine
module Time = Marcel.Time

exception Collective_failed of string

type algo = Tree | Flat

(* ------------------------------------------------------------------ *)
(* Spanning trees *)

type tree = {
  tr_root : int;
  tr_parent : (int, int) Hashtbl.t; (* child -> parent *)
  tr_children : (int, int list) Hashtbl.t;
  tr_size : (int, int) Hashtbl.t; (* node -> live ranks in its subtree *)
  tr_members : int list; (* reachable live ranks, BFS attach order *)
  tr_depth : int;
}

type kind =
  | K_reduce of (Bytes.t -> Bytes.t -> Bytes.t)
  | K_bcast
  | K_a2a

(* Per-(node, generation) partial aggregate. [a_from] keys the
   immediate contributor (a tree child's rank, or the node itself for
   its own value): a second contribution from the same child within
   one generation is a duplicate and is dropped whole, never merged. *)
type agg = {
  mutable a_value : Bytes.t option;
  mutable a_count : int; (* leaf contributions combined so far *)
  mutable a_forwarded : bool;
  a_from : (int, unit) Hashtbl.t;
}

type inst = {
  i_id : int;
  i_kind : kind;
  i_root : int; (* preferred root; re-roots to the lowest live rank *)
  i_acc : (int * int, agg) Hashtbl.t; (* (node, generation) *)
  i_done : (int, Bytes.t) Hashtbl.t; (* decision as delivered at each node *)
  mutable i_decided : Bytes.t option; (* the root's journal: first wins *)
  i_blocks : (int * int, Bytes.t) Hashtbl.t; (* a2a: (node, origin) *)
  mutable i_waiters : (unit -> unit) list;
}

type t = {
  vc : Vchannel.t;
  engine : Engine.t;
  algo : algo;
  fanout : int;
  quorum : int;
  patience : Time.span;
  mutable generation : int;
  trees : (int * int, tree) Hashtbl.t; (* (generation, root) *)
  insts : (int, inst) Hashtbl.t;
  cursors : (int, int ref) Hashtbl.t; (* per-rank next collective id *)
  mutable gen_waiters : (unit -> unit) list;
  mutable st_packets : int;
  mutable st_combined : int;
  mutable st_root_contribs : int;
  mutable st_dup_suppressed : int;
  mutable st_journal_answers : int;
  mutable st_repairs : int;
  mutable st_last_depth : int;
  mutable st_last_rounds : int;
  mutable st_last_covered : int list;
}

let live_members t = List.filter (Vchannel.rank_alive t.vc) (Vchannel.ranks t.vc)

let lowest = function [] -> -1 | r :: rest -> List.fold_left min r rest

(* Deterministic fanout-capped BFS over the physical neighbour graph,
   restricted to live ranks. Two passes, mirroring the route
   recomputation's overload overlay: the first lets only non-overloaded
   nodes relay (an Overloaded gateway may hang off the tree as a leaf
   but never sits on the spine); the second relaxes that only for live
   ranks the first pass could not reach at all — availability beats
   load shedding, never the other way around. The fanout is a soft
   cap for the same reason: a rank whose only physical parents are
   saturated still gets attached (see the mop-up loop below). Ranks
   with no physical path to the root are left out of [tr_members]
   entirely: they could not carry a packet either way. *)
let build_tree t ~root =
  let vc = t.vc in
  let live = live_members t in
  let root =
    if List.mem root live then root
    else match live with [] -> root | _ -> lowest live
  in
  let alive = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace alive r ()) live;
  let parent = Hashtbl.create 16 in
  let children = Hashtbl.create 16 in
  let attached = Hashtbl.create 16 in
  Hashtbl.replace attached root ();
  let order = ref [ root ] in
  let kids u =
    match Hashtbl.find_opt children u with Some l -> l | None -> []
  in
  (* Candidate children in degree order, highest first (rank breaks
     ties): a gateway sits on several channels and so has more
     neighbours than a leaf-only rank. Attaching gateways first makes
     the capped BFS fan out across clusters instead of filling the
     root's slots with same-channel leaves and leaving every other
     cluster to the forced-attach path — which would chain the
     gateways into an O(clusters)-deep spine. *)
  let neighbours_by_degree u =
    Vchannel.neighbours vc u
    |> List.map (fun r -> (-List.length (Vchannel.neighbours vc r), r))
    |> List.sort compare |> List.map snd
  in
  let add_child u v =
    Hashtbl.replace children u (kids u @ [ v ]);
    Hashtbl.replace parent v u;
    Hashtbl.replace attached v ();
    order := v :: !order
  in
  (match t.algo with
  | Flat ->
      List.iter
        (fun v -> if v <> root && Hashtbl.mem alive v then add_child root v)
        (Vchannel.ranks vc)
  | Tree ->
      let pass ~relay_ok =
        let frontier = Queue.create () in
        List.iter
          (fun u -> if relay_ok u then Queue.push u frontier)
          (List.rev !order);
        while not (Queue.is_empty frontier) do
          let u = Queue.pop frontier in
          List.iter
            (fun v ->
              if
                Hashtbl.mem alive v
                && (not (Hashtbl.mem attached v))
                && List.length (kids u) < t.fanout
              then begin
                add_child u v;
                if relay_ok v then Queue.push v frontier
              end)
            (neighbours_by_degree u)
        done
      in
      pass ~relay_ok:(fun r ->
          r = root || not (Vchannel.rank_overloaded vc r));
      if List.length !order < List.length live then
        pass ~relay_ok:(fun _ -> true);
      (* Coverage beats the cap: a rank whose every physical neighbour
         is saturated (e.g. backbone gateways that only touch the root)
         is force-attached to its least-loaded attached neighbour, then
         the capped BFS resumes so the subtree it opens grows with the
         normal shape. Terminates: each round attaches at least one
         rank or stops. *)
      let progress = ref true in
      while !progress && List.length !order < List.length live do
        progress := false;
        (match
           List.find_opt
             (fun v ->
               (not (Hashtbl.mem attached v))
               && List.exists
                    (fun u -> Hashtbl.mem attached u)
                    (Vchannel.neighbours vc v))
             live
         with
        | Some v ->
            let best =
              List.fold_left
                (fun acc u ->
                  if not (Hashtbl.mem attached u) then acc
                  else
                    match acc with
                    | Some b when List.length (kids b) <= List.length (kids u)
                      ->
                        acc
                    | _ -> Some u)
                None
                (Vchannel.neighbours vc v)
            in
            (match best with
            | Some u ->
                add_child u v;
                progress := true
            | None -> ())
        | None -> ());
        if !progress then pass ~relay_ok:(fun _ -> true)
      done);
  let members = List.rev !order in
  let size = Hashtbl.create 16 in
  List.iter (fun u -> Hashtbl.replace size u 1) members;
  (* [!order] is reverse BFS order, so every child is folded into its
     parent before the parent is folded into the grandparent. *)
  List.iter
    (fun u ->
      match Hashtbl.find_opt parent u with
      | Some p -> Hashtbl.replace size p (Hashtbl.find size p + Hashtbl.find size u)
      | None -> ())
    !order;
  let depth =
    List.fold_left
      (fun acc u ->
        let rec up v d =
          match Hashtbl.find_opt parent v with
          | Some p -> up p (d + 1)
          | None -> d
        in
        max acc (up u 0))
      0 members
  in
  {
    tr_root = root;
    tr_parent = parent;
    tr_children = children;
    tr_size = size;
    tr_members = members;
    tr_depth = depth;
  }

let tree_for t ~root gen =
  match Hashtbl.find_opt t.trees (gen, root) with
  | Some tree -> tree
  | None ->
      let tree = build_tree t ~root in
      Hashtbl.add t.trees (gen, root) tree;
      tree

let children_of tree u =
  match Hashtbl.find_opt tree.tr_children u with Some l -> l | None -> []

(* ------------------------------------------------------------------ *)
(* Wire encoding: byte 0 kind, 1-4 collective id, 5-8 generation,
   9-12 combined-contribution count, 13.. operand bytes. *)

let k_contrib = 1
let k_done = 2
let k_a2a = 3

(* A decision probe: relayed rootward along tree parents until it
   reaches a node already holding the decision, which answers from its
   journal. This is how a subtree that was cut off while the
   collective decided (its gateway crashed) learns the outcome — the
   completed ranks will never re-contribute, so waiting for subtree
   counts alone would park the stragglers forever. *)
let k_pull = 4
let col_hdr = 13

let encode ~kind ~id ~gen ~count value =
  let b = Bytes.create (col_hdr + Bytes.length value) in
  Bytes.set b 0 (Char.chr kind);
  Bytes.set_int32_le b 1 (Int32.of_int id);
  Bytes.set_int32_le b 5 (Int32.of_int gen);
  Bytes.set_int32_le b 9 (Int32.of_int count);
  Bytes.blit value 0 b col_hdr (Bytes.length value);
  b

let ship t ~src ~dst ~kind ~id ~gen ~count value =
  t.st_packets <- t.st_packets + 1;
  Vchannel.send_col t.vc ~src ~dst (encode ~kind ~id ~gen ~count value)

(* ------------------------------------------------------------------ *)
(* Waiting and repair generations *)

let wake_inst inst =
  let ws = inst.i_waiters in
  inst.i_waiters <- [];
  List.iter (fun w -> w ()) ws

let bump t =
  t.generation <- t.generation + 1;
  t.st_repairs <- t.st_repairs + 1;
  let ws = t.gen_waiters in
  t.gen_waiters <- [];
  List.iter (fun w -> w ()) ws

(* Park until the instance makes progress, the generation changes, or
   the deadline passes — whichever comes first. *)
let wait_change t inst ~deadline =
  Engine.suspend ~name:"collectives.wait" (fun wake ->
      inst.i_waiters <- wake :: inst.i_waiters;
      t.gen_waiters <- wake :: t.gen_waiters;
      Engine.at t.engine deadline wake)

(* Park until [progressed ()], a generation change, or the deadline —
   and only report a timeout when the deadline genuinely passed. The
   instance's waiters wake on progress at {e any} node (the layer is
   one shared protocol state), so a participant can be woken many
   times without local progress; those wakes re-park on the {e same}
   deadline instead of counting as patience expiries. Returns [true]
   on progress or a generation change, [false] on a real timeout. *)
let wait_progress t inst ~gen ~progressed =
  let deadline = Time.add (Engine.now t.engine) t.patience in
  let rec park () =
    wait_change t inst ~deadline;
    if progressed () || t.generation <> gen then true
    else if Time.( < ) (Engine.now t.engine) deadline then park ()
    else false
  in
  park ()

(* ------------------------------------------------------------------ *)
(* The aggregation protocol *)

let agg_for inst ~node ~gen =
  match Hashtbl.find_opt inst.i_acc (node, gen) with
  | Some a -> a
  | None ->
      let a =
        { a_value = None; a_count = 0; a_forwarded = false;
          a_from = Hashtbl.create 4 }
      in
      Hashtbl.add inst.i_acc (node, gen) a;
      a

(* Deliver the decision at [me] and push it one tree level down; each
   receiving node repeats, so one decision floods the deciding tree. *)
let rec deliver_done t inst ~me ~gen value =
  if not (Hashtbl.mem inst.i_done me) then begin
    Hashtbl.replace inst.i_done me value;
    wake_inst inst;
    let tree = tree_for t ~root:inst.i_root gen in
    List.iter
      (fun child ->
        ship t ~src:me ~dst:child ~kind:k_done ~id:inst.i_id ~gen ~count:0
          value)
      (children_of tree me)
  end

and decide t inst ~me ~gen tree value =
  if inst.i_decided = None then begin
    inst.i_decided <- Some value;
    t.st_last_depth <- tree.tr_depth;
    t.st_last_rounds <- 2 * max tree.tr_depth 1;
    t.st_last_covered <- List.sort compare tree.tr_members;
    deliver_done t inst ~me ~gen value
  end

and check_complete t inst ~node ~gen tree agg =
  let expected =
    match Hashtbl.find_opt tree.tr_size node with Some n -> n | None -> 0
  in
  if expected > 0 && agg.a_count >= expected && not agg.a_forwarded then begin
    agg.a_forwarded <- true;
    let value =
      match agg.a_value with Some v -> v | None -> Bytes.create 0
    in
    if node = tree.tr_root then decide t inst ~me:node ~gen tree value
    else
      match Hashtbl.find_opt tree.tr_parent node with
      | Some p ->
          ship t ~src:node ~dst:p ~kind:k_contrib ~id:inst.i_id ~gen
            ~count:agg.a_count value
      | None -> ()
  end

(* Merge a contribution at [node]: [from] is the immediate contributor
   (a tree child, or the node itself), [count] how many leaf values it
   already combines. Within one generation the children's subtrees are
   disjoint, so counts add; a repeated [from] is a duplicate and is
   suppressed whole. *)
and merge_contrib t inst ~node ~gen ~from ~count value =
  let tree = tree_for t ~root:inst.i_root gen in
  if Hashtbl.mem tree.tr_size node then begin
    let agg = agg_for inst ~node ~gen in
    if Hashtbl.mem agg.a_from from then
      t.st_dup_suppressed <- t.st_dup_suppressed + 1
    else begin
      Hashtbl.replace agg.a_from from ();
      if agg.a_count > 0 && node <> tree.tr_root then
        t.st_combined <- t.st_combined + 1;
      agg.a_count <- agg.a_count + count;
      (match inst.i_kind with
      | K_reduce op ->
          agg.a_value <-
            (match agg.a_value with
            | None -> Some value
            | Some v -> Some (op v value))
      | K_bcast | K_a2a -> ());
      check_complete t inst ~node ~gen tree agg
    end
  end

(* The vchannel dispatcher hands every [col] payload that reaches a
   live rank to this handler. *)
let on_col t ~me ~origin payload =
  if Bytes.length payload >= col_hdr then begin
    let kind = Char.code (Bytes.get payload 0) in
    let id = Int32.to_int (Bytes.get_int32_le payload 1) in
    let gen = Int32.to_int (Bytes.get_int32_le payload 5) in
    let count = Int32.to_int (Bytes.get_int32_le payload 9) in
    let value =
      Bytes.sub payload col_hdr (Bytes.length payload - col_hdr)
    in
    match Hashtbl.find_opt t.insts id with
    | None -> () (* stray packet for a collective nobody opened here *)
    | Some inst ->
        if kind = k_done then deliver_done t inst ~me ~gen value
        else if kind = k_pull then begin
          match Hashtbl.find_opt inst.i_done me with
          | Some v ->
              t.st_journal_answers <- t.st_journal_answers + 1;
              ship t ~src:me ~dst:origin ~kind:k_done ~id ~gen ~count:0 v
          | None ->
              (* Not decided here either: relay the probe rootward under
                 the current generation. The answer comes back to this
                 node and the k_done flood carries it on down. *)
              if gen = t.generation then begin
                let tree = tree_for t ~root:inst.i_root gen in
                match Hashtbl.find_opt tree.tr_parent me with
                | Some p ->
                    ship t ~src:me ~dst:p ~kind:k_pull ~id ~gen ~count:0
                      (Bytes.create 0)
                | None -> ()
              end
        end
        else if kind = k_a2a then begin
          Hashtbl.replace inst.i_blocks (me, origin) value;
          wake_inst inst
        end
        else if kind = k_contrib then begin
          match (inst.i_decided, Hashtbl.find_opt inst.i_done me) with
          | Some _, Some v ->
              (* Late contribution to a decided collective (a restarted
                 rank re-joining): answer from the decision journal —
                 the value is final, so the contribution is not counted
                 again. This is the exactly-once path. *)
              t.st_journal_answers <- t.st_journal_answers + 1;
              ship t ~src:me ~dst:origin ~kind:k_done ~id ~gen ~count:0 v
          | _ ->
              if gen = t.generation then begin
                match inst.i_kind with
                | K_bcast ->
                    (* A pull from a rank still missing the broadcast:
                       relay it rootward; whoever holds the value on the
                       way answers via the journal branch above. *)
                    let tree = tree_for t ~root:inst.i_root gen in
                    (match Hashtbl.find_opt tree.tr_parent me with
                    | Some p ->
                        ship t ~src:me ~dst:p ~kind:k_contrib ~id ~gen
                          ~count:0 (Bytes.create 0)
                    | None -> ())
                | K_reduce _ | K_a2a ->
                    let tree = tree_for t ~root:inst.i_root gen in
                    if me = tree.tr_root then
                      t.st_root_contribs <- t.st_root_contribs + 1;
                    merge_contrib t inst ~node:me ~gen ~from:origin ~count
                      value
              end
        end
  end

(* ------------------------------------------------------------------ *)
(* Participant loops *)

let memo table key mk =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
      let v = mk () in
      Hashtbl.add table key v;
      v

let inst_for t id kind root =
  memo t.insts id (fun () ->
      {
        i_id = id;
        i_kind = kind;
        i_root = root;
        i_acc = Hashtbl.create 8;
        i_done = Hashtbl.create 8;
        i_decided = None;
        i_blocks = Hashtbl.create 8;
        i_waiters = [];
      })

let cursor t ~me = memo t.cursors me (fun () -> ref 0)

let max_attempts = 32

(* Patience ran out inside one stable generation: either the survivors
   no longer form a quorum, or some loss went unnoticed by the
   sentinels. Fail typed below quorum or after [max_attempts] stalls;
   otherwise force a repair generation, after which the caller
   re-sends. On an election-enabled vchannel a rank cut onto a minority
   side must fail fast, first: the shared snapshot's live-member count
   never drops below quorum *for it* (membership is global), so the
   generic quorum test would keep bumping repair generations into the
   partition until [max_attempts]. *)
let stalled t inst ~me attempts =
  let fail fmt = Printf.ksprintf (fun m -> raise (Collective_failed m)) fmt in
  incr attempts;
  if not (Vchannel.has_quorum t.vc ~viewer:me) then
    fail
      "collective %d: rank %d cannot reach a membership quorum (partitioned \
       minority)"
      inst.i_id me;
  let live = List.length (live_members t) in
  if live < t.quorum then
    fail "collective %d: %d live ranks remain, quorum is %d" inst.i_id live
      t.quorum;
  if !attempts >= max_attempts then
    fail "collective %d: no progress at rank %d after %d repair attempts"
      inst.i_id me !attempts;
  bump t

(* Reduce-family participant (barrier, reduce, allreduce): contribute
   under the current generation, park; on a repair generation re-send
   under the fresh tree; on the decision's arrival return it. A dead
   rank's thread parks here until its restart bumps the generation. *)
let run_reduce t inst ~me value =
  let attempts = ref 0 in
  let rec go () =
    match Hashtbl.find_opt inst.i_done me with
    | Some v -> v
    | None ->
        let gen = t.generation in
        if Vchannel.rank_alive t.vc me then begin
          let tree = tree_for t ~root:inst.i_root gen in
          if Hashtbl.mem tree.tr_size me then begin
            let agg = agg_for inst ~node:me ~gen in
            if not (Hashtbl.mem agg.a_from me) then
              merge_contrib t inst ~node:me ~gen ~from:me ~count:1 value
          end
        end;
        if Hashtbl.mem inst.i_done me then go ()
        else if
          wait_progress t inst ~gen ~progressed:(fun () ->
              Hashtbl.mem inst.i_done me)
        then go ()
        else begin
          stalled t inst ~me attempts;
          (* The stall may mean the collective decided while this
             rank's subtree was cut off — probe rootward; a node
             holding the decision answers from its journal. *)
          let gen = t.generation in
          if Vchannel.rank_alive t.vc me then begin
            let tree = tree_for t ~root:inst.i_root gen in
            match Hashtbl.find_opt tree.tr_parent me with
            | Some p ->
                ship t ~src:me ~dst:p ~kind:k_pull ~id:inst.i_id ~gen
                  ~count:0 (Bytes.create 0)
            | None -> ()
          end;
          go ()
        end
  in
  go ()

let run_bcast t inst ~me value_opt =
  let attempts = ref 0 in
  (match (value_opt, inst.i_decided) with
  | Some v, None when me = inst.i_root ->
      let gen = t.generation in
      let tree = tree_for t ~root:inst.i_root gen in
      decide t inst ~me ~gen tree v
  | _ -> ());
  let rec go () =
    match Hashtbl.find_opt inst.i_done me with
    | Some v -> v
    | None ->
        let gen = t.generation in
        if Vchannel.rank_alive t.vc me then begin
          let tree = tree_for t ~root:inst.i_root gen in
          match Hashtbl.find_opt tree.tr_parent me with
          | Some p ->
              ship t ~src:me ~dst:p ~kind:k_contrib ~id:inst.i_id ~gen
                ~count:0 (Bytes.create 0)
          | None -> ()
        end;
        if
          wait_progress t inst ~gen ~progressed:(fun () ->
              Hashtbl.mem inst.i_done me)
        then go ()
        else begin
          stalled t inst ~me attempts;
          go ()
        end
  in
  go ()

let run_a2a t inst ~me blocks =
  let attempts = ref 0 in
  let sent = Hashtbl.create 8 in
  (match List.assoc_opt me blocks with
  | Some b -> Hashtbl.replace inst.i_blocks (me, me) b
  | None -> ());
  let push_blocks () =
    if Vchannel.rank_alive t.vc me then begin
      let gen = t.generation in
      List.iter
        (fun p ->
          if p <> me && not (Hashtbl.mem sent (gen, p)) then begin
            Hashtbl.replace sent (gen, p) ();
            match List.assoc_opt p blocks with
            | Some b -> ship t ~src:me ~dst:p ~kind:k_a2a ~id:inst.i_id ~gen ~count:0 b
            | None -> ()
          end)
        (live_members t)
    end
  in
  let complete () =
    List.for_all
      (fun p -> p = me || Hashtbl.mem inst.i_blocks (me, p))
      (live_members t)
  in
  let collect () =
    List.filter_map
      (fun p ->
        match Hashtbl.find_opt inst.i_blocks (me, p) with
        | Some b -> Some (p, b)
        | None -> None)
      (List.sort compare (live_members t))
  in
  let rec go () =
    push_blocks ();
    if complete () then collect ()
    else begin
      let gen = t.generation in
      if wait_progress t inst ~gen ~progressed:complete then go ()
      else begin
        stalled t inst ~me attempts;
        go ()
      end
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Public verbs. Ranks must issue the same sequence of collectives:
   each rank's cursor numbers its calls, and the number is the
   collective id the wire protocol matches on (the usual MPI ordering
   contract). The cursor only advances on completion, so a restarted
   rank re-entering its interrupted call re-joins the same id. *)

let finish t ~me result =
  incr (cursor t ~me);
  result

let default_root t = lowest (Vchannel.ranks t.vc)

let barrier t ~me =
  let id = !(cursor t ~me) in
  let inst =
    inst_for t id (K_reduce (fun a _ -> a)) (default_root t)
  in
  let (_ : Bytes.t) = run_reduce t inst ~me (Bytes.create 0) in
  finish t ~me ()

let reduce t ~me ~root ~op value =
  let id = !(cursor t ~me) in
  let inst = inst_for t id (K_reduce op) root in
  finish t ~me (run_reduce t inst ~me value)

let allreduce t ~me ~op value =
  let id = !(cursor t ~me) in
  let inst = inst_for t id (K_reduce op) (default_root t) in
  finish t ~me (run_reduce t inst ~me value)

let bcast t ~me ~root value_opt =
  let id = !(cursor t ~me) in
  let inst = inst_for t id K_bcast root in
  finish t ~me (run_bcast t inst ~me value_opt)

let alltoall t ~me blocks =
  let id = !(cursor t ~me) in
  let inst = inst_for t id K_a2a (default_root t) in
  finish t ~me (run_a2a t inst ~me blocks)

(* ------------------------------------------------------------------ *)

let create ?(algo = Tree) ?(fanout = 4) ?(quorum = 1) ?patience vc =
  if fanout < 2 then invalid_arg "Collectives.create: fanout must be >= 2";
  if quorum < 1 then invalid_arg "Collectives.create: quorum must be >= 1";
  let patience =
    match patience with
    | Some p -> p
    | None -> Config.default_route_patience
  in
  let t =
    {
      vc;
      engine = Vchannel.engine vc;
      algo;
      fanout;
      quorum;
      patience;
      generation = 0;
      trees = Hashtbl.create 8;
      insts = Hashtbl.create 16;
      cursors = Hashtbl.create 16;
      gen_waiters = [];
      st_packets = 0;
      st_combined = 0;
      st_root_contribs = 0;
      st_dup_suppressed = 0;
      st_journal_answers = 0;
      st_repairs = 0;
      st_last_depth = 0;
      st_last_rounds = 0;
      st_last_covered = [];
    }
  in
  Vchannel.set_on_col vc (fun ~me ~origin payload ->
      on_col t ~me ~origin payload);
  Vchannel.set_on_health_change vc (fun () -> bump t);
  t

let algo t = t.algo
let quorum t = t.quorum
let generation t = t.generation

type stats = {
  packets : int;
  combined : int;
  root_contribs : int;
  dup_suppressed : int;
  journal_answers : int;
  repairs : int;
  generation : int;
  last_depth : int;
  last_rounds : int;
  last_covered : int list;
}

let stats t =
  {
    packets = t.st_packets;
    combined = t.st_combined;
    root_contribs = t.st_root_contribs;
    dup_suppressed = t.st_dup_suppressed;
    journal_answers = t.st_journal_answers;
    repairs = t.st_repairs;
    generation = t.generation;
    last_depth = t.st_last_depth;
    last_rounds = t.st_last_rounds;
    last_covered = t.st_last_covered;
  }

let tree_spine t =
  let tree = tree_for t ~root:(default_root t) t.generation in
  List.filter_map
    (fun r ->
      match Hashtbl.find_opt tree.tr_parent r with
      | Some p -> Some (r, p)
      | None -> None)
    tree.tr_members
