type 'c hop = { hop_channel : 'c; hop_to : int }

(* A route is its discoverer's route ([prefix], shared, not copied) plus
   one edge hop; [first] caches its first hop. [Empty]: no hop, no route. *)
type 'c route =
  | Empty
  | Hop of { first : 'c hop; last : 'c hop; prefix : 'c route }

type 'c table = 'c route array array (* [src].(dst) *)

type 'c t = {
  channels_of : 'c list array; (* [r]: r's channels, in channel-list order *)
  out : 'c hop list array;
      (* [u]: one hop per edge from [u], channel-list then member order *)
  neighbours : int list array; (* [u]: the distinct [hop_to] of [out.(u)] *)
  base : 'c table; (* the routes at creation *)
  mutable routes : 'c table;
}

(* Breadth-first search from [src] over the edges [down] keeps; the
   first edge to reach a node wins. *)
let row out ~down src =
  let row = Array.make (Array.length out) Empty in
  if out.(src) <> [] && not (down src src) then begin
    let frontier = Queue.create () in
    Queue.push src frontier;
    while not (Queue.is_empty frontier) do
      let u = Queue.pop frontier in
      let prefix = row.(u) in
      List.iter
        (fun h ->
          let v = h.hop_to in
          if v <> src && row.(v) == Empty && not (down u v) then begin
            let first = match prefix with Empty -> h | Hop p -> p.first in
            row.(v) <- Hop { first; last = h; prefix };
            Queue.push v frontier
          end)
        out.(u)
    done
  end;
  row

let table out ~down = Array.init (Array.length out) (row out ~down)

let create ~n channels ~down =
  let rev_channels = Array.make n [] and rev_out = Array.make n [] in
  List.iter
    (fun (c, members) ->
      List.iter
        (fun u ->
          rev_channels.(u) <- c :: rev_channels.(u);
          List.iter
            (fun v ->
              if v <> u then
                rev_out.(u) <- { hop_channel = c; hop_to = v } :: rev_out.(u))
            members)
        members)
    channels;
  let channels_of = Array.map List.rev rev_channels in
  let out = Array.map List.rev rev_out in
  let seen = Array.make n (-1) in
  let first_sight u v = seen.(v) <> u && (seen.(v) <- u; true) in
  let neighbours =
    Array.init n (fun u ->
        List.filter (first_sight u) (List.map (fun h -> h.hop_to) out.(u)))
  in
  let base = table out ~down in
  { channels_of; out; neighbours; base; routes = base }

let mem t r = r >= 0 && r < Array.length t.out && t.channels_of.(r) <> []
let channels_of t r = t.channels_of.(r)
let neighbours t r = t.neighbours.(r)
let same_channel t a b = List.mem b t.neighbours.(a)
let routed t a b = t.routes.(a).(b) != Empty

let next_hop t ~src ~dst =
  match t.routes.(src).(dst) with Hop r -> r.first | Empty -> raise Not_found

let rec via_of acc = function
  | Empty -> acc
  | Hop r -> via_of (r.last.hop_to :: acc) r.prefix

let via t ~src ~dst = via_of [] t.routes.(src).(dst)
let base_length t ~src ~dst = List.length (via_of [] t.base.(src).(dst))

let first_hop t ~down ~src ~dst =
  match (row t.out ~down src).(dst) with Hop r -> Some r.first | Empty -> None

let recompute ?(overloaded = [||]) t ~down =
  let fresh = table t.out ~down in
  if Array.exists Fun.id overloaded then
    Array.iteri
      (fun src ->
        Array.iteri (fun dst r -> if r != Empty then fresh.(src).(dst) <- r))
      (table t.out ~down:(fun u n -> down u n || overloaded.(n)));
  t.routes <- fresh

let routes t = t.routes

(* Every edge is one hop record, so two routes are the same iff they
   take the same records. *)
let rec same a b =
  match (a, b) with
  | Hop a, Hop b -> a.last == b.last && same a.prefix b.prefix
  | a, b -> a == b

let changed t ~before src dst =
  not (same before.(src).(dst) t.routes.(src).(dst))
