(* Sender-side registration (pin-down) cache, after the MPICH2-over-
   InfiniBand design: registering a buffer for zero-copy RDMA costs a
   base charge plus a per-page walk, so the cache keeps recently used
   registrations alive and amortizes the pin across reuse. Entries are
   (buffer, interval) pairs in LRU order; a lookup that lands inside a
   cached interval is a hit, a partial overlap merges the old interval
   and the request into one hull registration (one pin, never two
   overlapping ones), and capacity pressure evicts cold entries,
   deregistering them. Buffers are identified physically ([==]): the
   cache answers "is THIS buffer still pinned", not "does an equal byte
   string exist" — structural comparison would false-hit on distinct
   buffers with equal contents and is O(len) per probe besides. *)

type 'r entry = {
  e_mem : Bytes.t;
  mutable e_pos : int;
  mutable e_len : int;
  mutable e_reg : 'r;
  mutable e_refs : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  merges : int;
  pinned_bytes : int;
  entries : int;
}

type 'r t = {
  capacity : int;
  max_bytes : int option;
  register : Bytes.t -> pos:int -> len:int -> 'r;
  deregister : 'r -> unit;
  mutable lru : 'r entry list; (* MRU first *)
  mutable pinned : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable merges : int;
}

let create ?(entries = 0) ?bytes ~register ~deregister () =
  if entries < 0 then invalid_arg "Regcache.create: negative capacity";
  (match bytes with
  | Some b when b <= 0 -> invalid_arg "Regcache.create: bytes cap <= 0"
  | _ -> ());
  {
    capacity = entries;
    max_bytes = bytes;
    register;
    deregister;
    lru = [];
    pinned = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    merges = 0;
  }

let handle e = e.e_reg
let interval e = (e.e_pos, e.e_len)

let covers e mem ~pos ~len =
  e.e_mem == mem && e.e_pos <= pos && pos + len <= e.e_pos + e.e_len

let overlaps e mem ~pos ~len =
  e.e_mem == mem && pos < e.e_pos + e.e_len && e.e_pos < pos + len

(* Evict idle entries from the cold end until both caps hold. Entries
   still referenced by an in-flight transfer are skipped: their pages
   must stay pinned until the done-flag, whatever the pressure. *)
let shrink t =
  let over () =
    List.length t.lru > t.capacity
    || match t.max_bytes with Some b -> t.pinned > b | None -> false
  in
  let rec coldest_idle = function
    | [] -> None
    | e :: rest -> (
        match coldest_idle rest with
        | Some _ as found -> found
        | None -> if e.e_refs = 0 then Some e else None)
  in
  let evict_coldest_idle lru =
    match coldest_idle lru with
    | None -> false
    | Some e ->
        t.lru <- List.filter (fun x -> x != e) t.lru;
        t.pinned <- t.pinned - e.e_len;
        t.evictions <- t.evictions + 1;
        t.deregister e.e_reg;
        true
  in
  let rec go () = if over () && evict_coldest_idle t.lru then go () in
  go ()

let touch t e = t.lru <- e :: List.filter (fun x -> x != e) t.lru

let acquire t mem ~pos ~len =
  if pos < 0 || len <= 0 || pos > Bytes.length mem - len then
    invalid_arg "Regcache.acquire: bad range";
  if t.capacity = 0 then begin
    (* Degenerate cache: register-per-send, release deregisters. *)
    t.misses <- t.misses + 1;
    let reg = t.register mem ~pos ~len in
    { e_mem = mem; e_pos = pos; e_len = len; e_reg = reg; e_refs = 1 }
  end
  else
    match List.find_opt (fun e -> covers e mem ~pos ~len) t.lru with
    | Some e ->
        t.hits <- t.hits + 1;
        e.e_refs <- e.e_refs + 1;
        touch t e;
        e
    | None -> (
        (* Partial overlap: replace every idle overlapping entry and the
           request by one hull registration, so the overlap is never
           pinned twice. Busy overlapping entries keep their pins (their
           transfer depends on them); the hull still covers the request,
           so correctness is unaffected — only a transient double pin. *)
        let idle_overlaps =
          List.filter (fun e -> overlaps e mem ~pos ~len && e.e_refs = 0) t.lru
        in
        match idle_overlaps with
        | [] ->
            t.misses <- t.misses + 1;
            let reg = t.register mem ~pos ~len in
            let e =
              { e_mem = mem; e_pos = pos; e_len = len; e_reg = reg; e_refs = 1 }
            in
            t.lru <- e :: t.lru;
            t.pinned <- t.pinned + len;
            shrink t;
            e
        | olaps ->
            t.merges <- t.merges + 1;
            t.misses <- t.misses + 1;
            let lo =
              List.fold_left (fun acc e -> min acc e.e_pos) pos olaps
            and hi =
              List.fold_left
                (fun acc e -> max acc (e.e_pos + e.e_len))
                (pos + len) olaps
            in
            List.iter
              (fun e ->
                t.lru <- List.filter (fun x -> x != e) t.lru;
                t.pinned <- t.pinned - e.e_len;
                t.deregister e.e_reg)
              olaps;
            let reg = t.register mem ~pos:lo ~len:(hi - lo) in
            let e =
              {
                e_mem = mem;
                e_pos = lo;
                e_len = hi - lo;
                e_reg = reg;
                e_refs = 1;
              }
            in
            t.lru <- e :: t.lru;
            t.pinned <- t.pinned + e.e_len;
            shrink t;
            e)

let release t e =
  if e.e_refs <= 0 then invalid_arg "Regcache.release: not acquired";
  e.e_refs <- e.e_refs - 1;
  if t.capacity = 0 then t.deregister e.e_reg
  else if e.e_refs = 0 then shrink t

let flush t =
  let busy, idle = List.partition (fun e -> e.e_refs > 0) t.lru in
  List.iter
    (fun e ->
      t.pinned <- t.pinned - e.e_len;
      t.evictions <- t.evictions + 1;
      t.deregister e.e_reg)
    idle;
  t.lru <- busy

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    merges = t.merges;
    pinned_bytes = t.pinned;
    entries = List.length t.lru;
  }
