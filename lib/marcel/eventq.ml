(* Monomorphic 4-ary min-heap on (time, seq) keys, the engine's event
   queue. Keys live in flat [int array]s — virtual times are nanosecond
   counts that fit comfortably in 63-bit immediates — so ordering is two
   native integer compares with no closure call, no [Int64] boxing and
   no polymorphic comparison. Push and take bubble a hole instead of
   swapping, writing each slot once; take clears the vacated action slot
   so popped continuations (and the buffers they capture) are
   collectible immediately. *)

let nop () = ()

type t = {
  mutable times : int array; (* ns; key major *)
  mutable seqs : int array; (* FIFO tie-break; key minor *)
  mutable acts : (unit -> unit) array;
  mutable size : int;
}

let initial_capacity = 256

let create () =
  {
    times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    acts = Array.make initial_capacity nop;
    size = 0;
  }

let length h = h.size
let is_empty h = h.size = 0

let grow h =
  let cap = Array.length h.times in
  let ncap = 2 * cap in
  let times = Array.make ncap 0
  and seqs = Array.make ncap 0
  and acts = Array.make ncap nop in
  Array.blit h.times 0 times 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.acts 0 acts 0 h.size;
  h.times <- times;
  h.seqs <- seqs;
  h.acts <- acts

let push h ~time ~seq act =
  if h.size = Array.length h.times then grow h;
  let times = h.times and seqs = h.seqs and acts = h.acts in
  let t : int = time in
  (* Bubble the hole up from the new leaf; indices stay in [0, size]. *)
  let i = ref h.size in
  h.size <- h.size + 1;
  let placed = ref false in
  while (not !placed) && !i > 0 do
    let p = (!i - 1) / 4 in
    let tp = Array.unsafe_get times p in
    if t < tp || (t = tp && seq < Array.unsafe_get seqs p) then begin
      Array.unsafe_set times !i tp;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set acts !i (Array.unsafe_get acts p);
      i := p
    end
    else placed := true
  done;
  Array.unsafe_set times !i t;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set acts !i act

let min_time_ns h = if h.size = 0 then raise Not_found else Array.unsafe_get h.times 0

let min_time = min_time_ns
let min_seq h = if h.size = 0 then raise Not_found else Array.unsafe_get h.seqs 0

let take h =
  if h.size = 0 then raise Not_found;
  let act = Array.unsafe_get h.acts 0 in
  let n = h.size - 1 in
  h.size <- n;
  let times = h.times and seqs = h.seqs and acts = h.acts in
  if n = 0 then Array.unsafe_set acts 0 nop
  else begin
    (* Re-insert the last element through the hole at the root. *)
    let t = Array.unsafe_get times n
    and s = Array.unsafe_get seqs n
    and a = Array.unsafe_get acts n in
    Array.unsafe_set acts n nop;
    let i = ref 0 in
    let placed = ref false in
    while not !placed do
      let base = (4 * !i) + 1 in
      if base >= n then placed := true
      else begin
        let last = if base + 3 < n - 1 then base + 3 else n - 1 in
        let m = ref base in
        let mt = ref (Array.unsafe_get times base) in
        let ms = ref (Array.unsafe_get seqs base) in
        for c = base + 1 to last do
          let ct = Array.unsafe_get times c in
          if ct < !mt || (ct = !mt && Array.unsafe_get seqs c < !ms) then begin
            m := c;
            mt := ct;
            ms := Array.unsafe_get seqs c
          end
        done;
        if !mt < t || (!mt = t && !ms < s) then begin
          Array.unsafe_set times !i !mt;
          Array.unsafe_set seqs !i !ms;
          Array.unsafe_set acts !i (Array.unsafe_get acts !m);
          i := !m
        end
        else placed := true
      end
    done;
    Array.unsafe_set times !i t;
    Array.unsafe_set seqs !i s;
    Array.unsafe_set acts !i a
  end;
  act
