(* Growable sample buffers and order statistics (linearly interpolated
   quantiles, the convention of numpy's default and of R type 7). *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 64 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let d = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 d 0 t.len;
    t.data <- d
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do
    s := !s +. t.data.(i)
  done;
  !s

let sorted_of_array a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* [p] in [0, 1]; 0.0 on an empty sample. *)
let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile t p = quantile_sorted (sorted_of_array (Array.sub t.data 0 t.len)) p

let quantiles_of_list l ps =
  let a = sorted_of_array (Array.of_list l) in
  List.map (quantile_sorted a) ps

let median_of_list l = List.hd (quantiles_of_list l [ 0.5 ])
