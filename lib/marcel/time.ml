type t = int
type span = int

let zero = 0
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : int) (b : int) = Stdlib.( <= ) a b
let ( < ) (a : int) (b : int) = Stdlib.( < ) a b

let add t d =
  if Stdlib.( < ) (d : int) 0 then invalid_arg "Time.add: negative span";
  t + d

let diff later earlier =
  let d = later - earlier in
  if Stdlib.( < ) (d : int) 0 then invalid_arg "Time.diff: negative result";
  d

let ns n =
  if Stdlib.( < ) (n : int) 0 then invalid_arg "Time.ns: negative";
  n

let of_float_ns f =
  if Stdlib.( < ) f 0.0 then invalid_arg "Time: negative span";
  int_of_float (Float.round f)

let us f = of_float_ns (f *. 1e3)
let ms f = of_float_ns (f *. 1e6)
let s f = of_float_ns (f *. 1e9)

let span_add = add

let span_mul d k =
  if Stdlib.( < ) (k : int) 0 then invalid_arg "Time.span_mul: negative factor";
  d * k

let span_scale d f = of_float_ns (float_of_int d *. f)

let to_ns t = t
let to_us t = float_of_int t /. 1e3
let to_s t = float_of_int t /. 1e9

let bytes_at_rate ~bytes_count ~mb_per_s =
  if Stdlib.( <= ) mb_per_s 0.0 then invalid_arg "Time.bytes_at_rate: rate <= 0";
  of_float_ns (float_of_int bytes_count /. mb_per_s *. 1e3)

let rate_mb_s ~bytes_count span =
  if Int.equal span 0 then invalid_arg "Time.rate_mb_s: zero span";
  float_of_int bytes_count /. (float_of_int span /. 1e3)

let pp ppf t =
  let f = float_of_int t in
  if Stdlib.( < ) f 1e3 then Format.fprintf ppf "%dns" t
  else if Stdlib.( < ) f 1e6 then Format.fprintf ppf "%.2fus" (f /. 1e3)
  else if Stdlib.( < ) f 1e9 then Format.fprintf ppf "%.3fms" (f /. 1e6)
  else Format.fprintf ppf "%.3fs" (f /. 1e9)
