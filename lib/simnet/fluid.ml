module Engine = Marcel.Engine
module Time = Marcel.Time

(* The mutable float state of a transfer lives in its own all-float
   record: OCaml stores those flat, so crediting progress or setting a
   rate is a plain store instead of a boxed-float allocation. [cap] is
   [infinity] when the transfer is uncapped ([capped] = false); the
   separate flag keeps the capped/uncapped distinction exact. *)
type fl = {
  weight : float;
  cap : float; (* MB/s; infinity when not capped *)
  mutable remaining : float; (* bytes *)
  mutable rate : float; (* MB/s, current allocation *)
}

type xfer = {
  fl : fl;
  capped : bool;
  cls : int; (* transaction class; mixing classes degrades the bus *)
  on_done : unit -> unit;
}

(* Single-field all-float record: flat, so accumulating into it does not
   box. *)
type fbox = { mutable fv : float }

type t = {
  engine : Engine.t;
  fluid_name : string;
  suspend_name : string; (* "fluid:<name>", precomputed off the hot path *)
  capacity : float; (* MB/s *)
  contention_factor : float;
  mixed_contention_factor : float;
  mutable active : xfer list;
  mutable last_update_ns : int;
  mutable generation : int;
  moved : fbox; (* total bytes completed *)
  mutable busy_ns : int; (* cumulative time with >= 1 active transfer *)
}

(* 1 MB/s = 1e6 bytes / 1e9 ns = 1e-3 bytes per ns. *)
let bytes_per_ns_of_mb_s r = r *. 1e-3

let create engine ~name ~capacity_mb_s ?(contention_factor = 1.0)
    ?mixed_contention_factor () =
  if capacity_mb_s <= 0.0 then invalid_arg "Fluid.create: capacity <= 0";
  if contention_factor <= 0.0 || contention_factor > 1.0 then
    invalid_arg "Fluid.create: contention_factor out of (0,1]";
  let mixed_contention_factor =
    Option.value mixed_contention_factor ~default:contention_factor
  in
  if mixed_contention_factor <= 0.0 || mixed_contention_factor > 1.0 then
    invalid_arg "Fluid.create: mixed_contention_factor out of (0,1]";
  {
    engine;
    fluid_name = name;
    suspend_name = "fluid:" ^ name;
    capacity = capacity_mb_s;
    contention_factor;
    mixed_contention_factor;
    active = [];
    last_update_ns = 0;
    generation = 0;
    moved = { fv = 0.0 };
    busy_ns = 0;
  }

let name t = t.fluid_name
let total_bytes t = t.moved.fv

let utilization t ~now =
  if Time.equal now Time.zero then 0.0
  else float_of_int t.busy_ns /. float_of_int now

(* Weighted max-min fair allocation (water-filling). Mutates [x.rate] for
   every transfer in [xs] so that capped transfers get their cap and the
   rest share the leftover capacity in proportion to their weights. *)
let allocate capacity xs =
  let rec fill remaining_cap pending =
    if pending = [] then ()
    else begin
      let total_weight =
        List.fold_left (fun acc x -> acc +. x.fl.weight) 0.0 pending
      in
      let lambda = remaining_cap /. total_weight in
      let capped, uncapped =
        List.partition
          (fun x -> x.capped && x.fl.cap <= x.fl.weight *. lambda)
          pending
      in
      if capped = [] then
        List.iter (fun x -> x.fl.rate <- x.fl.weight *. lambda) pending
      else begin
        let used =
          List.fold_left
            (fun acc x ->
              x.fl.rate <- x.fl.cap;
              acc +. x.fl.cap)
            0.0 capped
        in
        fill (Float.max 0.0 (remaining_cap -. used)) uncapped
      end
    end
  in
  fill capacity xs

(* Credit progress to every active transfer for the time elapsed since the
   last reallocation. *)
let credit dtf x =
  let fl = x.fl in
  let moved = bytes_per_ns_of_mb_s fl.rate *. dtf in
  fl.remaining <- Float.max 0.0 (fl.remaining -. moved)

let advance t =
  let now_ns : int = Engine.now t.engine in
  let dt = now_ns - t.last_update_ns in
  if dt > 0 then begin
    let dtf = float_of_int dt in
    match t.active with
    | [] -> ()
    | [ x ] ->
        (* Overwhelmingly common: one transfer on the fluid. Same
           arithmetic as the general branch, minus the closure. *)
        t.busy_ns <- t.busy_ns + dt;
        credit dtf x
    | xs ->
        t.busy_ns <- t.busy_ns + dt;
        List.iter (credit dtf) xs
  end;
  t.last_update_ns <- now_ns

let effective_capacity t =
  match t.active with
  | [] | [ _ ] -> t.capacity
  | x :: rest ->
      if List.exists (fun y -> y.cls <> x.cls) rest then
        t.capacity *. t.mixed_contention_factor
      else t.capacity *. t.contention_factor

let finish_epsilon = 0.5 (* bytes: below this a transfer counts as done *)

(* Reallocate rates and schedule the next completion event. The generation
   counter invalidates stale events: any membership change bumps it.

   The single-transfer case — by far the common one on every fluid in the
   modelled topologies — replicates the general water-filling arithmetic
   operation for operation (including the [0.0 +. weight] of the
   fold-based weight sum), so the computed rates and completion times are
   bit-identical to the general path: only the list/closure traffic is
   skipped. *)
let rec reschedule t =
  t.generation <- t.generation + 1;
  let generation = t.generation in
  match t.active with
  | [] -> ()
  | [ x ] ->
      let fl = x.fl in
      let lambda = t.capacity /. (0.0 +. fl.weight) in
      let r = fl.weight *. lambda in
      if x.capped && fl.cap <= r then fl.rate <- fl.cap else fl.rate <- r;
      let next =
        Float.min infinity (fl.remaining /. bytes_per_ns_of_mb_s fl.rate)
      in
      schedule_completion t generation next
  | xs ->
      allocate (effective_capacity t) xs;
      let eta x = x.fl.remaining /. bytes_per_ns_of_mb_s x.fl.rate in
      let next = List.fold_left (fun acc x -> Float.min acc (eta x)) infinity xs in
      schedule_completion t generation next

and schedule_completion t generation next =
  let delay = int_of_float (Float.max 1.0 (Float.ceil next)) in
  Engine.at t.engine
    (Time.add (Engine.now t.engine) delay)
    (fun () -> if t.generation = generation then complete t)

(* The finished transfers' [on_done] run after [reschedule]: a
   continuation that starts a new transfer on this fluid reschedules it
   again, and rescheduling first leaves no stale completion event
   behind. Transfers that finish together hand off as one
   {!Engine.batch}. *)
and complete t =
  advance t;
  match t.active with
  | [ x ] when x.fl.remaining <= finish_epsilon ->
      t.active <- [];
      reschedule t;
      x.on_done ()
  | [ _ ] -> reschedule t
  | active ->
      let finished, still =
        List.partition (fun x -> x.fl.remaining <= finish_epsilon) active
      in
      t.active <- still;
      reschedule t;
      Engine.batch t.engine (fun () -> List.iter (fun x -> x.on_done ()) finished)

let check_args fn ~bytes_count ~weight rate_cap =
  if bytes_count < 0 then invalid_arg (fn ^ ": negative size");
  if weight <= 0.0 then invalid_arg (fn ^ ": weight <= 0");
  match rate_cap with
  | Some c when c <= 0.0 -> invalid_arg (fn ^ ": rate_cap <= 0")
  | Some _ | None -> ()

(* The water-filling insert behind both entry points: [bytes_count] is
   positive and the arguments are checked. *)
let insert t ~bytes_count ~weight ~rate_cap ~cls on_done =
  t.moved.fv <- t.moved.fv +. float_of_int bytes_count;
  advance t;
  let capped, cap =
    match rate_cap with Some c -> (true, c) | None -> (false, infinity)
  in
  let x =
    {
      fl = { weight; cap; remaining = float_of_int bytes_count; rate = 0.0 };
      capped;
      cls;
      on_done;
    }
  in
  t.active <- x :: t.active;
  reschedule t

let start t ~bytes_count ~weight ?rate_cap ?(cls = 0) ~on_done () =
  check_args "Fluid.start" ~bytes_count ~weight rate_cap;
  if bytes_count > 0 then insert t ~bytes_count ~weight ~rate_cap ~cls on_done
  else on_done ()

let transfer t ~bytes_count ~weight ?rate_cap ?(cls = 0) () =
  check_args "Fluid.transfer" ~bytes_count ~weight rate_cap;
  if bytes_count > 0 then
    Engine.suspend ~name:t.suspend_name
      (insert t ~bytes_count ~weight ~rate_cap ~cls)
