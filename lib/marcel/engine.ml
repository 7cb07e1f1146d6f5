type thread_info = {
  thread_name : string;
  daemon : bool;
  mutable blocked_on : string; (* "" when runnable; otherwise why blocked *)
  mutable reg_slot : int; (* index in the live registry; -1 once dead *)
}

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  events : Eventq.t;
  mutable live : thread_info array; (* registry; [0, live_n) is valid *)
  mutable live_n : int;
  mutable failure : exn option;
  mutable processed : int;
  mutable fingerprint : int; (* running hash of processed (clock, seq) *)
  mutable horizon : int; (* seq a batch of hand-offs was made at; -1 *)
  mutable deliveries : int;
  mutable delivery_fp : int; (* running hash of (clock, src, dst, bytes) *)
  owner : int; (* id of the domain that created the engine *)
}

exception Stalled of string list

(* Effects performed by thread bodies. The handler is installed once per
   thread by [spawn]; resuming a continuation keeps it installed, so
   [sleep]/[suspend] work at any depth inside the thread. *)
type _ Effect.t +=
  | Sleep : Time.span -> unit Effect.t
  | Suspend : string * (('a -> unit) -> unit) -> 'a Effect.t
  | Self_name : string Effect.t

let no_thread =
  { thread_name = "<none>"; daemon = true; blocked_on = ""; reg_slot = -1 }

let create () =
  {
    clock = Time.zero;
    seq = 0;
    events = Eventq.create ();
    live = [||];
    live_n = 0;
    failure = None;
    processed = 0;
    fingerprint = 0;
    horizon = -1;
    deliveries = 0;
    delivery_fp = 0;
    owner = (Domain.self () :> int);
  }

(* The world-isolation invariant (docs/MODEL.md): an engine and every
   object hanging off it belong to the domain that created it. Nothing
   here is synchronized, so letting another domain drive the engine
   would be a data race on the clock, the event queue and all per-world
   state. Checked at the API entry points, not per event. *)
let check_owner t =
  if (Domain.self () :> int) <> t.owner then
    invalid_arg
      "Marcel.Engine: engine used from a domain other than its creator \
       (engines must never cross domains; see docs/MODEL.md)"

let now t = t.clock

(* An event queued at the current instant precedes a zero-delay event
   scheduled now; inside [batch], only if it was queued before the
   batch began. *)
let pending_now t =
  (not (Eventq.is_empty t.events))
  && Eventq.min_time_ns t.events <= t.clock
  && (t.horizon < 0 || Eventq.min_seq t.events <= t.horizon)

let batch t f =
  if t.horizon >= 0 then f ()
  else begin
    t.horizon <- t.seq;
    match f () with
    | () -> t.horizon <- -1
    | exception e ->
        t.horizon <- -1;
        raise e
  end
let events_processed t = t.processed
let fingerprint t = t.fingerprint

(* FNV-1a over the two keys of each processed event, in 63-bit
   wrapping arithmetic: any moved, added or dropped event changes it. *)
let fnv_prime = 0x100000001b3
let mix h x = (h lxor x) * fnv_prime

let note_event t q =
  t.fingerprint <- mix (mix t.fingerprint t.clock) (Eventq.min_seq q);
  t.processed <- t.processed + 1

let note_delivery t ~src ~dst ~bytes =
  t.delivery_fp <- mix (mix (mix (mix t.delivery_fp t.clock) src) dst) bytes;
  t.deliveries <- t.deliveries + 1

let deliveries t = t.deliveries
let delivery_fingerprint t = t.delivery_fp

let schedule t time action =
  if Time.( < ) time t.clock then invalid_arg "Engine: scheduling in the past";
  let seq = t.seq + 1 in
  t.seq <- seq;
  Eventq.push t.events ~time ~seq action

let at t time action =
  check_owner t;
  schedule t time action

let sleep d = Effect.perform (Sleep d)
let yield () = Effect.perform (Sleep 0)
let suspend ~name register = Effect.perform (Suspend (name, register))
let self_name () = Effect.perform Self_name

(* O(1) registry bookkeeping: threads record their slot and leave by
   swap-remove, so a storm of short-lived threads costs constant work
   per exit instead of a scan of every live thread. *)
let register t info =
  let n = t.live_n in
  if n = Array.length t.live then begin
    let ncap = if n = 0 then 16 else 2 * n in
    let grown = Array.make ncap no_thread in
    Array.blit t.live 0 grown 0 n;
    t.live <- grown
  end;
  t.live.(n) <- info;
  info.reg_slot <- n;
  t.live_n <- n + 1

let unregister t info =
  let i = info.reg_slot in
  if i >= 0 then begin
    let n = t.live_n - 1 in
    let last = t.live.(n) in
    t.live.(i) <- last;
    last.reg_slot <- i;
    t.live.(n) <- no_thread;
    t.live_n <- n;
    info.reg_slot <- -1
  end

let spawn t ?(daemon = false) ~name f =
  check_owner t;
  let info = { thread_name = name; daemon; blocked_on = ""; reg_slot = -1 } in
  register t info;
  let finish () = unregister t info in
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> finish ());
      exnc =
        (fun e ->
          finish ();
          match t.failure with None -> t.failure <- Some e | Some _ -> ());
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep d ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  info.blocked_on <- "sleep";
                  schedule t (Time.add t.clock d) (fun () ->
                      info.blocked_on <- "";
                      Effect.Deep.continue k ()))
          | Suspend (why, register) ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  info.blocked_on <- why;
                  let resumed = ref false in
                  let wake v =
                    if not !resumed then begin
                      resumed := true;
                      schedule t t.clock (fun () ->
                          info.blocked_on <- "";
                          Effect.Deep.continue k v)
                    end
                  in
                  register wake)
          | Self_name ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  Effect.Deep.continue k name)
          | _ -> None);
    }
  in
  schedule t t.clock (fun () -> Effect.Deep.match_with f () handler)

let run_until t deadline =
  check_owner t;
  if Time.( < ) deadline t.clock then
    invalid_arg "Engine.run_until: deadline in the past";
  let q = t.events in
  let dl : int = deadline in
  let rec loop () =
    match t.failure with
    | Some e ->
        t.failure <- None;
        raise e
    | None ->
        if (not (Eventq.is_empty q)) && Eventq.min_time_ns q <= dl then begin
          t.clock <- Eventq.min_time q;
          note_event t q;
          let act = Eventq.take q in
          act ();
          loop ()
        end
  in
  loop ();
  t.clock <- deadline

let run t =
  check_owner t;
  let q = t.events in
  let rec loop () =
    match t.failure with
    | Some e ->
        t.failure <- None;
        raise e
    | None ->
        if not (Eventq.is_empty q) then begin
          t.clock <- Eventq.min_time q;
          note_event t q;
          let act = Eventq.take q in
          act ();
          loop ()
        end
  in
  loop ();
  let blocked = ref [] in
  for i = t.live_n - 1 downto 0 do
    let info = t.live.(i) in
    let why = info.blocked_on in
    if why <> "" && not info.daemon then
      blocked :=
        Printf.sprintf "%s (on %s)" info.thread_name why :: !blocked
  done;
  if !blocked <> [] then raise (Stalled !blocked)
