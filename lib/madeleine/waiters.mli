(** Threads parked on a state change, released together: the wait
    primitive of the vchannel core and of {!Membership}. *)

type t

val create : unit -> t

val park : ?deadline:Marcel.Engine.t * Marcel.Time.t -> t -> name:string -> unit
(** Park until the next {!wake_all}, or until [deadline] on its engine;
    [name] labels the wait in {!Marcel.Engine.Stalled} reports. *)

val wake_all : t -> unit

val await :
  t -> Marcel.Engine.t -> patience:Marcel.Time.span -> name:string ->
  until:(unit -> bool) -> bool
(** Park until [until ()] holds or [patience] runs out; returns whether
    [until ()] was reached. *)
