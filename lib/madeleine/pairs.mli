(** State per ordered rank pair, indexed [a].(b): the per-pair tables
    of the vchannel core and of its reliability and credit planes. Row
    [a] is allocated by its first entry, so a world pays only for the
    ranks that hold pair state. Every walk goes in ascending rank
    order, which makes it part of the simulated schedule wherever a
    walk spawns threads or ships packets. *)

type 'a t

val create : int -> 'a t
(** A table for the ranks [0 .. n-1]. *)

val find : 'a t -> int -> int -> 'a option

val get : 'a t -> int -> int -> (unit -> 'a) -> 'a
(** The entry at (a, b), made by the thunk on first use. *)

val iter_row : (int -> 'a -> unit) -> 'a t -> int -> unit
(** The entries (a, b) of row [a], in ascending [b] order. *)

val iter : (int -> int -> 'a -> unit) -> 'a t -> unit
(** Every entry, in ascending (a, b) order. *)

val iter_col : (int -> 'a -> unit) -> 'a t -> int -> unit
(** The entries (a, b) of column [b], in ascending [a] order. *)
