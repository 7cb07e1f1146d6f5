(** The JSON every harness report is written and read with: the chaos
    reports, [BENCH_simspeed.json] and [BENCH_crossover.json]. The
    printer fixes one layout, so committed reports stay byte-identical;
    the parser accepts any JSON text, so no reader depends on it. *)

type t =
  | Int of int
  | Float of float * int  (** the value and the decimals it prints with *)
  | Bool of bool
  | Str of string
  | Null
  | List of t list
  | Obj of (string * t) list  (** fields in print order *)

exception Error of string
(** A parse or decode failure; the message says where and what. *)

val is_table : t -> bool
(** A non-empty list whose every element is an object. *)

val quote : string -> string
(** [s] as a JSON string literal. *)

val to_string : ?indent:int -> t -> string
(** Objects print on one line, [{ "k": v, ... }]. A non-empty list of
    objects (a table) prints one row per line, indented two spaces past
    [indent] (default 0), and a table field starts a new line; inside a
    table row, tables stay inline as [[ {...}, {...} ]]. Other lists
    print as [[1, 2]]. [Float (x, 0)] prints as an integer literal, so
    it reads back as an [Int]; no report prints one. *)

val parse : string -> t
(** A number with neither fraction nor exponent is an [Int]; any other
    is a [Float] carrying its count of fraction digits, so
    [parse (to_string v) = v] for floats that print exactly with at
    least one decimal.
    @raise Error with the line and column of the first fault. *)

val read_file : string -> (t -> 'a) -> 'a
(** [read_file file decode] parses [file] and decodes the value.
    @raise Error naming [file] if it cannot be read, parsed or decoded. *)

(** {2 Decoding} Each raises {!Error} naming what it expected. *)

val member : string -> t -> t
(** A field of an object. *)

val to_list : t -> t list
val to_int : t -> int
val to_str : t -> string

val to_number : t -> float
(** An [Int] or a [Float], as a float. *)
