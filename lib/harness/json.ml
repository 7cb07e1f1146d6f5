(* The harness's one JSON value type, printer and parser. The printer
   fixes the layout every committed report uses; the parser accepts any
   JSON text, so a hand-reformatted file reads the same as our own. *)

type t =
  | Int of int
  | Float of float * int
  | Bool of bool
  | Str of string
  | Null
  | List of t list
  | Obj of (string * t) list

exception Error of string

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let is_table = function
  | List (_ :: _ as rows) ->
      List.for_all (function Obj _ -> true | _ -> false) rows
  | _ -> false

(* Objects print on one line. A non-empty list of objects (a table)
   prints one row per line, except inside a row, where it stays inline;
   a table field of a multi-line object starts its own line. *)
let rec print ~indent ~inline v =
  match v with
  | Int n -> string_of_int n
  | Float (x, decimals) -> Printf.sprintf "%.*f" decimals x
  | Bool b -> string_of_bool b
  | Str s -> quote s
  | Null -> "null"
  | List rows when is_table v && not inline ->
      let pad = String.make indent ' ' in
      "[\n"
      ^ String.concat ",\n"
          (List.map
             (fun row ->
               pad ^ "  " ^ print ~indent:(indent + 2) ~inline:true row)
             rows)
      ^ "\n" ^ pad ^ "]"
  | List l ->
      let items = String.concat ", " (List.map (print ~indent ~inline) l) in
      if is_table v then "[ " ^ items ^ " ]" else "[" ^ items ^ "]"
  | Obj fields ->
      "{ "
      ^ String.concat ""
          (List.mapi
             (fun i (k, v) ->
               let sep =
                 if i = 0 then ""
                 else if is_table v && not inline then
                   ",\n" ^ String.make (indent + 2) ' '
                 else ", "
               in
               sep ^ quote k ^ ": " ^ print ~indent:(indent + 2) ~inline v)
             fields)
      ^ " }"

let to_string ?(indent = 0) v = print ~indent ~inline:false v

(* ------------------------------------------------------------------ *)
(* A recursive-descent parser over the whole text. *)

let parse text =
  let n = String.length text and pos = ref 0 in
  let fail msg =
    let line = ref 1 and col = ref 1 in
    for i = 0 to min !pos n - 1 do
      if text.[i] = '\n' then (incr line; col := 1) else incr col
    done;
    raise (Error (Printf.sprintf "line %d, column %d: %s" !line !col msg))
  in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> incr pos; skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub text !pos m = word then (pos := !pos + m; v)
    else fail "invalid literal"
  in
  (* Scans the number's characters, then lets the stdlib converters
     reject a malformed one. *)
  let number () =
    let start = !pos in
    while
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
      | _ -> false
    do
      incr pos
    done;
    let s = String.sub text start (!pos - start) in
    let mantissa =
      List.hd (String.split_on_char 'e' (String.lowercase_ascii s))
    in
    match (String.index_opt mantissa '.', float_of_string_opt s) with
    | None, Some x when mantissa = s -> (
        match int_of_string_opt s with Some i -> Int i | None -> Float (x, 0))
    | None, Some x -> Float (x, 0)
    | Some dot, Some x -> Float (x, String.length mantissa - dot - 1)
    | _, None -> fail "invalid number"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
          incr pos;
          let c = if !pos < n then text.[!pos] else fail "unterminated string" in
          incr pos;
          (match c with
          | '"' | '\\' | '/' -> Buffer.add_char b c
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' -> (
              let hex = String.sub text !pos (min 4 (n - !pos)) in
              match int_of_string_opt ("0x" ^ hex) with
              | Some code when !pos + 4 <= n && Uchar.is_valid code ->
                  pos := !pos + 4;
                  Buffer.add_utf_8_uchar b (Uchar.of_int code)
              | _ -> fail "invalid \\u escape")
          | _ -> fail "invalid escape");
          go ()
      | Some c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  (* Elements separated by ',' up to [close], each read by [item]. *)
  let sequence close item =
    incr pos;
    skip_ws ();
    if peek () = Some close then (incr pos; [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos; skip_ws (); go acc
        | Some c when c = close -> incr pos; List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        Obj
          (sequence '}' (fun () ->
               let k = string () in
               skip_ws ();
               expect ':';
               (k, value ())))
    | Some '[' -> List (sequence ']' value)
    | Some '"' -> Str (string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos < n then fail "trailing characters after the value";
  v

let read_file file decode =
  match decode (parse (In_channel.with_open_bin file In_channel.input_all)) with
  | v -> v
  | exception Error msg -> raise (Error (file ^ ": " ^ msg))
  | exception Sys_error msg -> raise (Error msg)

(* ------------------------------------------------------------------ *)
(* Decoding helpers: each raises [Error] naming what it expected. *)

let member key = function
  | Obj fields -> (
      match List.assoc_opt key fields with
      | Some v -> v
      | None -> raise (Error (Printf.sprintf "missing field %S" key)))
  | _ -> raise (Error (Printf.sprintf "expected an object with field %S" key))

let to_list = function List l -> l | _ -> raise (Error "expected a list")
let to_int = function Int n -> n | _ -> raise (Error "expected an integer")
let to_str = function Str s -> s | _ -> raise (Error "expected a string")

let to_number = function
  | Int n -> float_of_int n
  | Float (x, _) -> x
  | _ -> raise (Error "expected a number")
