(* The harness's JSON module: the printer's layout, parse/print round
   trips, every committed report parsing, and the simspeed baseline
   comparison. *)

let json =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Json.to_string v)) ( = )

(* ---------------- layout ---------------- *)

let test_layout () =
  let row n = Json.Obj [ ("n", Json.Int n); ("ok", Json.Bool true) ] in
  Alcotest.(check string) "scalars and lists inline"
    {|{ "a": -3, "b": 0.50, "c": "q\"\\", "d": null, "e": [1, 2], "f": [] }|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Int (-3));
            ("b", Json.Float (0.5, 2));
            ("c", Json.Str {|q"\|});
            ("d", Json.Null);
            ("e", Json.List [ Json.Int 1; Json.Int 2 ]);
            ("f", Json.List []);
          ]));
  Alcotest.(check string) "a table prints one row per line"
    "[\n  { \"n\": 1, \"ok\": true },\n  { \"n\": 2, \"ok\": true }\n]"
    (Json.to_string (Json.List [ row 1; row 2 ]));
  Alcotest.(check string) "a table field starts its own line"
    "{ \"k\": 7,\n  \"rows\": [\n    { \"n\": 1, \"ok\": true }\n  ] }"
    (Json.to_string
       (Json.Obj [ ("k", Json.Int 7); ("rows", Json.List [ row 1 ]) ]));
  Alcotest.(check string)
    "an empty table field prints inline, like any empty list"
    {|{ "k": 7, "rows": [] }|}
    (Json.to_string (Json.Obj [ ("k", Json.Int 7); ("rows", Json.List []) ]));
  Alcotest.(check string) "a table inside a row stays inline"
    "[\n  { \"rows\": [ { \"n\": 1, \"ok\": true } ] }\n]"
    (Json.to_string (Json.List [ Json.Obj [ ("rows", Json.List [ row 1 ]) ] ]))

let test_parse () =
  Alcotest.(check json) "whitespace and escapes"
    (Json.Obj
       [
         ("s", Json.Str "a\"b\\c/\n\001\xc3\xa9");
         ("x", Json.Float (-1.25, 2));
         ("e", Json.Float (1500., 1));
         ("l", Json.List [ Json.Int 0; Json.Bool false ]);
       ])
    (Json.parse
       " {\n \"s\" : \"a\\\"b\\\\c\\/\\n\\u0001\\u00e9\",\"x\":-1.25,\r\n\
        \t\"e\": 1.5e3 , \"l\":[0,false]}\n");
  List.iter
    (fun bad ->
      match Json.parse bad with
      | v -> Alcotest.failf "%S parsed as %s" bad (Json.to_string v)
      | exception Json.Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"open"; "1 2"; "-"; "[1] x" ]

(* ---------------- round trip ---------------- *)

let gen_string =
  QCheck.Gen.(
    string_size
      ~gen:(oneofl [ 'a'; 'Z'; '0'; ' '; '"'; '\\'; '/'; '\n'; '\t'; '\001' ])
      (0 -- 8))

(* A float that prints exactly at its decimals: the decimal string's own
   nearest double. *)
let gen_float =
  QCheck.Gen.(
    map2
      (fun m decimals ->
        let x = float_of_int m /. (10. ** float_of_int decimals) in
        let printed = Printf.sprintf "%.*f" decimals x in
        Json.Float (float_of_string printed, decimals))
      (int_range (-1_000_000) 1_000_000)
      (int_range 0 3))

let gen_json =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 map (fun i -> Json.Int i) int;
                 gen_float;
                 map (fun b -> Json.Bool b) bool;
                 map (fun s -> Json.Str s) gen_string;
                 return Json.Null;
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 3)))
                 );
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (0 -- 4) (pair gen_string (self (n / 3)))) );
               ]))

(* A zero-decimal float prints as an integer literal and reads back as
   an Int; every other value reads back as itself. *)
let rec reread = function
  | Json.Float (x, 0) -> Json.Int (int_of_float x)
  | Json.List l -> Json.List (List.map reread l)
  | Json.Obj fields -> Json.Obj (List.map (fun (k, v) -> (k, reread v)) fields)
  | v -> v

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse (to_string v) = v"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = reread v)

(* ---------------- committed reports ---------------- *)

(* The tests run in _build/default/test, next to golden/ and one level
   below the repository-root baselines. *)
let committed_reports () =
  (Sys.readdir "golden" |> Array.to_list
  |> List.filter (String.ends_with ~suffix:".json.expected")
  |> List.sort compare
  |> List.map (Filename.concat "golden"))
  @ [ "../BENCH_simspeed.json"; "../BENCH_crossover.json" ]

let test_committed_reports_parse () =
  let files = committed_reports () in
  Alcotest.(check bool) "found the chaos goldens" true (List.length files > 10);
  List.iter (fun file -> Json.read_file file ignore) files

let test_committed_baselines_decode () =
  let rows = Simspeed.read_baseline "../BENCH_simspeed.json" in
  Alcotest.(check bool) "simspeed scenarios" true (List.length rows >= 10);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Simspeed.scenario ^ " measured") true
        (r.Simspeed.events > 0 && r.Simspeed.events_per_s > 0.))
    rows;
  Alcotest.(check (list string)) "crossover fabrics" [ "sisci"; "via" ]
    (List.map fst (Crossover.load ~file:"../BENCH_crossover.json" ()))

(* ---------------- simspeed baseline comparison ---------------- *)

let test_simspeed_check () =
  let row scenario events events_per_s =
    { Simspeed.scenario; events; events_per_s }
  in
  let baseline = [ row "a" 1000 1e6; row "b" 2000 2e6 ] in
  let verdicts rows = List.map snd (Simspeed.check_baseline ~baseline rows) in
  Alcotest.(check (list bool)) "same events, rate within 20%" [ true; true ]
    (verdicts [ row "a" 1000 0.85e6; row "b" 2000 5e6 ]);
  Alcotest.(check (list bool)) "rate below the floor" [ false ]
    (verdicts [ row "a" 1000 0.75e6 ]);
  Alcotest.(check (list bool))
    "an event count off by one fails, whatever the rate" [ false ]
    (verdicts [ row "b" 2001 9e6 ]);
  Alcotest.(check (list bool))
    "a scenario the baseline lacks only warns" [ true; true ]
    (verdicts [ row "a" 1000 1e6; row "c" 5 1. ]);
  Alcotest.(check (list bool))
    "a baseline matching no measured scenario fails" [ true; false ]
    (verdicts [ row "c" 5 1. ]);
  Alcotest.(check (list bool)) "an empty baseline fails" [ true; true; false ]
    (List.map snd
       (Simspeed.check_baseline ~baseline:[]
          [ row "a" 1000 1e6; row "b" 2000 2e6 ]))

let () =
  Alcotest.run "json"
    [
      ( "printer and parser",
        [
          Alcotest.test_case "layout" `Quick test_layout;
          Alcotest.test_case "parse" `Quick test_parse;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
      ( "committed reports",
        [
          Alcotest.test_case "every report parses" `Quick
            test_committed_reports_parse;
          Alcotest.test_case "baselines decode" `Quick
            test_committed_baselines_decode;
        ] );
      ( "simspeed",
        [
          Alcotest.test_case "baseline comparison" `Quick test_simspeed_check;
        ] );
    ]
