(* Loader for the measured eager/rendezvous crossover points written by
   `madbench crossover` (BENCH_crossover.json). *)

let default_file = "BENCH_crossover.json"

let load ?(file = default_file) () =
  if not (Sys.file_exists file) then []
  else
    Json.read_file file (fun doc ->
        List.map
          (fun r ->
            ( Json.to_str (Json.member "fabric" r),
              Json.to_int (Json.member "crossover_bytes" r) ))
          (Json.to_list (Json.member "crossover" doc)))

let lookup ?file ~fabric () = List.assoc_opt fabric (load ?file ())
