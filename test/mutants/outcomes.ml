(* Loads seeded cluster-file mutants in-process and prints what the
   loader made of each, one line per mutant:

     outcomes SEED COUNT FILE...

   prints "I: ok" when [Clusterfile.load] built the world, "I: line L:
   MESSAGE" for its [Parse_error], and "I: exception NAME" for any other
   exception. Mutant [I] is drawn from the FILE numbered [I] modulo the
   number of files, with the same draws per seed as gen_mutants, so a
   line here names the same mutant as that seed's mutant-I.cfg. *)

let outcome text =
  match Clusterfile.load text with
  | _ -> "ok"
  | exception Clusterfile.Parse_error (line, msg) ->
      Printf.sprintf "line %d: %s" line msg
  | exception e -> "exception " ^ Printexc.exn_slot_name e

let () =
  match Array.to_list Sys.argv with
  | _ :: seed :: count :: (_ :: _ as files) ->
      let rand = Random.State.make [| int_of_string seed |] in
      let bases =
        Array.of_list
          (List.map (fun f -> In_channel.with_open_bin f In_channel.input_all) files)
      in
      for i = 0 to int_of_string count - 1 do
        let base = bases.(i mod Array.length bases) in
        let text = QCheck.Gen.generate1 ~rand (Clusterfile_mutants.mutant base) in
        Printf.printf "%d: %s\n" i (outcome text)
      done
  | _ ->
      prerr_endline "usage: outcomes SEED COUNT FILE...";
      exit 2
