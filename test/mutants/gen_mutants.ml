(* Writes seeded mutants of cluster files for a command-line fuzz run:

     gen_mutants SEED COUNT OUTDIR FILE...

   Mutant [i] is OUTDIR/mutant-[i].cfg, made from the FILE numbered
   [i] modulo the number of files. For each mutant one line goes to
   stdout: its path, then the vchannel, first node and last node of the
   file it came from, the arguments of a [madbench config-pingpong]
   run. The same seed writes the same mutants. *)

let names_of keyword text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | k :: name :: _ when k = keyword -> Some name
         | _ -> None)

let () =
  match Array.to_list Sys.argv with
  | _ :: seed :: count :: dir :: (_ :: _ as files) ->
      let rand = Random.State.make [| int_of_string seed |] in
      let bases =
        Array.of_list
          (List.map (fun f -> In_channel.with_open_bin f In_channel.input_all) files)
      in
      for i = 0 to int_of_string count - 1 do
        let base = bases.(i mod Array.length bases) in
        let path = Filename.concat dir (Printf.sprintf "mutant-%d.cfg" i) in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc
              (QCheck.Gen.generate1 ~rand (Clusterfile_mutants.mutant base)));
        let nodes = names_of "node" base in
        Printf.printf "%s %s %s %s\n" path
          (List.hd (names_of "vchannel" base))
          (List.hd nodes)
          (List.nth nodes (List.length nodes - 1))
      done
  | _ ->
      prerr_endline "usage: gen_mutants SEED COUNT OUTDIR FILE...";
      exit 2
