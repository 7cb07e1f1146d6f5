(* Mutants of a cluster file, for fuzzing the loader and the madbench
   commands behind it. A mutant applies one to six mutations: a value
   replaced with 0, -1, 2^62 - 1, 1.5, 1 or a name; a line dropped or
   duplicated; a key appended to any line or to the vchannel line (the
   membership, flow-control, scheduler and collectives keys among
   them); a fault plane declared where the file has none. Values of 1 and the fault plane help
   reliable and election vchannels get past the loader's prerequisites
   into the library's own checks. *)

type mutation =
  | Replace of int * int * string (* line, token, new value *)
  | Drop of int
  | Duplicate of int
  | Append of int option * string * string
      (* line ([None]: the vchannel line), key, value *)
  | Faults

let mutant_values =
  [ "0"; "-1"; "4611686018427387903"; "1.5"; "1"; "ghost"; "a"; "gw";
    "alpha"; "gw1"; "on"; "true"; "tree"; "aggreg" ]

let mutant_keys =
  [ "version"; "coordinator"; "election"; "topo_quorum"; "mtu"; "credits";
    "gw_pool"; "reliable"; "patience_us"; "coll"; "coll_fanout";
    "coll_quorum"; "sched"; "aggr_max" ]

let is_vchannel line = String.starts_with ~prefix:"vchannel" line
let is_faults line = String.starts_with ~prefix:"faults" line

let apply_mutation lines = function
  | Replace (i, j, v) ->
      List.mapi
        (fun k line ->
          if k <> i then line
          else
            String.split_on_char ' ' line
            |> List.filter (( <> ) "")
            |> List.mapi (fun n tok ->
                   match String.index_opt tok '=' with
                   | Some e when n = j -> String.sub tok 0 (e + 1) ^ v
                   | _ -> tok)
            |> String.concat " ")
        lines
  | Drop i -> List.filteri (fun k _ -> k <> i) lines
  | Duplicate i ->
      List.concat_map (fun (k, l) -> if k = i then [ l; l ] else [ l ])
        (List.mapi (fun k l -> (k, l)) lines)
  | Append (at, key, v) ->
      List.mapi
        (fun k line ->
          let here =
            match at with Some i -> k = i | None -> is_vchannel line
          in
          if here then Printf.sprintf "%s %s=%s" line key v else line)
        lines
  | Faults ->
      (* A second faults line would only fail as a duplicate. *)
      if List.exists is_faults lines then lines else "faults seed=1" :: lines

let mutation_gen =
  QCheck.Gen.(
    let value = oneofl mutant_values and key = oneofl mutant_keys in
    let line = int_bound 20 in
    frequency
      [
        (3, map3 (fun i j v -> Replace (i, j, v)) line (int_bound 4) value);
        (1, map (fun i -> Drop i) line);
        (1, map (fun i -> Duplicate i) line);
        (2, map3 (fun i k v -> Append (Some i, k, v)) line key value);
        (6, map2 (fun k v -> Append (None, k, v)) key value);
        (2, return Faults);
      ])

(* A mutant of the cluster-file text [base]. *)
let mutant base =
  QCheck.Gen.(
    let* muts = list_size (int_range 1 6) mutation_gen in
    let lines = String.split_on_char '\n' base in
    return (String.concat "\n" (List.fold_left apply_mutation lines muts)))
