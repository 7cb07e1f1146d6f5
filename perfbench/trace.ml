(* Spans recorded from outside the library, around the calls the
   benchmark itself makes into the public API: Madeleine.Api and
   Vchannel calls, Engine.run and the Harness world builders. Spans stay
   in memory and are written out as JSON lines when the run ends.

   Tracing off costs one branch on [enabled] per wrapped call and reads
   no clock; it never touches simulated time either way, so simulated
   metrics are identical with tracing on and off (checked by the
   benchmark). *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  layer : string;
  name : string;
  tag : string;  (** workload-specific label, e.g. ["sisci.4B"] *)
  mutable msg : int;
      (** message id, -1 when the span is not about one message *)
  sim_start : int;  (** simulated ns *)
  sim_end : int;
  host_start : float;  (** host seconds *)
  host_end : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0

let reset () =
  spans := [];
  next_id := 0

let sim_now = function None -> 0 | Some e -> Marcel.Engine.now e

(* Children are recorded before their root, newest first, with larger
   ids than the root: give them the message id the root learnt late (a
   receive learns it from the payload). *)
let relabel ~root msg =
  let rec go = function
    | sp :: rest when sp.id > root ->
        if sp.parent = root then sp.msg <- msg;
        go rest
    | _ -> ()
  in
  go !spans

(* [with_span ... f] runs [f id], [id] being the new span's id (for
   children's [~parent]); with tracing off [f (-1)] runs bare. [msg_of]
   names the message from [f]'s result when it is not known up front. *)
let with_span ?engine ?(parent = -1) ?(tag = "") ?(msg = -1)
    ?(msg_of = fun _ -> msg) ~layer name f =
  if not !enabled then f (-1)
  else begin
    let id = !next_id in
    incr next_id;
    let sim_start = sim_now engine and host_start = Unix.gettimeofday () in
    let r = f id in
    let host_end = Unix.gettimeofday () in
    let final_msg = msg_of r in
    if final_msg <> msg then relabel ~root:id final_msg;
    spans :=
      {
        id;
        parent;
        layer;
        name;
        tag;
        msg = final_msg;
        sim_start;
        sim_end = sim_now engine;
        host_start;
        host_end;
      }
      :: !spans;
    r
  end

let call ?engine ?parent ?tag ?msg ~layer name f =
  with_span ?engine ?parent ?tag ?msg ~layer name (fun _ -> f ())

(* Median simulated microseconds spent inside the spans of one layer,
   name and tag; 0.0 when there are none. *)
let median_us ~layer ~name ~tag =
  let s = Stats.create () in
  List.iter
    (fun sp ->
      if sp.layer = layer && sp.name = name && sp.tag = tag then
        Stats.add s (float_of_int (sp.sim_end - sp.sim_start) /. 1000.0))
    !spans;
  Stats.quantile s 0.5

let write_jsonl file =
  let oc = open_out file in
  let t0 =
    List.fold_left (fun acc sp -> Float.min acc sp.host_start) infinity !spans
  in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"layer\":%S,\"name\":%S,\"tag\":%S,\"msg\":%d,\"sim_start_ns\":%d,\"sim_end_ns\":%d,\"host_start_us\":%.3f,\"host_end_us\":%.3f}\n"
        sp.id sp.parent sp.layer sp.name sp.tag sp.msg sp.sim_start sp.sim_end
        ((sp.host_start -. t0) *. 1e6)
        ((sp.host_end -. t0) *. 1e6))
    (List.rev !spans);
  close_out oc
