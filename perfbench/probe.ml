(* A fixed, library-independent host workload timed around every
   simulated world: updates to a small Hashtbl (hashing, branches,
   memory writes) and short-lived lists (minor-heap allocation). On a
   shared machine the host's speed drifts by tens of percent within
   and between runs; the probe's time drifts with it, so host times
   divided by [scale] compare across runs. *)

let time () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 4096 in
  for k = 0 to 199_999 do
    Hashtbl.replace h ((k * 7919) land 4095) k
  done;
  let acc = ref 0 in
  for k = 1 to 400_000 do
    acc := !acc + List.length [ k; k + 1; k + 2 ]
  done;
  ignore (Sys.opaque_identity (!acc + Hashtbl.length h));
  Unix.gettimeofday () -. t0

(* The probe's time on the reference host (the 2-core development host
   under typical load). *)
let reference_s = 0.01

(* How much slower than the reference host this host runs right now. *)
let scale () = time () /. reference_s
