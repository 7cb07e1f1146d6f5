(* A classic HPC workload on the mini-MPI over MPICH/Madeleine/SCI:
   1-D heat diffusion with halo exchange and a global convergence test.

   Each of the 4 ranks owns a strip of the rod; every iteration swaps
   halo cells with its neighbours (isend/irecv), applies the stencil,
   and every 10 iterations allreduces the residual to decide
   termination. This is the kind of application the paper's
   MPICH/Madeleine port exists to host.

   Run with: dune exec examples/mpi_stencil.exe *)

module Engine = Marcel.Engine
module Time = Marcel.Time
module Mpi = Mpilite.Mpi

let cells_per_rank = 4096
let max_iters = 200
let tolerance = 1e-5

let float_to_bytes a =
  let b = Bytes.create (8 * Array.length a) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float v)) a;
  b

let bytes_to_float b =
  Array.init
    (Bytes.length b / 8)
    (fun i -> Int64.float_of_bits (Bytes.get_int64_le b (8 * i)))

let fsum a b =
  let x = bytes_to_float a and y = bytes_to_float b in
  float_to_bytes (Array.map2 ( +. ) x y)

let () =
  let cluster =
    Clusterfile.load
      {|
network sci  type=sisci
node n0  nets=sci
node n1  nets=sci
node n2  nets=sci
node n3  nets=sci
channel c  net=sci  nodes=n0,n1,n2,n3
|}
  in
  let engine = Clusterfile.engine cluster in
  let channel = Clusterfile.channel cluster "c" in
  let ranks = List.length (Clusterfile.nodes cluster) in
  let world =
    Mpi.create_world engine
      ~devices:(Array.init ranks (fun rank -> Mpilite.Dev_chmad.make channel ~rank))
  in

  let iterations_run = ref 0 in
  for r = 0 to ranks - 1 do
    Engine.spawn engine ~name:(Printf.sprintf "rank%d" r) (fun () ->
        let c = Mpi.ctx world ~rank:r in
        (* Strip with two halo cells; a heat source on rank 0's boundary. *)
        let u = Array.make (cells_per_rank + 2) 0.0 in
        let next = Array.make (cells_per_rank + 2) 0.0 in
        if r = 0 then u.(0) <- 100.0;
        let halo_tag = 100 in
        let continue_ = ref true in
        let iter = ref 0 in
        while !continue_ do
          incr iter;
          (* Halo exchange with left and right neighbours. *)
          let reqs = ref [] in
          let left_halo = Bytes.create 8 and right_halo = Bytes.create 8 in
          if r > 0 then begin
            reqs :=
              Mpi.isend c ~dst:(r - 1) ~tag:halo_tag
                (float_to_bytes [| u.(1) |])
              :: Mpi.irecv c ~src:(r - 1) ~tag:halo_tag left_halo
              :: !reqs
          end;
          if r < ranks - 1 then begin
            reqs :=
              Mpi.isend c ~dst:(r + 1) ~tag:halo_tag
                (float_to_bytes [| u.(cells_per_rank) |])
              :: Mpi.irecv c ~src:(r + 1) ~tag:halo_tag right_halo
              :: !reqs
          end;
          ignore (Mpi.waitall !reqs);
          if r > 0 then u.(0) <- (bytes_to_float left_halo).(0);
          if r < ranks - 1 then
            u.(cells_per_rank + 1) <- (bytes_to_float right_halo).(0);
          (* Jacobi sweep. *)
          let residual = ref 0.0 in
          for i = 1 to cells_per_rank do
            next.(i) <- 0.5 *. (u.(i - 1) +. u.(i + 1));
            residual := !residual +. abs_float (next.(i) -. u.(i))
          done;
          Array.blit next 0 u 0 (cells_per_rank + 2);
          if r = 0 then u.(0) <- 100.0;
          (* Global convergence check every 10 iterations. *)
          if !iter mod 10 = 0 then begin
            let total =
              (bytes_to_float (Mpi.allreduce c ~op:fsum (float_to_bytes [| !residual |]))).(0)
            in
            if r = 0 then
              Format.printf "[%a] iter %3d: global residual %.6f@." Time.pp
                (Engine.now engine) !iter total;
            if total < tolerance || !iter >= max_iters then continue_ := false
          end
        done;
        if r = 0 then iterations_run := !iter;
        (* Gather boundary temperatures for a final report. *)
        match Mpi.gather c ~root:0 (float_to_bytes [| u.(1) |]) with
        | Some parts ->
            Format.printf "strip-start temperatures:";
            Array.iter
              (fun p -> Format.printf " %6.2f" (bytes_to_float p).(0))
              parts;
            Format.printf "@."
        | None -> ())
  done;
  Engine.run engine;
  Format.printf
    "mpi_stencil: %d ranks, %d iterations, finished at %a simulated@." ranks
    !iterations_run Time.pp (Engine.now engine)
