type 'a t = 'a option array array

let create n : 'a t = Array.make n [||]

let find (m : 'a t) a b =
  match m.(a) with [||] -> None | row -> row.(b)

(* Store [v] at (a, b) and return it. *)
let add (m : 'a t) a b v =
  if Array.length m.(a) = 0 then m.(a) <- Array.make (Array.length m) None;
  m.(a).(b) <- Some v;
  v

let get m a b mk = match find m a b with Some v -> v | None -> add m a b (mk ())
let iter_row f (m : 'a t) a = Array.iteri (fun b -> Option.iter (f b)) m.(a)
let iter f (m : 'a t) = Array.iteri (fun a _ -> iter_row (f a) m a) m

let iter_col f (m : 'a t) b =
  Array.iteri (fun a _ -> Option.iter (f a) (find m a b)) m
