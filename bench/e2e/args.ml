(* Command-line lookups: [--key value] pairs and bare flags. *)

let opt args key =
  let rec go = function
    | k :: v :: _ when k = key -> Some v
    | _ :: tl -> go tl
    | [] -> None
  in
  go args

let get args key =
  match opt args key with
  | Some v -> v
  | None -> failwith ("missing argument " ^ key)

let flag args key = List.mem key args
