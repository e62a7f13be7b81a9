type t = { x : int; y : int; id : int }

let make ~x ~y ~id = { x; y; id }
let x p = p.x
let y p = p.y
let id p = p.id

let compare_xy a b =
  let c = compare a.x b.x in
  if c <> 0 then c
  else
    let c = compare a.y b.y in
    if c <> 0 then c else compare a.id b.id

let compare_yx a b =
  let c = compare a.y b.y in
  if c <> 0 then c
  else
    let c = compare a.x b.x in
    if c <> 0 then c else compare a.id b.id

let compare_x_desc a b =
  let c = compare b.x a.x in
  if c <> 0 then c else compare a.id b.id

let compare_y_desc a b =
  let c = compare b.y a.y in
  if c <> 0 then c else compare a.id b.id

let compare_id a b = compare a.id b.id
let equal a b = a.id = b.id && a.x = b.x && a.y = b.y
let pp ppf p = Format.fprintf ppf "#%d(%d,%d)" p.id p.x p.y
let to_string p = Format.asprintf "%a" pp p

module Id_set = Set.Make (Int)

let dedup_by_id pts =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun p ->
      if Hashtbl.mem seen p.id then false
      else begin
        Hashtbl.add seen p.id ();
        true
      end)
    pts
