type t = { lo : int; hi : int; id : int }

let make ~lo ~hi ~id =
  if lo > hi then invalid_arg "Ival.make: lo > hi";
  { lo; hi; id }

let lo iv = iv.lo
let hi iv = iv.hi
let id iv = iv.id
let contains iv q = iv.lo <= q && q <= iv.hi
let covers outer inner = outer.lo <= inner.lo && inner.hi <= outer.hi
let overlaps a b = a.lo <= b.hi && b.lo <= a.hi

let compare_lo a b =
  let c = compare a.lo b.lo in
  if c <> 0 then c else compare a.id b.id

let compare_hi_desc a b =
  let c = compare b.hi a.hi in
  if c <> 0 then c else compare a.id b.id

let compare_id a b = compare a.id b.id
let equal a b = a.id = b.id && a.lo = b.lo && a.hi = b.hi
let pp ppf iv = Format.fprintf ppf "#%d[%d,%d]" iv.id iv.lo iv.hi
let to_point iv = Point.make ~x:iv.lo ~y:iv.hi ~id:iv.id

let of_point (p : Point.t) =
  if p.x > p.y then invalid_arg "Ival.of_point: x > y";
  { lo = p.x; hi = p.y; id = p.id }

let dedup_by_id ivs = Point.dedup_by_key id ivs

let endpoints ivs =
  List.concat_map (fun iv -> [ iv.lo; iv.hi ]) ivs
  |> List.sort_uniq compare
