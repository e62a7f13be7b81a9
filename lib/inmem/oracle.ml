open Pc_util

let two_sided pts ~xl ~yb =
  List.filter (fun (p : Point.t) -> p.x >= xl && p.y >= yb) pts

let three_sided pts ~xl ~xr ~yb =
  List.filter (fun (p : Point.t) -> p.x >= xl && p.x <= xr && p.y >= yb) pts

let range_2d pts ~x1 ~x2 ~y1 ~y2 =
  List.filter
    (fun (p : Point.t) -> p.x >= x1 && p.x <= x2 && p.y >= y1 && p.y <= y2)
    pts

let stabbing ivs ~q = List.filter (fun iv -> Ival.contains iv q) ivs

let ids pts = List.map Point.id pts |> List.sort compare
let ival_ids ivs = List.map Ival.id ivs |> List.sort compare
