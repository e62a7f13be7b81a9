(* Inputs of the end-to-end benchmark: points, request streams, and the
   sorted-array oracles every answer is checked against.

   Everything here is a pure function of the seed. The program under
   test never sees the seed: the served workloads hand it a points file
   and wire requests, the file workload hands the library point lists
   and calls. *)

module Point = Pc_util.Point
module Rng = Pc_util.Rng

(* Points are uniform on [0, universe)^2. *)
let universe = 1 lsl 20

type req =
  | Krange of int * int
  | Q3 of int * int * int
  | Insert of Point.t
  | Delete of int

let is_read = function Krange _ | Q3 _ -> true | Insert _ | Delete _ -> false

let op_name = function
  | Krange _ -> "krange"
  | Q3 _ -> "q3"
  | Insert _ -> "insert"
  | Delete _ -> "delete"

(* Latency is reported per class: the two read verbs, and writes. *)
let latency_class = function
  | Krange _ -> "krange"
  | Q3 _ -> "q3"
  | Insert _ | Delete _ -> "write"

let latency_classes = [ "krange"; "q3"; "write" ]

let to_wire = function
  | Krange (lo, hi) -> Printf.sprintf "krange %d %d" lo hi
  | Q3 (xl, xr, yb) -> Printf.sprintf "q3 %d %d %d" xl xr yb
  | Insert p -> Printf.sprintf "insert %d %d %d" p.x p.y p.id
  | Delete id -> Printf.sprintf "delete %d" id

(* Independent generators, all derived from one seed: stream 0 makes the
   points, 1 the requests, 2 the post-run probe queries. *)
let rng ~seed ~stream =
  let master = Rng.create seed in
  let r = ref (Rng.split master) in
  for _ = 1 to stream do
    r := Rng.split master
  done;
  !r

let request_stream = 1
let probe_stream = 2

let points ~seed ~n =
  let rng = rng ~seed ~stream:0 in
  Array.init n (fun id ->
      let x = Rng.int rng universe in
      let y = Rng.int rng universe in
      Point.make ~x ~y ~id)

(* The x-width whose key range holds [t] of [n] uniform points; a 3-sided
   query doubles it, since [y >= universe / 2] keeps half. *)
let width ~n ~t = max 1 (t * universe / n)

let read rng ~n ~t =
  let w = width ~n ~t in
  if Rng.bool rng then
    let lo = Rng.int rng (universe - w) in
    Krange (lo, lo + w)
  else
    let xl = Rng.int rng (universe - (2 * w)) in
    Q3 (xl, xl + (2 * w), universe / 2)

(* The writes of mixed_rw: inserts take fresh ids above the initial
   points'; deletes remove initial points in a seeded order, so every
   delete finds its point. *)
type writer = {
  mutable inserted : int;
  victims : int array;
  mutable deleted : int;
}

let writer rng ~n =
  let victims = Array.init n Fun.id in
  Rng.shuffle rng victims;
  { inserted = 0; victims; deleted = 0 }

let write rng w =
  if Rng.int rng 3 = 2 && w.deleted < Array.length w.victims then begin
    let id = w.victims.(w.deleted) in
    w.deleted <- w.deleted + 1;
    Delete id
  end
  else begin
    let id = 1_000_000_000 + w.inserted in
    w.inserted <- w.inserted + 1;
    let x = Rng.int rng universe in
    let y = Rng.int rng universe in
    Insert (Point.make ~x ~y ~id)
  end

(* [next ~n ~t ~write_pct rng w] is the next request: [write_pct]
   percent writes, the rest krange/q3 in equal shares. *)
let next ~n ~t ~write_pct rng w =
  if write_pct > 0 && Rng.int rng 100 < write_pct then write rng w
  else read rng ~n ~t

(* ------------------------------------------------------------------ *)
(* Points files                                                       *)
(* ------------------------------------------------------------------ *)

let write_points path pts =
  Out_channel.with_open_bin path (fun oc ->
      Array.iter
        (fun (p : Point.t) -> Printf.fprintf oc "%d %d %d\n" p.x p.y p.id)
        pts)

let read_points path =
  In_channel.with_open_bin path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some l ->
            let point x y id = Point.make ~x ~y ~id in
            go (Scanf.sscanf l "%d %d %d" point :: acc)
      in
      go [])

(* ------------------------------------------------------------------ *)
(* Oracles                                                            *)
(* ------------------------------------------------------------------ *)

(* The visible point set, sorted by (x, y, id): a key range is a slice
   found by binary search. *)
type oracle = Point.t array

let oracle pts : oracle =
  let a = Array.of_list pts in
  Array.sort Point.compare_xy a;
  a

let first_at_least (o : oracle) x =
  let lo = ref 0 and hi = ref (Array.length o) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if o.(mid).x < x then lo := mid + 1 else hi := mid
  done;
  !lo

let fold_x (o : oracle) ~lo ~hi f init =
  let acc = ref init in
  let i = ref (first_at_least o lo) in
  while !i < Array.length o && o.(!i).x <= hi do
    acc := f !acc o.(!i);
    incr i
  done;
  !acc

(* Sorted (key, value) = (x, y) pairs, as krange and Btree.range report. *)
let krange (o : oracle) ~lo ~hi =
  List.rev (fold_x o ~lo ~hi (fun acc (p : Point.t) -> (p.x, p.y) :: acc) [])

(* Sorted ids of a 3-sided query. *)
let q3_ids (o : oracle) ~xl ~xr ~yb =
  fold_x o ~lo:xl ~hi:xr
    (fun acc (p : Point.t) -> if p.y >= yb then p.id :: acc else acc)
    []
  |> List.sort compare

let pairs_reply l =
  "ok pairs "
  ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) l)

let ids_reply l = "ok ids " ^ String.concat "," (List.map string_of_int l)

(* The exact reply the server owes a read over the oracle's point set. *)
let expected_reply o = function
  | Krange (lo, hi) -> Some (pairs_reply (krange o ~lo ~hi))
  | Q3 (xl, xr, yb) -> Some (ids_reply (q3_ids o ~xl ~xr ~yb))
  | Insert _ | Delete _ -> None
