(* Unit and property tests for the pc_util substrate. *)

open Pathcaching

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ----- Num_util ----- *)

let test_ceil_div () =
  check_int "7/2" 4 (Num_util.ceil_div 7 2);
  check_int "8/2" 4 (Num_util.ceil_div 8 2);
  check_int "0/5" 0 (Num_util.ceil_div 0 5);
  check_int "1/5" 1 (Num_util.ceil_div 1 5);
  Alcotest.check_raises "div by zero" (Invalid_argument "Num_util.ceil_div: non-positive divisor")
    (fun () -> ignore (Num_util.ceil_div 1 0))

let test_ilog2 () =
  check_int "ilog2 1" 0 (Num_util.ilog2 1);
  check_int "ilog2 2" 1 (Num_util.ilog2 2);
  check_int "ilog2 3" 1 (Num_util.ilog2 3);
  check_int "ilog2 64" 6 (Num_util.ilog2 64);
  check_int "ilog2 65" 6 (Num_util.ilog2 65);
  check_int "ceil_log2 64" 6 (Num_util.ceil_log2 64);
  check_int "ceil_log2 65" 7 (Num_util.ceil_log2 65);
  check_int "ceil_log2 1" 0 (Num_util.ceil_log2 1)

let test_ceil_log () =
  check_int "log_2 8" 3 (Num_util.ceil_log ~base:2 8);
  check_int "log_64 1" 0 (Num_util.ceil_log ~base:64 1);
  check_int "log_64 64" 1 (Num_util.ceil_log ~base:64 64);
  check_int "log_64 65" 2 (Num_util.ceil_log ~base:64 65);
  check_int "log_64 4096" 2 (Num_util.ceil_log ~base:64 4096)

let test_log_star () =
  check_int "log* 1" 0 (Num_util.log_star 1);
  check_int "log* 2" 1 (Num_util.log_star 2);
  check_int "log* 4" 2 (Num_util.log_star 4);
  check_int "log* 16" 3 (Num_util.log_star 16);
  check_int "log* 65536" 4 (Num_util.log_star 65536)

let test_pow2 () =
  check_bool "64 pow2" true (Num_util.is_pow2 64);
  check_bool "63 not" false (Num_util.is_pow2 63);
  check_bool "0 not" false (Num_util.is_pow2 0);
  check_int "next 63" 64 (Num_util.next_pow2 63);
  check_int "next 64" 64 (Num_util.next_pow2 64);
  check_int "next 0" 1 (Num_util.next_pow2 0)

(* ----- Blocked ----- *)

let test_chunk () =
  let chunks = Blocked.chunk ~b:3 [ 1; 2; 3; 4; 5; 6; 7 ] in
  check_int "num chunks" 3 (List.length chunks);
  Alcotest.(check (list (list int)))
    "contents"
    [ [ 1; 2; 3 ]; [ 4; 5; 6 ]; [ 7 ] ]
    (List.map Array.to_list chunks);
  check_int "empty" 0 (List.length (Blocked.chunk ~b:4 []));
  check_int "blocks 0" 0 (Blocked.blocks_needed ~b:4 0);
  check_int "blocks 9/4" 3 (Blocked.blocks_needed ~b:4 9)

let test_take_drop () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Blocked.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take over" [ 1; 2; 3 ] (Blocked.take 9 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Blocked.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop over" [] (Blocked.drop 9 [ 1; 2; 3 ])

let test_prefix_while () =
  let p, stopped = Blocked.prefix_while (fun x -> x < 3) [ 1; 2; 3; 1 ] in
  Alcotest.(check (list int)) "prefix" [ 1; 2 ] p;
  check_bool "stopped" true stopped;
  let p, stopped = Blocked.prefix_while (fun _ -> true) [ 1; 2 ] in
  check_int "full" 2 (List.length p);
  check_bool "not stopped" false stopped

(* ----- Point / Ival ----- *)

let test_point_orders () =
  let a = Point.make ~x:1 ~y:5 ~id:0 and b = Point.make ~x:2 ~y:4 ~id:1 in
  check_bool "xy" true (Point.compare_xy a b < 0);
  check_bool "yx" true (Point.compare_yx b a < 0);
  check_bool "x_desc" true (Point.compare_x_desc b a < 0);
  check_bool "y_desc" true (Point.compare_y_desc a b < 0);
  let dup = Point.make ~x:9 ~y:9 ~id:0 in
  check_int "dedup" 2 (List.length (Point.dedup_by_id [ a; dup; b; a ]))

let test_ival () =
  let iv = Ival.make ~lo:3 ~hi:7 ~id:0 in
  check_bool "contains lo" true (Ival.contains iv 3);
  check_bool "contains hi" true (Ival.contains iv 7);
  check_bool "outside" false (Ival.contains iv 8);
  check_bool "covers" true (Ival.covers iv (Ival.make ~lo:4 ~hi:6 ~id:1));
  check_bool "overlap" true (Ival.overlaps iv (Ival.make ~lo:7 ~hi:9 ~id:2));
  check_bool "no overlap" false (Ival.overlaps iv (Ival.make ~lo:8 ~hi:9 ~id:3));
  Alcotest.check_raises "bad" (Invalid_argument "Ival.make: lo > hi") (fun () ->
      ignore (Ival.make ~lo:2 ~hi:1 ~id:4));
  let p = Ival.to_point iv in
  check_int "roundtrip lo" 3 (Ival.lo (Ival.of_point p));
  check_int "roundtrip hi" 7 (Ival.hi (Ival.of_point p))

(* ----- Rng ----- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 0 to 100 do
    check_int "same stream" (Rng.next a) (Rng.next b)
  done;
  let c = Rng.create 43 in
  check_bool "different seed differs" true
    (List.init 10 (fun _ -> Rng.next a) <> List.init 10 (fun _ -> Rng.next c))

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 0 to 1000 do
    let v = Rng.int rng 10 in
    check_bool "in bound" true (v >= 0 && v < 10);
    let v = Rng.int_in rng ~lo:(-5) ~hi:5 in
    check_bool "in range" true (v >= -5 && v <= 5)
  done

let test_rng_shuffle () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ----- Skeletal_layout ----- *)

(* A complete binary tree with [levels] levels, nodes numbered in
   breadth-first order. *)
let complete_tree levels =
  let n = (1 lsl levels) - 1 in
  let left i = if (2 * i) + 1 < n then Some ((2 * i) + 1) else None in
  let right i = if (2 * i) + 2 < n then Some ((2 * i) + 2) else None in
  (n, left, right)

let test_layout_block_sizes () =
  let n, left, right = complete_tree 6 in
  let t =
    Skeletal_layout.compute ~num_nodes:n ~root:0 ~left ~right ~block_height:3
  in
  check_bool "max block size" true (Skeletal_layout.max_block_size t <= 7);
  (* every node assigned *)
  for i = 0 to n - 1 do
    check_bool "assigned" true (Skeletal_layout.block_of t i >= 0)
  done;
  (* members partition the nodes *)
  let total = ref 0 in
  for b = 0 to Skeletal_layout.num_blocks t - 1 do
    total := !total + List.length (Skeletal_layout.nodes_in t b)
  done;
  check_int "partition" n !total

let test_layout_path_crossings () =
  (* A root-to-leaf walk in a tree of L levels crosses ceil(L /
     block_height) blocks. *)
  let levels = 12 in
  let n, left, right = complete_tree levels in
  let h = 4 in
  let t = Skeletal_layout.compute ~num_nodes:n ~root:0 ~left ~right ~block_height:h in
  (* walk to the leftmost leaf *)
  let rec walk acc i = match left i with None -> List.rev (i :: acc) | Some l -> walk (i :: acc) l in
  let path = walk [] 0 in
  let blocks = List.map (Skeletal_layout.block_of t) path |> List.sort_uniq compare in
  check_int "crossings" (Num_util.ceil_div levels h) (List.length blocks)

let test_layout_root_block () =
  let n, left, right = complete_tree 3 in
  let t = Skeletal_layout.compute ~num_nodes:n ~root:0 ~left ~right ~block_height:5 in
  check_int "single block" 1 (Skeletal_layout.num_blocks t);
  check_bool "same block" true (Skeletal_layout.same_block t 0 (n - 1))

(* ----- Workload generators ----- *)

let test_workload_points () =
  let rng = Rng.create 5 in
  List.iter
    (fun dist ->
      let pts = Workload.points rng dist ~n:500 ~universe:1000 in
      Alcotest.(check int) "count" 500 (List.length pts);
      List.iter
        (fun (p : Point.t) ->
          check_bool "x range" true (p.x >= 0 && p.x < 1000);
          check_bool "y range" true (p.y >= 0 && p.y < 1000))
        pts;
      let ids = List.map Point.id pts |> List.sort_uniq compare in
      check_int "distinct ids" 500 (List.length ids))
    [ Workload.Uniform; Workload.Clustered 4; Workload.Diagonal; Workload.Skyline ]

let test_workload_intervals () =
  let rng = Rng.create 5 in
  List.iter
    (fun dist ->
      let ivs = Workload.intervals rng dist ~n:300 ~universe:1000 in
      check_int "count" 300 (List.length ivs);
      List.iter
        (fun iv ->
          check_bool "bounds" true (Ival.lo iv >= 0 && Ival.hi iv < 1000);
          check_bool "ordered" true (Ival.lo iv <= Ival.hi iv))
        ivs)
    [ Workload.Short_ivals; Workload.Long_ivals; Workload.Mixed_ivals; Workload.Nested_ivals ]

let test_corner_for_target () =
  let rng = Rng.create 5 in
  let pts = Workload.points rng Workload.Uniform ~n:2000 ~universe:10000 in
  let xl, yb = Workload.corner_for_target_t pts ~frac:0.25 in
  let t = List.length (Oracle.two_sided pts ~xl ~yb) in
  check_bool "within 2x of target" true (t > 100 && t < 1500)

(* ----- qcheck properties ----- *)

let prop_chunk_roundtrip =
  QCheck.Test.make ~name:"chunk preserves order and content" ~count:200
    QCheck.(pair (int_range 1 16) (small_list small_int))
    (fun (b, xs) ->
      let chunks = Blocked.chunk ~b xs in
      List.concat_map Array.to_list chunks = xs
      && List.for_all (fun c -> Array.length c <= b && Array.length c > 0) chunks)

let prop_ceil_div =
  QCheck.Test.make ~name:"ceil_div is ceiling" ~count:500
    QCheck.(pair (int_range 0 10000) (int_range 1 100))
    (fun (a, b) ->
      let d = Num_util.ceil_div a b in
      (d * b >= a) && ((d - 1) * b < a || a = 0))

let prop_log_bounds =
  QCheck.Test.make ~name:"2^ilog2 n <= n < 2^(ilog2 n + 1)" ~count:500
    QCheck.(int_range 1 1000000)
    (fun n ->
      let l = Num_util.ilog2 n in
      (1 lsl l) <= n && n < 1 lsl (l + 1))

(* The dedup contract, against a reference: an element stays iff no
   earlier element has its id, and the kept ones keep their order. Ids
   collide heavily, reach [min_int] (the table's empty mark) and
   [max_int], and the lists run past any small table size. *)
let dedup_reference id l =
  let module S = Set.Make (Int) in
  List.fold_left
    (fun (seen, kept) x ->
      if S.mem (id x) seen then (seen, kept)
      else (S.add (id x) seen, x :: kept))
    (S.empty, []) l
  |> snd |> List.rev

let dedup_ids =
  QCheck.(
    make
      ~print:Print.(list int)
      Gen.(
        list_size (int_range 0 3000)
          (frequency
             [
               (4, int_range (-20) 20);
               (1, return min_int);
               (1, return (min_int + 1));
               (1, return max_int);
               (2, int);
               (2, map (fun i -> i lsl 40) (int_range (-8) 8));
             ])))

let prop_dedup =
  QCheck.Test.make ~name:"dedup_by_id keeps one per id" ~count:200 dedup_ids
    (fun ids ->
      let pts = List.mapi (fun i id -> Point.make ~x:i ~y:(-i) ~id) ids in
      Point.dedup_by_id pts = dedup_reference Point.id pts)

let prop_ival_dedup =
  QCheck.Test.make ~name:"Ival.dedup_by_id keeps one per id" ~count:200
    dedup_ids (fun ids ->
      let ivs = List.mapi (fun i id -> Ival.make ~lo:i ~hi:(i + 1) ~id) ids in
      Ival.dedup_by_id ivs = dedup_reference Ival.id ivs)

let suite =
  [
    ("ceil_div", `Quick, test_ceil_div);
    ("ilog2 / ceil_log2", `Quick, test_ilog2);
    ("ceil_log base", `Quick, test_ceil_log);
    ("log_star", `Quick, test_log_star);
    ("pow2 helpers", `Quick, test_pow2);
    ("chunking", `Quick, test_chunk);
    ("take / drop", `Quick, test_take_drop);
    ("prefix_while", `Quick, test_prefix_while);
    ("point orders", `Quick, test_point_orders);
    ("intervals", `Quick, test_ival);
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng shuffle", `Quick, test_rng_shuffle);
    ("layout block sizes", `Quick, test_layout_block_sizes);
    ("layout path crossings", `Quick, test_layout_path_crossings);
    ("layout single block", `Quick, test_layout_root_block);
    ("workload points", `Quick, test_workload_points);
    ("workload intervals", `Quick, test_workload_intervals);
    ("corner for target t", `Quick, test_corner_for_target);
    QCheck_alcotest.to_alcotest prop_chunk_roundtrip;
    QCheck_alcotest.to_alcotest prop_ceil_div;
    QCheck_alcotest.to_alcotest prop_log_bounds;
    QCheck_alcotest.to_alcotest prop_dedup;
    QCheck_alcotest.to_alcotest prop_ival_dedup;
  ]
