(* Tests for the external priority search trees — the paper's core
   contribution. Every variant is checked for exact agreement with the
   brute-force oracle across page sizes and distributions, for
   duplicate-free reporting, and for the I/O and storage shapes of
   Lemma 3.1 and Theorems 3.2, 4.3, 4.4. *)

open Pathcaching

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let build variant b pts = Ext_pst.create ~variant ~b pts

let assert_matches_oracle pts t ~xl ~yb =
  let got, stats = Ext_pst.query t ~xl ~yb in
  let want = Oracle.two_sided pts ~xl ~yb |> Oracle.ids in
  Alcotest.(check (list int))
    (Format.asprintf "%a xl=%d yb=%d" Ext_pst.pp_variant (Ext_pst.variant t) xl yb)
    want (Oracle.ids got);
  (* path caching stores copies, but a correct query never reports the
     same point twice *)
  check_int "no duplicate reports" (List.length got)
    stats.Query_stats.reported_raw

let test_all_variants_vs_oracle () =
  let rng = Rng.create 7 in
  List.iter
    (fun b ->
      List.iter
        (fun n ->
          List.iter
            (fun dist ->
              let pts = Workload.points rng dist ~n ~universe:1000 in
              let ts = List.map (fun v -> build v b pts) Ext_pst.all_variants in
              let corners =
                (0, 0) :: (999, 999) :: (1000, 1000)
                :: Workload.two_sided_corners rng ~k:25 ~universe:1100
              in
              List.iter
                (fun (xl, yb) ->
                  List.iter (fun t -> assert_matches_oracle pts t ~xl ~yb) ts)
                corners)
            [ Workload.Uniform; Workload.Clustered 5; Workload.Skyline ])
        [ 0; 1; 2; 7; 150; 1200 ])
    [ 4; 8; 32 ]

let test_duplicate_coordinates () =
  (* many points sharing x and y stress the split tie-breaking *)
  let pts =
    List.init 300 (fun i -> Point.make ~x:(i mod 4) ~y:(i mod 3) ~id:i)
  in
  let rng = Rng.create 11 in
  List.iter
    (fun v ->
      let t = build v 8 pts in
      List.iter
        (fun (xl, yb) -> assert_matches_oracle pts t ~xl ~yb)
        ((0, 0) :: (2, 1) :: Workload.two_sided_corners rng ~k:10 ~universe:5))
    Ext_pst.all_variants

let test_identical_points () =
  let pts = List.init 100 (fun i -> Point.make ~x:5 ~y:5 ~id:i) in
  List.iter
    (fun v ->
      let t = build v 8 pts in
      check_int "all found" 100 (Ext_pst.query_count t ~xl:5 ~yb:5);
      check_int "none found" 0 (Ext_pst.query_count t ~xl:6 ~yb:0))
    Ext_pst.all_variants

let test_extreme_corners () =
  let rng = Rng.create 13 in
  let pts = Workload.points rng Workload.Uniform ~n:500 ~universe:1000 in
  List.iter
    (fun v ->
      let t = build v 16 pts in
      check_int "everything" 500 (Ext_pst.query_count t ~xl:min_int ~yb:min_int);
      check_int "nothing" 0 (Ext_pst.query_count t ~xl:max_int ~yb:max_int))
    Ext_pst.all_variants

(* ----- storage shapes (Lemma 3.1, Theorems 3.2 / 4.3) ----- *)

let storage_factor v b n pts =
  let t = build v b pts in
  float_of_int (Ext_pst.storage_pages t) /. float_of_int (max 1 (n / b))

let test_storage_ladder () =
  (* Basic grows with log n; Segmented, Two_level and Multilevel must stay
     flat as n grows (their factors depend only on B). *)
  let b = 16 in
  let rng = Rng.create 17 in
  let factors v =
    List.map
      (fun n ->
        let pts = Workload.points rng Workload.Uniform ~n ~universe:1_000_000 in
        storage_factor v b n pts)
      [ 2000; 8000; 32000 ]
  in
  (match factors Ext_pst.Basic with
  | [ f1; _; f3 ] ->
      check_bool
        (Printf.sprintf "basic factor grows with n (%.2f -> %.2f)" f1 f3)
        true
        (f3 > f1 *. 1.2)
  | _ -> assert false);
  List.iter
    (fun v ->
      match factors v with
      | [ f1; _; f3 ] ->
          check_bool
            (Format.asprintf "%a factor flat (%.2f -> %.2f)" Ext_pst.pp_variant
               v f1 f3)
            true
            (f3 < f1 *. 1.35)
      | _ -> assert false)
    [ Ext_pst.Iko; Ext_pst.Segmented; Ext_pst.Two_level ]

let test_iko_storage_linear () =
  let b = 16 in
  let rng = Rng.create 19 in
  let pts = Workload.points rng Workload.Uniform ~n:32000 ~universe:1_000_000 in
  let t = build Ext_pst.Iko b pts in
  check_bool "iko ~ n/B pages" true
    (Ext_pst.storage_pages t <= 4 * (32000 / b))

(* ----- query I/O shapes ----- *)

(* Deep-corner small-output queries isolate the search term: the [IKO]
   baseline pays O(log2 n), the path-cached variants O(log_B n). *)
let deep_query_ios v b n =
  let rng = Rng.create 23 in
  let u = 1_000_000 in
  let pts = Workload.points rng Workload.Uniform ~n ~universe:u in
  let t = build v b pts in
  let corners = List.init 15 (fun i -> (u - 3000 - (i * 100), i)) in
  let total =
    List.fold_left
      (fun acc (xl, yb) ->
        let _, st = Ext_pst.query t ~xl ~yb in
        acc + Query_stats.total st)
      0 corners
  in
  float_of_int total /. float_of_int (List.length corners)

let test_query_io_separation () =
  let b = 64 in
  let n = 64000 in
  let iko = deep_query_ios Ext_pst.Iko b n in
  let basic = deep_query_ios Ext_pst.Basic b n in
  check_bool
    (Printf.sprintf "path caching beats IKO (%.1f < %.1f)" basic iko)
    true
    (basic *. 1.5 < iko)

let test_query_io_absolute_bound () =
  (* O(log_B n + t/B) with an explicit constant: generous but binding. *)
  let b = 64 in
  let n = 64000 in
  let rng = Rng.create 29 in
  let u = 1_000_000 in
  let pts = Workload.points rng Workload.Uniform ~n ~universe:u in
  List.iter
    (fun v ->
      let t = build v b pts in
      List.iter
        (fun (xl, yb) ->
          let res, st = Ext_pst.query t ~xl ~yb in
          let tt = List.length res in
          let log_b_n = Num_util.ceil_log ~base:b (max 2 n) in
          let bound = (14 * log_b_n) + (4 * Num_util.ceil_div tt b) + 12 in
          check_bool
            (Format.asprintf "%a: %d I/Os <= %d (t=%d)" Ext_pst.pp_variant v
               (Query_stats.total st) bound tt)
            true
            (Query_stats.total st <= bound))
        (Workload.two_sided_corners rng ~k:25 ~universe:u))
    [ Ext_pst.Basic; Ext_pst.Segmented; Ext_pst.Two_level; Ext_pst.Multilevel ]

let test_output_sensitivity () =
  (* at fixed n, I/O must scale with t/B once t dominates *)
  let b = 32 in
  let n = 32000 in
  let rng = Rng.create 31 in
  let pts = Workload.points rng Workload.Uniform ~n ~universe:1_000_000 in
  let t = build Ext_pst.Two_level b pts in
  let io_for frac =
    let xl, yb = Workload.corner_for_target_t pts ~frac in
    let res, st = Ext_pst.query t ~xl ~yb in
    (List.length res, Query_stats.total st)
  in
  let t1, io1 = io_for 0.01 in
  let t2, io2 = io_for 0.30 in
  check_bool "big outputs cost more" true (io2 > io1);
  (* I/O per reported page stays bounded *)
  check_bool "within 6x of t/B lower bound" true
    (io2 <= 6 * (Num_util.ceil_div t2 b + Num_util.ceil_log ~base:b n + 1));
  ignore t1

let test_wasteful_io_bounded () =
  (* the path-cached query's wasteful reads must stay far below the
     baseline's on underfull-page workloads *)
  let b = 64 in
  let n = 32000 in
  let rng = Rng.create 37 in
  let pts = Workload.points rng Workload.Uniform ~n ~universe:1_000_000 in
  let iko = build Ext_pst.Iko b pts in
  let seg = build Ext_pst.Segmented b pts in
  let corners = List.init 15 (fun i -> (1_000_000 - 3000 - (i * 50), i)) in
  let waste t =
    List.fold_left
      (fun acc (xl, yb) ->
        let _, st = Ext_pst.query t ~xl ~yb in
        acc + st.Query_stats.wasteful_reads)
      0 corners
  in
  let wi = waste iko and ws = waste seg in
  check_bool (Printf.sprintf "wasteful: segmented %d < iko %d" ws wi) true (ws * 2 < wi)

(* ----- schedules ----- *)

let test_capacity_schedules () =
  let caps, modes = Ext_pst.capacity_schedule ~variant:Ext_pst.Two_level ~b:64 in
  Alcotest.(check (list int)) "two-level caps" [ 64 * 6; 64 ] caps;
  check_int "two modes" 2 (List.length modes);
  let caps, _ = Ext_pst.capacity_schedule ~variant:Ext_pst.Multilevel ~b:256 in
  check_bool "multilevel decreasing" true
    (List.sort (fun a b -> compare b a) caps = caps);
  check_int "multilevel ends at b" 256 (List.nth caps (List.length caps - 1));
  let caps, modes = Ext_pst.capacity_schedule ~variant:Ext_pst.Iko ~b:32 in
  Alcotest.(check (list int)) "iko caps" [ 32 ] caps;
  check_bool "iko no caches" true (modes = [ Pc_extpst.Types.No_caches ])

(* ----- region tree invariants ----- *)

let test_region_tree_invariants () =
  let rng = Rng.create 41 in
  List.iter
    (fun (cap, n) ->
      let pts = Workload.points rng Workload.Uniform ~n ~universe:10000 in
      let rt = Region_tree.build ~capacity:cap pts in
      Region_tree.check_invariants rt;
      check_int "size" n (Region_tree.size rt);
      check_int "points preserved" n (List.length (Region_tree.all_points rt)))
    [ (1, 50); (4, 1000); (64, 1000); (64, 5000) ]

(* The specification of [Region_tree.build]: each region stably sorts its
   points by decreasing y, keeps the first [capacity], stably sorts those
   by decreasing x, sorts the rest by (x, y, id) and splits it at the
   median; the right subtree is numbered first. *)
let reference_region_tree ~capacity pts =
  let counter = ref 0 in
  let rec make pts depth xlo xhi =
    if pts = [] then None
    else begin
      let idx = !counter in
      incr counter;
      let by_y = List.sort Point.compare_y_desc pts in
      let top = List.filteri (fun i _ -> i < capacity) by_y in
      let pts_by_y = Array.of_list top in
      let pts_by_x = Array.of_list (List.sort Point.compare_x_desc top) in
      let min_y = pts_by_y.(Array.length pts_by_y - 1).Point.y in
      let rest =
        List.filteri (fun i _ -> i >= capacity) by_y
        |> List.sort Point.compare_xy
      in
      let split, left, right =
        if rest = [] then ((xlo + xhi) / 2, None, None)
        else
          let k = (List.length rest - 1) / 2 in
          let split = (List.nth rest k).Point.x in
          let part keep = List.filteri (fun i _ -> keep i) rest in
          let right = make (part (fun i -> i > k)) (depth + 1) split xhi in
          let left = make (part (fun i -> i <= k)) (depth + 1) xlo split in
          (split, left, right)
      in
      Some
        { Region_tree.idx; depth; pts_by_y; pts_by_x; min_y; split; xlo; xhi;
          left; right }
    end
  in
  let root = make pts 0 min_int max_int in
  (root, !counter)

(* Orders: shuffled, x-sorted with y rising (every point beats the worst
   one kept so far), x-sorted with y falling, and sorted by
   [Point.compare_xy] (the root's rest is then already in order and its
   sort is skipped). A small universe makes coordinates collide; every
   other case reuses ids, which pins the tie order among points equal in
   y and id. *)
let prop_region_tree_matches_reference =
  QCheck.Test.make ~name:"region tree build matches the list-sorting reference"
    ~count:300
    QCheck.(
      quad (int_range 0 400)
        (oneofl [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 64 ])
        (oneofl [ `Shuffled; `Y_rising; `Y_falling; `Xy_sorted ])
        (pair (int_range 1 64) int))
    (fun (n, capacity, order, (universe, seed)) ->
      let st = Random.State.make [| seed |] in
      let coord () = Random.State.int st universe in
      let xs = List.init n (fun _ -> coord ()) in
      let ys = List.init n (fun _ -> coord ()) in
      let xs, ys =
        match order with
        | `Shuffled | `Xy_sorted -> (xs, ys)
        | `Y_rising -> (List.sort compare xs, List.sort compare ys)
        | `Y_falling -> (List.sort compare xs, List.sort (Fun.flip compare) ys)
      in
      let id i = if seed land 1 = 0 then i else i mod ((n / 3) + 1) in
      let pts =
        List.mapi (fun i (x, y) -> Point.make ~x ~y ~id:(id i)) (List.combine xs ys)
      in
      let pts =
        if order = `Xy_sorted then List.sort Point.compare_xy pts else pts
      in
      let rt = Region_tree.build ~capacity pts in
      Region_tree.check_invariants rt;
      let root, num = reference_region_tree ~capacity pts in
      Region_tree.root rt = root
      && Region_tree.num_nodes rt = num
      && Region_tree.size rt = n
      && List.for_all
           (fun i -> (Region_tree.node_by_idx rt i).idx = i)
           (List.init num Fun.id))

let prop_extpst_random =
  QCheck.Test.make ~name:"random small instances match oracle (all variants)"
    ~count:40
    QCheck.(
      triple (int_range 2 10)
        (small_list (pair (int_range 0 30) (int_range 0 30)))
        (pair (int_range 0 35) (int_range 0 35)))
    (fun (b, raw, (xl, yb)) ->
      let pts = List.mapi (fun i (x, y) -> Point.make ~x ~y ~id:i) raw in
      let want = Oracle.two_sided pts ~xl ~yb |> Oracle.ids in
      List.for_all
        (fun v ->
          let t = Ext_pst.create ~variant:v ~b pts in
          Oracle.ids (fst (Ext_pst.query t ~xl ~yb)) = want)
        Ext_pst.all_variants)

let suite =
  [
    ("all variants vs oracle", `Slow, test_all_variants_vs_oracle);
    ("duplicate coordinates", `Quick, test_duplicate_coordinates);
    ("identical points", `Quick, test_identical_points);
    ("extreme corners", `Quick, test_extreme_corners);
    ("storage ladder (Thm 3.2/4.3)", `Slow, test_storage_ladder);
    ("iko storage linear", `Quick, test_iko_storage_linear);
    ("query I/O separation (Lemma 3.1)", `Slow, test_query_io_separation);
    ("query I/O absolute bound", `Slow, test_query_io_absolute_bound);
    ("output sensitivity (t/B term)", `Quick, test_output_sensitivity);
    ("wasteful I/O bounded", `Quick, test_wasteful_io_bounded);
    ("capacity schedules", `Quick, test_capacity_schedules);
    ("region tree invariants", `Quick, test_region_tree_invariants);
    QCheck_alcotest.to_alcotest prop_region_tree_matches_reference;
    QCheck_alcotest.to_alcotest prop_extpst_random;
  ]
