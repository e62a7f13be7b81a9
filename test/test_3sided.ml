(* Tests for the 3-sided external PST (Theorem 3.3): oracle agreement
   including thin and degenerate x-ranges, duplicate-freedom, and the
   cached-vs-baseline I/O comparison. *)

open Pathcaching

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let both_modes = [ Ext_pst3.Baseline; Ext_pst3.Cached ]

let assert_matches pts t ~xl ~xr ~yb =
  let got, stats = Ext_pst3.query t ~xl ~xr ~yb in
  let want = Oracle.three_sided pts ~xl ~xr ~yb |> Oracle.ids in
  Alcotest.(check (list int))
    (Format.asprintf "%a q=(%d,%d,%d)" Ext_pst3.pp_mode (Ext_pst3.mode t) xl xr yb)
    want (Oracle.ids got);
  check_int "no duplicate reports" (List.length got)
    stats.Query_stats.reported_raw

let test_vs_oracle () =
  let rng = Rng.create 23 in
  List.iter
    (fun b ->
      List.iter
        (fun n ->
          List.iter
            (fun dist ->
              let pts = Workload.points rng dist ~n ~universe:1000 in
              let ts = List.map (fun m -> Ext_pst3.create ~mode:m ~b pts) both_modes in
              let queries =
                (0, 999, 0) :: (500, 500, 0) :: (0, 0, 0) :: (400, 600, 300)
                :: (Workload.three_sided rng ~k:25 ~universe:1000 ~width:200
                   @ Workload.three_sided rng ~k:15 ~universe:1000 ~width:3)
              in
              List.iter
                (fun (xl, xr, yb) ->
                  List.iter (fun t -> assert_matches pts t ~xl ~xr ~yb) ts)
                queries)
            [ Workload.Uniform; Workload.Clustered 5; Workload.Skyline ])
        [ 0; 1; 7; 150; 1200 ])
    [ 4; 8; 32 ]

let test_inverted_range () =
  let pts = List.init 50 (fun i -> Point.make ~x:i ~y:i ~id:i) in
  List.iter
    (fun m ->
      let t = Ext_pst3.create ~mode:m ~b:8 pts in
      check_int "xl > xr is empty" 0 (Ext_pst3.query_count t ~xl:30 ~xr:20 ~yb:0))
    both_modes

let test_degenerate_slab () =
  (* xl = xr: the classic "all points with this exact x" query *)
  let pts = List.init 200 (fun i -> Point.make ~x:(i mod 10) ~y:i ~id:i) in
  let rng = Rng.create 25 in
  List.iter
    (fun m ->
      let t = Ext_pst3.create ~mode:m ~b:8 pts in
      for _ = 0 to 15 do
        let x = Rng.int rng 12 and yb = Rng.int rng 220 in
        assert_matches pts t ~xl:x ~xr:x ~yb
      done)
    both_modes

let test_reduces_to_two_sided () =
  (* with xr = max_int the answers must agree with the 2-sided tree *)
  let rng = Rng.create 27 in
  let pts = Workload.points rng Workload.Uniform ~n:800 ~universe:1000 in
  let t3 = Ext_pst3.create ~mode:Ext_pst3.Cached ~b:16 pts in
  let t2 = Ext_pst.create ~variant:Ext_pst.Segmented ~b:16 pts in
  List.iter
    (fun (xl, yb) ->
      Alcotest.(check (list int))
        "3-sided with open right = 2-sided"
        (Oracle.ids (fst (Ext_pst.query t2 ~xl ~yb)))
        (Oracle.ids (fst (Ext_pst3.query t3 ~xl ~xr:max_int ~yb))))
    (Workload.two_sided_corners rng ~k:20 ~universe:1000)

let test_cached_io_improvement () =
  (* deep thin slabs with small output and low yb: the baseline pays
     O(log n) pages along both boundary paths; the cached variant hops.
     (High-yb queries have trivially short paths, where the baseline's
     smaller constants win — the theorems speak to the deep regime.) *)
  let rng = Rng.create 29 in
  let n = 32000 in
  let u = 1_000_000 in
  let pts = Workload.points rng Workload.Uniform ~n ~universe:u in
  let base = Ext_pst3.create ~mode:Ext_pst3.Baseline ~b:64 pts in
  let cached = Ext_pst3.create ~mode:Ext_pst3.Cached ~b:64 pts in
  let queries =
    List.init 15 (fun i -> ((u / 2) - 1500, (u / 2) + 1500 + i, i * 3))
  in
  let total t =
    List.fold_left
      (fun acc (xl, xr, yb) ->
        let _, st = Ext_pst3.query t ~xl ~xr ~yb in
        acc + Query_stats.total st)
      0 queries
  in
  let tb = total base and tc = total cached in
  check_bool (Printf.sprintf "cached io %d < baseline io %d" tc tb) true (tc < tb)

let test_query_io_bound () =
  (* O(log_B n + d_split + t/B) — documented deviation; for random
     queries d_split is tiny, so the optimal-style bound should hold. *)
  let rng = Rng.create 31 in
  let n = 32000 in
  let b = 64 in
  let pts = Workload.points rng Workload.Uniform ~n ~universe:1_000_000 in
  let t = Ext_pst3.create ~mode:Ext_pst3.Cached ~b pts in
  List.iter
    (fun (xl, xr, yb) ->
      let res, st = Ext_pst3.query t ~xl ~xr ~yb in
      let tt = List.length res in
      let bound =
        (20 * Num_util.ceil_log ~base:b (max 2 n)) + (5 * Num_util.ceil_div tt b) + 20
      in
      check_bool
        (Printf.sprintf "%d I/Os <= %d (t=%d)" (Query_stats.total st) bound tt)
        true
        (Query_stats.total st <= bound))
    (Workload.three_sided rng ~k:25 ~universe:1_000_000 ~width:200_000)

let prop_3sided_random =
  QCheck.Test.make ~name:"random small instances match oracle (both modes)"
    ~count:40
    QCheck.(
      pair (int_range 2 10)
        (pair
           (small_list (pair (int_range 0 25) (int_range 0 25)))
           (triple (int_range 0 30) (int_range 0 30) (int_range 0 30))))
    (fun (b, (raw, (a, c, yb))) ->
      let pts = List.mapi (fun i (x, y) -> Point.make ~x ~y ~id:i) raw in
      let xl = min a c and xr = max a c in
      let want = Oracle.three_sided pts ~xl ~xr ~yb |> Oracle.ids in
      List.for_all
        (fun m ->
          let t = Ext_pst3.create ~mode:m ~b pts in
          Oracle.ids (fst (Ext_pst3.query t ~xl ~xr ~yb)) = want)
        both_modes)

(* Page images. Each case is built through the binary codec onto an
   in-memory device, from its points in generation order and again
   sorted by [Point.compare_xy], and the digest of every page written
   must equal the one recorded for it. The I/O-count pins see neither
   page contents nor the order pages are allocated in; these digests
   see both. The first case collides in x and in (x, y) and reuses ids,
   so it pins how cache entries that compare equal are ordered. *)
let page_digest ~mode ~b pts =
  let dev =
    Pc_blockdev.Block_device.mem ~page_bytes:(Ext_pst3.page_bytes ~b) ()
  in
  ignore
    (Ext_pst3.create ~backend:{ Pager.dev; codec = Ext_pst3.codec } ~mode ~b
       pts);
  List.init (dev.size_pages ()) (fun i -> Digest.bytes (dev.read_page i))
  |> String.concat "" |> Digest.string |> Digest.to_hex

let page_image_cases =
  let points ~seed ~n ~universe ~id =
    let rng = Rng.create seed in
    List.init n (fun i ->
        let x = Rng.int rng universe in
        Point.make ~x ~y:(Rng.int rng universe) ~id:(id i))
  in
  [
    ( "cached b=4, colliding",
      Ext_pst3.Cached,
      4,
      points ~seed:41 ~n:600 ~universe:24 ~id:(fun i -> i mod 150),
      ( "309fa4fef1ffdc5e6d836491367680af",
        "80a0c15b4c07e20cb3e06abd85f50bad" ) );
    ( "cached b=8",
      Ext_pst3.Cached,
      8,
      points ~seed:43 ~n:3000 ~universe:(1 lsl 20) ~id:Fun.id,
      ( "296a70e0a5e8d51759777d90cf62bd5a",
        "296a70e0a5e8d51759777d90cf62bd5a" ) );
    ( "cached b=64",
      Ext_pst3.Cached,
      64,
      points ~seed:47 ~n:3000 ~universe:1000 ~id:Fun.id,
      ( "0c85049eff1fe49233526c5e51da702a",
        "0c85049eff1fe49233526c5e51da702a" ) );
    ( "baseline b=16",
      Ext_pst3.Baseline,
      16,
      points ~seed:53 ~n:2000 ~universe:300 ~id:Fun.id,
      ( "8c93a1583d017e5dc27a7b7ccc6fb634",
        "8c93a1583d017e5dc27a7b7ccc6fb634" ) );
  ]

let test_page_images () =
  List.iter
    (fun (name, mode, b, pts, (generated, sorted)) ->
      Alcotest.(check string)
        (name ^ ", generation order")
        generated (page_digest ~mode ~b pts);
      Alcotest.(check string)
        (name ^ ", xy-sorted")
        sorted
        (page_digest ~mode ~b (List.sort Point.compare_xy pts)))
    page_image_cases

(* Query outputs. Each case builds one structure and runs a seeded
   stream of slab queries aimed at t ≈ 1, 25 and 800 (plus an inverted
   range and a yb above every point). Per query it digests the answer
   list in order, the query's [Query_stats] and the page ids of the
   [Read] events the query caused, so a change to the query path that
   keeps answers as sets but reorders them, reads another page, or
   bills a read to another counter fails here. The colliding input
   repeats x values and reuses ids, which pins the deduplication's
   first-occurrence rule. *)
let query_digest ~mode ~b ~xu ~yu pts =
  let reads = ref [] in
  let obs =
    Obs.create
      ~sink:
        (Obs.custom (fun e ->
             if e.Obs.kind = Obs.Read then reads := e.Obs.page :: !reads))
      ()
  in
  let t = Ext_pst3.create ~obs ~mode ~b pts in
  let rng = Rng.create 59 in
  let n = List.length pts in
  let slabs t_target =
    List.init 12 (fun _ ->
        let w = 2 * t_target * xu / n in
        let xl = Rng.int rng (max 1 (xu - w)) in
        (xl, xl + w, yu / 2))
  in
  let queries =
    ((10, 5, 0) :: (0, xu, yu) :: slabs 1) @ slabs 25 @ slabs 800
  in
  let buf = Buffer.create 65_536 in
  List.iter
    (fun (xl, xr, yb) ->
      reads := [];
      let got, st = Ext_pst3.query t ~xl ~xr ~yb in
      Printf.bprintf buf "q %d %d %d:" xl xr yb;
      List.iter
        (fun (p : Point.t) -> Printf.bprintf buf " %d,%d,%d" p.x p.y p.id)
        got;
      List.iter
        (fun (k, v) -> Printf.bprintf buf " %s=%d" k v)
        (Query_stats.to_args st);
      List.iter (Printf.bprintf buf " r%d") (List.rev !reads);
      Buffer.add_char buf '\n')
    queries;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let query_digest_cases =
  let points ~seed ~xu ~yu ~id =
    let rng = Rng.create seed in
    List.init 4000 (fun i ->
        let x = Rng.int rng xu in
        Point.make ~x ~y:(Rng.int rng yu) ~id:(id i))
  in
  let u = 1 lsl 20 in
  let uniform = (u, u, points ~seed:61 ~xu:u ~yu:u ~id:Fun.id)
  and colliding =
    (96, 1000, points ~seed:67 ~xu:96 ~yu:1000 ~id:(fun i -> i mod 1500))
  in
  Ext_pst3.
    [
      ("cached b=4", Cached, 4, uniform, "12f2d00230ff27e724ecb13f010706e4");
      ("cached b=8", Cached, 8, uniform, "52df0e2d6996961689c2cd610d3ba734");
      ("cached b=64", Cached, 64, uniform, "fa7896a4ea5c284aa7e63720c69bf14b");
      ( "cached b=4, colliding",
        Cached,
        4,
        colliding,
        "b2ddea45897835e4ecb40af67e8afa43" );
      ( "baseline b=4",
        Baseline,
        4,
        uniform,
        "8854af409c1838fe85bde3a12fc44baa" );
      ( "baseline b=8",
        Baseline,
        8,
        uniform,
        "447a396a8c43d1de93542a069bb5e579" );
      ( "baseline b=64",
        Baseline,
        64,
        uniform,
        "8de4c6c0b79a47a8ccb8eb1b4e14e417" );
      ( "baseline b=4, colliding",
        Baseline,
        4,
        colliding,
        "cdfa5ace9c808278b583e44b5a7024fc" );
    ]

let test_query_digests () =
  List.iter
    (fun (name, mode, b, (xu, yu, pts), digest) ->
      Alcotest.(check string) name digest (query_digest ~mode ~b ~xu ~yu pts))
    query_digest_cases

let suite =
  [
    ("vs oracle", `Slow, test_vs_oracle);
    ("inverted range", `Quick, test_inverted_range);
    ("degenerate slab", `Quick, test_degenerate_slab);
    ("reduces to 2-sided", `Quick, test_reduces_to_two_sided);
    ("cached I/O improvement", `Quick, test_cached_io_improvement);
    ("query I/O bound", `Quick, test_query_io_bound);
    ("page images match the recorded digests", `Quick, test_page_images);
    ("query outputs match the recorded digests", `Quick, test_query_digests);
    QCheck_alcotest.to_alcotest prop_3sided_random;
  ]
