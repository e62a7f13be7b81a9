(* Cost-model conformance, the metrics registry, and the bench
   regression gate: every structure's fixed-seed workload stays within
   its theorem bound, an under-provisioned bound is flagged, baselines
   round-trip through JSON, and the diff rules fire on inflation,
   violation and disappearance. *)

open Pathcaching

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let universe = 1_000_000
let seed = 42

(* ----- the bound functions themselves ----- *)

let test_bound_basics () =
  List.iter
    (fun s ->
      (* names round-trip: the bench-diff baseline stores them *)
      Alcotest.(check (option string))
        "of_name inverts name"
        (Some (Cost_model.name s))
        (Option.map Cost_model.name (Cost_model.of_name (Cost_model.name s)));
      (* predictions are >= 1 and monotone in t *)
      let p0 = Cost_model.predicted_query_ios s ~n:1000 ~b:64 ~t:0 in
      let p1 = Cost_model.predicted_query_ios s ~n:1000 ~b:64 ~t:10_000 in
      check_bool "prediction >= 1" true (p0 >= 1.);
      check_bool "monotone in t" true (p1 > p0);
      check_bool "build bound positive" true
        (Cost_model.predicted_build_ios s ~n:1000 ~b:64 > 0.);
      check_bool "storage bound positive" true
        (Cost_model.predicted_storage_pages s ~n:1000 ~b:64 > 0.))
    Cost_model.all;
  check_bool "unknown name" true (Cost_model.of_name "no-such" = None)

let test_verdict_fields () =
  let v = Cost_model.Conformance.check Cost_model.Btree ~n:4096 ~b:64 ~t:0 ~measured:3 in
  check_int "measured" 3 v.Cost_model.Conformance.measured;
  check_bool "ratio = measured/predicted" true
    (abs_float
       (v.Cost_model.Conformance.ratio
       -. (3. /. v.Cost_model.Conformance.predicted))
    < 1e-9);
  check_bool "within iff ratio <= 1" true
    (v.Cost_model.Conformance.within = (v.Cost_model.Conformance.ratio <= 1.))

(* ----- conformance on all nine structures, fixed seeds ----- *)

(* Each runner returns the verdicts of a small seeded workload; the test
   asserts every query stays within its theorem bound — the same checks
   bench/regress.exe gates on, at test-sized n. *)

let deep_corners k = List.init k (fun i -> (universe - 3000 - (i * 100), i * 3))

let pst2_verdicts variant =
  let rng = Rng.create seed in
  let pts = Workload.points rng Workload.Uniform ~n:4000 ~universe in
  let t = Ext_pst.create ~variant ~b:32 pts in
  List.map
    (fun (xl, yb) ->
      let res, st = Ext_pst.query t ~xl ~yb in
      Ext_pst.conformance t ~t_out:(List.length res)
        ~measured:(Query_stats.total st))
    (deep_corners 10)

let check_all_within name verdicts =
  List.iter
    (fun (v : Cost_model.Conformance.verdict) ->
      if not v.Cost_model.Conformance.within then
        Alcotest.failf "%s: measured %d > predicted %.1f (ratio %.2f)" name
          v.Cost_model.Conformance.measured v.Cost_model.Conformance.predicted
          v.Cost_model.Conformance.ratio)
    verdicts;
  check_bool (name ^ ": ran queries") true (verdicts <> [])

let test_conformance_pst2 () =
  List.iter
    (fun variant ->
      check_all_within
        (Format.asprintf "pst2 %a" Ext_pst.pp_variant variant)
        (pst2_verdicts variant))
    Ext_pst.all_variants

let test_conformance_pst3 () =
  let rng = Rng.create seed in
  let pts = Workload.points rng Workload.Uniform ~n:4000 ~universe in
  List.iter
    (fun mode ->
      let t = Ext_pst3.create ~mode ~b:32 pts in
      let qrng = Rng.create (seed + 1) in
      check_all_within "pst3"
        (List.init 10 (fun _ ->
             let xl = Rng.int qrng universe in
             let xr = min (universe - 1) (xl + (universe / 50)) in
             let res, st = Ext_pst3.query t ~xl ~xr ~yb:(universe - 4000) in
             Ext_pst3.conformance t ~t_out:(List.length res)
               ~measured:(Query_stats.total st))))
    [ Ext_pst3.Baseline; Ext_pst3.Cached ]

let stab_workload ~stab ~conf t =
  let qrng = Rng.create (seed + 2) in
  List.init 10 (fun _ ->
      let q = Rng.int qrng universe in
      let res, st = stab t q in
      conf t ~t_out:(List.length res) ~measured:(Query_stats.total st))

let test_conformance_interval_structures () =
  let rng = Rng.create seed in
  let ivs = Workload.intervals rng Workload.Mixed_ivals ~n:3000 ~universe in
  List.iter
    (fun mode ->
      let t = Ext_seg.create ~mode ~b:32 ivs in
      check_all_within "segtree"
        (stab_workload ~stab:Ext_seg.stab ~conf:Ext_seg.conformance t))
    [ Ext_seg.Naive; Ext_seg.Cached ];
  List.iter
    (fun mode ->
      let t = Ext_int.create ~mode ~b:32 ivs in
      check_all_within "inttree"
        (stab_workload ~stab:Ext_int.stab ~conf:Ext_int.conformance t))
    [ Ext_int.Naive; Ext_int.Cached ];
  let t = Stabbing.create ~b:32 ivs in
  check_all_within "stabbing"
    (stab_workload ~stab:Stabbing.stab ~conf:Stabbing.conformance t)

let test_conformance_btree_range_dynamic () =
  let bt = Btree.bulk_load_in ~b:32 (List.init 4000 (fun i -> (i * 7, i))) in
  let rng = Rng.create seed in
  check_all_within "btree"
    (List.init 10 (fun i ->
         let width = [| 10; 100; 1000 |].(i mod 3) in
         let lo = Rng.int rng (4000 * 7) in
         Pager.reset_stats (Btree.pager bt);
         let res = Btree.range bt ~lo ~hi:(lo + width) in
         Btree.conformance bt ~t_out:(List.length res)
           ~measured:(Io_stats.total (Pager.stats (Btree.pager bt)))));
  let pts = Workload.points rng Workload.Uniform ~n:3000 ~universe in
  let rt = Ext_range.create ~b:32 pts in
  let qrng = Rng.create (seed + 3) in
  check_all_within "range2d"
    (List.init 10 (fun _ ->
         let x1 = Rng.int qrng universe and y1 = Rng.int qrng universe in
         let res, st =
           Ext_range.query rt ~x1
             ~x2:(min (universe - 1) (x1 + (universe / 40)))
             ~y1
             ~y2:(min (universe - 1) (y1 + (universe / 40)))
         in
         Ext_range.conformance rt ~t_out:(List.length res)
           ~measured:(Query_stats.total st)));
  let dt = Dynamic_pst.create ~b:32 pts in
  check_all_within "dynamic2"
    (List.map
       (fun (xl, yb) ->
         let res, st = Dynamic_pst.query dt ~xl ~yb in
         Dynamic_pst.conformance dt ~t_out:(List.length res)
           ~measured:(Query_stats.total st))
       (deep_corners 10))

let test_conformance_class_index () =
  let h = Class_index.hierarchy () in
  let rng = Rng.create seed in
  for i = 1 to 19 do
    let parent = if i = 1 then 0 else Rng.int rng i in
    Class_index.add_class h
      ~name:(Printf.sprintf "c%d" i)
      ~parent:(if parent = 0 then "object" else Printf.sprintf "c%d" parent)
  done;
  let objs =
    List.init 3000 (fun oid ->
        {
          Class_index.cls = Printf.sprintf "c%d" (1 + Rng.int rng 19);
          key = Rng.int rng universe;
          oid;
        })
  in
  let t = Class_index.build h ~b:32 objs in
  let qrng = Rng.create (seed + 4) in
  check_all_within "class_index"
    (List.init 10 (fun _ ->
         let cls = Printf.sprintf "c%d" (1 + Rng.int qrng 19) in
         let res, st =
           Class_index.query t ~cls
             ~key_at_least:(universe - Rng.int qrng (universe / 4))
         in
         Class_index.conformance t ~t_out:(List.length res)
           ~measured:(Query_stats.total st)))

(* ----- under-provisioned bound: the checker must flag it ----- *)

(* The binary [IKO] baseline measured against the B-ary Lemma 3.1 /
   B+-tree budget: log2 n paths cannot fit a log_B n bound, so at least
   one deep-corner query must come back over the line. *)
let test_violation_flagged () =
  let rng = Rng.create seed in
  let pts = Workload.points rng Workload.Uniform ~n:32_000 ~universe in
  let t = Ext_pst.create ~variant:Ext_pst.Iko ~b:64 pts in
  let summ = Cost_model.Conformance.summary () in
  List.iter
    (fun (xl, yb) ->
      let res, st = Ext_pst.query t ~xl ~yb in
      Cost_model.Conformance.record summ
        (Cost_model.Conformance.check Cost_model.Btree ~n:32_000 ~b:64
           ~t:(List.length res)
           ~measured:(Query_stats.total st)))
    (deep_corners 10);
  check_bool "under-provisioned bound violated" false
    (Cost_model.Conformance.all_within summ);
  check_bool "violations listed" true
    (Cost_model.Conformance.violations summ <> []);
  check_bool "worst ratio > 1" true
    (Cost_model.Conformance.worst_ratio summ > 1.);
  check_bool "report names the violation" true
    (contains_sub (Cost_model.Conformance.report summ) "VIOLATION")

let test_summary_accumulation () =
  let summ = Cost_model.Conformance.summary () in
  check_int "empty count" 0 (Cost_model.Conformance.count summ);
  check_bool "empty worst ratio" true
    (Cost_model.Conformance.worst_ratio summ = 0.);
  check_bool "empty all_within" true (Cost_model.Conformance.all_within summ);
  Cost_model.Conformance.record summ
    (Cost_model.Conformance.check Cost_model.Btree ~n:4096 ~b:64 ~t:0
       ~measured:3);
  Cost_model.Conformance.record summ
    (Cost_model.Conformance.check Cost_model.Btree ~n:4096 ~b:64 ~t:0
       ~measured:5);
  check_int "count" 2 (Cost_model.Conformance.count summ);
  (match Cost_model.Conformance.worst summ with
  | Some w -> check_int "worst keeps highest ratio" 5 w.Cost_model.Conformance.measured
  | None -> Alcotest.fail "worst empty");
  check_int "one structure" 1
    (List.length (Cost_model.Conformance.by_structure summ))

(* ----- bench gate ----- *)

let entry ?(experiment = "R1") ?(structure = "btree")
    ?(theorem = "§1 baseline") ?(n = 1000) ?(b = 64) ?(mean = 4.5) ?(p99 = 7)
    ?(max = 9) ?(ratio = 0.75) ?(within = true) () =
  {
    Bench_gate.experiment;
    structure;
    theorem;
    n;
    b;
    queries = 20;
    mean_ios = mean;
    p50_ios = 4;
    p99_ios = p99;
    max_ios = max;
    worst_ratio = ratio;
    within;
    mean_us = 12.5;
    p99_us = 40.;
  }

let test_baseline_roundtrip () =
  let base =
    {
      Bench_gate.seed = 42;
      entries =
        [
          entry ();
          entry ~experiment:"R2" ~structure:"pst2.two_level" ~theorem:"Thm 4.3"
            ~n:16000 ~mean:5.27 ();
        ];
    }
  in
  match Bench_gate.of_string (Bench_gate.to_json base) with
  | Error m -> Alcotest.failf "round trip failed: %s" m
  | Ok got ->
      check_int "seed" base.Bench_gate.seed got.Bench_gate.seed;
      check_bool "entries equal" true
        (got.Bench_gate.entries = base.Bench_gate.entries)

let test_baseline_rejects () =
  check_bool "wrong schema rejected" true
    (Result.is_error (Bench_gate.of_string "{\"schema\":\"nope\"}"));
  check_bool "malformed entry rejected" true
    (Result.is_error
       (Bench_gate.of_string
          (Printf.sprintf "{\"schema\":\"%s\"}\n{\"experiment\":\"R1\"}\n"
             Bench_gate.schema)));
  check_bool "missing file is an error" true
    (Result.is_error (Bench_gate.of_file "/nonexistent/BENCH.json"))

let diff ?tolerance baseline current =
  Bench_gate.diff ?tolerance
    ~baseline:{ Bench_gate.seed = 42; entries = baseline }
    ~current:{ Bench_gate.seed = 42; entries = current }
    ()

let has_failure pred r = List.exists pred r.Bench_gate.failures

let test_diff_clean () =
  let r = diff [ entry () ] [ entry () ] in
  check_bool "identical passes" true (Bench_gate.passed r);
  check_int "compared" 1 r.Bench_gate.compared;
  (* +5% mean stays inside the default 10% tolerance *)
  check_bool "small drift passes" true
    (Bench_gate.passed (diff [ entry ~mean:10. () ] [ entry ~mean:10.5 () ]))

let test_diff_regression () =
  (* >10% mean inflation on a synthetic baseline must fail the gate *)
  let r = diff [ entry ~mean:10. () ] [ entry ~mean:11.6 () ] in
  check_bool "inflation fails" false (Bench_gate.passed r);
  check_bool "regression names the metric" true
    (has_failure
       (function
         | Bench_gate.Regression { metric = "mean_ios"; _ } -> true
         | _ -> false)
       r);
  (* a looser tolerance admits the same drift *)
  check_bool "tolerance respected" true
    (Bench_gate.passed
       (diff ~tolerance:0.25 [ entry ~mean:10. () ] [ entry ~mean:11.6 () ]));
  (* tail inflation is gated independently of the mean *)
  check_bool "p99 inflation fails" false
    (Bench_gate.passed (diff [ entry ~p99:10 () ] [ entry ~p99:14 () ]))

let test_diff_violation_and_missing () =
  let r = diff [ entry () ] [ entry ~within:false ~ratio:1.3 () ] in
  check_bool "violation fails" false (Bench_gate.passed r);
  check_bool "violation failure kind" true
    (has_failure (function Bench_gate.Violation _ -> true | _ -> false) r);
  let r = diff [ entry (); entry ~experiment:"R2" () ] [ entry () ] in
  check_bool "missing fails" false (Bench_gate.passed r);
  check_bool "missing failure kind" true
    (has_failure (function Bench_gate.Missing _ -> true | _ -> false) r);
  (* an extra current entry is informational unless it violates *)
  let r = diff [ entry () ] [ entry (); entry ~experiment:"R9" () ] in
  check_bool "added passes" true (Bench_gate.passed r);
  check_int "added listed" 1 (List.length r.Bench_gate.added);
  let r =
    diff [ entry () ] [ entry (); entry ~experiment:"R9" ~within:false () ]
  in
  check_bool "added violation still fails" false (Bench_gate.passed r)

(* ----- metrics registry ----- *)

let test_metrics_instruments () =
  let m = Metrics.create () in
  let c = Metrics.counter m "x_total" ~labels:[ ("k", "a") ] in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  check_int "counter" 5 (Metrics.counter_value c);
  (* same (name, labels) returns the same instance *)
  Metrics.inc (Metrics.counter m "x_total" ~labels:[ ("k", "a") ]);
  check_int "idempotent registration" 6 (Metrics.counter_value c);
  let g = Metrics.gauge m "y" in
  Metrics.set g 7;
  check_int "gauge" 7 (Metrics.gauge_value g);
  let h = Metrics.histogram m "z" in
  Histogram.add h 3;
  check_int "histogram" 1 (Histogram.count h);
  Alcotest.check_raises "type conflict"
    (Invalid_argument "Metrics: x_total already registered as counter")
    (fun () -> ignore (Metrics.gauge m "x_total"));
  Alcotest.(check (list string)) "names" [ "x_total"; "y"; "z" ] (Metrics.names m)

let pager_workload ?obs () =
  let p : int Pager.t = Pager.create ?obs ~obs_name:"p" ~page_capacity:4 () in
  let ids = List.init 6 (fun i -> Pager.alloc p [| i |]) in
  List.iter (fun id -> ignore (Pager.read p id)) ids;
  List.iter (fun id -> ignore (Pager.read p id)) ids;
  Pager.stats p

let test_metrics_observe_stream () =
  let m = Metrics.create () in
  let obs = Obs.create () in
  Metrics.attach m obs;
  let st = pager_workload ~obs () in
  let reads =
    Metrics.counter_value
      (Metrics.counter m "pathcache_io_events_total"
         ~labels:[ ("kind", "read"); ("source", "p") ])
  in
  check_int "read events counted per source" st.Io_stats.reads reads;
  let out = Metrics.to_prometheus m in
  check_bool "prometheus has counter line" true
    (contains_sub out
       (Printf.sprintf
          "pathcache_io_events_total{kind=\"read\",source=\"p\"} %d" reads));
  check_bool "prometheus has TYPE header" true
    (contains_sub out "# TYPE pathcache_io_events_total counter");
  check_bool "json export mentions family" true
    (contains_sub (Metrics.to_json m) "\"pathcache_io_events_total\"")

let test_metrics_attach_keeps_trace_sink () =
  (* attach tees: the ring sink installed first still sees every event *)
  let obs = Obs.create ~sink:(Obs.ring ~capacity:64) () in
  let m = Metrics.create () in
  Metrics.attach m obs;
  ignore (pager_workload ~obs ());
  check_bool "trace sink still records" true (Obs.events obs <> [])

let test_metrics_byte_identity () =
  (* I/O counts with a metrics-attached handle are byte-identical to the
     unobserved run: the registry only listens *)
  let st_plain = pager_workload () in
  let m = Metrics.create () in
  let obs = Obs.create () in
  Metrics.attach m obs;
  let st_metered = pager_workload ~obs () in
  check_bool "io stats identical" true (st_plain = st_metered)

let test_metrics_span_histogram () =
  let m = Metrics.create () in
  let obs = Obs.create () in
  Metrics.attach m obs;
  let rng = Rng.create seed in
  let pts = Workload.points rng Workload.Uniform ~n:500 ~universe in
  let t = Ext_pst.create ~obs ~variant:Ext_pst.Basic ~b:16 pts in
  ignore (Ext_pst.query t ~xl:(universe / 2) ~yb:(universe / 2));
  ignore (Ext_pst.query t ~xl:(universe / 4) ~yb:(universe / 4));
  let spans =
    Metrics.counter_value
      (Metrics.counter m "pathcache_spans_total"
         ~labels:[ ("label", "query.2sided") ])
  in
  check_int "query spans counted" 2 spans;
  (* the query span's Query_stats args feed the per-span I/O histogram *)
  let h =
    Metrics.histogram m "pathcache_span_total_ios"
      ~labels:[ ("label", "query.2sided") ]
  in
  check_int "span io histogram fed" 2 (Histogram.count h)

let test_export_metrics_snapshots () =
  let m = Metrics.create () in
  let p : int Pager.t = Pager.create ~obs_name:"store" ~page_capacity:4 () in
  ignore (Pager.alloc p [| 1 |]);
  Pager.export_metrics p m;
  check_int "pages gauge" 1
    (Metrics.gauge_value
       (Metrics.gauge m "pathcache_pager_pages_in_use"
          ~labels:[ ("pager", "store") ]));
  let pool = Buffer_pool.create ~capacity:4 () in
  Buffer_pool.export_metrics pool m;
  check_int "pool capacity gauge" 4
    (Metrics.gauge_value
       (Metrics.gauge m "pathcache_pool_capacity_frames"
          ~labels:[ ("policy", Buffer_pool.policy_name pool) ]))

let suite =
  [
    Alcotest.test_case "bound basics and name round trip" `Quick
      test_bound_basics;
    Alcotest.test_case "verdict fields" `Quick test_verdict_fields;
    Alcotest.test_case "conformance: pst2 variants" `Quick test_conformance_pst2;
    Alcotest.test_case "conformance: pst3 modes" `Quick test_conformance_pst3;
    Alcotest.test_case "conformance: interval structures" `Quick
      test_conformance_interval_structures;
    Alcotest.test_case "conformance: btree / range2d / dynamic" `Quick
      test_conformance_btree_range_dynamic;
    Alcotest.test_case "conformance: class index" `Quick
      test_conformance_class_index;
    Alcotest.test_case "under-provisioned bound flagged" `Quick
      test_violation_flagged;
    Alcotest.test_case "summary accumulation" `Quick test_summary_accumulation;
    Alcotest.test_case "baseline json round trip" `Quick test_baseline_roundtrip;
    Alcotest.test_case "baseline rejects bad input" `Quick test_baseline_rejects;
    Alcotest.test_case "diff: clean and small drift" `Quick test_diff_clean;
    Alcotest.test_case "diff: >10% inflation fails" `Quick test_diff_regression;
    Alcotest.test_case "diff: violation and missing fail" `Quick
      test_diff_violation_and_missing;
    Alcotest.test_case "metrics instruments" `Quick test_metrics_instruments;
    Alcotest.test_case "metrics observe event stream" `Quick
      test_metrics_observe_stream;
    Alcotest.test_case "metrics attach tees trace sink" `Quick
      test_metrics_attach_keeps_trace_sink;
    Alcotest.test_case "metrics byte identity" `Quick test_metrics_byte_identity;
    Alcotest.test_case "metrics span histogram" `Quick
      test_metrics_span_histogram;
    Alcotest.test_case "pager/pool export snapshots" `Quick
      test_export_metrics_snapshots;
  ]
