(* Observability subsystem: golden event traces, histogram buckets,
   the null-sink zero-overhead contract, JSONL replay equivalence, and
   the [with_counted] nesting contract. *)

open Pathcaching

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let contains_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let universe = 1_000_000

let kinds_of evs = List.map (fun (e : Obs.event) -> e.Obs.kind) evs

(* ----- golden traces ----- *)

(* Exact event sequence for a hand-computed pager workload: every counter
   site fires exactly one event, in program order, with contiguous
   ticks. *)
let test_golden_pager () =
  let obs = Obs.create ~sink:(Obs.ring ~capacity:64) () in
  let p : int Pager.t = Pager.create ~obs ~obs_name:"p" ~page_capacity:4 () in
  let a = Pager.alloc p [| 1 |] in
  ignore (Pager.read p a);
  Pager.write p a [| 2 |];
  Pager.free p a;
  let evs = Obs.events obs in
  Alcotest.(check (list string))
    "event kinds"
    [ "alloc"; "write"; "read"; "write"; "free" ]
    (List.map Obs.kind_name (kinds_of evs));
  List.iteri
    (fun i (e : Obs.event) ->
      check_int "tick contiguous" i e.Obs.tick;
      check_int "page" a e.Obs.page;
      check_int "src" 0 e.Obs.src)
    evs

(* Fixed small B-tree: a point lookup opens a [btree.find] span whose
   enclosed reads are exactly the root-to-leaf page walk (the leaf level
   stores entries on overflow pages, hence one extra read past the
   height-2 descent). *)
let test_golden_btree () =
  let obs = Obs.create () in
  let t = Btree.bulk_load_in ~obs ~b:4 (List.init 8 (fun i -> (i, i * 10))) in
  check_int "height" 2 (Btree.height t);
  Obs.set_sink obs (Obs.ring ~capacity:64);
  Alcotest.(check (option int)) "find" (Some 30) (Btree.find t 3);
  let evs = Obs.events obs in
  Alcotest.(check (list string))
    "event kinds"
    [ "span_begin"; "read"; "read"; "read"; "span_end" ]
    (List.map Obs.kind_name (kinds_of evs));
  (match evs with
  | b :: _ -> check_string "span label" "btree.find" b.Obs.label
  | [] -> Alcotest.fail "no events");
  let pages =
    List.filter_map
      (fun (e : Obs.event) ->
        if e.Obs.kind = Obs.Read then Some e.Obs.page else None)
      evs
  in
  check_bool "walk touches distinct pages" true
    (List.length (List.sort_uniq compare pages) >= 2)

let test_span_exception () =
  let obs = Obs.create ~sink:(Obs.ring ~capacity:16) () in
  (try
     Obs.with_span (Some obs) ~kind:"boom" (fun () -> failwith "inner")
   with Failure _ -> ());
  check_int "depth restored" 0 (Obs.span_depth obs);
  match Obs.events obs with
  | [ b; e ] ->
      check_string "begin" "span_begin" (Obs.kind_name b.Obs.kind);
      check_string "end" "span_end" (Obs.kind_name e.Obs.kind);
      check_int "same span id" b.Obs.page e.Obs.page;
      Alcotest.(check (list (pair string int)))
        "error arg" [ ("error", 1) ] e.Obs.args
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_ring_capacity () =
  let obs = Obs.create ~sink:(Obs.ring ~capacity:3) () in
  let p : int Pager.t = Pager.create ~obs ~page_capacity:2 () in
  for _ = 1 to 5 do
    ignore (Pager.alloc p [| 0 |])
  done;
  (* 5 allocs + 5 writes = 10 events; the ring keeps the newest 3 *)
  let evs = Obs.events obs in
  check_int "ring keeps capacity" 3 (List.length evs);
  check_int "newest tick last" 9 (List.nth evs 2).Obs.tick

(* ----- histogram ----- *)

let test_histogram_exact () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0; 1; 5; 5; 63 ];
  check_int "count" 5 (Histogram.count h);
  check_int "total" 74 (Histogram.total h);
  check_int "min" 0 (Histogram.min_value h);
  check_int "max" 63 (Histogram.max_value h);
  (* values below 64 are exact: every percentile is a recorded value *)
  check_int "p50" 5 (Histogram.p50 h);
  check_int "p99" 63 (Histogram.p99 h);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Histogram.add: negative value") (fun () ->
      Histogram.add h (-1))

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for v = 1 to 100 do
    Histogram.add h v
  done;
  check_int "p50 of 1..100" 50 (Histogram.p50 h);
  (* above 63 buckets are octaves with 8 sub-buckets: at most 12.5% high,
     and clamped to the observed max *)
  let p99 = Histogram.p99 h in
  check_bool "p99 within bucket error" true (p99 >= 99 && p99 <= 100);
  check_int "p100 clamps to max" 100 (Histogram.percentile h 100.);
  check_int "max exact" 100 (Histogram.max_value h)

let test_histogram_buckets () =
  let h = Histogram.create () in
  (* 64 and 71 share the first octave sub-bucket ([64, 72)); 72 starts
     the next one *)
  List.iter (Histogram.add h) [ 64; 71; 72 ];
  (match Histogram.nonzero_buckets h with
  | [ (64, 2); (72, 1) ] -> ()
  | bs ->
      Alcotest.failf "unexpected buckets: %s"
        (String.concat ";"
           (List.map (fun (v, c) -> Printf.sprintf "(%d,%d)" v c) bs)));
  let big = 1_000_000 in
  Histogram.reset h;
  Histogram.add h big;
  let p = Histogram.percentile h 50. in
  check_bool "relative error <= 12.5%" true
    (p >= big && float_of_int p <= 1.125 *. float_of_int big)

let test_histogram_merge_json () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 1;
  Histogram.add b 2;
  Histogram.merge ~into:a b;
  check_int "merged count" 2 (Histogram.count a);
  check_int "merged total" 3 (Histogram.total a);
  let j = Histogram.to_json a in
  check_bool "json has fields" true
    (List.for_all (contains_sub j) [ "\"count\":2"; "\"p99\":"; "\"buckets\":" ])

(* ----- null-sink / no-handle overhead contract ----- *)

let pst_workload obs =
  let rng = Rng.create 7 in
  let pts = Workload.points rng Workload.Uniform ~n:2000 ~universe in
  let t = Ext_pst.create ?obs ~variant:Ext_pst.Two_level ~b:16 pts in
  let sts =
    List.map
      (fun (xl, yb) -> snd (Ext_pst.query t ~xl ~yb))
      (Workload.two_sided_corners rng ~k:8 ~universe)
  in
  (Ext_pst.io_stats t, List.map Query_stats.total sts)

let test_null_sink_identical () =
  let st_off, ios_off = pst_workload None in
  let st_null, ios_null = pst_workload (Some (Obs.create ())) in
  let st_ring, ios_ring =
    pst_workload (Some (Obs.create ~sink:(Obs.ring ~capacity:16) ()))
  in
  let totals (st : Io_stats.t) =
    ( st.Io_stats.reads,
      st.Io_stats.writes,
      st.Io_stats.cache_hits,
      st.Io_stats.allocs )
  in
  Alcotest.(check (list int)) "per-query I/O, null sink" ios_off ios_null;
  Alcotest.(check (list int)) "per-query I/O, live sink" ios_off ios_ring;
  check_bool "io_stats, null sink" true (totals st_off = totals st_null);
  check_bool "io_stats, live sink" true (totals st_off = totals st_ring)

(* ----- JSONL replay ----- *)

let test_replay_matches_counters () =
  let path = Filename.temp_file "pc_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let obs = Obs.to_file path in
      let rng = Rng.create 7 in
      let pts = Workload.points rng Workload.Uniform ~n:2000 ~universe in
      let t = Ext_pst.create ~obs ~variant:Ext_pst.Two_level ~b:16 pts in
      List.iter
        (fun (xl, yb) -> ignore (Ext_pst.query t ~xl ~yb))
        (Workload.two_sided_corners rng ~k:8 ~universe);
      let st = Ext_pst.io_stats t in
      Obs.close obs;
      let r = Obs.replay_file path in
      check_int "reads" st.Io_stats.reads r.Obs.t_reads;
      check_int "writes" st.Io_stats.writes r.Obs.t_writes;
      check_int "cache hits" st.Io_stats.cache_hits r.Obs.t_cache_hits;
      check_int "allocs" st.Io_stats.allocs r.Obs.t_allocs;
      check_int "frees" st.Io_stats.frees r.Obs.t_frees;
      check_int "evictions" st.Io_stats.evictions r.Obs.t_evictions;
      (* build + 8 queries *)
      check_int "spans" 9 r.Obs.t_spans)

let test_replay_pooled () =
  let path = Filename.temp_file "pc_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let obs = Obs.to_file path in
      let pool = Buffer_pool.create ~capacity:8 () in
      let t = Btree.bulk_load_in ~pool ~obs ~b:4 (List.init 200 (fun i -> (i, i))) in
      for lo = 0 to 20 do
        ignore (Btree.range t ~lo ~hi:(lo + 10))
      done;
      let st = Io_stats.snapshot (Pager.stats (Btree.pager t)) in
      Obs.close obs;
      let r = Obs.replay_file path in
      check_int "reads" st.Io_stats.reads r.Obs.t_reads;
      check_int "hits" st.Io_stats.cache_hits r.Obs.t_cache_hits;
      check_int "evictions" st.Io_stats.evictions r.Obs.t_evictions)

(* Each malformed line follows a well-formed one, so every reader must
   reject it and name line 2. The retired write-back and pin kinds are
   unknown kinds like any other. The last three rows start with "{",
   end with "}" and carry a known kind: only a field-by-field decode
   catches them. *)
let malformed_lines =
  [
    ("not an object", "this is not a trace");
    ("unknown kind", {|{"tick":1,"kind":"teleport","src":0,"page":1}|});
    ("retired write-back", {|{"tick":1,"kind":"write_back","src":0,"page":1}|});
    ("retired pin", {|{"tick":1,"kind":"pin","src":0,"page":1}|});
    ("missing page", {|{"tick":50,"kind":"read","src":0}|});
    ( "truncated args",
      {|{"tick":1,"kind":"phase","src":0,"page":1,"label":"dev.read","args":{"ns":10}|}
    );
    ( "bytes after the closing brace",
      {|{"tick":1,"kind":"read","src":0,"page":1} {"tick":2}|} );
  ]

let with_trace_lines lines f =
  let path = Filename.temp_file "pc_bad" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      f path)

let check_rejects ~what ~line read path =
  match read path with
  | () -> Alcotest.failf "%s: expected Failure" what
  | exception Failure msg ->
      check_bool
        (Printf.sprintf "%s names line %d (%s)" what line msg)
        true
        (contains_sub msg (Printf.sprintf "line %d:" line))

let test_replay_rejects_garbage () =
  let good = {|{"tick":0,"kind":"alloc","src":0,"page":1}|} in
  List.iter
    (fun (row, bad) ->
      with_trace_lines [ good; bad ] (fun path ->
          List.iter
            (fun (reader, read) ->
              check_rejects ~what:(row ^ ", " ^ reader) ~line:2 read path)
            [
              ("replay_file", fun p -> ignore (Obs.replay_file p));
              ("Profile.of_file", fun p -> ignore (Obs.Profile.of_file p));
              ("iter_file", fun p -> Obs.iter_file p ignore);
            ]))
    malformed_lines

let test_chrome_format () =
  let path = Filename.temp_file "pc_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let obs = Obs.to_file path in
      let p : int Pager.t = Pager.create ~obs ~page_capacity:4 () in
      Obs.with_span (Some obs) ~kind:"op" (fun () ->
          ignore (Pager.alloc p [| 1 |]));
      Obs.close obs;
      let ic = open_in path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      check_bool "JSON array" true
        (String.length s > 2 && s.[0] = '[');
      check_bool "closed bracket" true
        (String.contains s ']'))

(* ----- structure spans and stats payloads ----- *)

let test_query_span_args () =
  let obs = Obs.create ~sink:(Obs.ring ~capacity:4096) () in
  let rng = Rng.create 3 in
  let pts = Workload.points rng Workload.Uniform ~n:500 ~universe in
  let t = Ext_pst.create ~obs ~variant:Ext_pst.Two_level ~b:16 pts in
  let _, st = Ext_pst.query t ~xl:(universe - 1000) ~yb:0 in
  let closing =
    List.rev (Obs.events obs) |> List.find (fun (e : Obs.event) ->
        e.Obs.kind = Obs.Span_end && e.Obs.label = "query.2sided")
  in
  check_int "total attached" (Query_stats.total st)
    (List.assoc "total" closing.Obs.args);
  check_int "skeletal attached" st.Query_stats.skeletal_reads
    (List.assoc "skeletal_reads" closing.Obs.args)

(* ----- satellite: pp fixes ----- *)

let test_query_stats_pp_raw () =
  let st = Query_stats.create () in
  st.Query_stats.reported_raw <- 17;
  let s = Format.asprintf "%a" Query_stats.pp st in
  check_bool "pp shows raw" true (contains_sub s "raw=17")

(* ----- satellite: with_counted nesting ----- *)

let test_with_counted_nesting () =
  let p : int Pager.t = Pager.create ~page_capacity:4 () in
  let a = Pager.alloc p [| 1 |] in
  let b = Pager.alloc p [| 2 |] in
  let (inner : Io_stats.t), (outer : Io_stats.t) =
    let (inner, ()), outer =
      Pager.with_counted p (fun () ->
          ignore (Pager.read p a);
          let inner, () =
            let r, d = Pager.with_counted p (fun () -> ignore (Pager.read p b)) in
            (d, r)
          in
          ignore (Pager.read p a);
          (inner, ()))
    in
    (inner, outer)
  in
  (* inner is exact for its own body; the enclosing count includes it *)
  check_int "inner reads" 1 inner.Io_stats.reads;
  check_int "outer reads include inner" 3 outer.Io_stats.reads;
  (* counters stay monotonic: with_counted never resets them *)
  check_int "cumulative stats intact" 3 (Pager.stats p).Io_stats.reads

(* ----- satellite: percentile contract ----- *)

(* Exact nearest-rank reference on a sorted array: the smallest recorded
   value with at least p% of recordings <= it. Integer arithmetic —
   rank = ceil(p*n/100) — so the reference cannot itself suffer the
   binary-float overshoot the histogram guards against (0.56 *. 175. =
   98.00000000000001 would claim rank 99). *)
let exact_percentile values p_int =
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let rank = max 1 (((p_int * n) + 99) / 100) in
  List.nth sorted (rank - 1)

let test_percentile_empty () =
  let h = Histogram.create () in
  check_int "empty p0" 0 (Histogram.percentile h 0.);
  check_int "empty p50" 0 (Histogram.percentile h 50.);
  check_int "empty p100" 0 (Histogram.percentile h 100.);
  Alcotest.check_raises "p out of range" (Invalid_argument "Histogram.percentile")
    (fun () -> ignore (Histogram.percentile h 101.))

(* On the exact path (all values < 64) every integer percentile must
   equal the nearest-rank answer exactly. The sample sizes include the
   two known float-overshoot traps: 0.55 *. 20. = 11.000000000000002 and
   0.56 *. 175. = 98.00000000000001 would each misreport by one whole
   sample without the epsilon guard in Histogram.percentile. *)
let test_percentile_every_integer () =
  List.iter
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let values = List.init n (fun _ -> Rng.int rng 64) in
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      for p = 0 to 100 do
        check_int
          (Printf.sprintf "n=%d p=%d" n p)
          (exact_percentile values p)
          (Histogram.percentile h (float_of_int p))
      done)
    [ (1, 1); (2, 2); (3, 3); (4, 7); (5, 20); (6, 100); (7, 175); (8, 200) ]

(* The documented accuracy contract: exact below 64, within one octave
   sub-bucket (<= 12.5% relative error) above, never below the exact
   nearest-rank answer, never above the observed max. *)
let prop_percentile_reference =
  QCheck.Test.make ~name:"percentile vs exact sorted-array reference"
    ~count:1000
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 200) (int_range 0 100_000))
        (int_range 0 100))
    (fun (values, p_int) ->
      let p = float_of_int p_int in
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      let got = Histogram.percentile h p in
      let expect = exact_percentile values p_int in
      if expect < 64 then got = expect
      else
        got >= expect
        && got <= Histogram.max_value h
        && float_of_int got <= 1.125 *. float_of_int expect)

(* ----- satellite: trace profile aggregation ----- *)

(* Hand-written trace, hand-computed table: two query spans (3 and 1
   I/Os — a write counts, cache_hit does not) and one build span
   (2 writes); inclusive attribution gives the outer build span the
   nested query's read too. *)
let profile_trace =
  String.concat "\n"
    [
      {|{"tick":0,"kind":"span_begin","src":-1,"page":0,"label":"build"}|};
      {|{"tick":1,"kind":"alloc","src":0,"page":7}|};
      {|{"tick":2,"kind":"write","src":0,"page":7}|};
      {|{"tick":3,"kind":"write","src":0,"page":8}|};
      {|{"tick":4,"kind":"span_begin","src":-1,"page":1,"label":"query"}|};
      {|{"tick":5,"kind":"read","src":0,"page":7}|};
      {|{"tick":6,"kind":"span_end","src":-1,"page":1,"label":"query"}|};
      {|{"tick":7,"kind":"span_end","src":-1,"page":0,"label":"build"}|};
      {|{"tick":8,"kind":"span_begin","src":-1,"page":2,"label":"query"}|};
      {|{"tick":9,"kind":"read","src":0,"page":8}|};
      {|{"tick":10,"kind":"cache_hit","src":0,"page":8}|};
      {|{"tick":11,"kind":"read","src":0,"page":7}|};
      {|{"tick":12,"kind":"write","src":0,"page":7}|};
      {|{"tick":13,"kind":"span_end","src":-1,"page":2,"label":"query"}|};
      "";
    ]

let test_profile_golden () =
  let path = Filename.temp_file "pc_profile" ".jsonl" in
  let oc = open_out path in
  output_string oc profile_trace;
  close_out oc;
  let rows = Obs.Profile.of_file path in
  Sys.remove path;
  let table = Format.asprintf "%a" Obs.Profile.pp rows in
  check_string "profile table"
    ("span                  count   total-io     mean    p99    max\n"
   ^ "query                     2          4      2.0      3      3\n"
   ^ "build                     1          3      3.0      3      3\n")
    table

(* Well-formed lines whose span_end closes no open span, or not the
   innermost one. *)
let test_profile_rejects_garbage () =
  let begin_0 = {|{"tick":0,"kind":"span_begin","src":-1,"page":0,"label":"a"}|}
  and end_0 = {|{"tick":0,"kind":"span_end","src":-1,"page":0}|}
  and end_7 = {|{"tick":1,"kind":"span_end","src":-1,"page":7,"label":"a"}|} in
  List.iter
    (fun (what, lines) ->
      with_trace_lines lines (fun path ->
          check_rejects ~what ~line:(List.length lines)
            (fun p -> ignore (Obs.Profile.of_file p))
            path))
    [
      ("no open span", [ end_0 ]);
      ("not the innermost span", [ begin_0; end_7 ]);
    ]

(* ----- wall clock and phases (DESIGN.md §9) ----- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let read_all path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let temp_dir () =
  let d = Filename.temp_file "pc_obs_dir" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

(* One span enclosing a read and a timed phase — every clock reading of
   the mock clock is a deterministic function of event order, so the
   serialized trace is golden. *)
let wall_workload obs =
  let src = Obs.register obs ~name:"p" in
  Obs.with_span (Some obs) ~kind:"op" (fun () ->
      Obs.emit src Obs.Read ~page:3;
      Obs.with_phase src ~phase:"dev.read" ~page:3 (fun () -> ()))

let test_golden_mock_jsonl () =
  let path = Filename.temp_file "pc_wall" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let obs = Obs.to_file path in
      Obs.set_clock obs (Obs.Clock.mock ());
      wall_workload obs;
      Obs.close obs;
      (* mock readings, step 1000: span_begin stamp 0; read stamp 1000;
         phase start 2000, end 3000 (ns=1000), stamp 4000; span_end
         stamp 5000 *)
      Alcotest.(check (list string))
        "mock-clock jsonl golden"
        [
          {|{"tick":0,"kind":"span_begin","src":-1,"page":0,"wall_ns":0,"label":"op"}|};
          {|{"tick":1,"kind":"read","src":0,"page":3,"wall_ns":1000}|};
          {|{"tick":2,"kind":"phase","src":0,"page":3,"wall_ns":4000,"label":"dev.read","args":{"ns":1000}}|};
          {|{"tick":3,"kind":"span_end","src":-1,"page":0,"wall_ns":5000,"label":"op"}|};
        ]
        (read_lines path))

(* With the clock off the same workload serializes with no [wall_ns]
   field and no phase events at all — byte-identical to what earlier
   versions of the tracer wrote (the pinned lines are the pre-clock
   format). *)
let test_golden_clock_off_jsonl () =
  let path = Filename.temp_file "pc_wall" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let obs = Obs.to_file path in
      wall_workload obs;
      Obs.close obs;
      Alcotest.(check (list string))
        "clock-off jsonl is the pre-clock format"
        [
          {|{"tick":0,"kind":"span_begin","src":-1,"page":0,"label":"op"}|};
          {|{"tick":1,"kind":"read","src":0,"page":3}|};
          {|{"tick":2,"kind":"span_end","src":-1,"page":0,"label":"op"}|};
        ]
        (read_lines path))

let test_golden_mock_chrome () =
  let path = Filename.temp_file "pc_wall" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let obs = Obs.to_file path in
      Obs.set_clock obs (Obs.Clock.mock ());
      wall_workload obs;
      Obs.close obs;
      let s = read_all path in
      (* ts is wall microseconds; the phase is a complete event (ph X)
         placed at its start (stamp 4us minus dur 1us) on the source's
         lane *)
      List.iter
        (fun sub -> check_bool sub true (contains_sub s sub))
        [
          {|{"name":"op","cat":"span","ph":"B","ts":0,"pid":0,"tid":0}|};
          {|{"name":"read","cat":"io","ph":"i","ts":1,"pid":0,"tid":1,"s":"t","args":{"page":3}}|};
          {|{"name":"dev.read","cat":"phase","ph":"X","ts":3,"dur":1,"pid":0,"tid":1,"args":{"page":3,"ns":1000}}|};
          {|{"name":"op","cat":"span","ph":"E","ts":5,"pid":0,"tid":0|};
        ])

(* The profile invariant the issue pins: with a clock installed, each
   span's per-category phase table (including the synthetic "other")
   sums exactly to its wall time. Exercised end-to-end on a file-backed
   tree so real device/codec/wal/checksum phases flow through. *)
let test_phase_sums_equal_wall () =
  let dir = temp_dir () in
  let path = Filename.temp_file "pc_wall" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      Sys.remove path)
    (fun () ->
      let obs = Obs.to_file path in
      Obs.set_clock obs (Obs.Clock.mock ());
      let live = Obs.Profile.create () in
      Obs.set_sink obs
        (Obs.tee (Obs.current_sink obs)
           (Obs.custom (Obs.Profile.observe live)));
      let t =
        Btree.bulk_load_file ~obs ~dir ~b:8 (List.init 500 (fun i -> (i, i)))
      in
      for q = 0 to 9 do
        ignore (Btree.range t ~lo:(q * 40) ~hi:((q * 40) + 20))
      done;
      Btree.close t;
      Obs.close obs;
      let a = Obs.Profile.analyze_file path in
      (* the live fold and the one over the written file agree *)
      let l = Obs.Profile.analysis live in
      check_bool "live rows = file rows" true
        (l.Obs.Profile.rows = a.Obs.Profile.rows);
      check_bool "live stacks = file stacks" true
        (l.Obs.Profile.stacks = a.Obs.Profile.stacks);
      check_bool "live has_wall = file has_wall" true
        (l.Obs.Profile.has_wall = a.Obs.Profile.has_wall);
      check_bool "has wall" true a.Obs.Profile.has_wall;
      check_bool "has rows" true (a.Obs.Profile.rows <> []);
      List.iter
        (fun (r : Obs.Profile.row) ->
          let sum =
            List.fold_left (fun acc (_, ns) -> acc + ns) 0 r.Obs.Profile.phases
          in
          check_int
            (r.Obs.Profile.label ^ " phases sum to wall")
            r.Obs.Profile.wall_ns sum;
          check_bool
            (r.Obs.Profile.label ^ " has device time")
            true
            (List.mem_assoc "device" r.Obs.Profile.phases))
        a.Obs.Profile.rows;
      (* replay of a timed trace reports wall and per-category sums *)
      let totals = Obs.replay_file path in
      check_bool "replay wall > 0" true (totals.Obs.t_wall_ns > 0);
      check_bool "replay has device phase" true
        (List.mem_assoc "device" totals.Obs.t_phase_ns))

(* Device-latency histograms fill per pager whenever the handle carries
   a clock (no sink needed) and merge across pagers. *)
let test_device_histogram_merge () =
  let d1 = temp_dir () and d2 = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf d1;
      rm_rf d2)
    (fun () ->
      (* enough pages that the journaled build crosses the WAL's
         checkpoint threshold: the checkpoint's pt_sync is the timed
         dev.fsync *)
      let entries = List.init 600 (fun i -> (i, i)) in
      let build dir =
        let obs = Obs.create ~clock:(Obs.Clock.mock ()) () in
        let t = Btree.bulk_load_file ~obs ~dir ~b:8 entries in
        for q = 0 to 4 do
          ignore (Btree.range t ~lo:(q * 50) ~hi:((q * 50) + 25))
        done;
        t
      in
      let t1 = build d1 and t2 = build d2 in
      let dev_read t =
        match
          List.assoc_opt "dev.read" (Pager.phase_histograms (Btree.pager t))
        with
        | Some h -> h
        | None -> Alcotest.fail "no dev.read histogram"
      in
      let h1 = dev_read t1 and h2 = dev_read t2 in
      check_bool "h1 nonempty" true (Histogram.count h1 > 0);
      let merged = Histogram.create () in
      Histogram.merge ~into:merged h1;
      Histogram.merge ~into:merged h2;
      check_int "merged count"
        (Histogram.count h1 + Histogram.count h2)
        (Histogram.count merged);
      check_int "merged total"
        (Histogram.total h1 + Histogram.total h2)
        (Histogram.total merged);
      let fsyncs, fsync_ns = Pager.fsync_stats (Btree.pager t1) in
      check_bool "build checkpoint fsynced" true (fsyncs > 0 && fsync_ns > 0);
      Btree.close t1;
      Btree.close t2)

let test_slow_log () =
  let path = Filename.temp_file "pc_slow" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sl = Obs.Slow_log.create oc ~threshold_ns:0 in
      let obs =
        Obs.create ~sink:(Obs.Slow_log.sink sl)
          ~clock:(Obs.Clock.mock ()) ()
      in
      wall_workload obs;
      check_int "one slow span" 1 (Obs.Slow_log.logged sl);
      Obs.Slow_log.note_violation sl ~label:"op" ~measured:9 ~predicted:3.5;
      check_int "violation logged too" 2 (Obs.Slow_log.logged sl);
      Obs.Slow_log.close sl;
      close_out oc;
      match read_lines path with
      | [ span; violation ] ->
          List.iter
            (fun sub -> check_bool sub true (contains_sub span sub))
            [ {|"label":"op"|}; {|"ios":1|}; {|"device":1000|} ];
          List.iter
            (fun sub -> check_bool sub true (contains_sub violation sub))
            [ {|"violation":"cost_model"|}; {|"measured":9|} ]
      | lines -> Alcotest.failf "expected 2 lines, got %d" (List.length lines))

let test_metrics_escaping () =
  let m = Metrics.create () in
  Alcotest.check_raises "empty name rejected"
    (Invalid_argument "Metrics: empty metric name") (fun () ->
      ignore (Metrics.counter m ""));
  let c =
    Metrics.counter m ~help:"line1\nline2 \\ back"
      ~labels:[ ("q", "a\"b\\c\nd") ]
      "pathcache_test_total"
  in
  Metrics.inc c;
  let body = Metrics.to_prometheus m in
  check_bool "help newline+backslash escaped" true
    (contains_sub body "line1\\nline2 \\\\ back");
  check_bool "label value escaped" true
    (contains_sub body "a\\\"b\\\\c\\nd")

let suite =
  [
    Alcotest.test_case "golden pager trace" `Quick test_golden_pager;
    Alcotest.test_case "golden btree find trace" `Quick test_golden_btree;
    Alcotest.test_case "span closes on exception" `Quick test_span_exception;
    Alcotest.test_case "ring sink bounded" `Quick test_ring_capacity;
    Alcotest.test_case "histogram exact below 64" `Quick test_histogram_exact;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram bucket bounds" `Quick test_histogram_buckets;
    Alcotest.test_case "histogram merge and json" `Quick test_histogram_merge_json;
    Alcotest.test_case "null sink leaves counts identical" `Quick
      test_null_sink_identical;
    Alcotest.test_case "replay matches counters" `Quick
      test_replay_matches_counters;
    Alcotest.test_case "replay matches counters (pooled)" `Quick
      test_replay_pooled;
    Alcotest.test_case "replay rejects garbage" `Quick
      test_replay_rejects_garbage;
    Alcotest.test_case "chrome export well-formed" `Quick test_chrome_format;
    Alcotest.test_case "query span carries stats" `Quick test_query_span_args;
    Alcotest.test_case "query_stats pp shows raw" `Quick test_query_stats_pp_raw;
    Alcotest.test_case "with_counted nesting inclusive" `Quick
      test_with_counted_nesting;
    Alcotest.test_case "percentile empty returns 0" `Quick test_percentile_empty;
    Alcotest.test_case "percentile exact at every integer p" `Quick
      test_percentile_every_integer;
    QCheck_alcotest.to_alcotest prop_percentile_reference;
    Alcotest.test_case "profile golden table" `Quick test_profile_golden;
    Alcotest.test_case "profile rejects garbage" `Quick
      test_profile_rejects_garbage;
    Alcotest.test_case "golden jsonl under mock clock" `Quick
      test_golden_mock_jsonl;
    Alcotest.test_case "clock-off jsonl is pre-clock format" `Quick
      test_golden_clock_off_jsonl;
    Alcotest.test_case "golden chrome under mock clock" `Quick
      test_golden_mock_chrome;
    Alcotest.test_case "phase sums equal span wall" `Quick
      test_phase_sums_equal_wall;
    Alcotest.test_case "device histograms merge across pagers" `Quick
      test_device_histogram_merge;
    Alcotest.test_case "slow log records spans and violations" `Quick
      test_slow_log;
    Alcotest.test_case "prometheus escaping and name validation" `Quick
      test_metrics_escaping;
  ]
