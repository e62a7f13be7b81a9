(* Reuse-distance profiling, miss-ratio curves, the cache advisor, and
   the serve-metrics endpoint (DESIGN.md §9, "Access-pattern analytics").

   The load-bearing property: the Mattson curve equals a brute-force LRU
   simulation run independently at every cache size — checked on random
   read/write/free streams (QCheck) and on the adversarial deterministic
   shapes (sequential flood, loop). *)

open Pathcaching

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ----- brute-force LRU reference ----- *)

type op = R of int | W of int | F of int

(* Simulate an exact LRU cache of capacity [cap] over the op stream;
   count hits of R ops only. W touches/admits without counting; F drops
   the page. Capacity 0 caches nothing. *)
let brute_lru_hits ops ~cap =
  let cache = ref [] (* most recent first *) in
  let hits = ref 0 in
  let reference ~count page =
    let present = List.mem page !cache in
    if present && count then incr hits;
    cache := page :: List.filter (( <> ) page) !cache;
    if List.length !cache > cap then
      cache := List.filteri (fun i _ -> i < cap) !cache
  in
  List.iter
    (fun op ->
      if cap = 0 then ()
      else
        match op with
        | R p -> reference ~count:true p
        | W p -> reference ~count:false p
        | F p -> cache := List.filter (( <> ) p) !cache)
    ops;
  !hits

let ev kind page =
  {
    Obs.tick = 0;
    kind;
    src = 0;
    page;
    label = "";
    args = [];
    wall_ns = None;
  }

let mrc_of_ops ops =
  let rd = Reuse_dist.create () in
  List.iter
    (fun op ->
      Reuse_dist.observe rd
        (match op with
        | R p -> ev Obs.Read p
        | W p -> ev Obs.Write p
        | F p -> ev Obs.Free p))
    ops;
  Reuse_dist.mrc rd 0

let assert_matches_brute ops =
  match mrc_of_ops ops with
  | None ->
      check_int "no reads means no curve" 0
        (List.length (List.filter (function R _ -> true | _ -> false) ops))
  | Some m ->
      let top = Reuse_dist.flat_at m + 2 in
      for cap = 0 to top do
        let brute = brute_lru_hits ops ~cap in
        if Reuse_dist.hits_at m cap <> brute then
          Alcotest.failf "capacity %d: mattson %d hits, brute force %d" cap
            (Reuse_dist.hits_at m cap) brute
      done

let prop_mattson_vs_brute =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (7, map (fun p -> R p) (int_bound 15));
          (2, map (fun p -> W p) (int_bound 15));
        ])
  in
  QCheck.Test.make ~count:200
    ~name:"mattson curve equals brute-force LRU at every capacity"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 120) gen_op))
    (fun ops ->
      assert_matches_brute ops;
      true)

(* With frees in the stream the single-pass prediction is an upper
   bound, not exact: freeing a page that intervened between two
   references to [p] retroactively shrinks [p]'s reuse distance, but a
   small pool may already have evicted [p] before the free happened.
   The bound is tight again once the cache is large enough that nothing
   was ever evicted. *)
let prop_free_is_optimistic_bound =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun p -> R p) (int_bound 15));
          (2, map (fun p -> W p) (int_bound 15));
          (2, map (fun p -> F p) (int_bound 15));
        ])
  in
  QCheck.Test.make ~count:200
    ~name:"with frees: prediction bounds LRU above, exact at full size"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 120) gen_op))
    (fun ops ->
      (match mrc_of_ops ops with
      | None -> ()
      | Some m ->
          (* [distinct m] is live pages at curve time (frees shrink it);
             "nothing ever evicted" needs every page id ever touched *)
          let full =
            List.sort_uniq compare
              (List.filter_map
                 (function R p | W p -> Some p | F _ -> None)
                 ops)
            |> List.length
          in
          let top = max (Reuse_dist.flat_at m) full + 2 in
          for cap = 0 to top do
            let brute = brute_lru_hits ops ~cap in
            let pred = Reuse_dist.hits_at m cap in
            if pred < brute then
              Alcotest.failf "capacity %d: prediction %d below measured %d"
                cap pred brute;
            if cap >= full && pred <> brute then
              Alcotest.failf
                "capacity %d >= %d pages ever: prediction %d <> measured %d"
                cap full pred brute
          done);
      true)

let test_sequential_flood () =
  (* Cyclic scan over [n] pages: LRU gets zero hits below capacity n. *)
  let n = 12 in
  let ops = List.init (4 * n) (fun i -> R (i mod n)) in
  assert_matches_brute ops;
  let m = Option.get (mrc_of_ops ops) in
  check_int "no hits below the loop size" 0 (Reuse_dist.hits_at m (n - 1));
  check_int "all re-references hit at the loop size" (3 * n)
    (Reuse_dist.hits_at m n);
  check_int "curve flattens exactly at the loop size" n (Reuse_dist.flat_at m)

let test_looping_with_frees () =
  (* Free inside the loop: freed pages are cold again on return. *)
  let ops = [ R 1; R 2; F 2; R 2; R 1; F 1; R 1 ] in
  assert_matches_brute ops;
  let m = Option.get (mrc_of_ops ops) in
  check_int "frees force cold re-reads" 4 (Reuse_dist.cold m)

let test_stack_compaction () =
  (* Enough references to force several Fenwick compactions; distances
     must survive renumbering. A two-page alternation has distance 1
     forever, whatever the internal timestamps do. *)
  let s = Reuse_dist.Stack.create () in
  ignore (Reuse_dist.Stack.access s 0);
  ignore (Reuse_dist.Stack.access s 1);
  for _ = 1 to 10_000 do
    (match Reuse_dist.Stack.access s 0 with
    | Some 1 -> ()
    | d ->
        Alcotest.failf "expected distance 1, got %s"
          (match d with None -> "cold" | Some d -> string_of_int d));
    ignore (Reuse_dist.Stack.access s 1)
  done;
  check_int "two live pages" 2 (Reuse_dist.Stack.size s)

(* ----- golden MRC on a fixed-seed btree workload ----- *)

let btree_profiler () =
  let obs = Obs.create () in
  let entries = List.init 2_000 (fun i -> (i, i)) in
  let tree = Btree.bulk_load_in ~obs ~b:32 entries in
  let rd = Reuse_dist.create () in
  Reuse_dist.attach rd obs;
  let rng = Rng.create 7 in
  for _ = 1 to 40 do
    ignore (Btree.find tree (Rng.int rng 2_000))
  done;
  rd

let test_btree_mrc_golden () =
  let rd = btree_profiler () in
  let curves = Reuse_dist.mrcs rd in
  let table =
    Format.asprintf "%a" (fun ppf c -> Reuse_dist.pp_table ppf c) curves
  in
  check_string "golden btree MRC table"
    ("              btree\n" ^ "accesses        160\n" ^ "cold             38\n"
   ^ "flat-at          23\n" ^ "cache          hit%\n" ^ "1              25.0\n"
   ^ "2              25.0\n" ^ "4              58.1\n" ^ "8              71.2\n"
   ^ "16             74.4\n" ^ "32             76.2\n" ^ "64             76.2\n")
    table

let test_mrc_json_shape () =
  let rd = btree_profiler () in
  let json = Reuse_dist.to_json (Reuse_dist.mrcs rd) in
  let has s =
    let re = Str.regexp_string s in
    match Str.search_forward re json 0 with
    | _ -> true
    | exception Not_found -> false
  in
  check_bool "json names the source" true (has "\"source\": \"btree\"");
  check_bool "json carries points" true (has "\"hit_ratio\"")

(* ----- determinism: the profiler only listens ----- *)

let test_profiler_leaves_counts_identical () =
  let run profiled =
    let obs = Obs.create () in
    let entries = List.init 1_000 (fun i -> (i, i)) in
    let tree = Btree.bulk_load_in ~obs ~b:32 entries in
    if profiled then begin
      let ap = Access_profile.create () in
      Access_profile.attach ap obs
    end;
    Pager.reset_stats (Btree.pager tree);
    let rng = Rng.create 11 in
    for _ = 1 to 25 do
      ignore (Btree.find tree (Rng.int rng 1_000))
    done;
    Pager.stats (Btree.pager tree)
  in
  let plain = run false and profiled = run true in
  check_bool "I/O counts byte-identical with profiler attached" true
    (plain = profiled)

(* ----- access profiles ----- *)

let test_access_profile_levels_ws () =
  let ap = Access_profile.create ~window:4 ~top_k:2 () in
  let span_begin =
    { (ev Obs.Span_begin 0) with Obs.src = -1; Obs.label = "query" }
  in
  (* two 3-page root-to-leaf descents sharing a root (page 0) *)
  Access_profile.observe ap span_begin;
  List.iter (fun p -> Access_profile.observe ap (ev Obs.Read p)) [ 0; 1; 2 ];
  Access_profile.observe ap span_begin;
  Access_profile.observe ap (ev Obs.Cache_hit 0);
  List.iter (fun p -> Access_profile.observe ap (ev Obs.Read p)) [ 3; 4 ];
  match Access_profile.profiles ap with
  | [ p ] ->
      check_int "reads" 6 p.Access_profile.p_reads;
      check_int "hits" 1 p.Access_profile.p_hits;
      (match p.Access_profile.p_levels with
      | { Access_profile.lv_depth = 0; lv_hits = 1; lv_misses = 1 } :: _ -> ()
      | _ -> Alcotest.fail "level 0 should hold one hit and one miss");
      check_int "window-4 working set" 4 p.Access_profile.p_ws_current;
      check_int "top-k bounds hot pages" 2
        (List.length p.Access_profile.p_hot);
      (match p.Access_profile.p_hot with
      | (0, 2) :: _ -> ()
      | _ -> Alcotest.fail "page 0 (touched twice) should lead hot pages")
  | ps -> Alcotest.failf "expected one profile, got %d" (List.length ps)

(* ----- the advisor ----- *)

let mrc_of_reads pages =
  Option.get (mrc_of_ops (List.map (fun p -> R p) pages))

let test_advisor_prefers_marginal_gain () =
  (* hot: loop over 4 pages (flattens at 4); cold: scan of 64 distinct
     pages re-read once (needs 64 frames for any hits) *)
  let hot = List.concat (List.init 50 (fun _ -> [ 0; 1; 2; 3 ])) in
  let scan = List.init 64 (fun i -> 100 + i) in
  let cold = scan @ scan in
  let curves = [ ("hot", mrc_of_reads hot); ("cold", mrc_of_reads cold) ] in
  let a = Access_profile.advise curves ~budget:16 in
  (match a.Access_profile.allocs with
  | [ h; c ] ->
      check_string "hot first" "hot" h.Access_profile.a_source;
      check_bool "hot gets at least its working set" true
        (h.Access_profile.a_frames >= 4);
      check_bool "budget fully assigned" true
        (h.Access_profile.a_frames + c.Access_profile.a_frames = 16)
  | _ -> Alcotest.fail "two allocations expected");
  check_bool "recommended never predicts worse than even" true
    (Access_profile.predicted_misses a.Access_profile.allocs
    <= Access_profile.predicted_misses a.Access_profile.even)

let prop_advisor_never_worse_than_even =
  let gen_curve =
    QCheck.Gen.(list_size (int_range 1 60) (int_bound 9))
  in
  QCheck.Test.make ~count:100
    ~name:"advised split never predicts more misses than the even split"
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 1 4) gen_curve) (int_bound 40)))
    (fun (streams, budget) ->
      QCheck.assume (streams <> []);
      let curves =
        List.mapi
          (fun i pages -> (Printf.sprintf "s%d" i, mrc_of_reads pages))
          streams
      in
      let a = Access_profile.advise curves ~budget in
      let total =
        List.fold_left
          (fun acc (al : Access_profile.alloc) -> acc + al.Access_profile.a_frames)
          0 a.Access_profile.allocs
      in
      total = budget
      && Access_profile.predicted_misses a.Access_profile.allocs
         <= Access_profile.predicted_misses a.Access_profile.even)

(* ----- per-client pool counters + float gauges ----- *)

let test_pool_client_stats () =
  let pool = Buffer_pool.create ~capacity:2 () in
  let a = Buffer_pool.register ~name:"alpha" pool in
  let b = Buffer_pool.register pool in
  Buffer_pool.admit a 0;
  Buffer_pool.admit a 1;
  Buffer_pool.touch a 0;
  Buffer_pool.touch a 0;
  Buffer_pool.admit b 0;
  (* evicts one of alpha's frames (LRU: page 1) *)
  match Buffer_pool.client_stats pool with
  | [ ca; cb ] ->
      check_string "named client" "alpha" ca.Buffer_pool.cs_name;
      check_string "default name" "client1" cb.Buffer_pool.cs_name;
      check_int "alpha hits" 2 ca.Buffer_pool.cs_hits;
      check_int "alpha misses" 2 ca.Buffer_pool.cs_misses;
      check_int "eviction charged to the owner" 1 ca.Buffer_pool.cs_evictions;
      check_int "beta misses" 1 cb.Buffer_pool.cs_misses;
      check_int "beta saw no eviction" 0 cb.Buffer_pool.cs_evictions;
      let m = Metrics.create () in
      Buffer_pool.export_metrics pool m;
      let prom = Metrics.to_prometheus m in
      let has s =
        match Str.search_forward (Str.regexp_string s) prom 0 with
        | _ -> true
        | exception Not_found -> false
      in
      check_bool "hit ratio gauge exported" true
        (has "pathcache_cache_hit_ratio{client=\"alpha\"} 0.500000");
      check_bool "per-client counters exported" true
        (has "pathcache_pool_client_misses{client=\"client1\"} 1")
  | cs -> Alcotest.failf "expected two clients, got %d" (List.length cs)

let test_fgauge () =
  let m = Metrics.create () in
  let g = Metrics.fgauge m ~help:"a ratio" "pc_test_ratio" in
  Metrics.fset g 0.25;
  check_bool "fgauge readback" true (Metrics.fgauge_value g = 0.25);
  let prom = Metrics.to_prometheus m in
  let has s =
    match Str.search_forward (Str.regexp_string s) prom 0 with
    | _ -> true
    | exception Not_found -> false
  in
  check_bool "float rendering" true (has "pc_test_ratio 0.250000");
  check_bool "exposed as a plain gauge" true (has "# TYPE pc_test_ratio gauge");
  check_bool "int/float flavour clash rejected" true
    (match Metrics.gauge m "pc_test_ratio" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ----- profile table padding (long span labels) ----- *)

let test_profile_label_padding () =
  let row label count total =
    {
      Obs.Profile.label;
      count;
      total_ios = total;
      mean = float_of_int total /. float_of_int count;
      p99 = total;
      max = total;
      wall_ns = 0;
      phases = [];
    }
  in
  let table =
    Format.asprintf "%a" Obs.Profile.pp
      [ row "ext_pst3.query_3sided" 1 4; row "query" 2 4 ]
  in
  check_string "long labels widen the column instead of misaligning"
    ("span                     count   total-io     mean    p99    max\n"
   ^ "ext_pst3.query_3sided        1          4      4.0      4      4\n"
   ^ "query                        2          4      2.0      4      4\n")
    table;
  (* short labels keep the historical 18-wide layout byte-identical *)
  let short = Format.asprintf "%a" Obs.Profile.pp [ row "query" 2 4 ] in
  check_string "short labels keep the old golden"
    ("span                  count   total-io     mean    p99    max\n"
   ^ "query                     2          4      2.0      4      4\n")
    short

(* ----- iter_file reconstructs events ----- *)

(* Every field the JSONL sink writes survives the round trip, with and
   without the optional wall_ns, label and args. *)
let test_iter_file_roundtrip () =
  let path = Filename.temp_file "pc_iter" ".jsonl" in
  let oc = open_out path in
  let obs =
    Obs.create ~sink:(Obs.tee (Obs.ring ~capacity:64) (Obs.jsonl oc)) ()
  in
  let src = Obs.register obs ~name:"pager0" in
  Obs.emit src Obs.Read ~page:3;
  Obs.emit src Obs.Cache_hit ~page:3;
  Obs.emit src Obs.Free ~page:3;
  Obs.set_clock obs (Obs.Clock.mock ());
  Obs.with_span (Some obs) ~kind:"op"
    ~result_args:(fun () -> [ ("reads", 1); ("delta", -2) ])
    (fun () -> Obs.emit_phase src ~phase:"dev.read" ~page:3 ~ns:1000);
  let live = Obs.events obs in
  Obs.close obs;
  close_out oc;
  let seen = ref [] in
  Obs.iter_file path (fun e -> seen := e :: !seen);
  Sys.remove path;
  check_bool "events reconstructed in order" true (List.rev !seen = live)

(* ----- serve-metrics endpoint smoke ----- *)

let http_get ~port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 15.0;
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let oc = Unix.out_channel_of_descr sock in
  output_string oc
    (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path);
  flush oc;
  let ic = Unix.in_channel_of_descr sock in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  (try Unix.close sock with Unix.Unix_error _ -> ());
  Buffer.contents buf

let test_serve_metrics_smoke () =
  let port = 19583 in
  (* cwd is _build/default/test under [dune runtest], the repo root
     under [dune exec] *)
  let exe =
    List.find_opt Sys.file_exists
      [ "../bin/pathcache_cli.exe"; "_build/default/bin/pathcache_cli.exe" ]
  in
  match exe with
  | None -> Alcotest.skip ()
  | Some exe ->
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process exe
        [|
          exe; "serve-metrics"; "--port"; string_of_int port; "-n"; "2000";
        |]
        Unix.stdin null null
    in
    Unix.close null;
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      (fun () ->
        (* wait for the listener *)
        let rec ready tries =
          if tries = 0 then Alcotest.fail "server never came up"
          else
            match http_get ~port "/healthz" with
            | s when s <> "" -> s
            | _ ->
                Unix.sleepf 0.25;
                ready (tries - 1)
            | exception Unix.Unix_error _ ->
                Unix.sleepf 0.25;
                ready (tries - 1)
        in
        let health = ready 120 in
        let has hay s =
          match Str.search_forward (Str.regexp_string s) hay 0 with
          | _ -> true
          | exception Not_found -> false
        in
        check_bool "healthz ok" true (has health "200 OK");
        (* leave a second connection hanging with no request: the server
           must time it out and keep serving *)
        let idle = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect idle (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let metrics = http_get ~port "/metrics" in
        (try Unix.close idle with Unix.Unix_error _ -> ());
        check_bool "metrics despite an in-flight idle connection" true
          (has metrics "200 OK");
        check_bool "content-length present" true
          (has metrics "Content-Length: ");
        check_bool "hit ratio gauge served" true
          (has metrics "pathcache_cache_hit_ratio{client=\"btree\"}");
        check_bool "working-set gauge served" true
          (has metrics "pathcache_working_set_pages{client=\"btree\"}");
        (* Content-Length matches the body *)
        (match Str.bounded_split (Str.regexp_string "\r\n\r\n") metrics 2 with
        | [ head; body ] ->
            ignore
              (Str.search_forward
                 (Str.regexp "Content-Length: \\([0-9]+\\)")
                 head 0);
            check_int "content-length exact"
              (int_of_string (Str.matched_group 1 head))
              (String.length body)
        | _ -> Alcotest.fail "malformed HTTP response");
        let quit = http_get ~port "/quit" in
        check_bool "clean shutdown" true (has quit "200 OK"))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_mattson_vs_brute;
    QCheck_alcotest.to_alcotest prop_free_is_optimistic_bound;
    Alcotest.test_case "sequential flood curve" `Quick test_sequential_flood;
    Alcotest.test_case "looping workload with frees" `Quick
      test_looping_with_frees;
    Alcotest.test_case "stack survives compaction" `Quick
      test_stack_compaction;
    Alcotest.test_case "golden btree MRC table" `Quick test_btree_mrc_golden;
    Alcotest.test_case "mrc json shape" `Quick test_mrc_json_shape;
    Alcotest.test_case "profiler leaves counts identical" `Quick
      test_profiler_leaves_counts_identical;
    Alcotest.test_case "levels, working set, hot pages" `Quick
      test_access_profile_levels_ws;
    Alcotest.test_case "advisor prefers marginal gain" `Quick
      test_advisor_prefers_marginal_gain;
    QCheck_alcotest.to_alcotest prop_advisor_never_worse_than_even;
    Alcotest.test_case "per-client pool counters" `Quick
      test_pool_client_stats;
    Alcotest.test_case "float gauges" `Quick test_fgauge;
    Alcotest.test_case "profile label padding" `Quick
      test_profile_label_padding;
    Alcotest.test_case "iter_file reconstructs events" `Quick
      test_iter_file_roundtrip;
    Alcotest.test_case "serve-metrics endpoint" `Slow
      test_serve_metrics_smoke;
  ]
