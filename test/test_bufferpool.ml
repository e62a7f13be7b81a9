(* Tests for the shared buffer-pool manager: replacement policies,
   pool sharing across pagers, residency under random traffic, and
   write-through accounting. *)

open Pathcaching

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Cold-start a pager: drop whatever the setup allocs cached, then zero
   the counters (reset syncs first, so pending pool events are absorbed
   rather than leaking into the test). *)
let cold p =
  Pager.drop_cache p;
  Pager.reset_stats p

(* A pager with [n] consecutive pre-allocated single-record pages,
   cache dropped and stats reset after setup. *)
let make_pager ?pool ?cache_capacity ~pages () =
  let p : int Pager.t = Pager.create ?pool ?cache_capacity ~page_capacity:4 () in
  for i = 0 to pages - 1 do
    ignore (Pager.alloc p [| i |])
  done;
  cold p;
  p

let reads p = (Pager.stats p).Io_stats.reads

(* {1 Determinism: private pool vs legacy counts} *)

(* The default private LRU pool must reproduce the legacy built-in LRU
   cache exactly: same access pattern, same miss sequence. *)
let test_private_lru_determinism () =
  let p = make_pager ~cache_capacity:2 ~pages:4 () in
  let touch i = ignore (Pager.read p i) in
  (* misses: 0 1; hit: 0; miss evicting 1: 2; hit: 0; miss evicting 2: 1 *)
  List.iter touch [ 0; 1; 0; 2; 0; 1 ];
  let st = Pager.stats p in
  check_int "reads" 4 st.Io_stats.reads;
  check_int "hits" 2 st.Io_stats.cache_hits;
  check_int "evictions" 2 st.Io_stats.evictions;
  (* same pattern, explicit pool handle: identical counts *)
  let pool = Buffer_pool.create ~policy:Replacement.Lru ~capacity:2 () in
  let q = make_pager ~pool ~pages:4 () in
  List.iter (fun i -> ignore (Pager.read q i)) [ 0; 1; 0; 2; 0; 1 ];
  let st' = Pager.stats q in
  check_int "pool reads" st.Io_stats.reads st'.Io_stats.reads;
  check_int "pool hits" st.Io_stats.cache_hits st'.Io_stats.cache_hits

let test_capacity_zero_pool () =
  let p = make_pager ~cache_capacity:0 ~pages:2 () in
  for _ = 1 to 3 do
    ignore (Pager.read p 0)
  done;
  check_int "every read costs" 3 (reads p);
  check_int "no hits" 0 (Pager.stats p).Io_stats.cache_hits

(* {1 Shared pool: one budget, many pagers} *)

let test_shared_pool_contention () =
  let pool = Buffer_pool.create ~capacity:2 () in
  let a = make_pager ~pool ~pages:2 () in
  let b = make_pager ~pool ~pages:2 () in
  (* b's setup allocs contended with a; cold-start both again *)
  cold a;
  cold b;
  ignore (Pager.read a 0);
  ignore (Pager.read a 1);
  (* pool full with a's frames; b's reads evict them *)
  ignore (Pager.read b 0);
  ignore (Pager.read b 1);
  check_int "pool occupancy" 2 (Buffer_pool.occupancy pool);
  ignore (Pager.read a 0);
  check_int "a must re-read after b evicted it" 3 (reads a);
  let st = Pager.stats a in
  check_int "a observed its evictions" 2 st.Io_stats.evictions

let test_shared_pool_no_key_clash () =
  (* both pagers use page ids 0..1; the pool must keep them distinct *)
  let pool = Buffer_pool.create ~capacity:4 () in
  let a = make_pager ~pool ~pages:2 () in
  let b = make_pager ~pool ~pages:2 () in
  cold a;
  cold b;
  ignore (Pager.read a 0);
  ignore (Pager.read b 0);
  ignore (Pager.read a 0);
  ignore (Pager.read b 0);
  check_int "a: one miss" 1 (reads a);
  check_int "b: one miss" 1 (reads b);
  check_int "two distinct frames" 2 (Buffer_pool.occupancy pool)

(* {1 Replacement policies} *)

let policy_reads policy pattern =
  let pool = Buffer_pool.create ~policy ~capacity:2 () in
  let p = make_pager ~pool ~pages:8 () in
  List.iter (fun i -> ignore (Pager.read p i)) pattern;
  reads p

let test_fifo_no_promotion () =
  (* 0 1 0 2: LRU keeps 0 (promoted), FIFO evicts 0 (oldest arrival) *)
  let pattern = [ 0; 1; 0; 2; 0 ] in
  check_int "lru: 0 survives" 3 (policy_reads Replacement.Lru pattern);
  check_int "fifo: 0 evicted" 4 (policy_reads Replacement.Fifo pattern)

let test_clock_second_chance () =
  (* 0 1 0 2: clock's hand grants 0 a second chance (ref bit set by the
     hit), so 1 is evicted and the final read of 0 hits *)
  check_int "clock: 0 survives" 3
    (policy_reads Replacement.Clock [ 0; 1; 0; 2; 0 ])

let test_two_q_scan_resistance () =
  (* hot page re-referenced enough to reach Am, then a one-pass scan of
     [cap] cold pages; the hot page must survive under 2Q *)
  let run policy =
    let cap = 8 in
    let pool = Buffer_pool.create ~policy ~capacity:cap () in
    let p = make_pager ~pool ~pages:40 () in
    (* establish the hot page in Am: miss, evict, ghost-hit promotion *)
    ignore (Pager.read p 0);
    for i = 1 to cap + 1 do
      ignore (Pager.read p i)
    done;
    ignore (Pager.read p 0);
    Pager.reset_stats p;
    ignore (Pager.read p 0);
    (* flood with 2*cap never-reused pages *)
    for i = 10 to 10 + (2 * cap) - 1 do
      ignore (Pager.read p i)
    done;
    ignore (Pager.read p 0);
    (Pager.stats p).Io_stats.cache_hits
  in
  check_bool "2q keeps the hot page through the flood" true (run Replacement.Two_q >= 2);
  check_int "lru loses the hot page to the flood" 1 (run Replacement.Lru)

let test_policy_of_string () =
  let open Replacement in
  Alcotest.(check (list string))
    "round trip"
    (List.map name all)
    (List.filter_map
       (fun p -> Option.map name (of_string (name p)))
       all);
  check_bool "2q alias" true (of_string "2q" = Some Two_q);
  check_bool "unknown" true (of_string "mru" = None)

(* {1 Generative residency} *)

(* Random admit/touch/forget traffic from two clients against a small
   pool, re-checking after every step that the pool stays within its
   budget and that a page just demanded is resident — under every
   replacement policy. *)
let test_residency_generative () =
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let rng = Rng.create seed in
          let pool = Buffer_pool.create ~policy ~capacity:6 () in
          let clients =
            [| Buffer_pool.register pool; Buffer_pool.register pool |]
          in
          let fail step fmt =
            Alcotest.failf ("%s seed %d step %d: " ^^ fmt)
              (Replacement.name policy) seed step
          in
          for step = 1 to 500 do
            let c = clients.(Rng.int rng 2) in
            let page = Rng.int rng 20 in
            (match Rng.int rng 10 with
            | 0 | 1 ->
                Buffer_pool.forget c page;
                if Buffer_pool.resident c page then
                  fail step "page %d resident after forget" page
            | _ ->
                if Buffer_pool.resident c page then Buffer_pool.touch c page
                else Buffer_pool.admit c page;
                if not (Buffer_pool.resident c page) then
                  fail step "page %d not resident after admit" page);
            if Buffer_pool.occupancy pool > Buffer_pool.capacity pool then
              fail step "occupancy %d over budget" (Buffer_pool.occupancy pool)
          done)
        [ 101; 202; 303 ])
    Replacement.all

(* {1 Write-through} *)

let test_write_through_immediate () =
  let p = make_pager ~cache_capacity:2 ~pages:2 () in
  Pager.write p 0 [| 1 |];
  Pager.write p 0 [| 2 |];
  check_int "write-through charges each write" 2
    (Pager.stats p).Io_stats.writes

(* A write to a cached page replaces its frame: the next read is a hit
   and returns the written records. *)
let test_frame_mutation_legal_path () =
  let pool = Buffer_pool.create ~capacity:2 () in
  let p = make_pager ~pool ~pages:2 () in
  ignore (Pager.read p 0);
  Pager.write p 0 [| 5 |] (* the legal mutation path *);
  check_int "cached read" 5 (Pager.read p 0).(0);
  check_int "served by the pool" 1 (Pager.stats p).Io_stats.cache_hits

let suite =
  [
    Alcotest.test_case "private lru determinism" `Quick
      test_private_lru_determinism;
    Alcotest.test_case "capacity-0 pool" `Quick test_capacity_zero_pool;
    Alcotest.test_case "shared pool contention" `Quick
      test_shared_pool_contention;
    Alcotest.test_case "shared pool key isolation" `Quick
      test_shared_pool_no_key_clash;
    Alcotest.test_case "fifo: no promotion" `Quick test_fifo_no_promotion;
    Alcotest.test_case "clock: second chance" `Quick test_clock_second_chance;
    Alcotest.test_case "2q: scan resistance" `Quick test_two_q_scan_resistance;
    Alcotest.test_case "policy of_string" `Quick test_policy_of_string;
    Alcotest.test_case "residency generative (all policies)" `Quick
      test_residency_generative;
    Alcotest.test_case "write-through immediate" `Quick
      test_write_through_immediate;
    Alcotest.test_case "frame mutation legal path" `Quick
      test_frame_mutation_legal_path;
  ]
