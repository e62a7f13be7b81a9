(* Tests for the simulated block device: pager semantics, exact I/O
   accounting, the LRU buffer pool, blocked lists and fault injection. *)

open Pathcaching

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_alloc_read_write () =
  let p : int Pager.t = Pager.create ~page_capacity:4 () in
  let id = Pager.alloc p [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "read back" [| 1; 2; 3 |] (Pager.read p id);
  Pager.write p id [| 9 |];
  Alcotest.(check (array int)) "after write" [| 9 |] (Pager.read p id);
  check_int "pages" 1 (Pager.pages_in_use p);
  Pager.free p id;
  check_int "freed" 0 (Pager.pages_in_use p)

let test_capacity_enforced () =
  let p : int Pager.t = Pager.create ~page_capacity:2 () in
  (try
     ignore (Pager.alloc p [| 1; 2; 3 |]);
     Alcotest.fail "expected Page_overflow"
   with Pager.Page_overflow { len; capacity; _ } ->
     check_int "len" 3 len;
     check_int "cap" 2 capacity)

let test_io_accounting () =
  let p : int Pager.t = Pager.create ~page_capacity:4 () in
  let a = Pager.alloc p [| 1 |] in
  let b = Pager.alloc p [| 2 |] in
  Pager.reset_stats p;
  ignore (Pager.read p a);
  ignore (Pager.read p a);
  ignore (Pager.read p b);
  let st = Pager.stats p in
  check_int "3 reads without cache" 3 st.Io_stats.reads;
  check_int "0 writes" 0 st.Io_stats.writes;
  let (), delta = Pager.with_counted p (fun () -> Pager.write p a [| 5 |]) in
  check_int "counted write" 1 delta.Io_stats.writes

let test_freed_page_access () =
  let p : int Pager.t = Pager.create ~page_capacity:4 () in
  let id = Pager.alloc p [| 1 |] in
  Pager.free p id;
  (try
     ignore (Pager.read p id);
     Alcotest.fail "expected failure on freed page"
   with Invalid_argument _ -> ());
  try
    ignore (Pager.read p 999);
    Alcotest.fail "expected failure on unknown page"
  with Invalid_argument _ -> ()

let test_buffer_pool () =
  let p : int Pager.t = Pager.create ~cache_capacity:2 ~page_capacity:4 () in
  let a = Pager.alloc p [| 1 |] in
  let b = Pager.alloc p [| 2 |] in
  let c = Pager.alloc p [| 3 |] in
  Pager.reset_stats p;
  Pager.drop_cache p;
  ignore (Pager.read p a);
  (* miss *)
  ignore (Pager.read p a);
  (* hit *)
  ignore (Pager.read p b);
  (* miss: cache = {a, b} *)
  ignore (Pager.read p c);
  (* miss, evicts a *)
  ignore (Pager.read p a);
  (* miss again *)
  let st = Pager.stats p in
  check_int "misses" 4 st.Io_stats.reads;
  check_int "hits" 1 st.Io_stats.cache_hits

let test_lru_promotion () =
  let p : int Pager.t = Pager.create ~cache_capacity:2 ~page_capacity:4 () in
  let a = Pager.alloc p [| 1 |] in
  let b = Pager.alloc p [| 2 |] in
  let c = Pager.alloc p [| 3 |] in
  Pager.drop_cache p;
  Pager.reset_stats p;
  ignore (Pager.read p a);
  ignore (Pager.read p b);
  ignore (Pager.read p a);
  (* promote a; LRU is now b *)
  ignore (Pager.read p c);
  (* evicts b *)
  ignore (Pager.read p a);
  (* hit *)
  let st = Pager.stats p in
  check_int "hits (promotion respected)" 2 st.Io_stats.cache_hits

let test_fault_injection () =
  let p : int Pager.t = Pager.create ~page_capacity:4 () in
  let id = Pager.alloc p [| 1 |] in
  (* the device dies at the next transfer, which is this read *)
  Pager.set_fault_plan p (Fault_plan.make (Fault_plan.Fail_stop { at = 1 }));
  (try
     ignore (Pager.read p id);
     Alcotest.fail "expected Io_fault"
   with Pager.Io_fault { page; op } ->
     check_int "page" id page;
     Alcotest.(check string) "op" "read" op);
  Pager.clear_fault_plan p;
  Alcotest.(check (array int)) "recovered" [| 1 |] (Pager.read p id)

(* ----- Blocked_list ----- *)

let test_blocked_list_roundtrip () =
  let p : int Pager.t = Pager.create ~page_capacity:3 () in
  let l = Blocked_list.store p [ 1; 2; 3; 4; 5; 6; 7 ] in
  check_int "len" 7 (Blocked_list.length l);
  check_int "blocks" 3 (Blocked_list.num_blocks l);
  Alcotest.(check (list int)) "read_all" [ 1; 2; 3; 4; 5; 6; 7 ]
    (Blocked_list.read_all p l);
  check_bool "not empty" false (Blocked_list.is_empty l)

let test_blocked_list_empty () =
  let p : int Pager.t = Pager.create ~page_capacity:3 () in
  let l = Blocked_list.store p [] in
  check_bool "empty" true (Blocked_list.is_empty l);
  check_int "no blocks" 0 (Blocked_list.num_blocks l);
  let kept, reads = Blocked_list.scan_prefix p l ~keep:(fun _ -> true) in
  check_int "no reads" 0 reads;
  check_int "no kept" 0 (List.length kept)

let test_scan_prefix_stops () =
  let p : int Pager.t = Pager.create ~page_capacity:2 () in
  let l = Blocked_list.store p [ 10; 9; 8; 7; 6; 5 ] in
  (* keep >= 8: prefix is 10,9,8; the scan stops inside block 1 *)
  let kept, reads = Blocked_list.scan_prefix p l ~keep:(fun x -> x >= 8) in
  Alcotest.(check (list int)) "kept" [ 10; 9; 8 ] kept;
  check_int "read 2 blocks" 2 reads;
  (* scan_prefix_from skips pages entirely *)
  let kept, reads = Blocked_list.scan_prefix_from p l ~from:2 ~keep:(fun _ -> true) in
  Alcotest.(check (list int)) "tail" [ 6; 5 ] kept;
  check_int "one read" 1 reads;
  let _, reads = Blocked_list.scan_prefix_from p l ~from:9 ~keep:(fun _ -> true) in
  check_int "past end" 0 reads

let test_blocked_list_free () =
  let p : int Pager.t = Pager.create ~page_capacity:2 () in
  let l = Blocked_list.store p [ 1; 2; 3 ] in
  check_int "pages in use" 2 (Pager.pages_in_use p);
  Blocked_list.free p l;
  check_int "all freed" 0 (Pager.pages_in_use p)

(* ----- properties ----- *)

let prop_blocked_roundtrip =
  QCheck.Test.make ~name:"blocked list stores any list" ~count:200
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (b, xs) ->
      let p : int Pager.t = Pager.create ~page_capacity:b () in
      let l = Blocked_list.store p xs in
      Blocked_list.read_all p l = xs
      && Blocked_list.num_blocks l = Num_util.ceil_div (List.length xs) b)

let prop_scan_prefix_exact =
  QCheck.Test.make ~name:"scan_prefix on sorted input = takeWhile" ~count:200
    QCheck.(pair (int_range 1 8) (pair (small_list small_int) small_int))
    (fun (b, (xs, pivot)) ->
      let sorted = List.sort (fun a c -> compare c a) xs in
      let p : int Pager.t = Pager.create ~page_capacity:b () in
      let l = Blocked_list.store p sorted in
      let kept, reads = Blocked_list.scan_prefix p l ~keep:(fun x -> x >= pivot) in
      let expected = fst (Blocked.prefix_while (fun x -> x >= pivot) sorted) in
      kept = expected
      && reads <= Num_util.ceil_div (List.length expected) b + 1)

let prop_lru_never_exceeds =
  QCheck.Test.make ~name:"buffer pool respects capacity" ~count:100
    QCheck.(pair (int_range 0 4) (small_list (int_range 0 9)))
    (fun (cache, accesses) ->
      let p : int Pager.t = Pager.create ~cache_capacity:cache ~page_capacity:2 () in
      let ids = Array.init 10 (fun i -> Pager.alloc p [| i |]) in
      Pager.reset_stats p;
      Pager.drop_cache p;
      List.iter (fun i -> ignore (Pager.read p ids.(i))) accesses;
      let st = Pager.stats p in
      st.Io_stats.reads + st.Io_stats.cache_hits = List.length accesses
      && (cache > 0 || st.Io_stats.cache_hits = 0))

let suite =
  [
    ("alloc / read / write / free", `Quick, test_alloc_read_write);
    ("page capacity enforced", `Quick, test_capacity_enforced);
    ("io accounting", `Quick, test_io_accounting);
    ("freed page access rejected", `Quick, test_freed_page_access);
    ("buffer pool hits and misses", `Quick, test_buffer_pool);
    ("lru promotion", `Quick, test_lru_promotion);
    ("fault injection", `Quick, test_fault_injection);
    ("blocked list roundtrip", `Quick, test_blocked_list_roundtrip);
    ("blocked list empty", `Quick, test_blocked_list_empty);
    ("scan_prefix stops early", `Quick, test_scan_prefix_stops);
    ("blocked list free", `Quick, test_blocked_list_free);
    QCheck_alcotest.to_alcotest prop_blocked_roundtrip;
    QCheck_alcotest.to_alcotest prop_scan_prefix_exact;
    QCheck_alcotest.to_alcotest prop_lru_never_exceeds;
  ]
