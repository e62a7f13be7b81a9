(* Tests for the external B+-tree: semantics against a sorted-list model,
   structural invariants under churn, bulk loading, and the paper's §1
   I/O bounds (O(log_B n + t/B) range queries, O(log_B n) updates). *)

open Pathcaching

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let new_tree b = Btree.create (Pager.create ~page_capacity:b ())

let test_empty () =
  let t = new_tree 8 in
  Btree.check_invariants t;
  check_int "size" 0 (Btree.size t);
  Alcotest.(check (option int)) "find" None (Btree.find t 5);
  Alcotest.(check (list (pair int int))) "range" [] (Btree.range t ~lo:0 ~hi:100);
  check_bool "delete absent" false (Btree.delete t ~key:1 ~value:1)

let test_single () =
  let t = new_tree 8 in
  Btree.insert t ~key:42 ~value:7;
  Btree.check_invariants t;
  Alcotest.(check (option int)) "find" (Some 7) (Btree.find t 42);
  Alcotest.(check (list (pair int int))) "range hit" [ (42, 7) ]
    (Btree.range t ~lo:0 ~hi:100);
  check_bool "delete" true (Btree.delete t ~key:42 ~value:7);
  check_int "empty again" 0 (Btree.size t)

let test_duplicate_keys () =
  let t = new_tree 4 in
  for v = 0 to 20 do
    Btree.insert t ~key:5 ~value:v
  done;
  Btree.check_invariants t;
  check_int "all stored" 21 (List.length (Btree.range t ~lo:5 ~hi:5));
  check_bool "delete one" true (Btree.delete t ~key:5 ~value:13);
  Btree.check_invariants t;
  check_int "one fewer" 20 (List.length (Btree.range t ~lo:5 ~hi:5))

let test_descending_inserts () =
  let t = new_tree 4 in
  for i = 200 downto 1 do
    Btree.insert t ~key:i ~value:i
  done;
  Btree.check_invariants t;
  Alcotest.(check (list (pair int int)))
    "sorted"
    (List.init 200 (fun i -> (i + 1, i + 1)))
    (Btree.to_list t)

let test_churn_vs_model () =
  let rng = Rng.create 42 in
  List.iter
    (fun b ->
      let t = new_tree b in
      let model = ref [] in
      for i = 0 to 2500 do
        let op = Rng.int rng 10 in
        if op < 6 then begin
          let k = Rng.int rng 300 in
          Btree.insert t ~key:k ~value:i;
          model := (k, i) :: !model
        end
        else if op < 9 && !model <> [] then begin
          let k, v = List.nth !model (Rng.int rng (List.length !model)) in
          check_bool "delete present" true (Btree.delete t ~key:k ~value:v);
          model := List.filter (fun e -> e <> (k, v)) !model
        end
        else begin
          let lo = Rng.int rng 300 in
          let hi = lo + Rng.int rng 60 in
          let got = Btree.range t ~lo ~hi in
          let want =
            List.filter (fun (k, _) -> k >= lo && k <= hi) !model
            |> List.sort compare
          in
          Alcotest.(check (list (pair int int))) "range matches model" want got
        end;
        if i mod 500 = 0 then Btree.check_invariants t
      done;
      Btree.check_invariants t;
      check_int "final size" (List.length !model) (Btree.size t))
    [ 4; 5; 16 ]

let test_bulk_load () =
  List.iter
    (fun n ->
      let entries = List.init n (fun i -> (i, i * 10)) in
      let t = Btree.bulk_load (Pager.create ~page_capacity:16 ()) entries in
      Btree.check_invariants t;
      check_int "size" n (Btree.size t);
      Alcotest.(check (list (pair int int))) "contents" entries (Btree.to_list t))
    [ 0; 1; 15; 16; 17; 1000 ]

let test_bulk_load_rejects_unsorted () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Btree.bulk_load: input not sorted") (fun () ->
      ignore (Btree.bulk_load (Pager.create ~page_capacity:8 ()) [ (2, 0); (1, 0) ]))

let test_bulk_then_update () =
  let entries = List.init 500 (fun i -> (i * 2, i)) in
  let t = Btree.bulk_load (Pager.create ~page_capacity:8 ()) entries in
  Btree.insert t ~key:101 ~value:999;
  check_bool "delete" true (Btree.delete t ~key:0 ~value:0);
  Btree.check_invariants t;
  Alcotest.(check (option int)) "inserted found" (Some 999) (Btree.find t 101);
  check_int "size" 500 (Btree.size t)

(* ----- I/O bounds (the §1 baseline the paper builds on) ----- *)

let test_search_io_logarithmic () =
  let b = 16 in
  let n = 20000 in
  let entries = List.init n (fun i -> (i, i)) in
  let t = Btree.bulk_load (Pager.create ~page_capacity:b ()) entries in
  let pager = Btree.pager t in
  Pager.reset_stats pager;
  ignore (Btree.find t (n / 2));
  let reads = (Pager.stats pager).Io_stats.reads in
  (* height + at most one extra leaf for duplicate spill-over *)
  check_bool "find reads <= height + 1" true (reads <= Btree.height t + 1)

let test_range_io_output_sensitive () =
  let b = 16 in
  let n = 20000 in
  let entries = List.init n (fun i -> (i, i)) in
  let t = Btree.bulk_load (Pager.create ~page_capacity:b ()) entries in
  let pager = Btree.pager t in
  List.iter
    (fun span ->
      Pager.reset_stats pager;
      let res = Btree.range t ~lo:1000 ~hi:(1000 + span - 1) in
      check_int "output size" span (List.length res);
      let reads = (Pager.stats pager).Io_stats.reads in
      let bound = Btree.height t + Num_util.ceil_div span (b - 1) + 1 in
      check_bool
        (Printf.sprintf "span %d: %d reads <= %d" span reads bound)
        true (reads <= bound))
    [ 1; 10; 100; 1000; 5000 ]

let test_update_io_logarithmic () =
  let b = 16 in
  let entries = List.init 20000 (fun i -> (i * 2, i)) in
  let t = Btree.bulk_load (Pager.create ~page_capacity:b ()) entries in
  let pager = Btree.pager t in
  Pager.reset_stats pager;
  Btree.insert t ~key:10001 ~value:0;
  let st = Pager.stats pager in
  (* one read + one write per level, plus splits *)
  check_bool "insert I/O O(height)" true
    (Io_stats.total st <= (3 * Btree.height t) + 3)

let test_storage_linear () =
  let b = 16 in
  let n = 20000 in
  let entries = List.init n (fun i -> (i, i)) in
  let t = Btree.bulk_load (Pager.create ~page_capacity:b ()) entries in
  (* bulk-loaded leaves are packed: pages ~ n / (b - 1) plus internals *)
  check_bool "O(n/B) pages" true
    (Btree.pages_used t <= (2 * n / (b - 1)) + 10)

(* ----- leaf-chain iteration ----- *)

let test_navigation () =
  let entries = List.init 500 (fun i -> (i * 2, i)) in
  let t = Btree.bulk_load (Pager.create ~page_capacity:8 ()) entries in
  let total = ref 0 in
  Btree.iter t (fun _ v -> total := !total + v);
  check_int "iter sums values" (499 * 500 / 2) !total

let prop_btree_range =
  QCheck.Test.make ~name:"btree range = model filter" ~count:60
    QCheck.(pair (int_range 4 12) (small_list (pair (int_range 0 50) (int_range 0 50))))
    (fun (b, kvs) ->
      let t = new_tree b in
      List.iter (fun (k, v) -> Btree.insert t ~key:k ~value:v) kvs;
      Btree.check_invariants t;
      List.for_all
        (fun lo ->
          let hi = lo + 10 in
          Btree.range t ~lo ~hi
          = (List.filter (fun (k, _) -> k >= lo && k <= hi) kvs |> List.sort compare))
        [ 0; 13; 29; 45 ])

let suite =
  [
    ("empty tree", `Quick, test_empty);
    ("single entry", `Quick, test_single);
    ("duplicate keys", `Quick, test_duplicate_keys);
    ("descending inserts", `Quick, test_descending_inserts);
    ("churn vs model", `Slow, test_churn_vs_model);
    ("bulk load sizes", `Quick, test_bulk_load);
    ("bulk load rejects unsorted", `Quick, test_bulk_load_rejects_unsorted);
    ("bulk then update", `Quick, test_bulk_then_update);
    ("point search I/O", `Quick, test_search_io_logarithmic);
    ("range I/O output-sensitive", `Quick, test_range_io_output_sensitive);
    ("update I/O logarithmic", `Quick, test_update_io_logarithmic);
    ("storage linear", `Quick, test_storage_linear);
    ("navigation", `Quick, test_navigation);
    QCheck_alcotest.to_alcotest prop_btree_range;
  ]
