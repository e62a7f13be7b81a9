(* The differential model-checking harness checking itself: clean sweeps
   over all nine structures, a seeded mutation the diff must catch and the
   shrinker must minimize deterministically, fault-injection contract
   tests, and delete-heavy regressions driven through the harness. *)

open Pc_check

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let gen ~seed ~n = Dsl.generate (Pc_util.Rng.create seed) ~n

let outcome_testable =
  Alcotest.testable Engine.pp_outcome (fun a b -> a = b)

(* ----- clean differential runs ----- *)

let test_clean_all_targets () =
  List.iter
    (fun target ->
      let ops = gen ~seed:11 ~n:300 in
      Alcotest.check outcome_testable
        (Subject.name target ^ " clean 300 ops")
        Engine.Pass
        (Engine.run target ~ops))
    Subject.all

let test_clean_long_runs () =
  (* the acceptance bar: >= 1000 operations per seed with zero
     divergences; dynamic targets exercise their update paths, one static
     rebuild-heavy target rides along *)
  List.iter
    (fun target ->
      let ops = gen ~seed:23 ~n:1200 in
      Alcotest.check outcome_testable
        (Subject.name target ^ " clean 1200 ops")
        Engine.Pass
        (Engine.run target ~ops))
    [ Subject.Btree; Subject.Dynamic; Subject.Stabbing; Subject.Ext_pst3 ]

let test_clean_multiple_seeds () =
  List.iter
    (fun seed ->
      List.iter
        (fun target ->
          Alcotest.check outcome_testable
            (Printf.sprintf "%s seed %d" (Subject.name target) seed)
            Engine.Pass
            (Engine.run target ~ops:(gen ~seed ~n:120)))
        Subject.all)
    [ 1; 2; 3 ]

(* ----- seeded mutation: the diff fires and the shrinker minimizes ----- *)

(* Drop the smallest element of every non-empty 2-sided answer: stable
   under shrinking because it keys on the op kind, not its position. *)
let tamper op ans =
  match (op, ans) with
  | Dsl.Q2 _, _ :: rest -> rest
  | _ -> ans

let find_mutated_workload () =
  (* a seed whose workload has a non-empty Q2 answer against Dynamic *)
  let rec go seed =
    if seed > 50 then Alcotest.fail "no seed with a non-empty Q2 answer"
    else
      let ops = gen ~seed ~n:200 in
      match Engine.run ~tamper Subject.Dynamic ~ops with
      | Engine.Diverged _ -> (seed, ops)
      | _ -> go (seed + 1)
  in
  go 0

let test_mutation_caught_and_shrunk () =
  let _seed, ops = find_mutated_workload () in
  let fails ops = Engine.run ~tamper Subject.Dynamic ~ops <> Engine.Pass in
  let small = Shrink.minimize fails ops in
  check_bool "still fails" true (fails small);
  check_bool
    (Printf.sprintf "shrunk to <= 10 ops (got %d)" (Array.length small))
    true
    (Array.length small <= 10);
  (* 1-minimality: removing any single op loses the failure *)
  Array.iteri
    (fun i _ ->
      check_bool
        (Printf.sprintf "removing op %d breaks the repro" i)
        false
        (fails (Shrink.remove small i 1)))
    small

let test_shrinker_deterministic_golden () =
  let seed, ops = find_mutated_workload () in
  let fails ops = Engine.run ~tamper Subject.Dynamic ~ops <> Engine.Pass in
  let shrink () =
    let small = Shrink.minimize fails (Array.copy ops) in
    Repro.to_string
      { target = Subject.Dynamic; seed; b = 8; fault = None; crash = false; ops = small }
  in
  let first = shrink () in
  let second = shrink () in
  Alcotest.(check string) "byte-identical minimal repro" first second

(* ----- repro round trip ----- *)

let test_repro_round_trip () =
  let ops = gen ~seed:5 ~n:60 in
  let r =
    {
      Repro.target = Subject.Ext_seg;
      seed = 5;
      b = 16;
      fault = Some (Pc_pagestore.Fault_plan.Transient { every = 4; fails = 1; retries = 2 });
      crash = false;
      ops;
    }
  in
  match Repro.of_string (Repro.to_string r) with
  | Error msg -> Alcotest.fail msg
  | Ok r' ->
      check_bool "round trip" true (r = r');
      Alcotest.check outcome_testable "replay passes" Engine.Pass
        (Repro.replay { r' with fault = None })

(* ----- fault injection: typed error or oracle-correct ----- *)

let fault_kinds =
  Pc_pagestore.Fault_plan.
    [
      Fail_stop { at = 6 };
      Transient { every = 4; fails = 1; retries = 2 };
      Transient { every = 5; fails = 4; retries = 2 };
      Torn_write { at = 4 };
    ]

let test_fault_contract_all_targets () =
  List.iter
    (fun kind ->
      List.iter
        (fun target ->
          let ops = gen ~seed:31 ~n:120 in
          let plan = Pc_pagestore.Fault_plan.make kind in
          let outcome, _faulted, _injected =
            Engine.run_faulted target ~ops ~plan
          in
          Alcotest.check outcome_testable
            (Printf.sprintf "%s under %s" (Subject.name target)
               (Pc_pagestore.Fault_plan.kind_to_string kind))
            Engine.Pass outcome)
        Subject.all)
    fault_kinds

let test_faults_actually_injected () =
  (* the contract test is vacuous if no fault ever fires: assert the
     fail-stop sweep injects on every target *)
  List.iter
    (fun target ->
      let ops = gen ~seed:31 ~n:120 in
      let plan =
        Pc_pagestore.Fault_plan.make (Pc_pagestore.Fault_plan.Fail_stop { at = 6 })
      in
      let _, faulted, injected = Engine.run_faulted target ~ops ~plan in
      check_bool
        (Printf.sprintf "%s: >= 1 typed fault (got %d ops, %d events)"
           (Subject.name target) faulted injected)
        true
        (faulted >= 1 && injected >= 1))
    Subject.all

(* ----- delete-heavy regressions (satellite 3) ----- *)

let delete_heavy_ops ~seed ~n ~final =
  let rng = Pc_util.Rng.create seed in
  let inserts =
    Array.init n (fun id ->
        Dsl.Insert
          (Pc_util.Point.make ~x:(Pc_util.Rng.int rng 500)
             ~y:(Pc_util.Rng.int rng 500) ~id))
  in
  let order = Array.init n (fun i -> i) in
  Pc_util.Rng.shuffle rng order;
  let deletes = Array.map (fun id -> Dsl.Delete id) order in
  Array.concat [ inserts; deletes; final ]

let test_btree_delete_heavy () =
  let ops =
    delete_heavy_ops ~seed:41 ~n:400
      ~final:[| Dsl.Krange { lo = min_int; hi = max_int } |]
  in
  Alcotest.check outcome_testable "insert 400, delete all, query empty"
    Engine.Pass
    (Engine.run Subject.Btree ~ops)

let test_dynamic_delete_heavy () =
  let ops =
    delete_heavy_ops ~seed:43 ~n:250
      ~final:[| Dsl.Q2 { xl = min_int; yb = min_int } |]
  in
  Alcotest.check outcome_testable "insert 250, delete all, query empty"
    Engine.Pass
    (Engine.run Subject.Dynamic ~ops)

(* ----- DSL parsing ----- *)

let test_dsl_string_round_trip () =
  let ops = gen ~seed:17 ~n:500 in
  Array.iter
    (fun op ->
      match Dsl.of_string (Dsl.to_string op) with
      | Some op' -> check_bool (Dsl.to_string op) true (op = op')
      | None -> Alcotest.fail ("unparsable: " ^ Dsl.to_string op))
    ops;
  check_bool "garbage rejected" true (Dsl.of_string "frobnicate 3" = None)

let suite =
  [
    Alcotest.test_case "clean: all targets, 300 ops" `Quick
      test_clean_all_targets;
    Alcotest.test_case "clean: 1200-op runs" `Slow test_clean_long_runs;
    Alcotest.test_case "clean: seeds 1-3, all targets" `Quick
      test_clean_multiple_seeds;
    Alcotest.test_case "mutation caught and shrunk <= 10 ops" `Quick
      test_mutation_caught_and_shrunk;
    Alcotest.test_case "shrinker is deterministic (golden)" `Quick
      test_shrinker_deterministic_golden;
    Alcotest.test_case "repro file round trip" `Quick test_repro_round_trip;
    Alcotest.test_case "fault contract: every kind x every target" `Slow
      test_fault_contract_all_targets;
    Alcotest.test_case "faults actually injected" `Quick
      test_faults_actually_injected;
    Alcotest.test_case "btree delete-heavy" `Quick test_btree_delete_heavy;
    Alcotest.test_case "dynamic delete-heavy" `Quick test_dynamic_delete_heavy;
    Alcotest.test_case "dsl string round trip" `Quick test_dsl_string_round_trip;
  ]
