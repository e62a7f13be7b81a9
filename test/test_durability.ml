(* Durability-layer tests (DESIGN.md §12): journaled commit atomicity,
   write amplification, checksum detection (hard-fail and degraded),
   torn-write containment, in-pager transient retry accounting, and the
   idempotence of crash recovery — property-tested across every
   replacement policy and the uncached capacity-0 configuration. *)

open Pathcaching

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let entries_t = Alcotest.(list (pair int int))

(* A durable B-tree with [base] bulk-loaded entries and [extra] tagged
   inserts (tag i = insert index i, as the crash sweep uses), returning
   the journal and the expected entry list after each committed prefix:
   [prefix.(0)] is the bulk-loaded state (tag -1 commits into it),
   [prefix.(i + 1)] the state after insert [i]. *)
let tagged_btree ?pool ?cache_capacity ?checkpoint_every ~base ~extra () =
  let wal = Wal.create ?checkpoint_every () in
  let base_entries = List.init base (fun i -> (2 * i, 3 * i)) in
  let t =
    Btree.bulk_load_in ?pool ?cache_capacity ~durability:wal ~b:8 base_entries
  in
  let prefix = Array.make (extra + 1) [] in
  prefix.(0) <- Btree.to_list t;
  for i = 0 to extra - 1 do
    Wal.set_tag wal i;
    Btree.insert t ~key:(1001 + (2 * i)) ~value:i;
    prefix.(i + 1) <- Btree.to_list t
  done;
  (t, wal, prefix)

(* ----- transaction atomicity: a faulted insert leaves no trace ----- *)

let test_txn_rollback_on_fault () =
  let t, wal, _ = tagged_btree ~base:40 ~extra:4 () in
  let before = Btree.to_list t in
  let plan = Fault_plan.make (Fault_plan.Fail_stop { at = 1 }) in
  Pager.set_fault_plan (Btree.pager t) plan;
  Fault_plan.arm plan;
  let tripped =
    try
      Btree.insert t ~key:5000 ~value:1;
      false
    with Pager.Io_fault _ | Pager.Torn_write _ -> true
  in
  Fault_plan.disarm plan;
  Pager.clear_fault_plan (Btree.pager t);
  check_bool "fault tripped" true tripped;
  (* In-memory rollback: the failed transaction left nothing behind. *)
  Alcotest.check entries_t "rolled back to last commit" before
    (Btree.to_list t);
  Btree.check_invariants t;
  (* The journal holds no half transaction either: recovery from a crash
     right now lands on the same committed state. *)
  let r = Wal.recover (Wal.crash wal) in
  Alcotest.check entries_t "journal recovers the committed state" before
    (Btree.to_list (Btree.recover ~b:8 r));
  (* And the tree keeps accepting updates after the rollback. *)
  Btree.insert t ~key:5000 ~value:1;
  check_int "insert after rollback" (List.length before + 1)
    (List.length (Btree.to_list t))

(* ----- unjournaled mutation is a programming error ----- *)

let test_unjournaled_write_rejected () =
  let wal = Wal.create () in
  let pager = Pager.create ~wal ~page_capacity:4 () in
  let rejected =
    try
      ignore (Pager.alloc pager [| 1 |]);
      false
    with Invalid_argument _ -> true
  in
  check_bool "mutation outside a transaction is refused" true rejected

(* ----- write amplification bound and query-path cost ----- *)

let test_write_amplification_and_query_cost () =
  let entries = List.init 400 (fun i -> (i, i * 7)) in
  let plain = Btree.bulk_load_in ~b:8 entries in
  let wal = Wal.create () in
  let durable = Btree.bulk_load_in ~durability:wal ~b:8 entries in
  for i = 0 to 49 do
    let key = 10_000 + i in
    Pager.reset_stats (Btree.pager plain);
    Pager.reset_stats (Btree.pager durable);
    Btree.insert plain ~key ~value:i;
    Btree.insert durable ~key ~value:i;
    let pw = (Pager.stats (Btree.pager plain)).Io_stats.writes in
    let dw = (Pager.stats (Btree.pager durable)).Io_stats.writes in
    (* journal record + in-place apply per dirtied page, plus at most one
       superblock write when a checkpoint truncates the journal *)
    check_bool
      (Printf.sprintf "insert %d: %d journaled writes for %d plain" i dw pw)
      true
      (dw <= (2 * pw) + 1)
  done;
  (* Queries verify checksums in memory: no extra device I/O at all. *)
  Pager.reset_stats (Btree.pager plain);
  Pager.reset_stats (Btree.pager durable);
  List.iter
    (fun lo ->
      Alcotest.check entries_t "same range answers"
        (Btree.range plain ~lo ~hi:(lo + 37))
        (Btree.range durable ~lo ~hi:(lo + 37)))
    [ 0; 91; 260; 399 ];
  let ps = Pager.stats (Btree.pager plain) in
  let ds = Pager.stats (Btree.pager durable) in
  check_int "identical query reads" ps.Io_stats.reads ds.Io_stats.reads;
  check_int "no query-path writes" 0 ds.Io_stats.writes

(* ----- checksum mismatch: hard failure by default ----- *)

let test_corrupt_page_raises () =
  let t, _, _ = tagged_btree ~base:60 ~extra:0 () in
  let pager = Btree.pager t in
  Pager.corrupt_page pager 0;
  let raised =
    try
      ignore (Btree.to_list t);
      false
    with Pager.Corrupt_page { page = 0 } -> true
  in
  check_bool "Corrupt_page raised, never garbage" true raised

(* ----- degraded mode: quarantine + partial-result marker ----- *)

let test_degraded_reads_skip_quarantined () =
  let obs = Obs.create ~sink:(Obs.ring ~capacity:4096) () in
  let wal = Wal.create () in
  let entries = List.init 120 (fun i -> (i, i)) in
  let t = Btree.bulk_load_in ~obs ~durability:wal ~b:8 entries in
  let pager = Btree.pager t in
  let intact = Btree.to_list t in
  Pager.set_degraded pager true;
  ignore (Pager.consume_partial pager);
  Pager.corrupt_page pager 1;
  let partial = Btree.to_list t in
  check_bool "results shrank, not raised"
    true
    (List.length partial < List.length intact);
  check_bool "every surviving entry is genuine" true
    (List.for_all (fun e -> List.mem e intact) partial);
  check_bool "partial marker set" true (Pager.consume_partial pager);
  check_bool "marker consumed" false (Pager.consume_partial pager);
  check_int "page quarantined" 1 (List.length (Pager.quarantined_pages pager));
  check_bool "Corrupt event traced" true
    (List.exists (fun (e : Obs.event) -> e.kind = Obs.Corrupt) (Obs.events obs))

(* ----- torn write: typed error, recovery discards the torn txn ----- *)

let test_torn_write_contained () =
  let t, wal, prefix = tagged_btree ~base:40 ~extra:3 () in
  let committed = prefix.(3) in
  (* at = 1: the first journaled write of the commit tears. (Later armed
     writes are in-place applies, whose faults never surface — the
     journal record already made the transaction durable.) *)
  let plan = Fault_plan.make (Fault_plan.Torn_write { at = 1 }) in
  Pager.set_fault_plan (Btree.pager t) plan;
  Fault_plan.arm plan;
  let torn =
    try
      Wal.set_tag wal 99;
      Btree.insert t ~key:7777 ~value:0;
      false
    with Pager.Torn_write _ -> true
  in
  Fault_plan.disarm plan;
  Pager.clear_fault_plan (Btree.pager t);
  check_bool "torn write surfaced as a typed error" true torn;
  (* The torn journal record fails its checksum at recovery, so the torn
     transaction vanishes — the recovered tree is the committed prefix. *)
  let r = Wal.recover (Wal.crash wal) in
  check_bool "torn transaction discarded" true (r.Wal.r_tag <> 99);
  let t' = Btree.recover ~b:8 r in
  Btree.check_invariants t';
  Alcotest.check entries_t "recovered to the committed prefix" committed
    (Btree.to_list t')

(* ----- transient faults: absorbed in-pager, accounted for ----- *)

let test_transient_retry_accounting () =
  let obs = Obs.create ~sink:(Obs.ring ~capacity:8192) () in
  let entries = List.init 300 (fun i -> (i, i)) in
  (* capacity 0: every access is a device read, so the plan has targets *)
  let t = Btree.bulk_load_in ~obs ~cache_capacity:0 ~b:8 entries in
  let pager = Btree.pager t in
  let plan =
    Fault_plan.make (Fault_plan.Transient { every = 3; fails = 2; retries = 3 })
  in
  Pager.set_fault_plan pager plan;
  Fault_plan.arm plan;
  Pager.reset_stats pager;
  List.iter
    (fun k -> check_int "reads survive transient faults" k
        (Option.get (Btree.find t k)))
    [ 0; 57; 123; 299 ];
  Fault_plan.disarm plan;
  Pager.clear_fault_plan pager;
  let st = Pager.stats pager in
  check_bool "retries counted" true (st.Io_stats.retries > 0);
  (* each burst was [fails] = 2 redundant attempts *)
  check_int "retry counter = injected errors" (Fault_plan.injected plan)
    st.Io_stats.retries;
  let h = Pager.retry_histogram pager in
  check_bool "burst histogram populated" true (Histogram.count h > 0);
  check_int "bursts sum to the retry counter" st.Io_stats.retries
    (Histogram.total h);
  let events = Obs.events obs in
  let count k = List.length (List.filter (fun (e : Obs.event) -> e.kind = k) events) in
  check_int "one Retry event per burst" (Histogram.count h) (count Obs.Retry);
  check_int "one Fault event per failed attempt" st.Io_stats.retries
    (count Obs.Fault)

(* A burst longer than the plan's budget gives up exactly like a device
   error past its retry policy; a burst exactly as long as the budget
   succeeds on the last permitted reissue. *)
let test_transient_give_up_counted () =
  let obs = Obs.create ~sink:(Obs.ring ~capacity:1024) () in
  let t =
    Btree.bulk_load_in ~obs ~cache_capacity:0 ~b:8
      (List.init 100 (fun i -> (i, i)))
  in
  let pager = Btree.pager t in
  let count k =
    List.length
      (List.filter (fun (e : Obs.event) -> e.kind = k) (Obs.events obs))
  in
  let run ~fails ~retries =
    Pager.set_fault_plan pager
      (Fault_plan.make (Fault_plan.Transient { every = 1; fails; retries }));
    Pager.reset_stats pager;
    Fun.protect
      ~finally:(fun () -> Pager.clear_fault_plan pager)
      (fun () -> Btree.find t 42)
  in
  (match run ~fails:3 ~retries:1 with
  | _ -> Alcotest.fail "expected Io_fault"
  | exception Pager.Io_fault _ -> ());
  let st = Pager.stats pager in
  check_int "give_ups" 1 (Pager.give_ups pager);
  check_int "one Give_up event" 1 (count Obs.Give_up);
  check_int "reads = retries + 1" 2 st.Io_stats.reads;
  check_int "retries" 1 st.Io_stats.retries;
  check_int "found at the edge of the budget" 42
    (Option.get (run ~fails:2 ~retries:2));
  check_int "still one give-up" 1 (Pager.give_ups pager)

(* ----- journal trace events ----- *)

let test_journal_events_traced () =
  let obs = Obs.create ~sink:(Obs.ring ~capacity:8192) () in
  let wal = Wal.create ~checkpoint_every:1 () in
  let t =
    Btree.bulk_load_in ~obs ~durability:wal ~b:8
      (List.init 100 (fun i -> (i, i)))
  in
  Btree.insert t ~key:500 ~value:1;
  let events = Obs.events obs in
  let has k = List.exists (fun (e : Obs.event) -> e.kind = k) events in
  check_bool "Journal_write traced" true (has Obs.Journal_write);
  check_bool "Checkpoint traced" true (has Obs.Checkpoint)

(* ----- crash-point sweep smoke (full sweep lives in check/stress) ----- *)

let test_crash_sweep_btree_and_static () =
  List.iter
    (fun target ->
      let rng = Rng.create 1201 in
      let ops = Pc_check.Dsl.generate rng ~n:16 in
      let rep = Pc_check.Crash.sweep ~b:8 target ~ops in
      check_bool
        (Format.asprintf "%a" Pc_check.Crash.pp_report rep)
        true
        (Pc_check.Crash.passed rep))
    [ Pc_check.Subject.Btree; Pc_check.Subject.Ext_int ]

(* ----- recovery idempotence across policies and capacity 0 ----- *)

(* The property: for any replacement policy (or no cache at all), any
   crash index and any torn bit, recovering the image twice yields
   structurally identical results — pages, metadata, tag, damage list
   and the recovery I/O bill — and the recovered tree is exactly the
   committed operation prefix. *)
let run_idempotence_case ~policy_idx ~ios_pct ~torn =
  let pool, cache_capacity =
    (* 0..3 = the four policies behind an 8-frame shared pool;
       4 = no pool, capacity 0 (the deterministic-count configuration) *)
    if policy_idx < 4 then
      let policy = List.nth Replacement.all policy_idx in
      (Some (Buffer_pool.create ~policy ~capacity:8 ()), None)
    else (None, Some 0)
  in
  let _, wal, prefix = tagged_btree ?pool ?cache_capacity ~base:24 ~extra:6 () in
  let n = Wal.crash_points wal in
  let ios = ios_pct * n / 100 in
  let torn = torn && ios < n in
  let img = Wal.image_at ~torn wal ~ios in
  let r1 = Wal.recover img in
  let r2 = Wal.recover img in
  if not (Wal.recovered_equal r1 r2) then false
  else if r1.Wal.r_stats <> r2.Wal.r_stats then false
  else
    let expected =
      if r1.Wal.r_meta = None then [] else prefix.(r1.Wal.r_tag + 1)
    in
    let t' = Btree.recover ~b:8 r1 in
    Btree.check_invariants t';
    Btree.to_list t' = expected

let prop_recovery_idempotent =
  QCheck.Test.make ~name:"recover twice = recover once (all policies, cap 0)"
    ~count:120
    QCheck.(triple (int_range 0 4) (int_range 0 100) bool)
    (fun (policy_idx, ios_pct, torn) ->
      run_idempotence_case ~policy_idx ~ios_pct ~torn)

let suite =
  [
    ("txn rollback on fault", `Quick, test_txn_rollback_on_fault);
    ("unjournaled write rejected", `Quick, test_unjournaled_write_rejected);
    ( "write amplification <= 2x, queries free",
      `Quick,
      test_write_amplification_and_query_cost );
    ("corrupt page raises", `Quick, test_corrupt_page_raises);
    ("degraded reads quarantine", `Quick, test_degraded_reads_skip_quarantined);
    ("torn write contained", `Quick, test_torn_write_contained);
    ("transient retry accounting", `Quick, test_transient_retry_accounting);
    ("transient give-up counted", `Quick, test_transient_give_up_counted);
    ("journal events traced", `Quick, test_journal_events_traced);
    ("crash sweep smoke", `Slow, test_crash_sweep_btree_and_static);
    QCheck_alcotest.to_alcotest prop_recovery_idempotent;
  ]
