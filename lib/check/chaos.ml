(* The chaos sweep: each cell drives one failure mode through the whole
   stack — flaky device, retry policy, quarantine, journal, breaker —
   and checks the design's safety and availability claims against an
   in-memory oracle. Deterministic in (b, seed): the flaky schedule is
   a pure function of its profile and the op sequence, the retry policy
   is pure arithmetic, and the breaker counts operations instead of
   reading a clock, so a failing cell replays exactly. *)

module Bdev = Pc_blockdev.Block_device
module Flaky = Pc_blockdev.Flaky_dev
module Pager = Pc_pagestore.Pager
module Retry_policy = Pc_pagestore.Retry_policy
module Wal = Pc_pagestore.Wal
module Btree = Pc_btree.Btree
module Breaker = Pc_conc.Breaker
module Shared_store = Pc_conc.Shared_store
module Rng = Pc_util.Rng
module Point = Pc_util.Point

type report = {
  c_name : string;
  c_ops : int;
  c_ok : int;
  c_denied : int;
  c_injected : Flaky.counts;
  c_retries : int;
  c_give_ups : int;
  c_quarantined : int;
  c_trips : int;
  c_violations : string list;
}

let passed r = r.c_violations = []

let availability r =
  let attempted = r.c_ok + r.c_denied in
  if attempted = 0 then 1.0 else float_of_int r.c_ok /. float_of_int attempted

let no_injection = { Flaky.transients = 0; permanents = 0; torn = 0; stalls = 0 }

let pp_report ppf r =
  Format.fprintf ppf
    "%-14s ops=%d ok=%d denied=%d avail=%.4f injected=%d/%d/%d/%d \
     retries=%d give_ups=%d quarantined=%d trips=%d : %s"
    r.c_name r.c_ops r.c_ok r.c_denied (availability r)
    r.c_injected.Flaky.transients r.c_injected.Flaky.permanents
    r.c_injected.Flaky.torn r.c_injected.Flaky.stalls r.c_retries
    r.c_give_ups r.c_quarantined r.c_trips
    (match r.c_violations with
    | [] -> "pass"
    | v :: _ ->
        Printf.sprintf "FAIL (%d violation(s); first: %s)"
          (List.length r.c_violations) v)

(* ------------------------------------------------------------------ *)
(* Oracle: a multiset of (key, value) pairs mirroring the tree.       *)
(* ------------------------------------------------------------------ *)

let key_universe = 5_000

let oracle_range oracle ~lo ~hi =
  List.filter (fun (k, _) -> lo <= k && k <= hi) oracle |> List.sort compare

(* [got] is a sub-multiset of [want] (degraded answers may be partial,
   never wrong). *)
let sub_multiset got want =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun kv ->
      Hashtbl.replace counts kv
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts kv)))
    want;
  List.for_all
    (fun kv ->
      match Hashtbl.find_opt counts kv with
      | Some n when n > 0 ->
          Hashtbl.replace counts kv (n - 1);
          true
      | _ -> false)
    got

(* ------------------------------------------------------------------ *)
(* Storage cells: a B-tree over a flaky mem device vs the oracle.     *)
(* ------------------------------------------------------------------ *)

(* Capacity-0 pager: every read and write reaches the device, so the
   fault schedule sees maximal exposure. *)
let make_mem_tree ~b ~profile ~policy =
  let base = Bdev.mem ~page_bytes:(Btree.page_bytes ~b) () in
  let dev, ctl = Flaky.wrap ~profile base in
  let pager =
    Pager.create ~backend:{ Pager.dev; codec = Btree.codec } ~page_capacity:b ()
  in
  Pager.set_retry_policy pager policy;
  (Btree.create pager, pager, ctl)

(* Mutating exact cell: random inserts/deletes with periodic range
   checks; every fault in [profile] must be absorbed by [policy], so
   any denial or wrong answer is a violation. *)
let exact_cell ~name ~ops ~b ~seed ~profile ~policy ~expect () =
  let tree, pager, ctl = make_mem_tree ~b ~profile ~policy in
  let rng = Rng.create seed in
  let oracle = ref [] in
  let ok = ref 0 and denied = ref 0 in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  for i = 0 to ops - 1 do
    match
      if i mod 8 = 7 then begin
        let lo = Rng.int rng key_universe in
        let hi = lo + Rng.int rng 200 in
        let got = Btree.range tree ~lo ~hi in
        let want = oracle_range !oracle ~lo ~hi in
        if got <> want then
          violate "op %d: range [%d,%d] returned %d pairs, oracle %d" i lo hi
            (List.length got) (List.length want)
      end
      else if (not (Rng.int rng 4 = 0)) || !oracle = [] then begin
        let key = Rng.int rng key_universe in
        let value = Rng.int rng key_universe in
        Btree.insert tree ~key ~value;
        oracle := (key, value) :: !oracle
      end
      else begin
        let n = List.length !oracle in
        let key, value = List.nth !oracle (Rng.int rng n) in
        if not (Btree.delete tree ~key ~value) then
          violate "op %d: delete (%d,%d) missed a pair the oracle holds" i key
            value;
        let seen = ref false in
        oracle :=
          List.filter
            (fun kv ->
              if (not !seen) && kv = (key, value) then begin
                seen := true;
                false
              end
              else true)
            !oracle
      end
    with
    | () -> incr ok
    | exception Pager.Io_fault { page; op } ->
        incr denied;
        violate "op %d: unexpected give-up (%s page %d)" i op page
  done;
  let got = Btree.range tree ~lo:0 ~hi:key_universe in
  let want = oracle_range !oracle ~lo:0 ~hi:key_universe in
  if got <> want then
    violate "final sweep: %d pairs on the tree, oracle %d" (List.length got)
      (List.length want);
  let counts = Flaky.counts ctl in
  if not (expect counts) then
    violate "cell injected no faults of its kind — it proved nothing";
  {
    c_name = name;
    c_ops = ops;
    c_ok = !ok;
    c_denied = !denied;
    c_injected = counts;
    c_retries = (Pager.stats pager).Pc_pagestore.Io_stats.retries;
    c_give_ups = Pager.give_ups pager;
    c_quarantined = List.length (Pager.quarantined_pages pager);
    c_trips = 0;
    c_violations = List.rev !violations;
  }

let transient_mem ?(ops = 600) ~b ~seed () =
  exact_cell ~name:"transient-mem" ~ops ~b ~seed
    ~profile:
      {
        Flaky.quiet with
        Flaky.seed;
        p_transient = 0.05;
        transient_burst = 2;
      }
    ~policy:Retry_policy.default
    ~expect:(fun c -> c.Flaky.transients > 0)
    ()

let torn_mem ?(ops = 600) ~b ~seed () =
  exact_cell ~name:"torn-mem" ~ops ~b ~seed
    ~profile:{ Flaky.quiet with Flaky.seed; p_torn = 0.1 }
    ~policy:Retry_policy.default
    ~expect:(fun c -> c.Flaky.torn > 0)
    ()

let stall_mem ?(ops = 600) ~b ~seed () =
  exact_cell ~name:"stall-mem" ~ops ~b ~seed
    ~profile:
      {
        Flaky.quiet with
        Flaky.seed;
        p_stall = 0.05;
        stall_ns = 2_000_000;
        stall_timeout_ns = 1_000_000;
      }
    ~policy:Retry_policy.default
    ~expect:(fun c -> c.Flaky.stalls > 0)
    ()

(* Read-only degraded cell: latent-bad pages under quarantine — results
   may be partial but never wrong, and nothing crashes. The tree is
   built with the faults disabled (the medium goes bad after the data
   is on it). *)
let latent_mem ?(ops = 400) ~b ~seed () =
  let profile = { Flaky.quiet with Flaky.seed; p_latent = 0.08 } in
  (* quarantine-and-degrade needs a durability layer: enroll the pager
     in an (in-memory) journal so checksum verification and the
     quarantine set are live *)
  let base = Bdev.mem ~page_bytes:(Btree.page_bytes ~b) () in
  let dev, ctl = Flaky.wrap ~profile base in
  Flaky.set_enabled ctl false;
  let pager =
    Pager.create ~wal:(Wal.create ())
      ~backend:{ Pager.dev; codec = Btree.codec }
      ~page_capacity:b ()
  in
  Pager.set_retry_policy pager Retry_policy.default;
  let tree = Btree.create pager in
  let rng = Rng.create seed in
  let oracle = ref [] in
  for _ = 1 to 400 do
    let key = Rng.int rng key_universe in
    let value = Rng.int rng key_universe in
    Btree.insert tree ~key ~value;
    oracle := (key, value) :: !oracle
  done;
  Flaky.set_enabled ctl true;
  Pager.set_degraded pager true;
  let ok = ref 0 in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  for i = 0 to ops - 1 do
    let lo = Rng.int rng key_universe in
    let hi = lo + Rng.int rng 300 in
    let got = Btree.range tree ~lo ~hi in
    let want = oracle_range !oracle ~lo ~hi in
    if sub_multiset got want then incr ok
    else
      violate "op %d: degraded range [%d,%d] returned pairs the oracle never \
               held" i lo hi
  done;
  let counts = Flaky.counts ctl in
  if counts.Flaky.permanents = 0 then
    violate "no latent-sector read was ever struck — raise p_latent or ops";
  let quarantined = List.length (Pager.quarantined_pages pager) in
  if quarantined = 0 then violate "permanent faults struck but nothing was \
                                   quarantined";
  {
    c_name = "latent-mem";
    c_ops = ops;
    c_ok = !ok;
    c_denied = 0;
    c_injected = counts;
    c_retries = (Pager.stats pager).Pc_pagestore.Io_stats.retries;
    c_give_ups = Pager.give_ups pager;
    c_quarantined = quarantined;
    c_trips = 0;
    c_violations = List.rev !violations;
  }

(* Give-up cell: bursts far beyond the policy budget, read-only so a
   mid-operation abort cannot leave a half-mutated structure. Denials
   must be typed ([Io_fault]), and clearing the faults restores exact
   answers — degraded service, full recovery. *)
let giveup_mem ?(ops = 400) ~b ~seed () =
  let profile =
    {
      Flaky.quiet with
      Flaky.seed;
      p_transient = 0.05;
      transient_burst = 1_000;
    }
  in
  let policy =
    Retry_policy.make ~max_attempts:3 ~base_ns:1_000 ~cap_ns:1_000
      ~deadline_ns:10_000 ()
  in
  let tree, pager, ctl = make_mem_tree ~b ~profile ~policy in
  Flaky.set_enabled ctl false;
  let rng = Rng.create seed in
  let oracle = ref [] in
  for _ = 1 to 400 do
    let key = Rng.int rng key_universe in
    let value = Rng.int rng key_universe in
    Btree.insert tree ~key ~value;
    oracle := (key, value) :: !oracle
  done;
  Flaky.set_enabled ctl true;
  let ok = ref 0 and denied = ref 0 in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  for i = 0 to ops - 1 do
    let lo = Rng.int rng key_universe in
    let hi = lo + Rng.int rng 300 in
    match Btree.range tree ~lo ~hi with
    | got ->
        let want = oracle_range !oracle ~lo ~hi in
        if got = want then incr ok
        else violate "op %d: successful range [%d,%d] is wrong" i lo hi
    | exception Pager.Io_fault _ -> incr denied
  done;
  if !denied = 0 then
    violate "burst 1000 against a 3-attempt budget never gave up — the cell \
             proved nothing";
  (* faults clear; bursts heal; service must be exact again *)
  Flaky.set_enabled ctl false;
  let got = Btree.range tree ~lo:0 ~hi:key_universe in
  let want = oracle_range !oracle ~lo:0 ~hi:key_universe in
  if got <> want then violate "after the faults cleared the tree still \
                               answers wrong";
  {
    c_name = "giveup-mem";
    c_ops = ops;
    c_ok = !ok;
    c_denied = !denied;
    c_injected = Flaky.counts ctl;
    c_retries = (Pager.stats pager).Pc_pagestore.Io_stats.retries;
    c_give_ups = Pager.give_ups pager;
    c_quarantined = List.length (Pager.quarantined_pages pager);
    c_trips = 0;
    c_violations = List.rev !violations;
  }

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A file-backed durable tree in a fresh [root], its page device under
   [profile] (the journal file stays unwrapped) and [policy] installed. *)
let make_file_tree ~root ~b ~profile ~policy =
  rm_rf root;
  Unix.mkdir root 0o755;
  let ctl = ref None in
  let wrap d =
    let d, c = Flaky.wrap ~profile d in
    ctl := Some c;
    d
  in
  let tree = Btree.create_file ~dir:root ~b ~wrap_dev:wrap () in
  let pager = Btree.pager tree in
  Pager.set_retry_policy pager policy;
  (tree, pager, Option.get !ctl)

(* Durable committed prefix: a file-backed tree mutated through
   transient and torn device faults (all within the retry budget), then
   closed and recovered from the directory's bytes alone — the
   recovered tree must hold exactly what the oracle committed. *)
let durable_file ?(ops = 200) ~b ~seed ~root () =
  let profile =
    {
      Flaky.quiet with
      Flaky.seed;
      p_transient = 0.03;
      transient_burst = 2;
      p_torn = 0.05;
    }
  in
  let tree, pager, ctl =
    make_file_tree ~root ~b ~profile ~policy:Retry_policy.default
  in
  let rng = Rng.create seed in
  let oracle = ref [] in
  let ok = ref 0 and denied = ref 0 in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  for i = 0 to ops - 1 do
    let key = Rng.int rng key_universe in
    let value = Rng.int rng key_universe in
    (* [Btree.insert] opens its own journal transaction (and stamps its
       own recovery meta) — no outer txn here *)
    match Btree.insert tree ~key ~value with
    | () ->
        incr ok;
        oracle := (key, value) :: !oracle
    | exception Pager.Io_fault { page; op } ->
        incr denied;
        violate "op %d: unexpected give-up (%s page %d) inside the budget" i
          op page
  done;
  let counts = Flaky.counts ctl in
  if counts.Flaky.transients = 0 && counts.Flaky.torn = 0 then
    violate "no device fault ever struck the durable tree";
  let live = Btree.range tree ~lo:0 ~hi:key_universe in
  let want = oracle_range !oracle ~lo:0 ~hi:key_universe in
  if live <> want then
    violate "live tree diverged from the oracle before recovery";
  let retries = (Pager.stats pager).Pc_pagestore.Io_stats.retries in
  let give_ups = Pager.give_ups pager in
  (* [Btree.close] fsyncs the raw device outside the pager's retry loop;
     the injector quiesces first (a real shutdown waits out the storm) *)
  Flaky.set_enabled ctl false;
  Btree.close tree;
  (* recovery reads the medium directly: no flaky wrapper *)
  let tree2 = Btree.recover_file ~dir:root ~b () in
  let got = Btree.range tree2 ~lo:0 ~hi:key_universe in
  if got <> want then
    violate "recovered tree lost committed state: %d pairs on disk, oracle %d"
      (List.length got) (List.length want);
  Btree.close tree2;
  rm_rf root;
  {
    c_name = "durable-file";
    c_ops = ops;
    c_ok = !ok;
    c_denied = !denied;
    c_injected = counts;
    c_retries = retries;
    c_give_ups = give_ups;
    c_quarantined = 0;
    c_trips = 0;
    c_violations = List.rev !violations;
  }

(* Give-ups on a journaled file tree: bursts longer than the retry
   budget strike page reads, in-place applies and checkpoint fsyncs
   while inserts mutate the tree. An insert that raised [Io_fault] gave
   up before its commit point and must be in neither the live nor the
   recovered tree; one that returned committed and must be in both,
   however its applies and checkpoints fared. Once the faults clear the
   tree answers exactly and its invariants hold. *)
let giveup_file ?(ops = 200) ~b ~seed ~root () =
  let profile =
    { Flaky.quiet with Flaky.seed; p_transient = 0.05; transient_burst = 10 }
  in
  let policy =
    Retry_policy.make ~max_attempts:3 ~base_ns:1_000 ~cap_ns:1_000
      ~deadline_ns:10_000 ()
  in
  let tree, pager, ctl = make_file_tree ~root ~b ~profile ~policy in
  let rng = Rng.create seed in
  let oracle = ref [] in
  let ok = ref 0 and denied = ref 0 in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  for _ = 1 to ops do
    let key = Rng.int rng key_universe in
    let value = Rng.int rng key_universe in
    match Btree.insert tree ~key ~value with
    | () ->
        incr ok;
        oracle := (key, value) :: !oracle
    | exception Pager.Io_fault _ -> incr denied
  done;
  let give_ups = Pager.give_ups pager in
  (* a denied insert gave up once, in its body; every other give-up
     struck past a commit point *)
  if !denied = 0 || give_ups <= !denied then
    violate "no give-up struck both before and after a commit point — the \
             cell proved nothing";
  Flaky.set_enabled ctl false;
  (try Btree.check_invariants tree with Failure m -> violate "%s" m);
  let want = oracle_range !oracle ~lo:0 ~hi:key_universe in
  if Btree.range tree ~lo:0 ~hi:key_universe <> want then
    violate "live tree is not exactly the inserts that returned";
  let retries = (Pager.stats pager).Pc_pagestore.Io_stats.retries in
  Btree.close tree;
  let tree2 = Btree.recover_file ~dir:root ~b () in
  if Btree.range tree2 ~lo:0 ~hi:key_universe <> want then
    violate "recovered tree is not exactly the inserts that returned";
  Btree.close tree2;
  rm_rf root;
  {
    c_name = "giveup-file";
    c_ops = ops;
    c_ok = !ok;
    c_denied = !denied;
    c_injected = Flaky.counts ctl;
    c_retries = retries;
    c_give_ups = give_ups;
    c_quarantined = 0;
    c_trips = 0;
    c_violations = List.rev !violations;
  }

(* ------------------------------------------------------------------ *)
(* The store cell: breaker under scripted journal failure.            *)
(* ------------------------------------------------------------------ *)

let breaker_store ?(ops = 60) ~b ~seed () =
  let failing = ref false in
  let br = Breaker.create ~threshold:3 ~cooldown:5 () in
  let st = Shared_store.create ~b ~checkpoint_every:100_000 ~breaker:br [] in
  (* the commit-path seam stands in for a journal fsync error or a
     device fault during a rebuild — anything the breaker guards *)
  Shared_store.set_commit_hook st
    (Some
       (fun () ->
         if !failing then failwith "chaos: injected commit-path failure"));
  let rng = Rng.create seed in
  let oracle = Hashtbl.create 64 in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let next_id = ref 0 in
  let insert_one () =
    let id = !next_id in
    incr next_id;
    let p = Point.make ~x:(Rng.int rng 1_000) ~y:(Rng.int rng 1_000) ~id in
    Shared_store.insert st p;
    Hashtbl.replace oracle id p
  in
  let reads_exact tag =
    Hashtbl.iter
      (fun id (p : Point.t) ->
        match Shared_store.find st id with
        | Some q when q = p -> ()
        | _ -> violate "%s: reader lost point %d" tag id)
      oracle
  in
  (* healthy service *)
  for _ = 1 to ops / 2 do
    insert_one ()
  done;
  reads_exact "healthy";
  (* the journal starts failing: [threshold] raw failures trip the
     breaker, everything after fails fast and typed *)
  failing := true;
  let raw = ref 0 and degraded = ref 0 in
  let tries = ref 0 in
  while !degraded = 0 && !tries < 12 do
    incr tries;
    match insert_one () with
    | () -> violate "insert committed through a failing commit path"
    | exception Failure _ -> incr raw
    | exception Shared_store.Degraded _ -> incr degraded
  done;
  if !degraded = 0 then violate "breaker never opened under a failing commit \
                                 path";
  if !raw <> 3 then
    violate "breaker tripped after %d raw failures, threshold 3" !raw;
  if not (Shared_store.degraded st) then violate "store does not report \
                                                  degraded";
  (* degraded: mutations fail fast, reads serve the last snapshot *)
  for _ = 1 to 3 do
    match insert_one () with
    | () -> violate "insert succeeded while the breaker is open"
    | exception Shared_store.Degraded _ -> incr degraded
    | exception Failure _ -> violate "open breaker let a call through to the \
                                      failing journal"
  done;
  reads_exact "degraded";
  (* fault clears: the cooldown admits a half-open probe, the probe
     succeeds, full service resumes *)
  failing := false;
  let denied_after_heal = ref 0 and healed = ref false in
  let attempts = ref 0 in
  while (not !healed) && !attempts < 20 do
    incr attempts;
    match insert_one () with
    | () -> healed := true
    | exception Shared_store.Degraded _ -> incr denied_after_heal
    | exception Failure _ -> violate "journal failed after the fault cleared"
  done;
  if not !healed then violate "service never recovered after the fault \
                               cleared";
  if Breaker.state br <> Breaker.Closed then
    violate "probe succeeded but the breaker is not closed";
  let recovered_ok = ref 0 in
  for _ = 1 to ops / 2 do
    match insert_one () with
    | () -> incr recovered_ok
    | exception _ -> violate "mutation failed after recovery"
  done;
  reads_exact "recovered";
  if Breaker.trips br < 1 then violate "breaker never tripped";
  let degraded_total = !degraded + !denied_after_heal in
  {
    c_name = "breaker-store";
    c_ops = (ops / 2) + !tries + 3 + !attempts + (ops / 2);
    c_ok = (ops / 2) + !recovered_ok + 1;
    c_denied = degraded_total;
    c_injected = no_injection;
    c_retries = 0;
    c_give_ups = 0;
    c_quarantined = 0;
    c_trips = Breaker.trips br;
    c_violations = List.rev !violations;
  }

let run_all ?ops ~b ~seed ~root () =
  [
    transient_mem ?ops ~b ~seed ();
    torn_mem ?ops ~b ~seed ();
    stall_mem ?ops ~b ~seed ();
    latent_mem ?ops ~b ~seed ();
    giveup_mem ?ops ~b ~seed ();
    durable_file ?ops:(Option.map (fun o -> max 20 (o / 3)) ops) ~b ~seed ~root
      ();
    giveup_file ?ops:(Option.map (fun o -> max 20 (o / 3)) ops) ~b ~seed ~root
      ();
    breaker_store ?ops:(Option.map (fun o -> max 20 (o / 10)) ops) ~b ~seed ();
  ]
