(* Fault-tolerance tests (DESIGN.md §15): the retry policy's closed-form
   schedule pinned by QCheck, determinism and latent-set purity of the
   fault-injecting device, the chaos cells as reusable assertions, the
   circuit breaker's state walk, degrade/probe/recover on the shared
   store via the commit-hook seam, the server's fault replies (vanished
   client, overload shed, degraded store, graceful drain), and the A/B
   mirrored superblock including the legacy single-slot upgrade path. *)

module Bdev = Pc_blockdev.Block_device
module Flaky = Pc_blockdev.Flaky_dev
module Wal_file = Pc_blockdev.Wal_file
module Page_codec = Pc_blockdev.Page_codec
module Retry_policy = Pc_pagestore.Retry_policy
module Breaker = Pc_conc.Breaker
module Shared_store = Pc_conc.Shared_store
module Chaos = Pc_check.Chaos
module Server = Pc_server.Server
module Wire = Pc_server.Wire
module Point = Pc_util.Point

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ------------------------------------------------------------------ *)
(* Retry policy: QCheck pins the closed-form schedule                 *)
(* ------------------------------------------------------------------ *)

let policy_gen =
  QCheck.Gen.(
    int_range 1 12 >>= fun max_attempts ->
    int_range 0 50_000 >>= fun base_ns ->
    int_range 10 40 >>= fun mult10 ->
    int_range 0 100_000 >>= fun cap_extra ->
    int_range 0 5_000_000 >>= fun deadline_ns ->
    return
      (Retry_policy.make ~max_attempts ~base_ns
         ~multiplier:(float_of_int mult10 /. 10.)
         ~cap_ns:(base_ns + cap_extra) ~deadline_ns ()))

let policy_arb = QCheck.make ~print:Retry_policy.to_string policy_gen

(* Replay [decide] the way the pager does — attempt 1 upward, elapsed =
   sum of prescribed sleeps — and collect what it tells us to sleep. *)
let decide_walk (p : Retry_policy.t) =
  let rec go attempt elapsed acc =
    match Retry_policy.decide p ~attempt ~elapsed_ns:elapsed with
    | Retry { sleep_ns } -> go (attempt + 1) (elapsed + sleep_ns) (sleep_ns :: acc)
    | Give_up -> List.rev acc
  in
  go 1 0 []

let prop_schedule_well_formed =
  QCheck.Test.make ~count:500 ~name:"schedule bounded by attempts/cap/deadline"
    policy_arb (fun p ->
      let s = Retry_policy.schedule p in
      List.length s <= p.Retry_policy.max_attempts - 1
      && List.for_all (fun ns -> 0 <= ns && ns <= p.Retry_policy.cap_ns) s
      && List.fold_left ( + ) 0 s <= p.Retry_policy.deadline_ns
      && (p.Retry_policy.base_ns = 0 || List.for_all (fun ns -> ns > 0) s))

let prop_decide_matches_schedule =
  QCheck.Test.make ~count:500 ~name:"decide walk reproduces schedule"
    policy_arb (fun p -> decide_walk p = Retry_policy.schedule p)

let prop_deadline_binds_exactly =
  QCheck.Test.make ~count:500 ~name:"deadline-cut schedules land on deadline"
    policy_arb (fun p ->
      let s = Retry_policy.schedule p in
      (* when the deadline (not the attempt count) cut the schedule
         short, the clamped last sleep lands elapsed exactly on it *)
      QCheck.assume (s <> [] && List.length s < p.Retry_policy.max_attempts - 1);
      List.fold_left ( + ) 0 s = p.Retry_policy.deadline_ns)

let prop_backoff_monotone =
  QCheck.Test.make ~count:500 ~name:"backoff non-decreasing and capped"
    policy_arb (fun p ->
      let b i = Retry_policy.backoff_ns p ~attempt:i in
      let ok = ref true in
      for i = 1 to 6 do
        if b i > p.Retry_policy.cap_ns then ok := false;
        if i > 1 && b i < b (i - 1) then ok := false
      done;
      !ok)

let test_policy_edges () =
  (match Retry_policy.(decide no_retry ~attempt:1 ~elapsed_ns:0) with
  | Retry_policy.Give_up -> ()
  | Retry_policy.Retry _ -> Alcotest.fail "no_retry must give up at once");
  check_int "no_retry schedule empty" 0
    (List.length Retry_policy.(schedule no_retry));
  (match
     Retry_policy.(decide default)
       ~attempt:Retry_policy.default.Retry_policy.max_attempts ~elapsed_ns:0
   with
  | Retry_policy.Give_up -> ()
  | Retry_policy.Retry _ -> Alcotest.fail "attempts exhausted must give up");
  (* validation *)
  (try
     ignore (Retry_policy.make ~max_attempts:0 ());
     Alcotest.fail "max_attempts 0 must be rejected"
   with Invalid_argument _ -> ());
  try
    ignore (Retry_policy.make ~base_ns:1000 ~cap_ns:10 ());
    Alcotest.fail "cap < base must be rejected"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Flaky device: deterministic in (seed, op sequence); latent purity  *)
(* ------------------------------------------------------------------ *)

(* One fixed op sequence over a wrapped mem device; outcomes recorded as
   tags. Two independent wraps of the same profile must agree tag for
   tag and count for count. *)
let flaky_trace profile =
  let base = Bdev.mem ~page_bytes:512 () in
  let dev, ctl = Flaky.wrap ~profile base in
  Flaky.set_enabled ctl false;
  let page = Bytes.make 512 'x' in
  for p = 0 to 7 do
    dev.Bdev.write_page p page
  done;
  Flaky.set_enabled ctl true;
  let tags = ref [] in
  for i = 0 to 199 do
    let p = i * 7 mod 8 in
    let tag =
      try
        if i mod 3 = 0 then dev.Bdev.write_page p page
        else ignore (dev.Bdev.read_page p);
        "ok"
      with Bdev.Device_error { cls; _ } -> Bdev.class_name cls
    in
    tags := tag :: !tags
  done;
  (List.rev !tags, Flaky.counts ctl)

let test_flaky_deterministic () =
  let profile =
    {
      Flaky.quiet with
      Flaky.seed = 7;
      p_transient = 0.15;
      transient_burst = 2;
      p_torn = 0.1;
    }
  in
  let t1, c1 = flaky_trace profile and t2, c2 = flaky_trace profile in
  check_bool "same outcome sequence" true (t1 = t2);
  check_bool "same injection counts" true (c1 = c2);
  check_bool "faults actually injected" true (c1.Flaky.transients > 0);
  check_bool "some ops still succeed" true (List.mem "ok" t1)

let test_flaky_latent_purity () =
  let profile = { Flaky.quiet with Flaky.seed = 11; p_latent = 0.3 } in
  let base = Bdev.mem ~page_bytes:512 () in
  let dev, ctl = Flaky.wrap ~profile base in
  let page = Bytes.make 512 'y' in
  let latent_seen = ref 0 in
  for p = 0 to 31 do
    (* writes land even on latent pages — the medium is bad, not the bus *)
    dev.Bdev.write_page p page;
    let failed =
      match dev.Bdev.read_page p with
      | _ -> false
      | exception Bdev.Device_error { cls = Bdev.Permanent; _ } -> true
    in
    check_bool
      (Printf.sprintf "page %d fails iff in the latent set" p)
      (Flaky.is_latent profile p) failed;
    if failed then incr latent_seen
  done;
  check_bool "latent set non-empty at p=0.3 over 32 pages" true
    (!latent_seen > 0);
  check_int "permanents counted" !latent_seen (Flaky.counts ctl).Flaky.permanents

(* ------------------------------------------------------------------ *)
(* Chaos cells as reusable assertions                                 *)
(* ------------------------------------------------------------------ *)

let test_chaos_absorb_cells () =
  let r = Chaos.transient_mem ~ops:300 ~b:8 ~seed:1 () in
  check_bool "transient cell passes" true (Chaos.passed r);
  check_bool "transient retries absorbed" true (r.Chaos.c_retries > 0);
  let r = Chaos.torn_mem ~ops:300 ~b:8 ~seed:1 () in
  check_bool "torn cell passes" true (Chaos.passed r);
  let r = Chaos.stall_mem ~ops:300 ~b:8 ~seed:1 () in
  check_bool "stall cell passes" true (Chaos.passed r)

let test_chaos_degrade_cells () =
  let r = Chaos.latent_mem ~ops:300 ~b:8 ~seed:1 () in
  check_bool "latent cell passes" true (Chaos.passed r);
  check_bool "latent pages quarantined" true (r.Chaos.c_quarantined > 0);
  let r = Chaos.giveup_mem ~ops:300 ~b:8 ~seed:1 () in
  check_bool "giveup cell passes" true (Chaos.passed r);
  check_bool "give-ups recorded" true (r.Chaos.c_give_ups > 0);
  check_bool "denials typed, not corruption" true (r.Chaos.c_denied > 0);
  let r = Chaos.breaker_store ~ops:200 ~b:8 ~seed:1 () in
  check_bool "breaker cell passes" true (Chaos.passed r);
  check_bool "breaker tripped" true (r.Chaos.c_trips >= 1)

(* ------------------------------------------------------------------ *)
(* Breaker state walk                                                 *)
(* ------------------------------------------------------------------ *)

let test_breaker_walk () =
  let br = Breaker.create ~threshold:2 ~cooldown:3 () in
  check_bool "starts closed" true (Breaker.state br = Breaker.Closed);
  check_bool "closed allows" true (Breaker.allow br);
  Breaker.failure br;
  check_bool "one failure stays closed" true (Breaker.state br = Breaker.Closed);
  check_bool "still allows" true (Breaker.allow br);
  Breaker.failure br;
  check_bool "threshold trips open" true (Breaker.state br = Breaker.Open);
  check_int "one trip" 1 (Breaker.trips br);
  (* cooldown counts denials; the cooldown-th denial admits the probe *)
  check_bool "denial 1" false (Breaker.allow br);
  check_bool "denial 2" false (Breaker.allow br);
  check_bool "denial 3 is the probe" true (Breaker.allow br);
  check_bool "probing half-open" true (Breaker.state br = Breaker.Half_open);
  Breaker.failure br;
  check_bool "failed probe re-opens" true (Breaker.state br = Breaker.Open);
  check_int "second trip" 2 (Breaker.trips br);
  check_bool "re-denial 1" false (Breaker.allow br);
  check_bool "re-denial 2" false (Breaker.allow br);
  check_bool "second probe" true (Breaker.allow br);
  Breaker.success br;
  check_bool "successful probe closes" true (Breaker.state br = Breaker.Closed);
  check_bool "service restored" true (Breaker.allow br)

(* ------------------------------------------------------------------ *)
(* Shared store: degrade, fail fast, probe, recover                   *)
(* ------------------------------------------------------------------ *)

let test_store_degrade_recover () =
  let br = Breaker.create ~threshold:2 ~cooldown:2 () in
  let st = Shared_store.create ~b:8 ~breaker:br [] in
  let failing = ref false in
  Shared_store.set_commit_hook st
    (Some (fun () -> if !failing then failwith "injected commit fault"));
  let p id = Point.make ~x:id ~y:(id * 10) ~id in
  Shared_store.insert st (p 1);
  check_int "healthy insert lands" 1 (Shared_store.size st);
  failing := true;
  let raw = ref 0 in
  for id = 2 to 3 do
    match Shared_store.insert st (p id) with
    | () -> Alcotest.fail "insert must fail while the hook raises"
    | exception Failure _ -> incr raw
    | exception Shared_store.Degraded _ ->
        Alcotest.fail "breaker must not trip before threshold"
  done;
  check_int "threshold raw failures seen" 2 !raw;
  check_bool "store degraded" true (Shared_store.degraded st);
  (* open breaker: mutations fail fast without touching the write path *)
  (match Shared_store.insert st (p 4) with
  | () -> Alcotest.fail "degraded store must refuse mutations"
  | exception Shared_store.Degraded _ -> ());
  (* reads keep serving the last published snapshot *)
  check_bool "find serves" true (Shared_store.find st 1 <> None);
  check_int "snapshot size unchanged" 1 (Shared_store.size st);
  check_int "failed inserts left no trace" 1
    (List.length (Shared_store.krange st ~lo:0 ~hi:100));
  failing := false;
  (* the cooldown-th denial admits this call as the half-open probe;
     the fault has cleared, so it succeeds and closes the breaker *)
  Shared_store.insert st (p 5);
  check_bool "probe healed the store" true (not (Shared_store.degraded st));
  check_bool "probe's write visible" true (Shared_store.find st 5 <> None);
  check_int "exactly one trip" 1 (Breaker.trips br);
  Shared_store.check_invariants st

(* ------------------------------------------------------------------ *)
(* Server under faults                                                *)
(* ------------------------------------------------------------------ *)

let connect t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port t));
  fd

let expect_ok fd req =
  match Wire.request fd req with
  | Ok reply -> reply
  | Error e -> Alcotest.failf "%s: %s" req (Wire.error_to_string e)

(* A client that vanishes between request and reply costs its session,
   never the worker: the server keeps serving fresh connections. *)
let test_server_client_vanishes () =
  let t = Server.start ~port:0 ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      for _ = 1 to 3 do
        let fd = connect t in
        check_string "warm" "ok pong" (expect_ok fd "ping");
        (* send a request and slam the connection before the reply *)
        Wire.write_frame fd "ping";
        Unix.close fd
      done;
      Unix.sleepf 0.05;
      let fd = connect t in
      check_string "worker survived the vanished clients" "ok pong"
        (expect_ok fd "ping");
      Unix.close fd)

let test_server_overload_shed () =
  (* max_inflight 0 sheds every non-control request at the door *)
  let t = Server.start ~port:0 ~workers:1 ~max_inflight:0 () in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      let fd = connect t in
      check_string "shed at the door" "err busy" (expect_ok fd "open s1");
      check_string "control verbs exempt" "ok pong" (expect_ok fd "ping");
      check_bool "shed counted" true (Server.shed_requests t >= 1);
      Unix.close fd)

let test_server_degraded_store () =
  let failing = ref false in
  let make_store ~name:_ =
    let br = Breaker.create ~threshold:1 ~cooldown:3 () in
    let st = Shared_store.create ~b:8 ~breaker:br [] in
    Shared_store.set_commit_hook st
      (Some (fun () -> if !failing then failwith "injected store fault"));
    st
  in
  let t = Server.start ~port:0 ~workers:1 ~make_store () in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      let fd = connect t in
      check_bool "open" true (starts_with "ok opened" (expect_ok fd "open d1"));
      check_string "healthy insert" "ok" (expect_ok fd "insert 1 2 3");
      failing := true;
      check_bool "first failure reported raw" true
        (starts_with "err internal" (expect_ok fd "insert 4 5 6"));
      check_bool "then the breaker answers" true
        (starts_with "err degraded" (expect_ok fd "insert 7 8 9"));
      check_string "reads keep serving the last snapshot" "ok pairs 1:2"
        (expect_ok fd "krange 0 10");
      failing := false;
      (* denials count down the cooldown; the admitted probe heals *)
      let healed = ref false and tries = ref 0 in
      while (not !healed) && !tries < 10 do
        incr tries;
        if expect_ok fd "insert 9 9 9" = "ok" then healed := true
      done;
      check_bool "service recovered after the fault cleared" true !healed;
      check_string "recovered write visible" "ok pairs 1:2,9:9"
        (expect_ok fd "krange 0 100");
      Unix.close fd)

(* krange over the whole store builds a reply of about 1.3 MB, above
   [Wire.max_frame]: the client gets an error instead, and the session
   keeps serving. *)
let test_server_reply_too_large () =
  let points =
    List.init 60_000 (fun i ->
        Point.make ~x:(1_000_000_000 + i) ~y:(2_000_000_000 + i) ~id:i)
  in
  let make_store ~name:_ = Shared_store.create ~b:64 points in
  let t = Server.start ~port:0 ~workers:1 ~make_store () in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      let fd = connect t in
      check_bool "open" true
        (starts_with "ok opened" (expect_ok fd "open big"));
      check_bool "oversized reply refused" true
        (starts_with "err reply too large"
           (expect_ok fd "krange 0 9999999999"));
      check_string "session survives" "ok pong" (expect_ok fd "ping");
      Unix.close fd)

(* A client that sends requests but never reads the replies fills the
   socket buffers. The send timeout ends that session once a reply
   write makes no progress for [idle_timeout], so the only worker goes
   on to serve the next client. *)
let test_server_stalled_reader () =
  let make_store ~name:_ =
    Shared_store.create ~b:64
      (List.init 20_000 (fun i -> Point.make ~x:i ~y:i ~id:i))
  in
  let t = Server.start ~port:0 ~workers:1 ~idle_timeout:0.3 ~make_store () in
  let stalled = connect t in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close stalled with Unix.Unix_error _ -> ());
      Server.stop t)
    (fun () ->
      Wire.write_frame stalled "open s";
      let burst = Buffer.create 65_536 in
      for _ = 1 to 2_000 do
        let req = "krange 0 20000" in
        Buffer.add_int32_be burst (Int32.of_int (String.length req));
        Buffer.add_string burst req
      done;
      let b = Buffer.to_bytes burst in
      ignore (Unix.write stalled b 0 (Bytes.length b));
      let fd = connect t in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
          check_string "next client served" "ok pong" (expect_ok fd "ping")))

let test_server_graceful_drain () =
  let t = Server.start ~port:0 ~workers:2 () in
  let fd = connect t in
  check_string "shutdown acknowledged" "ok shutting down"
    (expect_ok fd "shutdown");
  check_bool "draining" true (Server.draining t);
  (* wait joins the workers and closes the socket; no stop needed *)
  Server.wait t;
  Unix.close fd

(* ------------------------------------------------------------------ *)
(* A/B mirrored superblock                                            *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let scratch_dir tag =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pc-test-faults-%s-%d" tag (Unix.getpid ()))
  in
  rm_rf dir;
  dir

let file_contains path needle =
  Sys.file_exists path
  &&
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let n = String.length needle and l = String.length s in
  let rec scan i = i + n <= l && (String.sub s i n = needle || scan (i + 1)) in
  scan 0

let corrupt_last_byte path =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  let size = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "?") 0 1);
  Unix.close fd

let test_super_ab_fallback () =
  let dir = scratch_dir "super-ab" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w = Wal_file.open_dir ~dir in
      Wal_file.write_super w (Bytes.of_string "epoch-one");
      Wal_file.write_super w (Bytes.of_string "epoch-two");
      Wal_file.close w;
      Alcotest.(check (option int)) "two writes, epoch 2" (Some 2)
        (Wal_file.super_epoch ~dir);
      (match Wal_file.read ~dir with
      | _, Some s -> check_string "newest slot wins" "epoch-two" (Bytes.to_string s)
      | _, None -> Alcotest.fail "superblock unreadable");
      (* corrupt the slot holding the newest superblock: the CRC fails
         and read falls back to the surviving mirror *)
      let newest =
        if file_contains (Wal_file.super_a_path ~dir) "epoch-two" then
          Wal_file.super_a_path ~dir
        else Wal_file.super_b_path ~dir
      in
      check_bool "newest slot located" true (file_contains newest "epoch-two");
      corrupt_last_byte newest;
      Alcotest.(check (option int)) "fallback epoch" (Some 1)
        (Wal_file.super_epoch ~dir);
      match Wal_file.read ~dir with
      | _, Some s ->
          check_string "previous superblock survives" "epoch-one"
            (Bytes.to_string s)
      | _, None -> Alcotest.fail "mirror lost both slots")

(* ------------------------------------------------------------------ *)

let qcheck t = QCheck_alcotest.to_alcotest t

let suite =
  [
    qcheck prop_schedule_well_formed;
    qcheck prop_decide_matches_schedule;
    qcheck prop_deadline_binds_exactly;
    qcheck prop_backoff_monotone;
    ("retry policy edges", `Quick, test_policy_edges);
    ("flaky device is deterministic", `Quick, test_flaky_deterministic);
    ("flaky latent set is pure", `Quick, test_flaky_latent_purity);
    ("chaos cells absorb faults", `Quick, test_chaos_absorb_cells);
    ("chaos cells degrade and recover", `Quick, test_chaos_degrade_cells);
    ("breaker state walk", `Quick, test_breaker_walk);
    ("store degrades and recovers", `Quick, test_store_degrade_recover);
    ("server survives vanished client", `Quick, test_server_client_vanishes);
    ("server sheds overload", `Quick, test_server_overload_shed);
    ("server serves degraded store", `Quick, test_server_degraded_store);
    ("server refuses an oversized reply", `Quick, test_server_reply_too_large);
    ( "server drops a client that stops reading",
      `Quick,
      test_server_stalled_reader );
    ("server drains gracefully", `Quick, test_server_graceful_drain);
    ("superblock A/B fallback", `Quick, test_super_ab_fallback);
  ]
