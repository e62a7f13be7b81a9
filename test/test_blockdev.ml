(* Block-device subsystem tests: page-codec round trips (property-based),
   corruption corpora (byte flips, truncation, torn sectors — typed
   errors, never garbage), device semantics shared by the memory and file
   backends, journal-file framing, the file-backed structure acceptance
   round trips, lost-write detection and the post-commit failure
   contract. *)

open Pathcaching
module Bdev = Pc_blockdev.Block_device
module File_dev = Pc_blockdev.File_dev
module Codec = Pc_blockdev.Page_codec
module Wal_file = Pc_blockdev.Wal_file
module Retry_policy = Pc_pagestore.Retry_policy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* a scratch directory per test, under the system temp dir *)
let fresh_dir =
  let ctr = ref 0 in
  fun tag ->
    incr ctr;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pc-test-%d-%s-%d" (Unix.getpid ()) tag !ctr)
    in
    (if Sys.file_exists dir then
       Sys.readdir dir
       |> Array.iter (fun f -> Sys.remove (Filename.concat dir f)));
    dir

(* ----- codec round trips (properties) ----- *)

let roundtrip codec ~page_bytes ~page cells =
  Codec.decode codec ~page (Codec.encode codec ~page_bytes ~page cells)

let prop_int_roundtrip =
  QCheck.Test.make ~name:"int_cell pages round-trip" ~count:200
    QCheck.(pair small_nat (small_list int))
    (fun (page, xs) ->
      let cells = Array.of_list xs in
      let page_bytes = Codec.page_size ~max_cell_bytes:8 ~capacity:64 in
      QCheck.assume (Array.length cells <= 64);
      roundtrip Codec.int_cell ~page_bytes ~page cells = cells)

let point_gen =
  QCheck.map
    (fun (x, y, id) -> Pc_util.Point.make ~x ~y ~id)
    QCheck.(triple int int small_nat)

let prop_point_roundtrip =
  QCheck.Test.make ~name:"point pages round-trip" ~count:200
    QCheck.(pair small_nat (list_of_size Gen.(0 -- 32) point_gen))
    (fun (page, pts) ->
      let cells = Array.of_list pts in
      let page_bytes = Codec.page_size ~max_cell_bytes:24 ~capacity:32 in
      roundtrip Codec.point ~page_bytes ~page cells = cells)

let btree_cell_gen =
  QCheck.oneof
    [
      QCheck.map
        (fun (leaf, next) -> Btree.Meta { leaf; next })
        QCheck.(pair bool int);
      QCheck.map
        (fun (key, value) -> Btree.Kv { key; value })
        QCheck.(pair int int);
      QCheck.map
        (fun (sep_key, sep_value, child) ->
          Btree.Branch { sep_key; sep_value; child })
        QCheck.(triple int int small_nat);
    ]

let prop_btree_cell_roundtrip =
  QCheck.Test.make ~name:"btree cell pages round-trip" ~count:200
    QCheck.(pair small_nat (list_of_size Gen.(0 -- 16) btree_cell_gen))
    (fun (page, cells) ->
      let cells = Array.of_list cells in
      let page_bytes = Btree.page_bytes ~b:16 in
      roundtrip Btree.codec ~page_bytes ~page cells = cells)

(* ----- corruption corpora: typed errors, never garbage ----- *)

(* decoding an image must either return exactly the encoded cells (flips
   in the unchecksummed zero padding) or raise [Corrupt_page] — any other
   exception, and any different value, is a failure *)
let flip_survives codec ~page_bytes ~page cells img pos =
  let copy = Bytes.copy img in
  Bytes.set copy pos (Char.chr (Char.code (Bytes.get copy pos) lxor 0x41));
  ignore page_bytes;
  match Codec.decode codec ~page copy with
  | cells' -> cells' = cells
  | exception Codec.Corrupt_page _ -> true

let test_byte_flip_corpus () =
  let page_bytes = Codec.page_size ~max_cell_bytes:8 ~capacity:64 in
  let cells = Array.init 40 (fun i -> (i * 977) - 12345) in
  let img = Codec.encode Codec.int_cell ~page_bytes ~page:7 cells in
  for pos = 0 to Bytes.length img - 1 do
    if not (flip_survives Codec.int_cell ~page_bytes ~page:7 cells img pos)
    then
      Alcotest.failf "flipping byte %d decoded to garbage without an error"
        pos
  done;
  (* flips inside header or payload must be *detected*, not ignored *)
  let detected = ref 0 in
  for pos = 0 to Codec.header_bytes + (8 * 40) - 1 do
    let copy = Bytes.copy img in
    Bytes.set copy pos (Char.chr (Char.code (Bytes.get copy pos) lxor 0x41));
    match Codec.decode Codec.int_cell ~page:7 copy with
    | _ -> ()
    | exception Codec.Corrupt_page _ -> incr detected
  done;
  check_int "every checksummed byte flip detected"
    (Codec.header_bytes + (8 * 40))
    !detected

let test_truncation_corpus () =
  let page_bytes = Codec.page_size ~max_cell_bytes:8 ~capacity:64 in
  let cells = Array.init 30 (fun i -> i * 31) in
  let img = Codec.encode Codec.int_cell ~page_bytes ~page:3 cells in
  (* every proper prefix either fails typed or (for prefixes still
     covering header + payload) decodes to the original *)
  for len = 0 to Bytes.length img - 1 do
    let prefix = Bytes.sub img 0 len in
    match Codec.decode Codec.int_cell ~page:3 prefix with
    | cells' ->
        if cells' <> cells then
          Alcotest.failf "truncation to %d bytes decoded to garbage" len
    | exception Codec.Corrupt_page _ -> ()
  done

let test_decode_rejections () =
  let page_bytes = Codec.page_size ~max_cell_bytes:8 ~capacity:8 in
  let img = Codec.encode Codec.int_cell ~page_bytes ~page:5 [| 1; 2; 3 |] in
  let expect_reason reason f =
    match f () with
    | _ -> Alcotest.failf "expected Corrupt_page (%s)" reason
    | exception Codec.Corrupt_page { reason = r; _ } ->
        let is_infix affix s =
          let al = String.length affix and sl = String.length s in
          let rec go i =
            i + al <= sl && (String.sub s i al = affix || go (i + 1))
          in
          go 0
        in
        check_bool
          (Printf.sprintf "reason %S mentions %S" r reason)
          true (is_infix reason r)
  in
  (* wrong page id *)
  expect_reason "belongs to page" (fun () ->
      Codec.decode Codec.int_cell ~page:6 img);
  (* wrong codec kind *)
  expect_reason "kind tag" (fun () -> Codec.decode Codec.point ~page:5 img);
  (* trimmed page *)
  let trimmed = Bytes.make page_bytes '\000' in
  Bytes.blit_string Bdev.trim_stamp 0 trimmed 0
    (String.length Bdev.trim_stamp);
  expect_reason "trimmed" (fun () ->
      Codec.decode Codec.int_cell ~page:5 trimmed);
  (* overflow is typed too *)
  (match
     Codec.encode Codec.int_cell ~page_bytes:64 ~page:0
       (Array.init 64 Fun.id)
   with
  | _ -> Alcotest.fail "expected Overflow"
  | exception Codec.Overflow { need; room; _ } ->
      check_bool "need > room" true (need > room))

(* ----- device semantics: memory and file agree ----- *)

let test_devices_agree () =
  let page_bytes = 1024 in
  let dir = fresh_dir "dev" in
  Unix.mkdir dir 0o755;
  let fd = File_dev.create ~path:(Filename.concat dir "pages.dat") ~page_bytes () in
  let md = Bdev.mem ~page_bytes () in
  let img i =
    Bytes.init page_bytes (fun j -> Char.chr ((i + (j * 7)) land 0xFF))
  in
  List.iter
    (fun d ->
      d.Bdev.write_page 0 (img 1);
      d.Bdev.write_page 3 (img 2);
      (* torn write: one sector of page 5 *)
      d.Bdev.write_sectors 5 (img 3) 1;
      d.Bdev.trim 3;
      d.Bdev.flush ())
    [ fd; md ];
  check_bool "page 0 identical" true (fd.Bdev.read_page 0 = md.Bdev.read_page 0);
  check_bool "torn page identical" true
    (fd.Bdev.read_page 5 = md.Bdev.read_page 5);
  (* the torn page carries one real sector then zeros *)
  let torn = fd.Bdev.read_page 5 in
  check_bool "torn tail zeroed" true
    (Bytes.sub torn 512 512 = Bytes.make 512 '\000');
  check_bool "trimmed page stamped" true
    (Bytes.sub_string (fd.Bdev.read_page 3) 0 8 = Bdev.trim_stamp);
  check_int "size_pages counts to the highest page" 6 (fd.Bdev.size_pages ());
  (* unknown page: typed on both *)
  List.iter
    (fun (d : Bdev.t) ->
      match d.Bdev.read_page 99 with
      | _ -> Alcotest.fail "expected Device_error"
      | exception Bdev.Device_error _ -> ())
    [ md ];
  fd.Bdev.close ();
  md.Bdev.close ()

(* ----- journal file framing ----- *)

let test_wal_file_roundtrip () =
  let dir = fresh_dir "wal" in
  let w = Wal_file.open_dir ~dir in
  let recs = [ "alpha"; "bravo-bravo"; "charlie" ] in
  List.iter (fun r -> Wal_file.append w (Bytes.of_string r)) recs;
  Wal_file.sync w;
  let journal, super = Wal_file.read ~dir in
  check_int "all records read back" (List.length recs) (List.length journal);
  check_bool "records equal" true
    (List.map Bytes.to_string journal = recs);
  check_bool "no super yet" true (super = None);
  (* a torn append is dropped by the reader... *)
  Wal_file.append_torn w (Bytes.of_string "torn-record-torn-record");
  let journal2, _ = Wal_file.read ~dir in
  check_int "torn tail dropped" (List.length recs) (List.length journal2);
  (* ...and healed by the next append *)
  Wal_file.append w (Bytes.of_string "delta");
  let journal3, _ = Wal_file.read ~dir in
  check_bool "healed journal intact" true
    (List.map Bytes.to_string journal3 = recs @ [ "delta" ]);
  (* the superblock truncates the journal (checkpoint contract) *)
  Wal_file.write_super w (Bytes.of_string "SUPER");
  let journal4, super4 = Wal_file.read ~dir in
  check_int "journal truncated by checkpoint" 0 (List.length journal4);
  check_bool "super read back" true
    (Option.map Bytes.to_string super4 = Some "SUPER");
  Wal_file.close w

(* ----- acceptance: file-backed structures round-trip vs oracle ----- *)

let test_btree_100k_roundtrip () =
  let dir = fresh_dir "bt100k" in
  let n = 100_000 in
  let entries = List.init n (fun i -> (i * 3, i)) in
  let t = Btree.bulk_load_file ~dir ~b:64 entries in
  List.iter
    (fun i -> Btree.insert t ~key:((n * 3) + (i * 5)) ~value:(-i))
    (List.init 200 Fun.id);
  Btree.close t;
  let t2 = Btree.recover_file ~dir ~b:64 () in
  check_int "size survives close/reopen" (n + 200) (Btree.size t2);
  (* oracle: the same entries in a plain sorted list *)
  let oracle =
    entries @ List.init 200 (fun i -> ((n * 3) + (i * 5), -i))
  in
  let lo = 150_000 and hi = 150_600 in
  let expect = List.filter (fun (k, _) -> lo <= k && k <= hi) oracle in
  Alcotest.(check (list (pair int int)))
    "range matches oracle" expect
    (Btree.range t2 ~lo ~hi);
  check_bool "point lookups match" true
    (List.for_all
       (fun (k, v) -> Btree.find t2 k = Some v)
       (List.filteri (fun i _ -> i mod 997 = 0) oracle));
  Btree.check_invariants t2;
  Btree.close t2

let test_pst3_file_matches_sim () =
  let dir = fresh_dir "pst3" in
  let rng = Rng.create 7 in
  let pts = Workload.points rng Workload.Uniform ~n:2000 ~universe:100_000 in
  let sim = Ext_pst3.create ~mode:Ext_pst3.Cached ~b:8 pts in
  let fil = Ext_pst3.create_file ~dir ~mode:Ext_pst3.Cached ~b:8 pts in
  let qrng = Rng.create 11 in
  for _ = 1 to 10 do
    let xl = Rng.int qrng 100_000 in
    let xr = min 99_999 (xl + 20_000) in
    let yb = Rng.int qrng 100_000 in
    let a_sim, st_sim = Ext_pst3.query sim ~xl ~xr ~yb in
    let a_fil, st_fil = Ext_pst3.query fil ~xl ~xr ~yb in
    check_bool "answers identical" true
      (List.sort compare a_sim = List.sort compare a_fil);
    check_int "I/O counts byte-identical"
      (Query_stats.total st_sim) (Query_stats.total st_fil)
  done;
  Ext_pst3.close fil;
  let back = Ext_pst3.recover_file ~dir ~b:8 () in
  let a_sim, _ = Ext_pst3.query sim ~xl:10_000 ~xr:60_000 ~yb:50_000 in
  let a_back, _ = Ext_pst3.query back ~xl:10_000 ~xr:60_000 ~yb:50_000 in
  check_bool "answers survive close/reopen" true
    (List.sort compare a_sim = List.sort compare a_back);
  Ext_pst3.check_invariants back;
  Ext_pst3.close back

(* a recovered structure registers its pager under the name a fresh
   build uses, so its events and metrics carry one source label *)
let test_pst3_recovered_source_name () =
  let dir = fresh_dir "pst3-name" in
  let rng = Rng.create 13 in
  let pts = Workload.points rng Workload.Uniform ~n:300 ~universe:10_000 in
  Ext_pst3.close (Ext_pst3.create_file ~dir ~mode:Ext_pst3.Cached ~b:8 pts);
  let obs = Obs.create () in
  let t = Ext_pst3.recover_file ~obs ~dir ~b:8 () in
  let rec names sid =
    match Obs.source_name obs sid with
    | Some name -> name :: names (sid + 1)
    | None -> []
  in
  let names = names 0 in
  check_bool "ext_pst3 is a source" true (List.mem "ext_pst3" names);
  check_bool "pst3 is not" false (List.mem "pst3" names);
  Ext_pst3.close t

(* a flipped byte in the page file surfaces as typed damage at recovery,
   never as wrong answers *)
let test_recover_flipped_page () =
  let dir = fresh_dir "flip" in
  let entries = List.init 2000 (fun i -> (i, i)) in
  let t = Btree.bulk_load_file ~dir ~b:16 entries in
  Btree.close t;
  let path = Pc_pagestore.Disk_store.pages_path ~dir ~idx:0 in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  (* flip one byte in the middle of some page's payload *)
  let off = (3 * Btree.page_bytes ~b:16) + 100 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let t2 = Btree.recover_file ~dir ~b:16 () in
  (* the committed build is in the journalless steady state: the damaged
     page is gone, so reads through it must fail typed — and every page
     untouched by the flip still answers *)
  (match Btree.to_list t2 with
  | l -> check_int "either intact" 2000 (List.length l)
  | exception Pc_pagestore.Pager.Corrupt_page _ -> ());
  Btree.close t2

(* Regression: a durable pager defers in-place device writes to commit,
   so a page dirtied by the open transaction must be served from the
   in-memory mirror on a cache miss — the device still holds the
   pre-transaction image. With no cache (the default) every read is a
   miss, and the delete that rebalances a leaf re-reads pages the same
   transaction just rewrote. *)
let test_in_txn_eviction_reads_mirror () =
  let dir = fresh_dir "evict" in
  let t = Btree.create_file ~dir ~b:8 () in
  let model = ref [] in
  List.iter
    (fun i ->
      let k = (i * 7) mod 64 and v = i in
      Btree.insert t ~key:k ~value:v;
      model := (k, v) :: !model)
    (List.init 40 Fun.id);
  (* delete half the entries: merges and borrows re-read pages the same
     transaction just rewrote *)
  List.iteri
    (fun i (k, v) ->
      if i mod 2 = 0 then begin
        check_bool "delete finds its entry" true (Btree.delete t ~key:k ~value:v);
        model := List.filter (fun kv -> kv <> (k, v)) !model
      end)
    (List.sort compare !model);
  Btree.check_invariants t;
  let want = List.sort compare !model in
  Alcotest.(check (list (pair int int)))
    "live tree matches model" want
    (List.sort compare (Btree.to_list t));
  Btree.close t;
  let t2 = Btree.recover_file ~dir ~b:8 () in
  Btree.check_invariants t2;
  Alcotest.(check (list (pair int int)))
    "recovered tree matches model" want
    (List.sort compare (Btree.to_list t2));
  Btree.close t2

(* A stale but valid page image — a write the device acknowledged and
   then lost — still decodes, so only the committed crc64 can tell it
   from the page's current image. *)
let test_lost_write_caught () =
  let dir = fresh_dir "lost" in
  let t = Btree.create_file ~dir ~b:8 () in
  for i = 1 to 50 do
    Btree.insert t ~key:i ~value:i
  done;
  let dev = Option.get (Pager.device (Btree.pager t)) in
  let pages = Pager.pages_in_use (Btree.pager t) in
  let before = Array.init pages dev.Bdev.read_page in
  Btree.insert t ~key:51 ~value:51;
  let lost = ref 0 in
  Array.iteri
    (fun page old ->
      if dev.Bdev.read_page page <> old then begin
        dev.Bdev.write_page page old;
        incr lost
      end)
    before;
  check_bool "the insert rewrote some page" true (!lost > 0);
  (match Btree.range t ~lo:0 ~hi:100 with
  | _ -> Alcotest.fail "a lost write was read back as the committed page"
  | exception Pager.Corrupt_page _ -> ());
  Btree.close t

(* A device whose [op] fails [Transient] while [failing] is set. *)
let failing_dev failing ~op (d : Bdev.t) =
  let fail page =
    if !failing then
      Bdev.fail_class Bdev.Transient d.Bdev.name op page "injected EIO"
  in
  {
    d with
    Bdev.read_page =
      (fun page ->
        if op = "read_page" then fail page;
        d.Bdev.read_page page);
    write_page =
      (fun page b ->
        if op = "write_page" then fail page;
        d.Bdev.write_page page b);
    flush =
      (fun () ->
        if op = "flush" then fail (-1);
        d.Bdev.flush ());
  }

(* Regression: a refused in-place apply comes after the commit point, so
   the insert returns, reads of the page come from the committed copy,
   and the transaction's undo log is cleared — a later aborted
   transaction rolls back only itself. *)
let test_refused_apply_is_durable () =
  let dir = fresh_dir "refused" in
  let writes = ref false and reads = ref false in
  let wrap d =
    failing_dev reads ~op:"read_page" (failing_dev writes ~op:"write_page" d)
  in
  let t = Btree.create_file ~dir ~b:8 ~wrap_dev:wrap () in
  for i = 1 to 50 do
    Btree.insert t ~key:i ~value:i
  done;
  let pager = Btree.pager t in
  Pager.set_retry_policy pager (Retry_policy.make ~max_attempts:2 ());
  writes := true;
  Btree.insert t ~key:100 ~value:100;
  check_bool "the refused apply gave up, counted" true
    (Pager.give_ups pager > 0);
  check_bool "key 100 reads back" true (Btree.find t 100 = Some 100);
  (* a read give-up aborts this insert inside its body *)
  reads := true;
  (match Btree.insert t ~key:0 ~value:0 with
  | () -> Alcotest.fail "insert 0 should have given up on a read"
  | exception Pager.Io_fault _ -> ());
  reads := false;
  writes := false;
  Btree.check_invariants t;
  check_bool "the aborted insert left nothing" true (Btree.find t 0 = None);
  check_bool "key 100 survives the abort" true (Btree.find t 100 = Some 100);
  Btree.close t;
  let t2 = Btree.recover_file ~dir ~b:8 () in
  Btree.check_invariants t2;
  check_int "recovered size" 51 (Btree.size t2);
  check_bool "key 100 is durable" true (Btree.find t2 100 = Some 100);
  Btree.close t2

(* Regression: a checkpoint whose page-file fsync fails leaves the
   journal untruncated and is retried at the next commit; the inserts
   that triggered it return, each failure counted as a [Fault] event. *)
let test_failed_checkpoint_is_retried () =
  let dir = fresh_dir "ckpt" in
  let failing = ref true in
  let obs = Obs.create ~sink:(Obs.ring ~capacity:100_000) () in
  let t =
    Btree.create_file ~dir ~b:8 ~obs
      ~wrap_dev:(failing_dev failing ~op:"flush")
      ()
  in
  let wal = Option.get (Btree.wal t) in
  for i = 1 to 100 do
    Btree.insert t ~key:i ~value:i
  done;
  let faults =
    List.length
      (List.filter (fun (e : Obs.event) -> e.kind = Obs.Fault) (Obs.events obs))
  in
  check_bool "every failed checkpoint counted" true (faults > 1);
  check_bool "the journal was not truncated" true (Wal.journal_len wal >= 64);
  failing := false;
  Btree.insert t ~key:101 ~value:101;
  check_bool "the next commit checkpoints" true (Wal.journal_len wal < 64);
  Btree.close t;
  let t2 = Btree.recover_file ~dir ~b:8 () in
  check_int "every insert is durable" 101 (Btree.size t2);
  Btree.close t2

(* A journal with a disk store keeps no simulated timeline: its crash
   image is its directory. *)
let test_store_journal_has_no_timeline () =
  let dir = fresh_dir "notimeline" in
  let t = Btree.create_file ~dir ~b:8 () in
  Btree.insert t ~key:1 ~value:1;
  let wal = Option.get (Btree.wal t) in
  let refused f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  check_bool "crash_points" true
    (refused (fun () -> ignore (Wal.crash_points wal)));
  check_bool "image_at" true
    (refused (fun () -> ignore (Wal.image_at wal ~ios:0)));
  check_bool "crash" true (refused (fun () -> ignore (Wal.crash wal)));
  Btree.close t

(* The file-backend crash sweep itself: every journal-frame prefix of a
   small workload, clean and torn, recovered from real bytes. Also pins
   the sweep's coverage: at least one clean and one torn image per
   operation. *)
let test_crash_file_sweep () =
  let root = fresh_dir "crashfile" in
  let rep = Pc_check.Crash_file.sweep ~b:8 ~root ~n:8 ~seed:42 () in
  (match rep.Pc_check.Crash_file.r_failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "crash sweep failed: %a" Pc_check.Crash_file.pp_failure f);
  if rep.Pc_check.Crash_file.r_points < 2 * 8 then
    Alcotest.failf "crash sweep covered only %d images"
      rep.Pc_check.Crash_file.r_points

let suite =
  [
    QCheck_alcotest.to_alcotest prop_int_roundtrip;
    QCheck_alcotest.to_alcotest prop_point_roundtrip;
    QCheck_alcotest.to_alcotest prop_btree_cell_roundtrip;
    ("byte-flip corpus", `Quick, test_byte_flip_corpus);
    ("truncation corpus", `Quick, test_truncation_corpus);
    ("typed rejections", `Quick, test_decode_rejections);
    ("flipped page at recovery", `Quick, test_recover_flipped_page);
    ("mem and file backends agree", `Quick, test_devices_agree);
    ("journal file framing", `Quick, test_wal_file_roundtrip);
    ("btree 100k close/reopen vs oracle", `Slow, test_btree_100k_roundtrip);
    ("pst3 file = sim, and survives reopen", `Quick, test_pst3_file_matches_sim);
    ( "recovered pst3 traces as ext_pst3",
      `Quick,
      test_pst3_recovered_source_name );
    ( "in-txn eviction serves the mirror",
      `Quick,
      test_in_txn_eviction_reads_mirror );
    ("file-backend crash sweep", `Quick, test_crash_file_sweep);
    ("lost write is caught", `Quick, test_lost_write_caught);
    ("refused apply is durable", `Quick, test_refused_apply_is_durable);
    ( "failed checkpoint is retried",
      `Quick,
      test_failed_checkpoint_is_retried );
    ( "store journal has no timeline",
      `Quick,
      test_store_journal_has_no_timeline );
  ]
