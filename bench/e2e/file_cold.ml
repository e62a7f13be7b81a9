(* The file_cold workload, run in a child process of its own (serve.exe
   file-cold): a file-backed Btree and Ext_pst3 (Cached), each behind a
   64-frame pool far below its page count, under 45 % Btree.range, 45 %
   Ext_pst3.query and 10 % durable Btree.insert.

   The child builds both structures, prints "ready" (the parent times
   set-up up to that line), runs the op stream, checks every 16th read
   against the sorted-array oracle, closes, recovers the tree from its
   files and checks that every acknowledged insert survived. With
   --trace it then replays the same op stream on a fresh build with a
   clock on both trace handles, splitting the wall time into the
   structures' own time and the pager's device, codec, checksum, WAL and
   pool phases. The report goes to stdout as {!Report.to_lines}. *)

module Point = Pc_util.Point
module Rng = Pc_util.Rng
module Btree = Pc_btree.Btree
module Ext_pst3 = Pc_threesided.Ext_pst3
module Pager = Pc_pagestore.Pager
module Io_stats = Pc_pagestore.Io_stats
module Query_stats = Pc_pagestore.Query_stats
module Obs = Pc_obs.Obs
module Histogram = Pc_obs.Histogram

let b = 64
let frames = 64
let t_target = 200
let write_pct = 10

(* Ops per latency block (see Latency): about half a second. *)
let block_ops = 500

(* Peak RSS is read after this many ops, not at the window's end: the
   child's heap grows with the ops it has run, and a time window holds
   more of them when the host runs fast. *)
let rss_ops = 20_000

let now = Clock.now
let ratio = Stats.ratio
let ( / ) = Filename.concat

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (path / f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec disk_bytes path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc f -> acc + disk_bytes (path / f))
      0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

type store = { bt : Btree.t; p3 : Ext_pst3.t }

let build ?bt_obs ?p3_obs ~dir pts =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let entries =
    List.sort Point.compare_xy pts
    |> List.map (fun (p : Point.t) -> (p.x, p.y))
  in
  let bt =
    Btree.bulk_load_file ~cache_capacity:frames ?obs:bt_obs
      ~dir:(dir / "btree") ~b entries
  in
  let p3 =
    Ext_pst3.create_file ~cache_capacity:frames ?obs:p3_obs
      ~dir:(dir / "pst3") ~mode:Ext_pst3.Cached ~b pts
  in
  { bt; p3 }

let close s =
  Btree.close s.bt;
  Ext_pst3.close s.p3

(* A 3-sided answer keeps the query's own page count, which Ext_pst3
   reports with it. *)
type answer = Pairs of (int * int) list | Ids of int list * int | Ack

let apply s = function
  | Gen.Krange (lo, hi) -> Pairs (Btree.range s.bt ~lo ~hi)
  | Gen.Q3 (xl, xr, yb) ->
      let pts, qs = Ext_pst3.query s.p3 ~xl ~xr ~yb in
      Ids (List.map Point.id pts, Query_stats.total qs)
  | Gen.Insert p ->
      Btree.insert s.bt ~key:p.x ~value:p.y;
      Ack
  | Gen.Delete _ -> invalid_arg "file_cold has no deletes"

(* ------------------------------------------------------------------ *)
(* The measured run                                                   *)
(* ------------------------------------------------------------------ *)

type run = {
  ops : Gen.req array; (* every op issued, warm-up included *)
  inserts : Point.t array; (* acknowledged, in order *)
  ops_s : float;
  rss_mb : float; (* peak RSS after [rss_ops] ops, or all if fewer *)
}

let next_op rng ~n ~inserted =
  if Rng.int rng 100 < write_pct then begin
    let x = Rng.int rng Gen.universe in
    let y = Rng.int rng Gen.universe in
    Gen.Insert (Point.make ~x ~y ~id:(n + inserted))
  end
  else Gen.read rng ~n ~t:t_target

(* A read's answer, sorted, as a digest: the samples kept for the
   oracle check stay a few bytes each, so the child's peak RSS does not
   grow with the number of ops the window held. *)
let digest l =
  Digest.string (Marshal.to_string (List.sort compare l) [ Marshal.No_sharing ])

(* Every 16th read against the oracle: the initial points, plus the
   inserts acknowledged before that read. *)
let check_reads r ~pts ~inserts samples =
  let o = Gen.oracle pts in
  List.iter
    (fun (req, got, k) ->
      let expected =
        match req with
        | Gen.Krange (lo, hi) ->
            let extra = ref [] in
            for j = 0 to k - 1 do
              let p = inserts.(j) in
              if lo <= p.Point.x && p.x <= hi then
                extra := (p.x, p.y) :: !extra
            done;
            digest (Gen.krange o ~lo ~hi @ !extra)
        | Gen.Q3 (xl, xr, yb) -> digest (Gen.q3_ids o ~xl ~xr ~yb)
        | Gen.Insert _ | Gen.Delete _ -> ""
      in
      if got <> expected then
        Report.mismatch r "wrong answer to %s" (Gen.to_wire req))
    samples

let measure (r : Report.t) s ~pts ~seed ~budget =
  let n = List.length pts in
  let rng = Gen.rng ~seed ~stream:Gen.request_stream in
  let ops = ref [] and inserts = ref [] and n_ins = ref 0 in
  let samples = ref [] and reads = ref 0 in
  let lat = Latency.create () and i = ref 0 and rss_mb = ref None in
  let budget = Budget.start budget in
  while Budget.continue budget !i do
    if !i = rss_ops then rss_mb := Some (Proc.peak_rss_mb (Unix.getpid ()));
    let req = next_op rng ~n ~inserted:!n_ins in
    ops := req :: !ops;
    let t0 = now () in
    (match apply s req with
    | answer -> (
        Latency.add lat budget ~i:!i ~block:(Int.div !i block_ops) req t0
          (now ());
        match req with
        | Gen.Insert p ->
            inserts := p :: !inserts;
            incr n_ins
        | _ -> (
            incr reads;
            if !reads mod 16 = 0 then
              match answer with
              | Pairs got -> samples := (req, digest got, !n_ins) :: !samples
              | Ids (got, _) ->
                  samples := (req, digest got, !n_ins) :: !samples
              | Ack -> ()))
    | exception e ->
        r.failed <- r.failed + 1;
        Report.mismatch r "%s raised %s" (Gen.to_wire req)
          (Printexc.to_string e));
    incr i
  done;
  r.attempted <- !i;
  let inserts = Array.of_list (List.rev !inserts) in
  check_reads r ~pts ~inserts !samples;
  let ops_s = Latency.report r lat in
  (* here the structure call is the whole request *)
  List.iter
    (fun (layer, cls) ->
      Report.add r layer (Option.get (Report.value r (cls ^ "_p50_us"))) "us")
    [ ("btree.range_us", "krange"); ("ext_pst3.query_us", "q3") ];
  let rss_mb =
    match !rss_mb with
    | Some v -> v
    | None -> Proc.peak_rss_mb (Unix.getpid ())
  in
  { ops = Array.of_list (List.rev !ops); inserts; ops_s; rss_mb }

(* Every acknowledged insert must be in the tree recovered from the
   directory's bytes. *)
let check_durable r ~dir ~n inserts =
  let bt = Btree.recover_file ~dir:(dir / "btree") ~b () in
  let have = Hashtbl.create 1024 in
  Btree.iter bt (fun k v ->
      let c = Option.value ~default:0 (Hashtbl.find_opt have (k, v)) in
      Hashtbl.replace have (k, v) (c + 1));
  let lost =
    Array.fold_left
      (fun lost (p : Point.t) ->
        match Hashtbl.find_opt have (p.x, p.y) with
        | Some c when c > 0 ->
            Hashtbl.replace have (p.x, p.y) (c - 1);
            lost
        | _ -> lost + 1)
      0 inserts
  in
  if lost > 0 then
    Report.mismatch r "%d acknowledged insert(s) lost at recovery" lost;
  let expected = n + Array.length inserts in
  if Btree.size bt <> expected then
    Report.mismatch r "recovered tree holds %d entries, expected %d"
      (Btree.size bt) expected;
  Btree.close bt

(* ------------------------------------------------------------------ *)
(* The traced replay                                                  *)
(* ------------------------------------------------------------------ *)

(* Phase totals per (structure, label), from the Phase events of the two
   trace handles; while [keep] is set, phases are also kept for the
   current op's child spans. *)
type phases = {
  totals : (string * string, int * int) Hashtbl.t; (* -> count, ns *)
  mutable pending : (string * float * float) list; (* label, start, end *)
  mutable keep : bool;
}

let sink ph owner =
  Obs.custom (fun ev ->
      if ev.Obs.kind = Obs.Phase then begin
        let ns = Option.value ~default:0 (List.assoc_opt "ns" ev.args) in
        let key = (owner, ev.label) in
        let c, tot =
          Option.value ~default:(0, 0) (Hashtbl.find_opt ph.totals key)
        in
        Hashtbl.replace ph.totals key (c + 1, tot + ns);
        match ev.wall_ns with
        | Some t1 when ph.keep ->
            let t1 = float_of_int t1 /. 1e9 in
            let t0 = t1 -. (float_of_int ns /. 1e9) in
            ph.pending <- (ev.label, t0, t1) :: ph.pending
        | _ -> ()
      end)

(* (calls, seconds) of the phases whose (structure, label) pass [pred] *)
let phase_sum ph pred =
  let c, ns =
    Hashtbl.fold
      (fun k (c, ns) (ac, an) -> if pred k then (ac + c, an + ns) else (ac, an))
      ph.totals (0, 0)
  in
  (c, float_of_int ns /. 1e9)

let traced (r : Report.t) ~dir ~pts ~run ~trace_file =
  let ph = { totals = Hashtbl.create 16; pending = []; keep = false } in
  let clock =
    Obs.Clock.of_fn (fun () -> Int64.to_int (Monotonic_clock.now ()))
  in
  let bt_obs = Obs.create ~sink:(sink ph "btree") ~clock () in
  let p3_obs = Obs.create ~sink:(sink ph "ext_pst3") ~clock () in
  let s = build ~bt_obs ~p3_obs ~dir pts in
  (* count the replay, not the build *)
  Hashtbl.reset ph.totals;
  Pager.reset_stats (Btree.pager s.bt);
  Ext_pst3.reset_io_stats s.p3;
  let spans = Span.buf ~prefix:1 in
  let wal_size () = (Unix.stat (dir / "btree" / "wal.log")).Unix.st_size in
  let wal_grown = ref 0 and wal_growths = ref 0 in
  let wal_last = ref (wal_size ()) in
  let bt = Tally.create () and p3 = Tally.create () and inserts = ref 0 in
  let started = now () in
  Array.iteri
    (fun i req ->
      ph.keep <- i mod 16 = 0;
      let before = Io_stats.snapshot (Pager.stats (Btree.pager s.bt)) in
      let t0 = now () in
      let answer = apply s req in
      let t1 = now () in
      let layer, op, tally =
        match (req, answer) with
        | Gen.Krange _, Pairs got ->
            let after = Pager.stats (Btree.pager s.bt) in
            let d = Io_stats.diff ~after ~before in
            let pages = d.reads + d.cache_hits and outputs = List.length got in
            Tally.add bt ~pages ~outputs
              (Btree.conformance s.bt ~t_out:outputs ~measured:pages);
            ("btree", "range", bt)
        | Gen.Q3 _, Ids (got, pages) ->
            let outputs = List.length got in
            Tally.add p3 ~pages ~outputs
              (Ext_pst3.conformance s.p3 ~t_out:outputs ~measured:pages);
            ("ext_pst3", "query", p3)
        | _ ->
            incr inserts;
            (* a commit that checkpoints truncates the journal; such
               inserts are counted at the mean of the others below *)
            let size = wal_size () in
            if size >= !wal_last then begin
              wal_grown := !wal_grown + (size - !wal_last);
              incr wal_growths
            end;
            wal_last := size;
            ("btree", "insert", bt)
      in
      tally.time <- tally.time +. (t1 -. t0);
      let id = Span.record spans ~layer ~op ~req:i t0 t1 in
      List.iter
        (fun (label, a, z) ->
          ignore
            (Span.record spans ~parent:id ~layer:(Obs.phase_category label)
               ~op:label ~req:i a z))
        ph.pending;
      ph.pending <- [])
    run.ops;
  let elapsed = now () -. started in
  (* the layer table: each structure's own time is its calls' time minus
     the pager phases inside them *)
  r.wall <- bt.time +. p3.time;
  let own name (t : Tally.t) =
    t.time -. snd (phase_sum ph (fun (w, _) -> w = name))
  in
  Report.layer r ~derived:true "btree" (own "btree" bt);
  Report.layer r ~derived:true "ext_pst3" (own "ext_pst3" p3);
  List.iter
    (fun cat ->
      let c, secs = phase_sum ph (fun (_, l) -> Obs.phase_category l = cat) in
      if c > 0 then Report.layer r cat secs)
    Obs.phase_categories;
  Tally.report r ~b "btree" bt;
  Tally.report r ~b "ext_pst3" p3;
  let n_ops = float_of_int (Array.length run.ops) in
  let bt_io = Pager.stats (Btree.pager s.bt) in
  let p3_io = Ext_pst3.io_stats s.p3 in
  let both f = float_of_int (f bt_io + f p3_io) in
  let hits = both (fun s -> s.Io_stats.cache_hits) in
  let reads = both (fun s -> s.Io_stats.reads) in
  Report.add r "buffer_pool.hit_ratio" (ratio hits (hits +. reads)) "ratio";
  Report.add r "buffer_pool.evictions_per_op"
    (both (fun s -> s.Io_stats.evictions) /. n_ops)
    "count";
  Report.add r "pager.reads_per_op" (reads /. n_ops) "pages";
  Report.add r "pager.retries" (both (fun s -> s.Io_stats.retries)) "count";
  List.iter
    (fun label ->
      let c, secs = phase_sum ph (fun (_, l) -> l = label) in
      Report.add r (label ^ "_us")
        (ratio (secs *. 1e6) (float_of_int c))
        "us"
        ~note:(Printf.sprintf "info mean of %d calls" c))
    [
      "codec.decode"; "codec.encode"; "checksum.verify"; "dev.read";
      "dev.write"; "dev.fsync"; "wal.append"; "wal.fsync";
    ];
  List.iter
    (fun (label, h) ->
      Report.add r
        ("btree." ^ label ^ "_p50_us")
        (float_of_int (Histogram.p50 h) /. 1e3)
        "us" ~note:"info p50 of the btree pager's phase histogram")
    (Pager.phase_histograms (Btree.pager s.bt));
  let fsyncs, _ = phase_sum ph (fun (_, l) -> l = "wal.fsync") in
  let inserts = float_of_int !inserts in
  Report.add r "wal.fsyncs_per_write"
    (ratio (float_of_int fsyncs) inserts)
    "count";
  let wal_bytes =
    ratio (float_of_int !wal_grown) (float_of_int !wal_growths) *. inserts
  in
  Report.add r "wal.bytes_per_user_byte"
    (ratio wal_bytes (16. *. inserts))
    "ratio";
  Report.add r "trace.ops_ratio" (n_ops /. elapsed /. run.ops_s) "ratio";
  close s;
  Span.write trace_file ~origin:started [ spans ]

(* ------------------------------------------------------------------ *)
(* Entry point: serve.exe file-cold ...                               *)
(* ------------------------------------------------------------------ *)

let main args =
  let arg = Args.get args in
  let pts = Gen.read_points (arg "--points") in
  let n = List.length pts in
  let dir = arg "--dir" in
  let s = build ~dir:(dir / "run") pts in
  print_endline "ready";
  if Args.flag args "--setup-only" then close s
  else begin
    let r = Report.create "file_cold" in
    let run =
      measure r s ~pts
        ~seed:(int_of_string (arg "--seed"))
        ~budget:(Budget.of_args args)
    in
    (* user bytes: a point is three 8-byte ints *)
    Report.add r "disk.space_amp"
      (float_of_int (disk_bytes (dir / "run"))
      /. float_of_int (24 * (n + Array.length run.inserts)))
      "ratio";
    Report.add r "peak_rss_mb" run.rss_mb "MB";
    close s;
    check_durable r ~dir:(dir / "run") ~n run.inserts;
    if Args.flag args "--trace" then begin
      traced r ~dir:(dir / "trace") ~pts ~run
        ~trace_file:(arg "--trace-file");
      rm_rf (dir / "trace")
    end;
    List.iter print_endline (Report.to_lines r)
  end;
  rm_rf (dir / "run")
