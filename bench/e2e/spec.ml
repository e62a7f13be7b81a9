(* The benchmark's contract: workloads, metrics, units and regression
   bounds. BENCHMARK.json at the repository root is generated from this
   module ([main.exe --spec]) and the smoke test diffs the two, so they
   cannot drift. *)

type better = Higher | Lower

type e2e = { name : string; unit : string; better : better; bound : float }

(* How long one run measures, in seconds. *)
let run_seconds = 30

let workloads =
  [
    ( "read_long",
      "socket krange/q3 at t~800 on a checkpointed 100k store: the t/B \
       term, ~8 KB replies and the store's merge-and-sort dominate" );
    ( "mixed_rw",
      "socket krange/q3 at t~25 plus 10% writes: the log_B n descent, \
       per-request wire cost, the overlay merge and checkpoint rebuilds" );
    ( "file_cold",
      "in-process file-backed Btree and Ext_pst3 with 64-frame pools far \
       below their pages: pool misses, codec, device, WAL and fsync" );
  ]

let end_to_end =
  [
    { name = "ops_s"; unit = "1/s"; better = Higher; bound = 0.25 };
    { name = "krange_p50_us"; unit = "us"; better = Lower; bound = 0.25 };
    { name = "q3_p50_us"; unit = "us"; better = Lower; bound = 0.25 };
    { name = "peak_rss_mb"; unit = "MB"; better = Lower; bound = 0.25 };
    { name = "setup_s"; unit = "s"; better = Lower; bound = 0.25 };
  ]

(* Which workloads cross a layer: the socket path (the served
   workloads), the file path (file_cold), or both. *)
type scope = All | Served | File

type layer = { lname : string; lunit : string; lbetter : better; scope : scope }

(* Reported by the traced run ([--trace 1]) of every workload. A share
   is a layer's part of the end-to-end wall in the layer table. A metric
   of a layer the workload does not cross reads 0; per-call times of
   such layers are printed only where they exist. *)
let per_layer =
  List.map
    (fun (lname, lunit, lbetter, scope) -> { lname; lunit; lbetter; scope })
    [
      ("btree.range_us", "us", Lower, All);
      ("ext_pst3.query_us", "us", Lower, All);
      ("btree.pages_per_query", "pages", Lower, All);
      ("ext_pst3.pages_per_query", "pages", Lower, All);
      ("btree.fill", "ratio", Higher, All);
      ("ext_pst3.fill", "ratio", Higher, All);
      ("btree.cost_ratio", "ratio", Lower, All);
      ("ext_pst3.cost_ratio", "ratio", Lower, All);
      ("share.wire", "frac", Lower, All);
      ("share.server_residual", "frac", Lower, All);
      ("share.shared_store_merge", "frac", Lower, All);
      ("share.shared_store_write", "frac", Lower, All);
      ("share.btree", "frac", Lower, All);
      ("share.ext_pst3", "frac", Lower, All);
      ("share.device", "frac", Lower, All);
      ("share.codec", "frac", Lower, All);
      ("share.checksum", "frac", Lower, All);
      ("share.wal", "frac", Lower, All);
      ("share.pool", "frac", Lower, All);
      ("wire.reply_bytes", "bytes", Lower, Served);
      ("server.errors", "count", Lower, Served);
      ("shared_store.overlay_mean", "points", Lower, Served);
      ("shared_store.rebuild_points_per_write", "points", Lower, Served);
      ("buffer_pool.hit_ratio", "ratio", Higher, File);
      ("buffer_pool.evictions_per_op", "count", Lower, File);
      ("pager.reads_per_op", "pages", Lower, All);
      ("pager.retries", "count", Lower, File);
      ("wal.fsyncs_per_write", "count", Lower, File);
      ("wal.bytes_per_user_byte", "ratio", Lower, File);
      ("disk.space_amp", "ratio", Lower, File);
      ("trace.ops_ratio", "ratio", Higher, All);
    ]

let bound name =
  List.find_map
    (fun m -> if m.name = name then Some m.bound else None)
    end_to_end

let better_name = function Higher -> "higher" | Lower -> "lower"

(* BENCHMARK.json, byte for byte. *)
let benchmark_json () =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  let sep i l = if i = List.length l - 1 then "" else "," in
  p "{\n";
  p "  \"command\": [\"bash\", \"bench/e2e/run.sh\"],\n";
  p "  \"paths\": [\"bench/e2e\"],\n";
  p "  \"run_seconds\": %d,\n" run_seconds;
  p "  \"workloads\": [\n";
  List.iteri
    (fun i (name, why) ->
      p "    {\"name\": %S, \"why\": %S}%s\n" name why (sep i workloads))
    workloads;
  p "  ],\n";
  p "  \"end_to_end\": [\n";
  List.iteri
    (fun i m ->
      p "    {\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %g}%s\n"
        m.name m.unit (better_name m.better) m.bound (sep i end_to_end))
    end_to_end;
  p "  ],\n";
  p "  \"per_layer\": [\n";
  List.iteri
    (fun i l ->
      p "    {\"name\": %S, \"unit\": %S, \"better\": %S}%s\n" l.lname l.lunit
        (better_name l.lbetter) (sep i per_layer))
    per_layer;
  p "  ]\n";
  p "}\n";
  Buffer.contents b
