(* Buffer-pool replacement-policy sweep.

   Measures hit rate and total page I/Os for each replacement policy
   (LRU, FIFO, CLOCK, 2Q) across pool sizes and access workloads against
   a bulk-loaded B+-tree on the simulated disk:

   - [uniform]:  point lookups i.i.d. over the whole key space;
   - [clustered]: 90% of lookups land in a hot 2% key range;
   - [seqflood]: hot-range lookups interleaved with full-range scans —
     the adversary for LRU (each scan floods the pool and evicts the hot
     set) and the case 2Q's probationary queue is built for.

   Prints a table and writes BENCH_bufferpool.json.

   With --mrc, runs experiment E17 instead: one profiling pass per
   workload builds the exact LRU miss-ratio curve from the reuse
   distances of the uncached reference stream, then every budget in
   {4..256} x policy is measured for real. The LRU column must match
   the prediction within 1% at every budget (the run self-gates) —
   Mattson's stack algorithm vs the actual pool — and the other
   policies' distance from the curve quantifies their cost. Writes
   BENCH_mrc.json.

   Run with: dune exec bench/bufferpool.exe
             dune exec bench/bufferpool.exe -- --fast
             dune exec bench/bufferpool.exe -- --mrc [--fast] *)

open Pathcaching

let fast = Array.exists (( = ) "--fast") Sys.argv
let mrc_mode = Array.exists (( = ) "--mrc") Sys.argv
let n_keys = if fast then 20_000 else 50_000
let n_ops = if fast then 400 else 2_000
let b = 64
let pool_sizes = [ 16; 64; 256 ]
let policies = Replacement.all

type workload = Uniform | Clustered | Seqflood

let workloads = [ Uniform; Clustered; Seqflood ]

let workload_name = function
  | Uniform -> "uniform"
  | Clustered -> "clustered"
  | Seqflood -> "seqflood"

(* The deterministic op sequence, shared by the measured cells and the
   MRC profiling pass so both see the identical reference stream. *)
let run_ops tree workload =
  let rng = Rng.create 42 in
  let hot_lo = n_keys / 2 in
  (* ~16 leaf pages: small enough that mid-size pools could hold it *)
  let hot_hi = hot_lo + (n_keys / 50) in
  let lookup k = ignore (Btree.find tree k) in
  for op = 1 to n_ops do
    match workload with
    | Uniform -> lookup (Rng.int rng n_keys)
    | Clustered ->
        if Rng.int rng 10 < 9 then lookup (Rng.int_in rng ~lo:hot_lo ~hi:hot_hi)
        else lookup (Rng.int rng n_keys)
    | Seqflood ->
        (* mostly hot-range lookups; every 100th op is a scan over ~4x
           the largest pool (1024 leaves), flooding any recency-based
           pool *)
        if op mod 100 = 0 then
          ignore (Btree.range tree ~lo:0 ~hi:(1024 * (b - 1)))
        else lookup (Rng.int_in rng ~lo:hot_lo ~hi:hot_hi)
  done

(* One policy × pool-size × workload cell: build the tree into a fresh
   pool-backed pager, cold-start, run the op sequence, read the counters. *)
let run_cell ~policy ~pool_size ~workload =
  let pool = Buffer_pool.create ~policy ~capacity:pool_size () in
  let entries = List.init n_keys (fun k -> (k, k)) in
  let tree = Btree.bulk_load_in ~pool ~b entries in
  let pager = Btree.pager tree in
  Pager.drop_cache pager;
  Pager.reset_stats pager;
  Buffer_pool.reset_stats pool;
  run_ops tree workload;
  let st = Pager.stats pager in
  let accesses = st.Io_stats.reads + st.Io_stats.cache_hits in
  let hit_rate =
    if accesses = 0 then 0.
    else float_of_int st.Io_stats.cache_hits /. float_of_int accesses
  in
  (hit_rate, Io_stats.total st)

(* E17 profiling pass: same tree, same ops, but uncached and with the
   reuse-distance profiler attached after the build — its shadow stack
   starts cold exactly like the dropped cache of the measured cells, so
   the curve predicts them. *)
let profile_workload workload =
  let obs = Obs.create () in
  let entries = List.init n_keys (fun k -> (k, k)) in
  let tree = Btree.bulk_load_in ~obs ~b entries in
  let rd = Reuse_dist.create () in
  Reuse_dist.attach rd obs;
  run_ops tree workload;
  match Reuse_dist.mrcs rd with
  | (_, m) :: _ -> m
  | [] -> failwith "mrc profiling pass saw no references"

(* ----- E17: measured hit ratio vs the MRC prediction ----- *)

let mrc_budgets = [ 4; 8; 16; 32; 64; 128; 256 ]

let run_mrc () =
  Printf.printf
    "E17 MRC vs measured: B+-tree n=%d B=%d, %d ops per cell, LRU gated \
     at 1%%\n"
    n_keys b n_ops;
  let cells = ref [] in
  let worst = ref 0. in
  List.iter
    (fun workload ->
      let m = profile_workload workload in
      Printf.printf
        "\n==== %s ====  (profiled: %d accesses, %d cold, flattens at %d \
         frames)\n"
        (workload_name workload)
        (Reuse_dist.accesses m) (Reuse_dist.cold m) (Reuse_dist.flat_at m);
      Printf.printf "%8s | %9s |" "pool" "pred-lru";
      List.iter (fun p -> Printf.printf " %9s" (Replacement.name p)) policies;
      Printf.printf "\n";
      List.iter
        (fun budget ->
          let pred = Reuse_dist.hit_ratio m budget in
          Printf.printf "%8d | %8.1f%% |" budget (100. *. pred);
          let measured =
            List.map
              (fun policy ->
                let h, _ = run_cell ~policy ~pool_size:budget ~workload in
                Printf.printf " %8.1f%%" (100. *. h);
                (policy, h))
              policies
          in
          let lru = List.assoc Replacement.Lru measured in
          let delta = Float.abs (pred -. lru) in
          if delta > !worst then worst := delta;
          if delta > 0.01 then Printf.printf "  LRU OFF-CURVE (%.3f)" delta;
          Printf.printf "\n";
          cells := (workload, budget, pred, measured) :: !cells)
        mrc_budgets)
    workloads;
  Printf.printf "\nworst |predicted - measured| for LRU: %.4f (gate 0.01)\n"
    !worst;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"experiment\": \"mrc-vs-measured\",\n\
       \  \"tree\": {\"n\": %d, \"b\": %d},\n\
       \  \"ops_per_cell\": %d,\n  \"seed\": 42,\n\
       \  \"worst_lru_delta\": %.6f,\n  \"cells\": [\n" n_keys b n_ops !worst);
  let cells = List.rev !cells in
  List.iteri
    (fun i (w, budget, pred, measured) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workload\": %S, \"pool_size\": %d, \"predicted_lru\": \
            %.4f, \"measured\": {%s}}%s\n"
           (workload_name w) budget pred
           (String.concat ", "
              (List.map
                 (fun (p, h) ->
                   Printf.sprintf "\"%s\": %.4f" (Replacement.name p) h)
                 measured))
           (if i = List.length cells - 1 then "" else ",")))
    cells;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out "BENCH_mrc.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_mrc.json (%d cells)\n" (List.length cells);
  if !worst > 0.01 then begin
    Printf.printf "E17 FAILED: LRU measurement left the predicted curve\n";
    exit 1
  end

let run_sweep () =
  Printf.printf
    "Buffer-pool policy sweep: B+-tree n=%d B=%d, %d ops per cell\n" n_keys b
    n_ops;
  let cells = ref [] in
  List.iter
    (fun workload ->
      Printf.printf "\n==== %s ====\n" (workload_name workload);
      Printf.printf "%8s |" "pool";
      List.iter (fun p -> Printf.printf " %16s" (Replacement.name p)) policies;
      Printf.printf "\n%8s |" "";
      List.iter (fun _ -> Printf.printf " %9s %6s" "hit%" "io") policies;
      print_newline ();
      List.iter
        (fun pool_size ->
          Printf.printf "%8d |" pool_size;
          List.iter
            (fun policy ->
              let hit_rate, total = run_cell ~policy ~pool_size ~workload in
              cells :=
                (workload, policy, pool_size, hit_rate, total) :: !cells;
              Printf.printf " %8.1f%% %6d" (100. *. hit_rate) total)
            policies;
          print_newline ())
        pool_sizes)
    workloads;
  (* scan-resistance headline: 2Q vs LRU on the flood workload *)
  let find w p s =
    List.find_map
      (fun (w', p', s', h, t) ->
        if w' = w && p' = p && s' = s then Some (h, t) else None)
      !cells
  in
  (match (find Seqflood Replacement.Two_q 64, find Seqflood Replacement.Lru 64)
   with
  | Some (h2q, io2q), Some (hlru, iolru) ->
      Printf.printf
        "\nseqflood @ pool 64: 2q %.1f%% hits / %d IOs vs lru %.1f%% / %d IOs\n"
        (100. *. h2q) io2q (100. *. hlru) iolru
  | _ -> ());
  (* JSON ledger, hand-rendered (no JSON dependency in the tree) *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"experiment\": \"bufferpool-policy-sweep\",\n\
       \  \"tree\": {\"n\": %d, \"b\": %d},\n\
       \  \"ops_per_cell\": %d,\n  \"seed\": 42,\n  \"cells\": [\n" n_keys b
       n_ops);
  let cells = List.rev !cells in
  List.iteri
    (fun i (w, p, s, h, t) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workload\": %S, \"policy\": %S, \"pool_size\": %d, \
            \"hit_rate\": %.4f, \"total_ios\": %d}%s\n"
           (workload_name w) (Replacement.name p) s h t
           (if i = List.length cells - 1 then "" else ",")))
    cells;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out "BENCH_bufferpool.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nwrote BENCH_bufferpool.json (%d cells)\n" (List.length cells)

let () = if mrc_mode then run_mrc () else run_sweep ()
