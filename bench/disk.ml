(* E15: wall-clock vs predicted I/O across cache sizes (EXPERIMENTS.md
   E15, DESIGN.md §13).

   The simulator backend counts page I/Os; the file backend performs
   them. Page images are byte-identical across the two, so the
   simulator's count is the prediction and the file backend's clock is
   the measurement: this sweep varies the pager cache size and reports,
   per cell, the per-query I/O count (asserted equal across backends)
   next to the per-query wall-clock on the simulator and the file
   backend.

   Methodology notes, also in EXPERIMENTS.md:
   - B-tree cells start cold ([drop_cache]) and warm over the query
     stream; PST3 cells start with the build-warm cache on both backends
     (the structure does not expose a cache drop), so their I/O count
     reflects a steady-state query stream.
   - Wall-clock numbers are machine-dependent and warm-cache (the OS
     page cache holds the files): they measure syscall + decode +
     checksum cost, not seek latency. They are reported, never gated —
     the regression gate ([bench/regress.exe]) compares I/O counts only.

   Prints a table and writes BENCH_disk.json (CI uploads it as an
   artifact).

   With --phases the bench runs E16 instead (EXPERIMENTS.md E16): the
   same B-tree workload per cache size, but with a real clock on the
   trace handle (null sink — phases are timed, nothing is serialized),
   reporting where the file backend's wall time actually goes:
   device reads and fsyncs vs codec decode vs checksum verification,
   straight from the pager's per-phase histograms.

   Run with: dune exec bench/disk.exe
             dune exec bench/disk.exe -- --fast
             dune exec bench/disk.exe -- --phases [--fast] *)

open Pathcaching

let fast = Array.exists (( = ) "--fast") Sys.argv
let phases_mode = Array.exists (( = ) "--phases") Sys.argv

let out_file =
  let rec find = function
    | "--out" :: f :: _ -> f
    | _ :: tl -> find tl
    | [] -> "BENCH_disk.json"
  in
  find (Array.to_list Sys.argv)

let cache_sizes = [ 4; 16; 64; 256 ]

let temp_root =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pc-bench-disk-%d" (Unix.getpid ()))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let wall_stats = function
  | [] -> (0., 0.)
  | times ->
      let sorted = List.sort compare times in
      let len = List.length sorted in
      let mean = List.fold_left ( +. ) 0. sorted /. float_of_int len in
      let p99 = List.nth sorted (min (len - 1) (99 * len / 100)) in
      (mean, p99)

let timeq times f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  times := ((Unix.gettimeofday () -. t0) *. 1e6) :: !times;
  r

type row = {
  structure : string;
  cache : int;
  ios_per_q : float;
  sim_mean : float;
  sim_p99 : float;
  file_mean : float;
  file_p99 : float;
}

(* ---- B-tree: cold-start range queries -------------------------------- *)

let btree_rows () =
  let n = if fast then 20_000 else 100_000 in
  let b = 64 in
  let span = max 1 (n / 200) in
  let nq = if fast then 200 else 1_000 in
  let entries = List.init n (fun k -> (k, k)) in
  let qrng = Rng.create 42 in
  let queries = Array.init nq (fun _ -> Rng.int qrng (n - span)) in
  let dir = Filename.concat temp_root "btree" in
  Btree.close (Btree.bulk_load_file ~dir ~b entries);
  let run tree =
    let pager = Btree.pager tree in
    Pager.drop_cache pager;
    Pager.reset_stats pager;
    let times = ref [] in
    Array.iter
      (fun lo ->
        ignore (timeq times (fun () -> Btree.range tree ~lo ~hi:(lo + span))))
      queries;
    let ios = Io_stats.total (Pager.stats pager) in
    (float_of_int ios /. float_of_int nq, wall_stats !times)
  in
  List.map
    (fun cache ->
      let sim = Btree.bulk_load_in ~cache_capacity:cache ~b entries in
      let s_io, (sim_mean, sim_p99) = run sim in
      let ft = Btree.recover_file ~cache_capacity:cache ~dir ~b () in
      let f_io, (file_mean, file_p99) = run ft in
      Btree.close ft;
      if f_io <> s_io then
        Printf.ksprintf failwith
          "btree cache=%d: file backend I/O diverges from simulator (sim \
           %.2f, file %.2f per query)"
          cache s_io f_io;
      {
        structure = "btree";
        cache;
        ios_per_q = s_io;
        sim_mean;
        sim_p99;
        file_mean;
        file_p99;
      })
    cache_sizes

(* ---- PST3: steady-state 3-sided queries ------------------------------ *)

let pst3_rows () =
  let universe = 1 lsl 16 in
  let n = if fast then 4_000 else 16_000 in
  let b = 64 in
  let nq = if fast then 100 else 400 in
  let pts = Workload.points (Rng.create 7) Workload.Uniform ~n ~universe in
  let queries =
    let q = Rng.create 42 in
    Array.init nq (fun _ ->
        let xl = Rng.int q universe in
        ( xl,
          min (universe - 1) (xl + (universe / 50)),
          universe - (universe / 8) ))
  in
  let run t3 =
    let times = ref [] in
    let ios = ref 0 in
    Array.iter
      (fun (xl, xr, yb) ->
        let _, st = timeq times (fun () -> Ext_pst3.query t3 ~xl ~xr ~yb) in
        ios := !ios + Query_stats.total st)
      queries;
    (float_of_int !ios /. float_of_int nq, wall_stats !times)
  in
  List.map
    (fun cache ->
      let sim = Ext_pst3.create ~cache_capacity:cache ~mode:Cached ~b pts in
      let s_io, (sim_mean, sim_p99) = run sim in
      let fdir = Filename.concat temp_root (Printf.sprintf "pst3-%d" cache) in
      let ft =
        Ext_pst3.create_file ~cache_capacity:cache ~dir:fdir ~mode:Cached ~b
          pts
      in
      let f_io, (file_mean, file_p99) = run ft in
      Ext_pst3.close ft;
      if f_io <> s_io then
        Printf.ksprintf failwith
          "pst3 cache=%d: file backend I/O diverges from simulator (sim \
           %.2f, file %.2f per query)"
          cache s_io f_io;
      {
        structure = "pst3";
        cache;
        ios_per_q = s_io;
        sim_mean;
        sim_p99;
        file_mean;
        file_p99;
      })
    cache_sizes

(* ---- E16: per-phase wall-time decomposition (--phases) --------------- *)

(* Build + query a file-backed B-tree per cache size with a real clock on
   the trace handle; the pager's phase histograms then say where the
   wall time went. The build is journaled, so encode/write/fsync phases
   come from it; the query stream contributes read/decode/checksum. *)

type phase_row = {
  p_cache : int;
  p_queries : int;
  p_phases : (string * (int * int)) list; (* phase -> (count, total ns) *)
}

let phase_columns =
  [ "dev.read"; "dev.write"; "dev.fsync"; "codec.encode"; "codec.decode";
    "checksum.verify" ]

let phases_rows () =
  let n = if fast then 20_000 else 100_000 in
  let b = 64 in
  let span = max 1 (n / 200) in
  let nq = if fast then 200 else 1_000 in
  let entries = List.init n (fun k -> (k, k)) in
  let qrng = Rng.create 42 in
  let queries = Array.init nq (fun _ -> Rng.int qrng (n - span)) in
  let clock =
    Obs.Clock.of_fn (fun () -> int_of_float (Unix.gettimeofday () *. 1e9))
  in
  List.map
    (fun cache ->
      let obs = Obs.create ~clock () in
      let dir = Filename.concat temp_root (Printf.sprintf "phases-%d" cache) in
      let t = Btree.bulk_load_file ~cache_capacity:cache ~obs ~dir ~b entries in
      let pager = Btree.pager t in
      Pager.drop_cache pager;
      Array.iter
        (fun lo -> ignore (Btree.range t ~lo ~hi:(lo + span)))
        queries;
      let phases =
        List.map
          (fun (ph, h) -> (ph, (Histogram.count h, Histogram.total h)))
          (Pager.phase_histograms pager)
      in
      Btree.close t;
      { p_cache = cache; p_queries = nq; p_phases = phases })
    cache_sizes

let run_phases () =
  let rows =
    Fun.protect
      ~finally:(fun () -> rm_rf temp_root)
      (fun () -> phases_rows ())
  in
  Printf.printf "E16: per-phase wall time, file-backed btree (%s)\n%-6s"
    (if fast then "fast" else "full")
    "cache";
  List.iter (Printf.printf " %15s") phase_columns;
  print_newline ();
  let get r ph = Option.value ~default:(0, 0) (List.assoc_opt ph r.p_phases) in
  List.iter
    (fun r ->
      Printf.printf "%-6d" r.p_cache;
      List.iter
        (fun ph ->
          let _, ns = get r ph in
          Printf.printf " %13.2fms" (float_of_int ns /. 1e6))
        phase_columns;
      print_newline ())
    rows;
  let oc = open_out out_file in
  Printf.fprintf oc
    "{\"schema\":\"pathcache-bench-phases-v1\",\"fast\":%b,\"rows\":[\n" fast;
  List.iteri
    (fun i r ->
      Printf.fprintf oc "  {\"cache\":%d,\"queries\":%d,\"phases\":{"
        r.p_cache r.p_queries;
      List.iteri
        (fun j (ph, (count, ns)) ->
          Printf.fprintf oc "%s\"%s\":{\"count\":%d,\"total_ns\":%d}"
            (if j = 0 then "" else ",")
            ph count ns)
        r.p_phases;
      Printf.fprintf oc "}}%s\n"
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out_file

(* ---- report ---------------------------------------------------------- *)

let run_e15 () =
  let rows =
    Fun.protect
      ~finally:(fun () -> rm_rf temp_root)
      (fun () -> btree_rows () @ pst3_rows ())
  in
  Printf.printf
    "E15: wall-clock vs predicted I/O across cache sizes (%s)\n\
     %-9s %6s %8s | %17s | %17s\n"
    (if fast then "fast" else "full")
    "structure" "cache" "ios/q" "sim mean/p99 us" "file mean/p99 us";
  List.iter
    (fun r ->
      Printf.printf "%-9s %6d %8.2f | %8.1f %8.1f | %8.1f %8.1f\n" r.structure
        r.cache r.ios_per_q r.sim_mean r.sim_p99 r.file_mean r.file_p99)
    rows;
  let oc = open_out out_file in
  Printf.fprintf oc
    "{\"schema\":\"pathcache-bench-disk-v1\",\"fast\":%b,\"rows\":[\n" fast;
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "  {\"structure\":\"%s\",\"cache\":%d,\"ios_per_query\":%.3f,\"sim_mean_us\":%.1f,\"sim_p99_us\":%.1f,\"file_mean_us\":%.1f,\"file_p99_us\":%.1f}%s\n"
        r.structure r.cache r.ios_per_q r.sim_mean r.sim_p99 r.file_mean
        r.file_p99
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out_file

let () =
  rm_rf temp_root;
  Unix.mkdir temp_root 0o755;
  if phases_mode then run_phases () else run_e15 ()
