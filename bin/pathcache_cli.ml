(* Command-line front end: build path-cached structures over synthetic
   workloads and inspect query I/O interactively.

     pathcache_cli pst   -n 100000 -b 64 --variant two-level --queries 20
     pathcache_cli pst3  -n 100000 -b 64 --width 50000
     pathcache_cli stab  -n 50000 -b 64 --cached true --structure segtree
     pathcache_cli btree -n 100000 -b 64 --span 500 *)

open Pathcaching
open Cmdliner

(* ----- shared args ----- *)

let n_arg =
  Arg.(value & opt int 50_000 & info [ "n" ] ~docv:"N" ~doc:"Number of items.")

let b_arg =
  Arg.(value & opt int 64 & info [ "b" ] ~docv:"B" ~doc:"Page size (records per page).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let queries_arg =
  Arg.(value & opt int 10 & info [ "queries" ] ~docv:"K" ~doc:"Number of queries to run.")

let universe = 1_000_000

let cache_arg =
  Arg.(value & opt int 0 & info [ "cache" ] ~docv:"FRAMES"
         ~doc:"Buffer-pool capacity in page frames (0 = uncached, exact \
               I/O counts).")

let policy_conv =
  Arg.enum (List.map (fun p -> (Replacement.name p, p)) Replacement.all)

let policy_arg =
  Arg.(value & opt policy_conv Replacement.Lru & info [ "policy" ] ~docv:"POLICY"
         ~doc:"Buffer-pool replacement policy: lru, fifo, clock, 2q.")

(* A shared pool when caching is requested, [None] for exact counting. *)
let make_pool cache policy =
  if cache > 0 then Some (Buffer_pool.create ~policy ~capacity:cache ())
  else None

(* ----- storage backend ----- *)

let backend_arg =
  Arg.(value & opt (enum [ ("sim", `Sim); ("file", `File) ]) `Sim
       & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Storage backend: $(b,sim) keeps pages in the in-memory \
                 simulator (exact I/O counts, the default); $(b,file) \
                 stores binary pages and a durable journal on disk under \
                 $(b,--data-dir) (same I/O counts, real wall-clock). \
                 Supported by $(b,btree) and $(b,pst3).")

let data_dir_arg =
  Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"PATH"
         ~doc:"Directory for the file backend's pages and journal \
               (created if missing). Requires $(b,--backend file).")

(* Validate the backend/data-dir combo up front so unsupported requests
   fail with one clear message instead of a deep exception. *)
let resolve_backend ~cmd ~file_supported backend data_dir =
  match (backend, data_dir) with
  | `Sim, None -> Ok None
  | `Sim, Some _ -> Error "--data-dir is only meaningful with --backend file"
  | `File, None -> Error "--backend file requires --data-dir PATH"
  | `File, Some dir ->
      if file_supported then Ok (Some dir)
      else
        Error
          (Printf.sprintf
             "%s does not support --backend file (only btree and pst3 \
              store pages on disk; rerun with --backend sim)"
             cmd)

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write an event trace: $(i,FILE).json gets the Chrome \
               trace_event format (chrome://tracing, Perfetto), any other \
               extension JSONL (one event per line; replay with the \
               $(b,replay) subcommand).")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Export a metrics snapshot after the run: $(i,FILE).json gets \
               JSON, any other extension the Prometheus text format. The \
               registry listens on the event stream, so I/O counts stay \
               byte-identical with or without it.")

(* ----- wall clock and slow-op log ----- *)

let clock_arg =
  Arg.(value
       & opt (enum [ ("off", `Off); ("real", `Real); ("mock", `Mock) ]) `Off
       & info [ "clock" ] ~docv:"CLOCK"
           ~doc:"Wall-clock stamping of the trace (DESIGN.md \xc2\xa79): \
                 $(b,off) (the default; traces stay byte-identical to \
                 untimed runs), $(b,real) (nanoseconds from the system \
                 clock; also turns on device/codec/wal/checksum phase \
                 timing), $(b,mock) (a deterministic counter advancing \
                 1000ns per reading, for reproducible timed traces). \
                 Timing never affects control flow or I/O counts.")

let real_clock () =
  Obs.Clock.of_fn (fun () -> int_of_float (Unix.gettimeofday () *. 1e9))

let clock_of_choice = function
  | `Off -> None
  | `Real -> Some (real_clock ())
  | `Mock -> Some (Obs.Clock.mock ())

let slow_log_arg =
  Arg.(value & opt (some string) None & info [ "slow-log" ] ~docv:"FILE"
         ~doc:"Write a JSONL record for every span slower than \
               $(b,--slow-ms), and for every cost-model violation, to \
               $(i,FILE): label, wall time, I/Os and per-phase \
               breakdown. Implies $(b,--clock real) unless a clock was \
               given.")

let slow_ms_arg =
  Arg.(value & opt float 10. & info [ "slow-ms" ] ~docv:"MS"
         ~doc:"Slow-span threshold for $(b,--slow-log), in milliseconds.")

(* The handle is [None] unless [--trace], [--metrics], [--clock] or
   [--slow-log] was given, so the default run keeps the zero-overhead
   null path and byte-identical I/O counts. A metrics registry taps the
   same handle via a teed sink, and the slow log tees on the same way. A
   clock with no sink still matters: pagers fill their phase histograms
   whenever the handle carries one. *)
let make_obs ?(clock = `Off) ?slow_log ?(slow_ms = 10.) trace metrics_file =
  let clock =
    match (clock_of_choice clock, slow_log) with
    | None, Some _ -> Some (real_clock ()) (* slow spans need wall time *)
    | c, _ -> c
  in
  let slow =
    Option.map
      (fun path ->
        let oc = open_out path in
        ( path,
          oc,
          Obs.Slow_log.create oc
            ~threshold_ns:(int_of_float (slow_ms *. 1e6)) ))
      slow_log
  in
  match (trace, metrics_file, slow, clock) with
  | None, None, None, None -> (None, None, None)
  | _ ->
      let obs =
        match trace with Some f -> Obs.to_file f | None -> Obs.create ()
      in
      Option.iter (Obs.set_clock obs) clock;
      Option.iter
        (fun (_, _, sl) ->
          Obs.set_sink obs
            (Obs.tee (Obs.current_sink obs) (Obs.Slow_log.sink sl)))
        slow;
      let m =
        Option.map
          (fun _ ->
            let m = Metrics.create () in
            Metrics.attach m obs;
            m)
          metrics_file
      in
      (Some obs, m, slow)

(* Conformance violations always reach the slow log, whatever their wall
   time: a query that beat the threshold but broke its theorem bound is
   exactly what the log is for. *)
let note_violation slow ~label ~measured (v : Cost_model.Conformance.verdict) =
  match slow with
  | Some (_, _, sl) when not v.within ->
      Obs.Slow_log.note_violation sl ~label ~measured ~predicted:v.predicted
  | _ -> ()

let finish_obs trace obs =
  Option.iter Obs.close obs;
  Option.iter (Printf.printf "trace written to %s\n") trace

let finish_slow slow =
  Option.iter
    (fun (path, oc, sl) ->
      Obs.Slow_log.close sl;
      close_out oc;
      Printf.printf "slow log written to %s (%d entries)\n" path
        (Obs.Slow_log.logged sl))
    slow

let finish_metrics metrics_file m pool =
  match (metrics_file, m) with
  | Some path, Some m ->
      Option.iter (fun p -> Buffer_pool.export_metrics p m) pool;
      let body =
        if Filename.check_suffix path ".json" then Metrics.to_json m
        else Metrics.to_prometheus m
      in
      let oc = open_out path in
      output_string oc body;
      close_out oc;
      Printf.printf "metrics written to %s\n" path
  | _ -> ()

(* Per-query total-I/O distribution, printed after the query loop. *)
let make_histo () = Histogram.create ()

let record_histo h ios = Histogram.add h ios

let report_histo h =
  if Histogram.count h > 0 then
    Printf.printf "per-query io: %s\n"
      (Format.asprintf "%a" Histogram.pp h)

let report_pool = function
  | None -> ()
  | Some pool ->
      Printf.printf "pool [%s, %d frames]: %s\n"
        (Buffer_pool.policy_name pool)
        (Buffer_pool.capacity pool)
        (Format.asprintf "%a" Buffer_pool.pp_stats (Buffer_pool.stats pool))

let dist_arg =
  let dist_conv =
    Arg.enum
      [
        ("uniform", Workload.Uniform);
        ("clustered", Workload.Clustered 8);
        ("diagonal", Workload.Diagonal);
        ("skyline", Workload.Skyline);
      ]
  in
  Arg.(value & opt dist_conv Workload.Uniform & info [ "dist" ] ~docv:"DIST"
         ~doc:"Point distribution: uniform, clustered, diagonal, skyline.")

(* [verdict] adds the measured-vs-theorem column: predicted bound and
   measured/predicted ratio for this query (lib/obs/cost_model.mli). *)
let pp_stats_line ?verdict tag t ios stats =
  let conf =
    match verdict with
    | None -> ""
    | Some (v : Cost_model.Conformance.verdict) ->
        Printf.sprintf " bound=%-5.1f ratio=%.2f%s" v.predicted v.ratio
          (if v.within then "" else " VIOLATION")
  in
  Printf.printf "%-14s t=%-6d io=%-4d %s%s\n" tag t ios
    (Format.asprintf "%a" Query_stats.pp stats)
    conf

(* ----- pst (2-sided) ----- *)

let variant_arg =
  let variant_conv =
    Arg.enum
      [
        ("iko", Ext_pst.Iko);
        ("basic", Ext_pst.Basic);
        ("segmented", Ext_pst.Segmented);
        ("two-level", Ext_pst.Two_level);
        ("multilevel", Ext_pst.Multilevel);
      ]
  in
  Arg.(value & opt variant_conv Ext_pst.Two_level & info [ "variant" ] ~docv:"V"
         ~doc:"PST variant: iko, basic, segmented, two-level, multilevel.")

let run_pst_sim n b seed k dist variant cache policy clock slow_log slow_ms
    trace metrics_file =
  let rng = Rng.create seed in
  let pts = Workload.points rng dist ~n ~universe in
  let pool = make_pool cache policy in
  let obs, m, slow = make_obs ~clock ?slow_log ~slow_ms trace metrics_file in
  let t = Ext_pst.create ?pool ?obs ~variant ~b pts in
  Option.iter Buffer_pool.reset_stats pool;
  Printf.printf "built %s over %d points: %d pages (%.2f x n/B)\n%!"
    (Format.asprintf "%a" Ext_pst.pp_variant variant)
    n (Ext_pst.storage_pages t)
    (float_of_int (Ext_pst.storage_pages t) /. float_of_int (max 1 (n / b)));
  let histo = make_histo () in
  List.iter
    (fun (xl, yb) ->
      let res, st = Ext_pst.query t ~xl ~yb in
      record_histo histo (Query_stats.total st);
      let verdict =
        Ext_pst.conformance t ~t_out:(List.length res)
          ~measured:(Query_stats.total st)
      in
      let label = Printf.sprintf "(%d,%d)" xl yb in
      note_violation slow ~label ~measured:(Query_stats.total st) verdict;
      pp_stats_line ~verdict label (List.length res) (Query_stats.total st)
        st)
    (Workload.two_sided_corners rng ~k ~universe);
  report_histo histo;
  report_pool pool;
  finish_obs trace obs;
  finish_slow slow;
  finish_metrics metrics_file m pool

let run_pst n b seed k dist variant cache policy clock slow_log slow_ms
    backend data_dir trace metrics_file =
  match resolve_backend ~cmd:"pst" ~file_supported:false backend data_dir with
  | Error msg -> `Error (false, msg)
  | Ok _ ->
      `Ok
        (run_pst_sim n b seed k dist variant cache policy clock slow_log
           slow_ms trace metrics_file)

let pst_cmd =
  let doc = "Build a 2-sided external PST and run random corner queries." in
  Cmd.v (Cmd.info "pst" ~doc)
    Term.(ret
            (const run_pst $ n_arg $ b_arg $ seed_arg $ queries_arg $ dist_arg
             $ variant_arg $ cache_arg $ policy_arg $ clock_arg
             $ slow_log_arg $ slow_ms_arg $ backend_arg
             $ data_dir_arg $ trace_arg $ metrics_arg))

(* ----- pst3 (3-sided) ----- *)

let width_arg =
  Arg.(value & opt int 100_000 & info [ "width" ] ~docv:"W"
         ~doc:"Approximate x-width of 3-sided queries.")

let run_pst3_on n b seed k dist width clock slow_log slow_ms dir trace
    metrics_file =
  let rng = Rng.create seed in
  let pts = Workload.points rng dist ~n ~universe in
  let obs, m, slow = make_obs ~clock ?slow_log ~slow_ms trace metrics_file in
  (* only the cached structure is traced: one handle per run keeps the
     span stream a single coherent tree; with the file backend it is also
     the one whose pages go to disk (the baseline twin stays simulated) *)
  let cached =
    match dir with
    | None -> Ext_pst3.create ?obs ~mode:Ext_pst3.Cached ~b pts
    | Some dir -> Ext_pst3.create_file ?obs ~dir ~mode:Ext_pst3.Cached ~b pts
  in
  let base = Ext_pst3.create ~mode:Ext_pst3.Baseline ~b pts in
  Printf.printf "3-sided PST over %d points: cached=%d pages, baseline=%d pages%s\n%!"
    n (Ext_pst3.storage_pages cached) (Ext_pst3.storage_pages base)
    (match dir with
    | None -> ""
    | Some dir -> Printf.sprintf " (cached pages on disk under %s)" dir);
  let histo = make_histo () in
  List.iter
    (fun (xl, xr, yb) ->
      let res, st = Ext_pst3.query cached ~xl ~xr ~yb in
      let _, st_b = Ext_pst3.query base ~xl ~xr ~yb in
      record_histo histo (Query_stats.total st);
      let v =
        Ext_pst3.conformance cached ~t_out:(List.length res)
          ~measured:(Query_stats.total st)
      in
      note_violation slow
        ~label:(Printf.sprintf "(%d..%d,y>=%d)" xl xr yb)
        ~measured:(Query_stats.total st) v;
      Printf.printf
        "(%d..%d, y>=%d) t=%-6d cached-io=%-4d baseline-io=%-4d ratio=%.2f%s\n"
        xl xr yb (List.length res) (Query_stats.total st)
        (Query_stats.total st_b) v.Cost_model.Conformance.ratio
        (if v.Cost_model.Conformance.within then "" else " VIOLATION"))
    (Workload.three_sided rng ~k ~universe ~width);
  report_histo histo;
  Ext_pst3.close cached;
  finish_obs trace obs;
  finish_slow slow;
  finish_metrics metrics_file m None

let run_pst3 n b seed k dist width clock slow_log slow_ms backend data_dir
    trace metrics_file =
  match resolve_backend ~cmd:"pst3" ~file_supported:true backend data_dir with
  | Error msg -> `Error (false, msg)
  | Ok dir ->
      `Ok
        (run_pst3_on n b seed k dist width clock slow_log slow_ms dir trace
           metrics_file)

let pst3_cmd =
  let doc = "Build 3-sided external PSTs (cached and baseline) and compare." in
  Cmd.v (Cmd.info "pst3" ~doc)
    Term.(ret
            (const run_pst3 $ n_arg $ b_arg $ seed_arg $ queries_arg $ dist_arg
             $ width_arg $ clock_arg $ slow_log_arg $ slow_ms_arg
             $ backend_arg $ data_dir_arg $ trace_arg $ metrics_arg))

(* ----- stab (interval structures) ----- *)

let structure_arg =
  Arg.(value & opt (enum [ ("segtree", `Seg); ("inttree", `Int); ("pst", `Pst) ]) `Seg
       & info [ "structure" ] ~docv:"S"
           ~doc:"Interval structure: segtree, inttree, or pst (KRV reduction).")

let cached_arg =
  Arg.(value & opt bool true & info [ "cached" ] ~docv:"BOOL"
         ~doc:"Use path caches (false = naive baseline).")

let run_stab_sim n b seed k structure cached clock slow_log slow_ms trace
    metrics_file =
  let rng = Rng.create seed in
  let ivs = Workload.intervals rng Workload.Mixed_ivals ~n ~universe in
  let qs = Workload.stab_queries rng ~k ~universe in
  let obs, m, slow = make_obs ~clock ?slow_log ~slow_ms trace metrics_file in
  let histo = make_histo () in
  let run_queries stab conf =
    List.iter
      (fun q ->
        let res, st = stab q in
        record_histo histo (Query_stats.total st);
        let verdict =
          conf ~t_out:(List.length res) ~measured:(Query_stats.total st)
        in
        let label = Printf.sprintf "stab %d" q in
        note_violation slow ~label ~measured:(Query_stats.total st) verdict;
        pp_stats_line ~verdict label (List.length res)
          (Query_stats.total st) st)
      qs
  in
  (match structure with
  | `Seg ->
      let mode = if cached then Ext_seg.Cached else Ext_seg.Naive in
      let t = Ext_seg.create ?obs ~mode ~b ivs in
      Printf.printf "segment tree (%s): %d pages\n%!"
        (Format.asprintf "%a" Ext_seg.pp_mode mode)
        (Ext_seg.storage_pages t);
      run_queries (Ext_seg.stab t) (Ext_seg.conformance t)
  | `Int ->
      let mode = if cached then Ext_int.Cached else Ext_int.Naive in
      let t = Ext_int.create ?obs ~mode ~b ivs in
      Printf.printf "interval tree (%s): %d pages\n%!"
        (Format.asprintf "%a" Ext_int.pp_mode mode)
        (Ext_int.storage_pages t);
      run_queries (Ext_int.stab t) (Ext_int.conformance t)
  | `Pst ->
      let t = Stabbing.create ?obs ~b ivs in
      Printf.printf "dynamic stabbing store (KRV reduction): %d pages\n%!"
        (Stabbing.storage_pages t);
      run_queries (Stabbing.stab t) (Stabbing.conformance t));
  report_histo histo;
  finish_obs trace obs;
  finish_slow slow;
  finish_metrics metrics_file m None

let run_stab n b seed k structure cached clock slow_log slow_ms backend
    data_dir trace metrics_file =
  match resolve_backend ~cmd:"stab" ~file_supported:false backend data_dir with
  | Error msg -> `Error (false, msg)
  | Ok _ ->
      `Ok
        (run_stab_sim n b seed k structure cached clock slow_log slow_ms
           trace metrics_file)

let stab_cmd =
  let doc = "Build an interval structure and run stabbing queries." in
  Cmd.v (Cmd.info "stab" ~doc)
    Term.(ret
            (const run_stab $ n_arg $ b_arg $ seed_arg $ queries_arg
             $ structure_arg $ cached_arg $ clock_arg $ slow_log_arg
             $ slow_ms_arg $ backend_arg $ data_dir_arg
             $ trace_arg $ metrics_arg))

(* ----- btree ----- *)

let durability_arg =
  Arg.(value & flag & info [ "durability" ]
         ~doc:"Journal the build in a write-ahead log (see DESIGN.md \
               \xc2\xa712): every dirtied page is charged twice (journal \
               record + in-place apply) and the structure becomes \
               crash-recoverable. Off by default; the query path is \
               byte-identical either way.")

let span_arg =
  Arg.(value & opt int 500 & info [ "span" ] ~docv:"SPAN"
         ~doc:"Width of 1-D range queries.")

let run_btree_on n b seed k span cache policy durability clock slow_log
    slow_ms dir trace metrics_file =
  let rng = Rng.create seed in
  let entries = List.init n (fun i -> (i, i)) in
  let pool = make_pool cache policy in
  let obs, m, slow = make_obs ~clock ?slow_log ~slow_ms trace metrics_file in
  let t =
    match dir with
    | Some dir -> Btree.bulk_load_file ?obs ~dir ~b entries
    | None ->
        let wal =
          if durability then Some (Pc_pagestore.Wal.create ()) else None
        in
        Btree.bulk_load_in ?pool ?obs ?durability:wal ~b entries
  in
  let wal = Btree.wal t in
  Option.iter Buffer_pool.reset_stats pool;
  Printf.printf "B+-tree over %d keys: height=%d pages=%d%s%s\n%!" n
    (Btree.height t) (Btree.pages_used t)
    (match wal with
    | Some w ->
        Printf.sprintf " (journaled: %d build writes incl. journal, %d \
                         journal records pending)"
          (Pager.stats (Btree.pager t)).Io_stats.writes
          (Pc_pagestore.Wal.journal_len w)
    | None -> "")
    (match dir with
    | Some dir -> Printf.sprintf " (pages on disk under %s)" dir
    | None -> "");
  let histo = make_histo () in
  for _ = 1 to k do
    let lo = Rng.int rng (max 1 (n - span)) in
    Pager.reset_stats (Btree.pager t);
    let res = Btree.range t ~lo ~hi:(lo + span - 1) in
    let ios = Io_stats.total (Pager.stats (Btree.pager t)) in
    record_histo histo ios;
    let v = Btree.conformance t ~t_out:(List.length res) ~measured:ios in
    note_violation slow
      ~label:(Printf.sprintf "range [%d, %d)" lo (lo + span))
      ~measured:ios v;
    Printf.printf "range [%d, %d): t=%-6d io=%-4d ratio=%.2f%s\n" lo (lo + span)
      (List.length res) ios v.Cost_model.Conformance.ratio
      (if v.Cost_model.Conformance.within then "" else " VIOLATION")
  done;
  report_histo histo;
  report_pool pool;
  Option.iter (fun m -> Pager.export_metrics (Btree.pager t) m) m;
  Btree.close t;
  finish_obs trace obs;
  finish_slow slow;
  finish_metrics metrics_file m pool

let run_btree n b seed k span cache policy durability clock slow_log slow_ms
    backend data_dir trace metrics_file =
  match resolve_backend ~cmd:"btree" ~file_supported:true backend data_dir with
  | Error msg -> `Error (false, msg)
  | Ok (Some _) when cache > 0 ->
      `Error
        (false,
         "--cache is not supported with the file backend; drop --cache or \
          use --backend sim")
  | Ok dir ->
      `Ok
        (run_btree_on n b seed k span cache policy durability clock slow_log
           slow_ms dir trace metrics_file)

let btree_cmd =
  let doc = "Bulk-load an external B+-tree and run range queries." in
  Cmd.v (Cmd.info "btree" ~doc)
    Term.(ret
            (const run_btree $ n_arg $ b_arg $ seed_arg $ queries_arg
             $ span_arg $ cache_arg $ policy_arg $ durability_arg
             $ clock_arg $ slow_log_arg $ slow_ms_arg
             $ backend_arg $ data_dir_arg $ trace_arg $ metrics_arg))

(* ----- replay ----- *)

let run_replay file =
  match Obs.replay_file file with
  | totals ->
      Format.printf "%a@." Obs.pp_totals totals;
      `Ok ()
  | exception Failure msg -> `Error (false, msg)
  | exception Sys_error msg -> `Error (false, msg)

let replay_cmd =
  let doc =
    "Parse a JSONL trace (written with --trace FILE, non-.json extension) \
     and print the I/O totals it replays to. Exits non-zero on input that \
     is not a well-formed trace."
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"JSONL trace file.")
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(ret (const run_replay $ file_arg))

(* ----- profile ----- *)

let pp_mrc_table ppf curves = Reuse_dist.pp_table ppf curves

(* One pass over the trace feeds the span profile and, when curves are
   asked for, the reuse-distance profiler. *)
let run_profile file flame mrc mrc_json =
  let curves_wanted = mrc || mrc_json <> None in
  let p = Obs.Profile.create () and rd = Reuse_dist.create () in
  let observe e =
    Obs.Profile.observe p e;
    if curves_wanted then Reuse_dist.observe rd e
  in
  match Obs.iter_file file observe with
  | () ->
      let a = Obs.Profile.analysis p in
      Format.printf "%a@?" Obs.Profile.pp a.Obs.Profile.rows;
      if a.Obs.Profile.has_wall then begin
        (* Timed trace: add the wall-time decomposition — the per-phase
           table and the heaviest chain under each root span. *)
        Format.printf "@\n%a" Obs.Profile.pp_phases a.Obs.Profile.rows;
        Format.printf "@\n%a@?" Obs.Profile.pp_critical a
      end;
      Option.iter
        (fun path ->
          let oc = open_out path in
          Obs.Profile.write_folded oc a;
          close_out oc;
          Printf.printf "folded stacks written to %s\n" path)
        flame;
      if curves_wanted then begin
        match Reuse_dist.mrcs rd with
        | [] ->
            if mrc then
              Format.printf "@\nmrc: no read references in trace@."
        | curves ->
            if mrc then
              Format.printf "@\nmiss-ratio curves (exact LRU)@\n%a@?"
                pp_mrc_table curves;
            Option.iter
              (fun path ->
                let oc = open_out path in
                output_string oc (Reuse_dist.to_json curves);
                close_out oc;
                Printf.printf "mrc json written to %s\n" path)
              mrc_json
      end;
      `Ok ()
  | exception Failure msg -> `Error (false, msg)
  | exception Sys_error msg -> `Error (false, msg)

let profile_cmd =
  let doc =
    "Aggregate a JSONL trace (written with --trace FILE, non-.json \
     extension) into a per-span-label profile: count, total I/Os, mean \
     and p99 I/Os per span. If the trace carries wall-clock stamps \
     (--clock real or mock), also prints a per-phase wall-time breakdown \
     (device/codec/wal/checksum/pool/other) and the critical path under \
     each root span. Exits non-zero on input that is not a well-formed \
     trace."
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"JSONL trace file.")
  in
  let flame_arg =
    Arg.(value & opt (some string) None & info [ "flame" ] ~docv:"OUT"
           ~doc:"Also write collapsed stacks (one $(i,path;seq value) \
                 line per frame, flamegraph.pl / speedscope format) to \
                 $(i,OUT); values are wall nanoseconds for timed traces, \
                 I/Os otherwise.")
  in
  let mrc_arg =
    Arg.(value & flag & info [ "mrc" ]
           ~doc:"Also print exact LRU miss-ratio curves per pager source: \
                 the trace's reads and cache hits feed a Mattson \
                 reuse-distance stack, yielding the hit ratio at every \
                 cache size from one pass (DESIGN.md \xc2\xa79).")
  in
  let mrc_json_arg =
    Arg.(value & opt (some string) None & info [ "mrc-json" ] ~docv:"OUT"
           ~doc:"Write the miss-ratio curves as JSON to $(i,OUT).")
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(ret (const run_profile $ file_arg $ flame_arg $ mrc_arg
               $ mrc_json_arg))

(* ----- advise-cache ----- *)

(* Replay mode: fold a JSONL trace through an access profiler and print
   profiles, curves, and the advised split of [budget] frames. *)
let run_advise_trace file budget json_out =
  let ap = Access_profile.create () in
  match Obs.iter_file file (Access_profile.observe ap) with
  | () -> (
      match Reuse_dist.mrcs (Access_profile.reuse ap) with
      | [] -> `Error (false, "trace contains no read references")
      | curves ->
          Format.printf "access profiles@\n%a" Access_profile.pp_profiles
            (Access_profile.profiles ap);
          Format.printf "@\nmiss-ratio curves (exact LRU)@\n%a" pp_mrc_table
            curves;
          let advice = Access_profile.advise curves ~budget in
          Format.printf "@\nrecommended split@\n%a@?" Access_profile.pp_advice
            advice;
          Option.iter
            (fun path ->
              let oc = open_out path in
              output_string oc (Access_profile.advice_json advice);
              close_out oc;
              Printf.printf "advice json written to %s\n" path)
            json_out;
          `Ok ())
  | exception Failure msg -> `Error (false, msg)
  | exception Sys_error msg -> `Error (false, msg)

(* Live mode: two B+-trees with contrasting locality — a hot structure
   whose queries hammer a tiny key range (small working set, the curve
   flattens early) and a uniform one touching everything. Profile both
   at cache 0, advise a split of the budget, then measure the advised
   and even splits for real and report predicted vs actual. *)
let advise_live_structs n = [ ("hot", n / 100); ("uniform", n) ]

let advise_live_workload tree rng ~n ~ops ~span =
  (* [span] keys starting mid-keyspace; uniform when [span = n] *)
  let lo = if span >= n then 0 else n / 2 in
  for _ = 1 to ops do
    ignore (Btree.find tree (lo + Rng.int rng span))
  done

let run_advise_live budget n b seed ops json_out =
  if budget < List.length (advise_live_structs n) then
    `Error (false, "--budget must be at least one frame per structure")
  else begin
    let structs = advise_live_structs n in
    let entries = List.init n (fun i -> (i, i)) in
    (* Profiling pass: cache 0 so the stream is pure Reads; the profiler
       attaches after the build, so curves describe the query phase only —
       matching the measured passes below, which drop the cache first. *)
    let curves =
      List.map
        (fun (name, span) ->
          let obs = Obs.create () in
          let tree = Btree.bulk_load_in ~obs ~b entries in
          let ap = Access_profile.create () in
          Access_profile.attach ap obs;
          advise_live_workload tree (Rng.create seed) ~n ~ops ~span;
          Format.printf "%s: %a" name Access_profile.pp_profiles
            (Access_profile.profiles ap);
          match Reuse_dist.mrcs (Access_profile.reuse ap) with
          | (_, m) :: _ -> (name, m)
          | [] -> failwith "advise-cache: profiling pass saw no references")
        structs
    in
    Format.printf "@\nmiss-ratio curves (exact LRU)@\n%a" pp_mrc_table curves;
    let advice = Access_profile.advise curves ~budget in
    Format.printf "@\nrecommended split@\n%a" Access_profile.pp_advice advice;
    (* Measured pass: one private LRU pool per structure, sized by the
       split under test; deterministic workload regeneration per cell. *)
    let measure frames (_, span) =
      let pool = Buffer_pool.create ~capacity:frames () in
      let tree = Btree.bulk_load_in ~pool ~b entries in
      let pager = Btree.pager tree in
      Pager.drop_cache pager;
      Pager.reset_stats pager;
      advise_live_workload tree (Rng.create seed) ~n ~ops ~span;
      let st = Pager.stats pager in
      (st.Io_stats.cache_hits, st.Io_stats.reads)
    in
    let run_split tag allocs =
      let results =
        List.map2
          (fun (al : Access_profile.alloc) s -> measure al.a_frames s)
          allocs structs
      in
      let misses = List.fold_left (fun acc (_, m) -> acc + m) 0 results in
      Format.printf "@\n%s (measured)@\n" tag;
      List.iter2
        (fun (al : Access_profile.alloc) (hits, miss) ->
          let refs = hits + miss in
          Format.printf
            "  %-8s frames=%-4d predicted-hit%%=%5.1f measured-hit%%=%5.1f@\n"
            al.a_source al.a_frames
            (100. *. Access_profile.alloc_hit_ratio al)
            (if refs = 0 then 0. else 100. *. float_of_int hits /. float_of_int refs))
        allocs results;
      Format.printf "  total misses: %d@\n" misses;
      misses
    in
    let rec_misses = run_split "recommended split" advice.Access_profile.allocs in
    let even_misses = run_split "even split" advice.Access_profile.even in
    Format.printf "@\nmeasured misses: recommended=%d even=%d (%s)@."
      rec_misses even_misses
      (if rec_misses < even_misses then "recommended wins"
       else if rec_misses = even_misses then "tie"
       else "even wins");
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Access_profile.advice_json advice);
        close_out oc;
        Printf.printf "advice json written to %s\n" path)
      json_out;
    `Ok ()
  end

let run_advise trace budget n b seed ops json_out =
  match trace with
  | Some file -> run_advise_trace file budget json_out
  | None -> run_advise_live budget n b seed ops json_out

let advise_cmd =
  let doc =
    "Recommend how to split a global frame budget across structures. \
     With $(b,--trace) $(i,FILE), replays a JSONL trace (written with \
     --trace on any build command) through the reuse-distance profiler \
     and advises over its per-source miss-ratio curves. Without it, runs \
     a live demonstration: two B+-trees with contrasting locality (a hot \
     small working set vs uniform access) are profiled, the budget is \
     split by marginal-miss-rate descent, and both the recommended and \
     the naive even split are then measured for real, printing predicted \
     vs actual hit ratios and total misses."
  in
  let trace_in_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"JSONL trace to replay instead of the live demonstration.")
  in
  let budget_arg =
    Arg.(value & opt int 64 & info [ "budget" ] ~docv:"FRAMES"
           ~doc:"Global frame budget to partition.")
  in
  let ops_arg =
    Arg.(value & opt int 2000 & info [ "ops" ] ~docv:"K"
           ~doc:"Point lookups per structure in the live demonstration.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"OUT"
           ~doc:"Write the advice (recommended + even split, predicted \
                 misses) as JSON to $(i,OUT).")
  in
  Cmd.v (Cmd.info "advise-cache" ~doc)
    Term.(ret
            (const run_advise $ trace_in_arg $ budget_arg $ n_arg $ b_arg
             $ seed_arg $ ops_arg $ json_arg))

(* ----- serve-metrics ----- *)

let run_serve_metrics port n b queries data_dir =
  match Metrics_http.run ~port ~n ~b ~queries ~data_dir () with
  | () -> `Ok ()
  | exception Unix.Unix_error (err, fn, _) ->
      `Error
        (false,
         Printf.sprintf "serve-metrics: %s: %s" fn (Unix.error_message err))

let serve_metrics_cmd =
  let doc =
    "Serve a live Prometheus endpoint (plain sockets, no dependencies): \
     builds a journaled file-backed B+-tree with a real clock attached, \
     then answers GET /metrics with the registry in text exposition \
     format — I/O counters plus device/codec/wal latency histograms, \
     including fsync durations from the build. Each scrape first runs a \
     batch of range queries so read-side histograms keep filling. GET \
     /healthz answers ok; GET /quit shuts the server down cleanly."
  in
  let port_arg =
    Arg.(value & opt int 9464 & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port to listen on (loopback only).")
  in
  let qps_arg =
    Arg.(value & opt int 32 & info [ "queries-per-scrape" ] ~docv:"K"
           ~doc:"Random range queries run before each /metrics scrape.")
  in
  Cmd.v (Cmd.info "serve-metrics" ~doc)
    Term.(ret
            (const run_serve_metrics $ port_arg $ n_arg $ b_arg $ qps_arg
             $ data_dir_arg))

(* ----- check ----- *)

(* A concurrent-history repro re-checks the recorded history: the
   interleaving is already captured in the invocation/response stamps,
   so replay is the (deterministic) linearizability decision itself. *)
let run_check_lin file =
  match Pc_check.Lin.load file with
  | Error msg -> `Error (false, msg)
  | Ok h -> (
      Format.printf "re-checking %s: %d domains, %d calls@." file h.domains
        (Array.length h.Pc_check.Lin.calls);
      match Pc_check.Lin.check h with
      | Pc_check.Lin.Linearizable ->
          Format.printf "linearizable@.";
          `Ok ()
      | Pc_check.Lin.Inconclusive msg ->
          Format.printf "inconclusive: %s@." msg;
          exit 2
      | Pc_check.Lin.Violation small ->
          Format.printf "non-linearizable; minimal sub-history:@.%a"
            Pc_check.Lin.pp_history small;
          exit 1)

let run_check file =
  if Pc_check.Lin.is_history_file file then run_check_lin file
  else
  match Pc_check.Repro.load file with
  | Error msg -> `Error (false, msg)
  | Ok repro -> (
      Format.printf "replaying %s: target=%s seed=%d b=%d ops=%d%s@." file
        (Pc_check.Subject.name repro.target)
        repro.seed repro.b
        (Array.length repro.ops)
        (match repro.fault with
        | None -> ""
        | Some k ->
            Format.asprintf " fault=%s" (Pc_pagestore.Fault_plan.kind_to_string k));
      match Pc_check.Repro.replay repro with
      | Pc_check.Engine.Pass ->
          Format.printf "pass@.";
          `Ok ()
      | outcome ->
          Format.printf "%a@." Pc_check.Engine.pp_outcome outcome;
          exit 1)

(* ----- recover ----- *)

(* File-backend recovery: no simulated crash points — the directory's
   bytes are whatever the crash (or kill -9) left behind, and recovery
   reads exactly that. *)
let run_recover_file target_name b dir =
  let finish name size pages check close =
    check ();
    close ();
    Printf.printf "%s: recovered from %s: size=%d pages=%d\n" name dir size
      pages;
    `Ok ()
  in
  match target_name with
  | "btree" ->
      let t = Btree.recover_file ~dir ~b () in
      finish "btree" (Btree.size t)
        (Btree.pages_used t)
        (fun () -> Btree.check_invariants t)
        (fun () -> Btree.close t)
  | "pst3" ->
      let t = Ext_pst3.recover_file ~dir ~b () in
      finish "pst3" (Ext_pst3.size t)
        (Ext_pst3.storage_pages t)
        (fun () -> Ext_pst3.check_invariants t)
        (fun () -> Ext_pst3.close t)
  | other ->
      `Error
        (false,
         Printf.sprintf
           "file-backend recovery supports btree and pst3, not %s" other)

let run_recover target_name nops b seed at torn backend data_dir =
  let module S = Pc_check.Subject in
  let module W = Pc_pagestore.Wal in
  match resolve_backend ~cmd:"recover" ~file_supported:true backend data_dir
  with
  | Error msg -> `Error (false, msg)
  | Ok (Some dir) -> (
      if at <> None || torn then
        `Error
          (false,
           "--at/--torn simulate crash points on the sim backend; the file \
            backend recovers from whatever bytes --data-dir holds")
      else
        try run_recover_file target_name b dir with
        | Invalid_argument msg | Failure msg -> `Error (false, msg)
        | Pc_blockdev.Block_device.Device_error { dev; op; reason; _ } ->
            `Error (false, Printf.sprintf "%s: %s: %s" dev op reason))
  | Ok None -> (
  match S.of_name target_name with
  | None ->
      `Error
        (false,
         Printf.sprintf "unknown target %S (one of: %s)" target_name
           (String.concat ", " (List.map S.name S.all)))
  | Some target -> (
      let rng = Pc_util.Rng.create seed in
      let ops = Pc_check.Dsl.generate rng ~n:nops in
      match at with
      | None ->
          (* Full sweep: crash at every recorded I/O, clean and torn. *)
          let rep = Pc_check.Crash.sweep ~b target ~ops in
          Format.printf "%a@." Pc_check.Crash.pp_report rep;
          if Pc_check.Crash.passed rep then `Ok () else exit 1
      | Some ios ->
          (* One crash point: run the workload journaled, power-fail at
             I/O [ios], recover, and report what recovery cost. *)
          let t = S.start ~b ~durability:true target in
          Array.iter (fun op -> ignore (S.apply t op)) ops;
          S.check t;
          let wal = Option.get (S.wal t) in
          let points = W.crash_points wal in
          if ios > points || (torn && ios >= points) then
            `Error
              (false,
               Printf.sprintf "crash index %d out of range (workload recorded %d I/Os)"
                 ios points)
          else begin
            let r = W.recover (W.image_at ~torn wal ~ios) in
            Format.printf
              "%s: crashed at I/O %d/%d%s -> recovered to op %s@."
              (S.name target) ios points
              (if torn then " (torn)" else "")
              (match (r.W.r_meta, r.W.r_tag) with
              | None, _ -> "(nothing committed: empty structure)"
              | Some _, -1 -> "(initial build)"
              | Some _, tag -> string_of_int tag);
            Format.printf "recovery cost: %a@." Pc_pagestore.Io_stats.pp
              r.W.r_stats;
            (match r.W.r_damaged with
            | [] -> ()
            | d -> Format.printf "damaged pages: %d@." (List.length d));
            `Ok ()
          end))

let recover_cmd =
  let doc =
    "Crash-recovery demonstration: run a journaled workload against a \
     structure, simulate power loss, and recover from the disk image \
     alone. With $(b,--at) $(i,K), crashes at I/O index $(i,K) and \
     prints which operation prefix survived and what recovery cost; \
     without it, sweeps every I/O index (clean and torn) and verifies \
     recovery is idempotent and matches the committed oracle prefix."
  in
  let target_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET"
           ~doc:"Structure to recover (e.g. btree, dynamic, stabbing).")
  in
  let ops_arg =
    Arg.(value & opt int 24 & info [ "ops" ] ~docv:"N"
           ~doc:"Workload length (generated, deterministic in --seed).")
  in
  let at_arg =
    Arg.(value & opt (some int) None & info [ "at" ] ~docv:"K"
           ~doc:"Crash at I/O index $(i,K) instead of sweeping all.")
  in
  let torn_arg =
    Arg.(value & flag & info [ "torn" ]
           ~doc:"The in-flight write at the crash index reaches the disk \
                 half-transferred.")
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(ret
            (const run_recover $ target_arg $ ops_arg $ b_arg $ seed_arg
             $ at_arg $ torn_arg $ backend_arg $ data_dir_arg))

let check_cmd =
  let doc =
    "Replay a .repro counterexample written by the differential stress \
     harness (check/stress.exe): re-executes the recorded workload \
     against the named structure and its in-memory model. Exits 0 if the \
     run passes, 1 if it still diverges."
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:".repro file.")
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(ret (const run_check $ file_arg))

let () =
  let doc = "Path caching (PODS'94): optimal external searching structures." in
  let info = Cmd.info "pathcache_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            pst_cmd;
            pst3_cmd;
            stab_cmd;
            btree_cmd;
            replay_cmd;
            recover_cmd;
            profile_cmd;
            advise_cmd;
            serve_metrics_cmd;
            check_cmd;
          ]))
