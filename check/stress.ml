(* Randomized differential stress driver, the CI entry point:

     dune exec check/stress.exe -- --budget 30s --seeds 32

   Sweeps seeds x all nine targets with fresh generated workloads, then a
   fault-injection sweep (every fault kind x every target). On failure the
   workload is shrunk and written as a .repro file for
   [pathcache_cli check]; the exit code is the number of failures. *)

open Pc_check

let parse_budget s =
  let len = String.length s in
  if len = 0 then invalid_arg "empty --budget";
  let num mul k = float_of_string (String.sub s 0 k) *. mul in
  match s.[len - 1] with
  | 's' -> num 1. (len - 1)
  | 'm' -> num 60. (len - 1)
  | 'h' -> num 3600. (len - 1)
  | _ -> float_of_string s

let () =
  let budget = ref 30. in
  let seeds = ref 32 in
  let ops = ref 400 in
  let b = ref 8 in
  let out = ref "_repros" in
  let crash = ref false in
  let chaos = ref false in
  let domains = ref 0 in
  let spec =
    [
      ( "--budget",
        Arg.String (fun s -> budget := parse_budget s),
        "DUR  wall-clock budget, e.g. 30s, 2m (default 30s)" );
      ("--seeds", Arg.Set_int seeds, "N  seeds to sweep (default 32)");
      ("--ops", Arg.Set_int ops, "N  operations per workload (default 400)");
      ("--b", Arg.Set_int b, "B  page size (default 8)");
      ("--out", Arg.Set_string out, "DIR  where to write .repro files");
      ( "--crash",
        Arg.Set crash,
        "  crash-point sweep only: power-fail at every I/O (sim backend) \
         and at every journal frame boundary (file backend) and verify \
         recovery" );
      ( "--chaos",
        Arg.Set chaos,
        "  chaos sweep only: every fault-tolerance cell (flaky device \
         under mem and file trees, quarantine, give-up, breaker) per \
         seed; see Chaos" );
      ( "--domains",
        Arg.Set_int domains,
        "N  concurrent sweep only: N domains of generated workloads \
         against one shared store, histories checked for linearizability" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "stress [--budget 30s] [--seeds 32] [--ops 400] [--b 8] [--out DIR] \
     [--crash] [--chaos] [--domains N]";
  let deadline = Unix.gettimeofday () +. !budget in
  let failures = ref 0 in
  let runs = ref 0 in
  let ensure_out () =
    try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  in
  let out_of_time () = Unix.gettimeofday () > deadline in
  if !domains > 0 then begin
    (* Concurrent sweep: each seed runs N domains of generated
       operations against one shared store, then the recorded
       invocation/response history must be linearizable against the
       in-memory oracle. Violations are shrunk to a minimal
       sub-history and written as .repro files for [pathcache_cli
       check]; inconclusive searches are reported but do not fail the
       sweep (they are budget exhaustion, not evidence). *)
    let per_domain = max 1 (!ops / !domains) in
    let inconclusive = ref 0 in
    let checkpoints = ref 0 in
    (try
       for seed = 0 to !seeds - 1 do
         if out_of_time () then raise Exit;
         incr runs;
         let store, history =
           Lin.run ~b:!b ~domains:!domains ~per_domain ~seed ()
         in
         Pc_conc.Shared_store.check_invariants store;
         checkpoints := !checkpoints + Pc_conc.Shared_store.checkpoints store;
         match Lin.check history with
         | Lin.Linearizable -> ()
         | Lin.Inconclusive msg ->
             incr inconclusive;
             Format.printf "INCONCLUSIVE seed=%d: %s@." seed msg
         | Lin.Violation small ->
             incr failures;
             ensure_out ();
             let path =
               Filename.concat !out
                 (Printf.sprintf "lin-d%d-seed%d.repro" !domains seed)
             in
             Lin.save small path;
             Format.printf
               "FAIL seed=%d: non-linearizable history, shrunk %d -> %d \
                calls, wrote %s@.%a"
               seed
               (Array.length history.Lin.calls)
               (Array.length small.Lin.calls)
               path Lin.pp_history small
       done
     with Exit -> ());
    Format.printf
      "stress --domains %d: %d runs x %d ops/domain, %d checkpoint(s), %d \
       failure(s), %d inconclusive%s@."
      !domains !runs per_domain !checkpoints !failures !inconclusive
      (if out_of_time () then " (budget exhausted)" else "");
    exit (min 1 !failures)
  end;
  if !chaos then begin
    (* Chaos sweep: every fault-tolerance cell — transient / torn /
       stalled faults absorbed exactly, latent sectors degraded but
       never wrong, give-ups typed with full recovery, the durable
       committed prefix surviving device faults, give-ups past a
       journaled tree's commit point never surfacing, and the breaker's
       degrade -> probe -> recover cycle. Cells are deterministic in
       (b, seed); a FAIL line replays with the same flags. *)
    let root =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pc-stress-chaos-%d" (Unix.getpid ()))
    in
    (try
       for seed = 0 to !seeds - 1 do
         if out_of_time () then raise Exit;
         let reports = Chaos.run_all ~ops:!ops ~b:!b ~seed ~root () in
         List.iter
           (fun r ->
             incr runs;
             if not (Chaos.passed r) then begin
               incr failures;
               Format.printf "FAIL seed=%d %a@." seed Chaos.pp_report r;
               List.iter
                 (fun v -> Format.printf "  violation: %s@." v)
                 r.Chaos.c_violations
             end)
           reports
       done
     with Exit -> ());
    Format.printf "stress --chaos: %d cell(s), %d failure(s)%s@." !runs
      !failures
      (if out_of_time () then " (budget exhausted)" else "");
    exit (min 1 !failures)
  end;
  if !crash then begin
    (* Crash-point sweep: power-fail at every recorded I/O of each
       workload, recover from the disk image alone, verify against the
       committed prefix. Workloads are kept short — each one costs
       O(crash points) full recoveries. *)
    let crash_ops = min !ops 24 in
    (try
       for seed = 0 to !seeds - 1 do
         let rng = Pc_util.Rng.create seed in
         List.iter
           (fun target ->
             if out_of_time () then raise Exit;
             let sub = Pc_util.Rng.split rng in
             let workload = Dsl.generate sub ~n:crash_ops in
             incr runs;
             match Crash.check ~b:!b target ~ops:workload with
             | Ok _ -> ()
             | Error (rep, small) ->
                 incr failures;
                 Format.printf "FAIL %a@." Crash.pp_report rep;
                 ensure_out ();
                 let path =
                   Filename.concat !out
                     (Printf.sprintf "%s-seed%d-crash.repro"
                        (Subject.name target) seed)
                 in
                 Repro.save
                   { target; seed; b = !b; fault = None; crash = true;
                     ops = small }
                   path;
                 Format.printf "  shrunk %d -> %d ops, wrote %s@."
                   (Array.length workload) (Array.length small) path)
           Subject.all
       done
     with Exit -> ());
    (* File-backend sweep: the same discipline against real bytes in a
       temp directory — the journal is cut at every frame boundary and
       torn mid-frame (including the final sector), and each image is
       recovered from the directory alone. *)
    (try
       for seed = 0 to min (!seeds - 1) 3 do
         if out_of_time () then raise Exit;
         incr runs;
         let root =
           Filename.concat
             (Filename.get_temp_dir_name ())
             (Printf.sprintf "pc-stress-crash-%d-%d" (Unix.getpid ()) seed)
         in
         let rep =
           Crash_file.sweep ~b:!b ~root ~n:(min crash_ops 12) ~seed ()
         in
         if Crash_file.passed rep then ()
         else begin
           incr failures;
           Format.printf "FAIL seed=%d %a@." seed Crash_file.pp_report rep
         end
       done
     with Exit -> ());
    Format.printf "stress --crash: %d sweeps, %d failure(s)%s@." !runs
      !failures
      (if out_of_time () then " (budget exhausted)" else "");
    exit (min 1 !failures)
  end;
  let report ~seed ~fault target ops outcome =
    incr failures;
    Format.printf "FAIL %s seed=%d: %a@." (Subject.name target) seed
      Engine.pp_outcome outcome;
    (* Shrink against the same predicate that failed, then persist. *)
    let fails ops =
      match fault with
      | None -> Engine.run ~b:!b target ~ops <> Engine.Pass
      | Some k ->
          let plan = Pc_pagestore.Fault_plan.make k in
          let o, _, _ = Engine.run_faulted ~b:!b target ~ops ~plan in
          o <> Engine.Pass
    in
    let small = Shrink.minimize fails ops in
    ensure_out ();
    let path =
      Filename.concat !out
        (Printf.sprintf "%s-seed%d%s.repro" (Subject.name target) seed
           (match fault with
           | None -> ""
           | Some k ->
               "-" ^ String.map (function ' ' -> '_' | c -> c)
                       (Pc_pagestore.Fault_plan.kind_to_string k)))
    in
    Repro.save { target; seed; b = !b; fault; crash = false; ops = small } path;
    Format.printf "  shrunk %d -> %d ops, wrote %s@." (Array.length ops)
      (Array.length small) path
  in
  (* clean differential sweep *)
  (try
     for seed = 0 to !seeds - 1 do
       let rng = Pc_util.Rng.create seed in
       List.iter
         (fun target ->
           if out_of_time () then raise Exit;
           let sub = Pc_util.Rng.split rng in
           let workload = Dsl.generate sub ~n:!ops in
           incr runs;
           match Engine.run ~b:!b target ~ops:workload with
           | Engine.Pass -> ()
           | outcome -> report ~seed ~fault:None target workload outcome)
         Subject.all
     done
   with Exit -> ());
  (* fault-injection sweep: typed error or oracle-correct, never silent *)
  let fault_kinds =
    Pc_pagestore.Fault_plan.
      [
        Fail_stop { at = 7 };
        Transient { every = 5; fails = 1; retries = 2 };
        Transient { every = 6; fails = 4; retries = 2 };
        (* fails = retries: the last permitted reissue must succeed *)
        Transient { every = 4; fails = 2; retries = 2 };
        Torn_write { at = 5 };
      ]
  in
  (try
     List.iter
       (fun kind ->
         List.iter
           (fun target ->
             if out_of_time () then raise Exit;
             let seed = 1000 + !runs in
             let rng = Pc_util.Rng.create seed in
             let workload = Dsl.generate rng ~n:(min 200 !ops) in
             incr runs;
             let plan = Pc_pagestore.Fault_plan.make kind in
             match Engine.run_faulted ~b:!b target ~ops:workload ~plan with
             | Engine.Pass, _, _ -> ()
             | outcome, _, _ ->
                 report ~seed ~fault:(Some kind) target workload outcome)
           Subject.all)
       fault_kinds
   with Exit -> ());
  Format.printf "stress: %d runs, %d failure(s)%s@." !runs !failures
    (if out_of_time () then " (budget exhausted)" else "");
  exit (min 1 !failures)
