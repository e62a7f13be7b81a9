(* The end-to-end benchmark: three workloads over the real socket and file
   paths, every answer sample checked against an oracle, each metric
   printed as "workload metric value unit" and, last, one JSON summary
   line. See bench/e2e/README.md.

     main.exe [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1]
              [--repeat R] [--out FILE] [--dir DIR]
     main.exe --smoke [--dir DIR]
     main.exe --spec

   --trace 1 adds the traced replays, the layer table and the span file
   DIR/trace-NAME.jsonl, and the JSON line then holds the per-layer
   metrics instead of the end-to-end ones. --repeat R runs each workload
   R times (seeds S, S+1, ...) and prints median and quartiles per
   metric, marking an end-to-end metric "unresolved" when its spread
   exceeds its bound. --smoke runs every workload at n = 2 000 and
   about 1 000 requests, traced, with correctness checks only. --spec
   prints BENCHMARK.json. The exit code is 1 when any answer, probe or
   recovery check fails. *)

let ( / ) = Filename.concat
let served = [ "read_long"; "mixed_rw" ]

type opts = {
  names : string list;
  seed : int;
  seconds : float;
  trace : bool;
  repeat : int;
  out : string option;
  dir : string;
  smoke : bool;
}

let parse args =
  let get k default = Option.value ~default (Args.opt args k) in
  let smoke = Args.flag args "--smoke" in
  let names =
    match get "--workload" "all" with
    | "all" -> List.map fst Spec.workloads
    | w when List.mem_assoc w Spec.workloads -> [ w ]
    | w -> failwith ("unknown workload " ^ w)
  in
  let trace =
    smoke
    ||
    match Args.opt args "--trace" with
    | Some "0" -> false
    | Some _ -> true
    | None -> Args.flag args "--trace"
  in
  {
    names;
    seed = int_of_string (get "--seed" "1");
    seconds =
      float_of_string (get "--seconds" (string_of_int Spec.run_seconds));
    trace;
    repeat = int_of_string (get "--repeat" "1");
    out = Args.opt args "--out";
    dir = get "--dir" ("bench" / "e2e" / "_out");
    smoke;
  }

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* ------------------------------------------------------------------ *)
(* One run of one workload                                            *)
(* ------------------------------------------------------------------ *)

let serve_exe = Filename.dirname Sys.executable_name / "serve.exe"

(* file_cold runs in serve.exe's file-cold mode: set-up is timed from
   the spawn to its "ready" line, the rest of the report it prints. *)
let file_cold o ~seed ~setups ~budget =
  let r = Report.create "file_cold" in
  let points = o.dir / "file_cold-points.txt" in
  let n = if o.smoke then 2_000 else 20_000 in
  Gen.write_points points (Gen.points ~seed ~n);
  let spawn extra =
    let t0 = Clock.now () in
    let p =
      Proc.spawn serve_exe
        ([ "file-cold"; "--points"; points; "--dir"; o.dir ]
        @ [ "--seed"; string_of_int seed ]
        @ extra)
    in
    if Proc.line p <> "ready" then failwith "file-cold: no ready line";
    (p, Clock.now () -. t0)
  in
  let extra_setups =
    List.init (setups - 1) (fun _ ->
        let p, dt = spawn [ "--setup-only" ] in
        ignore (Proc.wait p);
        dt)
  in
  let trace =
    if o.trace then
      [ "--trace"; "--trace-file"; o.dir / "trace-file_cold.jsonl" ]
    else []
  in
  let p, dt = spawn (Budget.to_args budget @ trace) in
  Report.add r "setup_s" (Stats.median (dt :: extra_setups)) "s";
  List.iter (Report.of_line r) (Proc.wait p);
  Sys.remove points;
  r

let run_once o ~seed name =
  let setups = if o.smoke then 1 else 3 in
  let r =
    if List.mem name served then
      Served.run ~exe:serve_exe ~dir:o.dir ~workload:name ~seed
        ~n:(if o.smoke then 2_000 else 100_000)
        ~budget:(if o.smoke then Budget.Ops 500 else Budget.Seconds o.seconds)
        ~setups ~trace:o.trace
    else
      file_cold o ~seed ~setups
        ~budget:
          (if o.smoke then Budget.Ops 1_000 else Budget.Seconds o.seconds)
  in
  (* the attribution check is a timing check: not at smoke size *)
  if o.trace && not o.smoke then Report.check_layers r;
  r

(* The metrics of the JSON line: the end-to-end ones, or with --trace
   the per-layer ones. *)
let summary o (r : Report.t) =
  let measured name unit =
    match Report.find r name with
    | Some m when m.unit = unit -> m.value
    | Some m ->
        Printf.ksprintf failwith "%s: unit %s, spec says %s" name m.unit unit
    | None -> Printf.ksprintf failwith "%s: %s not measured" r.workload name
  in
  let crosses = function
    | Spec.All -> true
    | Spec.Served -> List.mem r.workload served
    | Spec.File -> r.workload = "file_cold"
  in
  if o.trace then
    List.map
      (fun (l : Spec.layer) ->
        let v =
          match String.split_on_char '.' l.lname with
          | [ "share"; row ] -> Report.share r row
          | _ -> if crosses l.scope then measured l.lname l.lunit else 0.
        in
        (l.lname, v, l.lunit))
      Spec.per_layer
  else
    List.map
      (fun (m : Spec.e2e) -> (m.name, measured m.name m.unit, m.unit))
      Spec.end_to_end

let print_run o oc (r : Report.t) =
  List.iter
    (fun m ->
      let line = Report.metric_line r m in
      print_endline line;
      Option.iter (fun oc -> output_string oc (line ^ "\n")) oc)
    (Report.metrics r);
  if o.trace then begin
    Report.print_layers r;
    match (Report.value r "ops_s", Report.value r "trace.ops_ratio") with
    | Some ops, Some ratio ->
        Printf.printf
          "%s tracing overhead: traced %.0f ops/s vs untraced %.0f ops/s\n"
          r.workload (ops *. ratio) ops
    | _ -> ()
  end;
  List.iter
    (Printf.printf "%s MISMATCH %s\n" r.workload)
    (List.rev r.mismatches)

(* --repeat: median and quartiles of every metric over the runs. *)
let print_spread oc name (runs : Report.t list) =
  List.iter
    (fun (m : Report.metric) ->
      let vs = List.filter_map (fun r -> Report.value r m.name) runs in
      let q1, med, q3 = Stats.quartiles vs in
      let spread = if med <> 0. then (q3 -. q1) /. Float.abs med else 0. in
      let verdict =
        match Spec.bound m.name with
        | Some b when spread > b -> Printf.sprintf " unresolved (bound %g)" b
        | Some b -> Printf.sprintf " (bound %g)" b
        | None -> ""
      in
      let line =
        Printf.sprintf "%s %s %.17g %s q1=%.6g q3=%.6g spread=%.1f%% n=%d%s"
          name m.name med m.unit q1 q3 (100. *. spread) (List.length vs)
          verdict
      in
      print_endline line;
      Option.iter (fun oc -> output_string oc (line ^ "\n")) oc)
    (Report.metrics (List.hd runs))

(* The JSON line's metrics: medians over the repeats, named
   workload.metric when several workloads ran. *)
let medians o results =
  List.concat_map
    (fun (name, runs) ->
      let per_run = List.map (summary o) runs in
      List.mapi
        (fun i (metric, _, unit) ->
          let vs =
            List.map
              (fun s ->
                let _, v, _ = List.nth s i in
                v)
              per_run
          in
          let metric =
            if List.length o.names > 1 then name ^ "." ^ metric else metric
          in
          (metric, Stats.median vs, unit))
        (List.hd per_run))
    results

let main o =
  if not (Sys.file_exists serve_exe) then
    failwith (serve_exe ^ " is missing: dune build bench/e2e/serve.exe");
  mkdir_p o.dir;
  let oc = Option.map open_out o.out in
  let results =
    List.map
      (fun name ->
        let runs =
          List.init o.repeat (fun k ->
              let r = run_once o ~seed:(o.seed + k) name in
              print_run o (if o.repeat = 1 then oc else None) r;
              r)
        in
        if o.repeat > 1 then print_spread oc name runs;
        (name, runs))
      o.names
  in
  Option.iter close_out oc;
  let all = List.concat_map snd results in
  let correct = List.for_all (fun (r : Report.t) -> r.mismatches = []) all in
  let total f = List.fold_left (fun a r -> a + f r) 0 all in
  print_endline
    (Report.json ~correct
       ~attempted:(total (fun r -> r.Report.attempted))
       ~failed:(total (fun r -> r.Report.failed))
       (medians o results));
  if not correct then begin
    List.iter
      (fun (r : Report.t) ->
        List.iter
          (Printf.eprintf "%s: %s\n" r.workload)
          (List.rev r.mismatches))
      all;
    exit 1
  end

let () =
  (* a 32 MB minor heap keeps the load generator's own collections,
     which the server waits through, rare *)
  Gc.set { (Gc.get ()) with minor_heap_size = 4 lsl 20 };
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* an interrupted run still reaps its children (Proc's at_exit) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  let args = List.tl (Array.to_list Sys.argv) in
  if Args.flag args "--spec" then print_string (Spec.benchmark_json ())
  else main (parse args)
