(* The served workloads (read_long, mixed_rw): serve.exe as a child
   process with one worker domain, driven over loopback by one
   closed-loop connection: the next request goes out only after the
   previous reply. One connection and one worker, on the one CPU run.sh
   pins the benchmark to, hand each request over without a cross-CPU
   wake-up; with more threads than CPUs the numbers measured the
   scheduler as much as the server.

   With --trace the recorded request stream is replayed three times
   after the measured run, and the replays split the measured round trip
   into layers:
   - over the socket against a fresh serve.exe, with one [ping] per 64
     requests (the wire and session cost of a request that does no store
     work);
   - in-process against a Shared_store built from the same points (the
     store call);
   - reads only, against a standalone Btree and Ext_pst3 built exactly
     as Shared_store builds its snapshot (the structure call).
   The store call minus the structure call is the overlay merge; the
   round trip minus the ping and the store call is the server's residual
   (parse, format, scheduling). *)

module Point = Pc_util.Point
module Shared_store = Pc_conc.Shared_store
module Breaker = Pc_conc.Breaker
module Client = Pc_server.Server.Client
module Wire = Pc_server.Wire
module Btree = Pc_btree.Btree
module Ext_pst3 = Pc_threesided.Ext_pst3
module Pager = Pc_pagestore.Pager
module Io_stats = Pc_pagestore.Io_stats
module Query_stats = Pc_pagestore.Query_stats

let workers = 1

(* Shared_store.create's configuration in serve.exe and in the replay,
   mirroring the server's default store. *)
let b = 8
let checkpoint_every = 512

let new_store pts =
  Shared_store.create ~b ~checkpoint_every ~breaker:(Breaker.create ()) pts

let now = Clock.now
let ratio = Stats.ratio

type shape = { t : int; write_pct : int }

let shape = function
  | "read_long" -> { t = 800; write_pct = 0 }
  | "mixed_rw" -> { t = 25; write_pct = 10 }
  | w -> invalid_arg ("not a served workload: " ^ w)

(* The latency block (see Latency) of request [i], sent after [writes]
   writes: 1 000 requests, about half a second here; with writes, one
   checkpoint cycle, so that every block ends with the one write that
   rebuilt the store's snapshot. *)
let block shape ~i ~writes =
  if shape.write_pct > 0 then writes / checkpoint_every else i / 1_000

let is_err = String.starts_with ~prefix:"err"

let request c line =
  match Client.request c line with
  | Ok s -> s
  | Error e -> failwith (Wire.error_to_string e)

(* ------------------------------------------------------------------ *)
(* serve.exe                                                          *)
(* ------------------------------------------------------------------ *)

type server = { proc : Proc.t; port : int; setup_s : float }

(* Spawns serve.exe over [points] and opens the store: set-up time runs
   from the spawn to the first "ok opened". *)
let start ~exe ~points ~n =
  let t0 = now () in
  let proc =
    Proc.spawn exe
      [ "serve"; "--points"; points; "--workers"; string_of_int workers ]
  in
  let port = Scanf.sscanf (Proc.line proc) "port %d" Fun.id in
  let c = Client.connect ~port () in
  let reply = request c "open bench" in
  let setup_s = now () -. t0 in
  Client.close c;
  if reply <> Printf.sprintf "ok opened bench size=%d" n then
    failwith ("serve.exe open: " ^ reply);
  { proc; port; setup_s }

(* A short-lived connection for control requests; a connection idle
   through the measured window would hit the server's idle timeout. *)
let control s f =
  let c = Client.connect ~port:s.port () in
  Fun.protect
    ~finally:(fun () -> try Client.close c with Unix.Unix_error _ -> ())
    (fun () ->
      ignore (request c "open bench");
      f c)

(* Drains the server with [shutdown] and returns its last output lines. *)
let stop s =
  control s (fun c -> ignore (request c "shutdown"));
  Proc.wait s.proc

(* ------------------------------------------------------------------ *)
(* The measured run                                                   *)
(* ------------------------------------------------------------------ *)

type run = {
  reqs : Gen.req array; (* every request sent, warm-up included *)
  lat : Latency.t;
  errors : string list; (* err replies and wire errors *)
  samples : (Gen.req * string) list; (* every 16th read and its reply *)
  acked : Gen.req list; (* acknowledged writes, newest first *)
  bad_deletes : int; (* deletes of a live id answered [ok false] *)
}

let drive ~port ~shape ~n ~seed ~budget ~sample =
  let rng = Gen.rng ~seed ~stream:Gen.request_stream in
  let w = Gen.writer rng ~n in
  let c = Client.connect ~port () in
  ignore (request c "open bench");
  let reqs = ref [] and errors = ref [] and samples = ref [] in
  let acked = ref [] and lat = Latency.create () in
  let i = ref 0 and reads = ref 0 and writes = ref 0 and bad_deletes = ref 0 in
  let alive = ref true in
  while !alive && Budget.continue budget !i do
    let req = Gen.next ~n ~t:shape.t ~write_pct:shape.write_pct rng w in
    reqs := req :: !reqs;
    let block = block shape ~i:!i ~writes:!writes in
    if not (Gen.is_read req) then incr writes;
    let t0 = now () in
    let reply = Client.request c (Gen.to_wire req) in
    let t1 = now () in
    (match reply with
    | Error e ->
        errors := Wire.error_to_string e :: !errors;
        alive := false
    | Ok s when is_err s -> errors := s :: !errors
    | Ok s -> (
        Latency.add lat budget ~i:!i ~block req t0 t1;
        match req with
        | Gen.Krange _ | Gen.Q3 _ ->
            incr reads;
            if sample && !reads mod 16 = 0 then samples := (req, s) :: !samples
        | Gen.Insert _ -> if s = "ok" then acked := req :: !acked
        | Gen.Delete _ ->
            if s = "ok true" then acked := req :: !acked
            else incr bad_deletes));
    incr i
  done;
  (try Client.close c with Unix.Unix_error _ -> ());
  {
    reqs = Array.of_list (List.rev !reqs);
    lat;
    errors = !errors;
    samples = !samples;
    acked = !acked;
    bad_deletes = !bad_deletes;
  }

(* The point set after the run: initial points, minus acknowledged
   deletes, plus acknowledged inserts. *)
let final_points pts run =
  let live = Hashtbl.create (Array.length pts) in
  Array.iter (fun (p : Point.t) -> Hashtbl.replace live p.id p) pts;
  List.iter
    (function
      | Gen.Insert p -> Hashtbl.replace live p.id p
      | Gen.Delete id -> Hashtbl.remove live id
      | Gen.Krange _ | Gen.Q3 _ -> ())
    (List.rev run.acked);
  Hashtbl.fold (fun _ p acc -> p :: acc) live []

let stat_field reply key =
  List.find_map
    (fun kv ->
      match String.split_on_char '=' kv with
      | [ k; v ] when k = key -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char ' ' reply)

(* After the window: the store's counters, and for mixed_rw 64 probe
   reads and the size against the acknowledged state. *)
let post_checks r s ~shape ~pts ~seed ~run =
  control s (fun c ->
      let stats = request c "stats" in
      if not (String.starts_with ~prefix:"ok " stats) then
        Report.mismatch r "stats: %s" stats;
      Report.add r "shared_store.checkpoints"
        (float_of_int
           (Option.value ~default:0 (stat_field stats "checkpoints")))
        "count" ~note:"info";
      if shape.write_pct > 0 then begin
        let final = final_points pts run in
        let expected = List.length final in
        if stat_field stats "size" <> Some expected then
          Report.mismatch r "store size %s, expected %d" stats expected;
        let o = Gen.oracle final in
        let rng = Gen.rng ~seed ~stream:Gen.probe_stream in
        for _ = 1 to 64 do
          let req = Gen.read rng ~n:(Array.length pts) ~t:shape.t in
          let got = request c (Gen.to_wire req) in
          if Gen.expected_reply o req <> Some got then
            Report.mismatch r "probe %s: wrong answer" (Gen.to_wire req)
        done
      end)

let check_samples r ~pts run =
  let o = Gen.oracle (Array.to_list pts) in
  List.iter
    (fun (req, reply) ->
      if Gen.expected_reply o req <> Some reply then
        Report.mismatch r "%s: wrong answer" (Gen.to_wire req))
    run.samples;
  if run.bad_deletes > 0 then
    Report.mismatch r "%d delete(s) of live ids answered false" run.bad_deletes

(* Error replies by kind ([err busy], [err deadline], ...); returns the
   number of failed requests. *)
let count_errors r run =
  List.iter
    (fun kind ->
      let c =
        List.length
          (List.filter
             (fun e ->
               match String.split_on_char ' ' e with
               | "err" :: k :: _ -> k = kind
               | _ -> false)
             run.errors)
      in
      Report.add r ("server.err_" ^ kind) (float_of_int c) "count" ~note:"info")
    [ "busy"; "deadline"; "degraded"; "internal" ];
  List.length run.errors

(* ------------------------------------------------------------------ *)
(* The traced replay                                                  *)
(* ------------------------------------------------------------------ *)

type socket_pass = {
  rtt : float; (* summed round trips, seconds *)
  span_ids : int array; (* each request's span, parent of its replays *)
  pings : float; (* summed ping round trips *)
  n_pings : int;
  reply_bytes : int; (* over reads *)
  failures : int;
  elapsed : float;
}

let socket_replay ~port reqs spans =
  let c = Client.connect ~port () in
  ignore (request c "open bench");
  let span_ids = Array.make (Array.length reqs) 0 in
  let rtt = ref 0. and pings = ref 0. and n_pings = ref 0 in
  let bytes = ref 0 and failures = ref 0 in
  let started = now () in
  Array.iteri
    (fun i req ->
      if i mod 64 = 0 then begin
        let t0 = now () in
        ignore (request c "ping");
        let t1 = now () in
        pings := !pings +. (t1 -. t0);
        incr n_pings;
        ignore (Span.record spans ~layer:"wire" ~op:"ping" ~req:i t0 t1)
      end;
      let t0 = now () in
      let reply = Client.request c (Gen.to_wire req) in
      let t1 = now () in
      rtt := !rtt +. (t1 -. t0);
      (match reply with
      | Ok s when not (is_err s) ->
          if Gen.is_read req then bytes := !bytes + String.length s
      | _ -> incr failures);
      span_ids.(i) <-
        Span.record spans ~layer:"client" ~op:(Gen.op_name req) ~req:i t0 t1)
    reqs;
  let elapsed = now () -. started in
  (try Client.close c with Unix.Unix_error _ -> ());
  {
    rtt = !rtt;
    span_ids;
    pings = !pings;
    n_pings = !n_pings;
    reply_bytes = !bytes;
    failures = !failures;
    elapsed;
  }

(* The in-process store replay: every call timed, the overlay sampled at
   every 16th read (stats walks the snapshot's maps, so outside the
   timing), checkpoint rebuilds caught by the writes that ran them.
   Returns the store's total and write time, and the read count. *)
let store_replay r pts reqs ~parents spans =
  let store = new_store (Array.to_list pts) in
  let by_op = Hashtbl.create 4 and overlay = Stats.buf () in
  let reads = ref 0 and writes = ref 0 and write_s = ref 0. in
  let checkpoints = ref 0 and checkpoint_s = ref 0. and rebuilt = ref 0 in
  Array.iteri
    (fun i req ->
      let ck = Shared_store.checkpoints store in
      let t0 = now () in
      (match req with
      | Gen.Krange (lo, hi) -> ignore (Shared_store.krange store ~lo ~hi)
      | Gen.Q3 (xl, xr, yb) -> ignore (Shared_store.query3 store ~xl ~xr ~yb)
      | Gen.Insert p -> Shared_store.insert store p
      | Gen.Delete id -> ignore (Shared_store.delete store id));
      let t1 = now () in
      let op = Gen.op_name req in
      if not (Hashtbl.mem by_op op) then
        Hashtbl.replace by_op op (Stats.buf ());
      Stats.add (Hashtbl.find by_op op) ((t1 -. t0) *. 1e6);
      ignore
        (Span.record spans ~parent:parents.(i) ~layer:"shared_store" ~op ~req:i
           t0 t1);
      if Gen.is_read req then begin
        incr reads;
        if !reads mod 16 = 0 then begin
          let st = Shared_store.stats store in
          Stats.add overlay (float_of_int (st.st_adds + st.st_dels))
        end
      end
      else begin
        incr writes;
        write_s := !write_s +. (t1 -. t0);
        if Shared_store.checkpoints store > ck then begin
          incr checkpoints;
          checkpoint_s := !checkpoint_s +. (t1 -. t0);
          rebuilt := !rebuilt + Shared_store.size store
        end
      end)
    reqs;
  List.iter
    (fun (op, name) ->
      Option.iter
        (fun buf ->
          Report.add r (name ^ "_us")
            (Stats.pct (Stats.sorted buf) 50.)
            "us" ~note:"info p50";
          Report.add r (name ^ "_total_s")
            (Stats.total buf /. 1e6)
            "s" ~note:"info")
        (Hashtbl.find_opt by_op op))
    [
      ("krange", "shared_store.krange");
      ("q3", "shared_store.query3");
      ("insert", "shared_store.insert");
      ("delete", "shared_store.delete");
    ];
  Report.add r "shared_store.overlay_mean" (Stats.mean overlay) "points";
  Report.add r "shared_store.checkpoint_ms"
    (ratio (!checkpoint_s *. 1e3) (float_of_int !checkpoints))
    "ms"
    ~note:(Printf.sprintf "info mean of %d rebuilds" !checkpoints);
  Report.add r "shared_store.rebuild_points_per_write"
    (ratio (float_of_int !rebuilt) (float_of_int !writes))
    "points";
  let total = Hashtbl.fold (fun _ b acc -> acc +. Stats.total b) by_op 0. in
  (total /. 1e6, !write_s, !reads)

(* The reads against a standalone Btree and Ext_pst3, built as
   Shared_store builds its snapshot: call time, pages, output size. *)
let structure_replay r pts reqs ~parents spans =
  let pt_list = Array.to_list pts in
  let entries =
    List.sort Point.compare_xy pt_list
    |> List.map (fun (p : Point.t) -> (p.x, p.y))
  in
  let bt = Btree.bulk_load_in ~cache_capacity:0 ~b entries in
  let p3 = Ext_pst3.create ~cache_capacity:0 ~mode:Ext_pst3.Cached ~b pt_list in
  let bt_t = Tally.create () and p3_t = Tally.create () in
  let bt_us = Stats.buf () and p3_us = Stats.buf () in
  let timed i layer op (tally : Tally.t) us f =
    let t0 = now () in
    let v = f () in
    let t1 = now () in
    ignore (Span.record spans ~parent:parents.(i) ~layer ~op ~req:i t0 t1);
    Stats.add us ((t1 -. t0) *. 1e6);
    tally.time <- tally.time +. (t1 -. t0);
    v
  in
  Array.iteri
    (fun i req ->
      match req with
      | Gen.Krange (lo, hi) ->
          let before = Io_stats.snapshot (Pager.stats (Btree.pager bt)) in
          let got =
            timed i "btree" "range" bt_t bt_us (fun () ->
                Btree.range bt ~lo ~hi)
          in
          let d = Io_stats.diff ~after:(Pager.stats (Btree.pager bt)) ~before in
          let pages = d.reads + d.cache_hits and outputs = List.length got in
          Tally.add bt_t ~pages ~outputs
            (Btree.conformance bt ~t_out:outputs ~measured:pages)
      | Gen.Q3 (xl, xr, yb) ->
          let got, qs =
            timed i "ext_pst3" "query" p3_t p3_us (fun () ->
                Ext_pst3.query p3 ~xl ~xr ~yb)
          in
          let pages = Query_stats.total qs and outputs = List.length got in
          Tally.add p3_t ~pages ~outputs
            (Ext_pst3.conformance p3 ~t_out:outputs ~measured:pages)
      | Gen.Insert _ | Gen.Delete _ -> ())
    reqs;
  Report.add r "btree.range_us" (Stats.pct (Stats.sorted bt_us) 50.) "us";
  Report.add r "ext_pst3.query_us" (Stats.pct (Stats.sorted p3_us) 50.) "us";
  Tally.report r ~b "btree" bt_t;
  Tally.report r ~b "ext_pst3" p3_t;
  (bt_t, p3_t)

(* The replays cover the first [replay_cap] requests of the stream:
   enough for stable shares, and it bounds the span file. *)
let replay_cap = 20_000

let replay r ~exe ~points ~pts ~run ~ops_s ~trace_file =
  let reqs = Array.sub run.reqs 0 (min replay_cap (Array.length run.reqs)) in
  let origin = now () in
  let s = start ~exe ~points ~n:(Array.length pts) in
  let socket_spans = Span.buf ~prefix:1 in
  let pass = socket_replay ~port:s.port reqs socket_spans in
  ignore (stop s);
  let parents = pass.span_ids in
  let store_spans = Span.buf ~prefix:2 in
  let store_s, write_s, reads = store_replay r pts reqs ~parents store_spans in
  let struct_spans = Span.buf ~prefix:3 in
  let bt, p3 = structure_replay r pts reqs ~parents struct_spans in
  Span.write trace_file ~origin [ socket_spans; store_spans; struct_spans ];
  (* the layer table, on totals: the wire is a ping per request, the
     residual what the round trip spends beyond the ping and the store *)
  let wall = pass.rtt in
  let n_req = float_of_int (Array.length reqs) in
  let ping = pass.pings /. float_of_int pass.n_pings in
  let residual = wall -. (ping *. n_req) -. store_s in
  let merge = store_s -. write_s -. bt.time -. p3.time in
  r.wall <- wall;
  Report.layer r "wire" (ping *. n_req);
  Report.layer r ~derived:true "server_residual" residual;
  Report.layer r ~derived:true "shared_store_merge" merge;
  Report.layer r "shared_store_write" write_s;
  Report.layer r "btree" bt.time;
  Report.layer r "ext_pst3" p3.time;
  let reads = float_of_int reads in
  Report.add r "wire.ping_us" (ping *. 1e6) "us" ~note:"info mean";
  Report.add r "server.residual_us"
    (residual /. n_req *. 1e6)
    "us" ~note:"info mean per request";
  Report.add r "shared_store.merge_us"
    (ratio (merge *. 1e6) reads)
    "us" ~note:"info mean per read";
  Report.add r "wire.reply_bytes"
    (ratio (float_of_int pass.reply_bytes) reads)
    "bytes";
  Report.add r "server.errors" (float_of_int pass.failures) "count";
  (* capacity-0 pagers: every page access is a read *)
  Report.add r "pager.reads_per_op"
    (ratio (float_of_int (bt.pages + p3.pages)) reads)
    "pages";
  Report.add r "trace.ops_ratio" (n_req /. pass.elapsed /. ops_s) "ratio"

(* ------------------------------------------------------------------ *)
(* One served workload                                                *)
(* ------------------------------------------------------------------ *)

let run ~exe ~dir ~workload ~seed ~n ~budget ~setups ~trace =
  let r = Report.create workload in
  let shape = shape workload in
  let pts = Gen.points ~seed ~n in
  let points = Filename.concat dir (workload ^ "-points.txt") in
  Gen.write_points points pts;
  (* set up [setups] times, keeping the last server for the run *)
  let rec setup k times =
    let s = start ~exe ~points ~n in
    if k = 1 then (s, s.setup_s :: times)
    else begin
      ignore (stop s);
      setup (k - 1) (s.setup_s :: times)
    end
  in
  let s, times = setup setups [] in
  Report.add r "setup_s" (Stats.median times) "s";
  let budget = Budget.start budget in
  let run =
    drive ~port:s.port ~shape ~n ~seed ~budget ~sample:(shape.write_pct = 0)
  in
  post_checks r s ~shape ~pts ~seed ~run;
  Report.add r "peak_rss_mb" (Proc.peak_rss_mb s.proc.pid) "MB";
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "sessions"; v ] ->
          Report.add r "server.sessions" (float_of_string v) "count"
            ~note:"info"
      | _ -> ())
    (stop s);
  check_samples r ~pts run;
  r.attempted <- Array.length run.reqs;
  r.failed <- count_errors r run;
  let ops_s = Latency.report r run.lat in
  Report.add r "err_frac"
    (ratio (float_of_int r.failed) (float_of_int r.attempted))
    "ratio" ~note:"info";
  if trace then
    replay r ~exe ~points ~pts ~run ~ops_s
      ~trace_file:(Filename.concat dir ("trace-" ^ workload ^ ".jsonl"));
  Sys.remove points;
  r
