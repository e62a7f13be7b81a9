(* Concurrency tests (DESIGN.md §14): the domain-safe buffer pool under
   multi-domain hammering, the Obs single-writer guard, single-domain
   byte-identity of the threadsafe pool, the shared snapshot store
   against its sequential oracle, the linearizability checker on
   crafted and recorded histories, and the wire protocol's edge cases
   (malformed frame, oversized prefix, mid-request disconnect, idle
   timeout). *)

open Pc_bufferpool
module Obs = Pc_obs.Obs
module Point = Pc_util.Point
module Rng = Pc_util.Rng
module Shared_store = Pc_conc.Shared_store
module Lin = Pc_check.Lin
module Dsl = Pc_check.Dsl
module Server = Pc_server.Server
module Wire = Pc_server.Wire

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Satellite 1: QCheck stress — N domains hammering one pool          *)
(* ------------------------------------------------------------------ *)

(* Each domain drives its own client (pools are shared, clients are
   not), doing admit/touch/resident/drain at random. While they run, the
   main domain samples the per-client monotonic counters and asserts
   they never decrease — a torn or non-atomic counter shows up here as a
   backwards step. At quiescence the frame table must be consistent:
   aggregate stats equal to the per-client sums, occupancy within
   capacity. *)
let pool_hammer_rounds seed =
  let domains = 3 and steps = 4_000 and capacity = 24 and pages = 64 in
  let pool = Buffer_pool.create ~threadsafe:true ~capacity () in
  Alcotest.(check bool) "threadsafe" true (Buffer_pool.threadsafe pool);
  let clients =
    Array.init domains (fun d ->
        Buffer_pool.register ~name:(Printf.sprintf "dom%d" d) pool)
  in
  let gate = Atomic.make (domains + 1) in
  let finished = Atomic.make 0 in
  let worker d =
    let c = clients.(d) in
    let rng = Rng.create (seed + (31 * d)) in
    Atomic.decr gate;
    while Atomic.get gate > 0 do
      Domain.cpu_relax ()
    done;
    for _ = 1 to steps do
      let page = Rng.int rng pages in
      match Rng.int rng 100 with
      | r when r < 40 -> Buffer_pool.admit c page
      | r when r < 70 -> Buffer_pool.touch c page
      | r when r < 85 -> ignore (Buffer_pool.resident c page)
      | _ -> ignore (Buffer_pool.drain c)
    done;
    Atomic.incr finished
  in
  let handles =
    Array.init domains (fun d -> Domain.spawn (fun () -> worker d))
  in
  Atomic.decr gate;
  (* sample monotonicity while the workers are actually racing *)
  let last = Array.make domains (0, 0, 0) in
  let samples = ref 0 in
  while Atomic.get finished < domains do
    List.iteri
      (fun i (cs : Buffer_pool.client_stats) ->
        let h, m, e = last.(i) in
        if cs.cs_hits < h || cs.cs_misses < m || cs.cs_evictions < e then
          Alcotest.failf
            "client %d counters went backwards: %d/%d/%d after %d/%d/%d" i
            cs.cs_hits cs.cs_misses cs.cs_evictions h m e;
        last.(i) <- (cs.cs_hits, cs.cs_misses, cs.cs_evictions))
      (Buffer_pool.client_stats pool);
    incr samples;
    Domain.cpu_relax ()
  done;
  Array.iter Domain.join handles;
  check_bool "sampled while racing" true (!samples > 0);
  (* quiescent invariants *)
  let st = Buffer_pool.stats pool in
  let sum f =
    List.fold_left (fun a cs -> a + f cs) 0 (Buffer_pool.client_stats pool)
  in
  check_int "hits aggregate = per-client sum" st.Buffer_pool.hits
    (sum (fun c -> c.Buffer_pool.cs_hits));
  check_int "misses aggregate = per-client sum" st.Buffer_pool.misses
    (sum (fun c -> c.Buffer_pool.cs_misses));
  check_int "evictions aggregate = per-client sum" st.Buffer_pool.evictions
    (sum (fun c -> c.Buffer_pool.cs_evictions));
  check_bool "occupancy bounded" true (Buffer_pool.occupancy pool <= capacity);
  (* draining everything must reconcile without error *)
  Array.iter (fun c -> ignore (Buffer_pool.drain c)) clients;
  true

let prop_pool_hammer =
  QCheck.Test.make ~name:"domain hammer keeps pool invariants" ~count:3
    QCheck.small_nat pool_hammer_rounds

(* ------------------------------------------------------------------ *)
(* Satellite 3: Obs single-writer guard                               *)
(* ------------------------------------------------------------------ *)

let test_obs_cross_domain_guard () =
  (* enabled sink: emitting from another domain must raise *)
  let obs = Obs.create ~sink:(Obs.ring ~capacity:64) () in
  let src = Obs.register obs ~name:"t" in
  Obs.emit src Obs.Read ~page:0;
  let raised =
    Domain.join
      (Domain.spawn (fun () ->
           match Obs.emit src Obs.Read ~page:1 with
           | () -> false
           | exception Obs.Cross_domain_emit { owner; caller } ->
               owner <> caller))
  in
  check_bool "cross-domain emit raises" true raised;
  check_int "owner's event only" 1 (List.length (Obs.events obs));
  (* null sink: freely shareable, the byte-identity contract *)
  let quiet = Obs.create () in
  let qsrc = Obs.register quiet ~name:"q" in
  let ok =
    Domain.join
      (Domain.spawn (fun () ->
           match Obs.emit qsrc Obs.Read ~page:1 with
           | () -> true
           | exception _ -> false))
  in
  check_bool "null-sink emit from any domain" true ok

(* ------------------------------------------------------------------ *)
(* Satellite 2: single-domain byte-identity of the threadsafe pool    *)
(* ------------------------------------------------------------------ *)

(* The same workload through a default pool and a threadsafe pool must
   produce identical I/O counts, identical pool stats, and an
   identical trace — domains=1 behavior is byte-for-byte the
   pre-concurrency pool. *)
let test_threadsafe_byte_identity () =
  let run ~threadsafe =
    let obs = Obs.create ~sink:(Obs.ring ~capacity:4096) () in
    let pool = Buffer_pool.create ~threadsafe ~capacity:8 () in
    let t =
      Pc_btree.Btree.bulk_load_in ~pool ~obs ~b:8
        (List.init 500 (fun i -> (i, i)))
    in
    let rng = Rng.create 7 in
    for _ = 1 to 50 do
      let lo = Rng.int rng 400 in
      ignore (Pc_btree.Btree.range t ~lo ~hi:(lo + 40))
    done;
    for i = 0 to 49 do
      Pc_btree.Btree.insert t ~key:(1000 + i) ~value:i
    done;
    let st = Pc_pagestore.Pager.stats (Pc_btree.Btree.pager t) in
    let pst = Buffer_pool.stats pool in
    ( st.Pc_pagestore.Io_stats.reads,
      st.Pc_pagestore.Io_stats.writes,
      st.Pc_pagestore.Io_stats.cache_hits,
      st.Pc_pagestore.Io_stats.evictions,
      (pst.Buffer_pool.hits, pst.Buffer_pool.misses, pst.Buffer_pool.evictions),
      Obs.events obs )
  in
  let r1, w1, h1, e1, p1, ev1 = run ~threadsafe:false in
  let r2, w2, h2, e2, p2, ev2 = run ~threadsafe:true in
  check_int "reads" r1 r2;
  check_int "writes" w1 w2;
  check_int "cache hits" h1 h2;
  check_int "evictions" e1 e2;
  check_bool "pool stats identical" true (p1 = p2);
  check_bool "traces identical" true (ev1 = ev2)

(* ------------------------------------------------------------------ *)
(* Shared_store vs the sequential oracle                              *)
(* ------------------------------------------------------------------ *)

let test_shared_store_differential () =
  (* a tiny checkpoint threshold so rebuilds happen many times *)
  let store = Shared_store.create ~b:8 ~checkpoint_every:16 [] in
  let model : (int, Point.t) Hashtbl.t = Hashtbl.create 64 in
  let rng = Rng.create 11 in
  let universe = 200 in
  for id = 0 to 599 do
    (match Rng.int rng 100 with
    | r when r < 55 ->
        let p =
          Point.make ~x:(Rng.int rng universe) ~y:(Rng.int rng universe) ~id
        in
        Shared_store.insert store p;
        Hashtbl.replace model id p
    | r when r < 75 ->
        let victim = Rng.int rng (id + 1) in
        let expect = Hashtbl.mem model victim in
        let got = Shared_store.delete store victim in
        Hashtbl.remove model victim;
        check_bool "delete result" expect got
    | r when r < 90 ->
        let a = Rng.int rng universe and b = Rng.int rng universe in
        let lo = min a b and hi = max a b in
        let expect =
          Hashtbl.fold
            (fun _ (p : Point.t) acc ->
              if lo <= p.x && p.x <= hi then (p.x, p.y) :: acc else acc)
            model []
          |> List.sort compare
        in
        check_bool "krange matches model" true
          (Shared_store.krange store ~lo ~hi = expect)
    | _ ->
        let a = Rng.int rng universe and b = Rng.int rng universe in
        let xl = min a b and xr = max a b and yb = Rng.int rng universe in
        let expect =
          Hashtbl.fold
            (fun id (p : Point.t) acc ->
              if xl <= p.x && p.x <= xr && p.y >= yb then id :: acc else acc)
            model []
          |> List.sort compare
        in
        let got =
          Shared_store.query3 store ~xl ~xr ~yb
          |> List.map Point.id |> List.sort compare
        in
        check_bool "query3 matches model" true (got = expect));
    check_int "size matches model" (Hashtbl.length model)
      (Shared_store.size store)
  done;
  Shared_store.check_invariants store;
  check_bool "checkpoints happened" true (Shared_store.checkpoints store > 0);
  (* a forced checkpoint folds the overlay and changes no answers *)
  let before = Shared_store.krange store ~lo:0 ~hi:universe in
  Shared_store.checkpoint_now store;
  check_bool "checkpoint preserves answers" true
    (Shared_store.krange store ~lo:0 ~hi:universe = before)

(* krange merges the tree's sorted answer with the sorted in-range
   inserts. A 6-wide universe makes (x, y) collide, ids are drawn from a
   small pool so inserts re-insert (upsert) live ids, and a checkpoint is
   forced every 37 operations on top of the automatic ones. *)
let test_shared_store_krange_merge () =
  let store = Shared_store.create ~b:4 ~checkpoint_every:24 [] in
  let model : (int, Point.t) Hashtbl.t = Hashtbl.create 64 in
  let rng = Rng.create 19 in
  let universe = 6 in
  for op = 1 to 800 do
    let id = Rng.int rng 60 in
    if Rng.int rng 3 = 0 then begin
      check_bool "delete result" (Hashtbl.mem model id)
        (Shared_store.delete store id);
      Hashtbl.remove model id
    end
    else begin
      let p =
        Point.make ~x:(Rng.int rng universe) ~y:(Rng.int rng universe) ~id
      in
      Shared_store.insert store p;
      Hashtbl.replace model id p
    end;
    if op mod 37 = 0 then Shared_store.checkpoint_now store;
    let lo = Rng.int rng universe - 1 in
    let hi = lo + Rng.int rng (universe + 1) in
    let expect =
      Hashtbl.fold
        (fun _ (p : Point.t) acc ->
          if lo <= p.x && p.x <= hi then (p.x, p.y) :: acc else acc)
        model []
      |> List.sort compare
    in
    check_bool "krange matches sorted oracle" true
      (Shared_store.krange store ~lo ~hi = expect);
    let st = Shared_store.stats store in
    check_int "size" (Hashtbl.length model) st.Shared_store.st_size;
    if op mod 37 = 0 then
      check_int "a checkpoint folds the overlay into the base"
        (Hashtbl.length model) st.st_base
  done;
  Shared_store.check_invariants store;
  check_bool "checkpoints happened" true (Shared_store.checkpoints store > 20)

(* [create] keeps one point per id, the last one given, as [insert]'s
   upsert would: both base structures and the by-id map hold the same
   points. *)
let test_shared_store_create_dedup () =
  let p x y id = Point.make ~x ~y ~id in
  let store = Shared_store.create [ p 1 1 5; p 2 2 5; p 3 3 6 ] in
  let q3 () =
    Shared_store.query3 store ~xl:0 ~xr:10 ~yb:0
    |> List.sort Point.compare_xy |> List.map Point.to_string
  in
  Shared_store.check_invariants store;
  check_int "size" 2 (Shared_store.size store);
  check_bool "krange" true
    (Shared_store.krange store ~lo:0 ~hi:10 = [ (2, 2); (3, 3) ]);
  Alcotest.(check (list string)) "query3" [ "#5(2,2)"; "#6(3,3)" ] (q3 ());
  check_bool "find" true (Shared_store.find store 5 = Some (p 2 2 5));
  check_bool "delete" true (Shared_store.delete store 5);
  check_bool "krange after delete" true
    (Shared_store.krange store ~lo:0 ~hi:10 = [ (3, 3) ]);
  Alcotest.(check (list string)) "query3 after delete" [ "#6(3,3)" ] (q3 ());
  Shared_store.check_invariants store

(* The store answers as a fresh [create] over the model's visible points
   does, after every operation: with a live overlay, and after every
   checkpoint, forced or automatic. A 6-wide universe makes (x, y)
   collide, ids come from a pool of 12 so inserts often re-insert a live
   id, and [checkpoint_every] of 1, 4 and 24 rebuilds after every write,
   often, or rarely. *)
let prop_shared_store_matches_fresh =
  let op =
    QCheck.Gen.(
      triple (int_range 0 9) (int_range 0 11)
        (pair (int_range 0 5) (int_range 0 5)))
  in
  QCheck.Test.make ~name:"shared store answers as a fresh store of its points"
    ~count:100
    QCheck.(
      pair (oneofl [ 1; 4; 24 ]) (make QCheck.Gen.(list_size (1 -- 40) op)))
    (fun (checkpoint_every, ops) ->
      let store = Shared_store.create ~b:4 ~checkpoint_every [] in
      let model : (int, Point.t) Hashtbl.t = Hashtbl.create 16 in
      let grid = List.init 8 (fun i -> i - 1) in
      let pairs =
        List.concat_map (fun a -> List.map (fun c -> (a, c)) grid) grid
      in
      let q3 s ~xl ~xr ~yb =
        List.sort Point.compare_xy (Shared_store.query3 s ~xl ~xr ~yb)
      in
      let agrees () =
        Shared_store.check_invariants store;
        let fresh =
          Shared_store.create ~b:4 (List.of_seq (Hashtbl.to_seq_values model))
        in
        Shared_store.size store = Hashtbl.length model
        && List.for_all
             (fun (lo, hi) ->
               Shared_store.krange store ~lo ~hi
               = Shared_store.krange fresh ~lo ~hi)
             pairs
        && List.for_all
             (fun (xl, xr) ->
               List.for_all
                 (fun yb -> q3 store ~xl ~xr ~yb = q3 fresh ~xl ~xr ~yb)
                 [ -1; 1; 3; 5 ])
             pairs
      in
      List.for_all
        (fun (kind, id, (x, y)) ->
          let ok =
            match kind with
            | 0 ->
                Shared_store.checkpoint_now store;
                true
            | 1 | 2 | 3 ->
                let live = Hashtbl.mem model id in
                Hashtbl.remove model id;
                Shared_store.delete store id = live
            | _ ->
                let p = Point.make ~x ~y ~id in
                Hashtbl.replace model id p;
                Shared_store.insert store p;
                true
          in
          ok && agrees ())
        ops)

(* ------------------------------------------------------------------ *)
(* The linearizability checker on crafted histories                   *)
(* ------------------------------------------------------------------ *)

let call dom idx op inv res out = { Lin.dom; idx; op; inv; res; out }
let p1 = Point.make ~x:5 ~y:5 ~id:1

let test_lin_accepts_overlap () =
  (* krange overlaps the insert, so it may linearize first and see [] *)
  let h =
    {
      Lin.domains = 2;
      calls =
        [|
          call 0 0 (Dsl.Insert p1) 0 3 Lin.O_ok;
          call 1 0 (Dsl.Krange { lo = 0; hi = 10 }) 1 2 (Lin.O_pairs []);
        |];
    }
  in
  check_bool "overlapping stale read is linearizable" true
    (Lin.check h = Lin.Linearizable)

let test_lin_rejects_stale_read () =
  (* the insert completed (res=1) before the krange was invoked (inv=2),
     yet the krange missed the point: no legal order explains it *)
  let h =
    {
      Lin.domains = 1;
      calls =
        [|
          call 0 0 (Dsl.Insert p1) 0 1 Lin.O_ok;
          call 0 1 (Dsl.Krange { lo = 0; hi = 10 }) 2 3 (Lin.O_pairs []);
        |];
    }
  in
  (match Lin.check h with
  | Lin.Violation small ->
      (* the shrinker must keep it minimal: both calls are needed...
         actually the krange alone still fails only if a phantom read is
         impossible — an empty store answers [] fine, so both stay *)
      check_int "minimal violation size" 2 (Array.length small.Lin.calls)
  | _ -> Alcotest.fail "stale read must be a violation");
  (* same shape, delete edition: a delete that returned true without any
     completed insert before it is unexplainable *)
  let h2 =
    {
      Lin.domains = 2;
      calls =
        [|
          call 0 0 (Dsl.Delete 1) 0 1 (Lin.O_bool true);
          call 1 0 (Dsl.Insert p1) 2 3 Lin.O_ok;
        |];
    }
  in
  check_bool "phantom delete is a violation" true
    (match Lin.check h2 with Lin.Violation _ -> true | _ -> false)

let test_lin_history_roundtrip () =
  let h =
    {
      Lin.domains = 2;
      calls =
        [|
          call 0 0 (Dsl.Insert p1) 0 3 Lin.O_ok;
          call 1 0 (Dsl.Krange { lo = 0; hi = 10 }) 1 2
            (Lin.O_pairs [ (5, 5) ]);
          call 1 1 (Dsl.Delete 1) 4 5 (Lin.O_bool true);
          call 1 2
            (Dsl.Q3 { xl = 0; xr = 10; yb = 0 })
            6 7 (Lin.O_ids [ 4; 9 ]);
          (* empty results serialize as a bare "pairs"/"ids" keyword
             once line trimming eats the trailing space — must reload *)
          call 0 1 (Dsl.Krange { lo = 90; hi = 99 }) 8 9 (Lin.O_pairs []);
          call 0 2
            (Dsl.Q3 { xl = 90; xr = 99; yb = 0 })
            10 11 (Lin.O_ids []);
        |];
    }
  in
  match Lin.of_string (Lin.to_string h) with
  | Ok h' -> check_bool "round-trips" true (h = h')
  | Error m -> Alcotest.fail m

let test_lin_recorded_run () =
  (* a real 2-domain execution must record a linearizable history *)
  let linearizable history =
    match Lin.check history with
    | Lin.Linearizable -> ()
    | Lin.Violation v ->
        Alcotest.failf "violation:@.%a" (fun ppf -> Lin.pp_history ppf) v
    | Lin.Inconclusive m -> Alcotest.fail m
  in
  let store, history = Lin.run ~domains:2 ~per_domain:40 ~seed:3 () in
  Shared_store.check_invariants store;
  check_bool "some interleaving recorded" true
    (Array.length history.Lin.calls = 80);
  linearizable history;
  (* the default checkpoint threshold rebuilds within a 2 x 200-op run,
     so the checked history has readers racing a rebuild and publish *)
  let store, history = Lin.run ~domains:2 ~per_domain:200 ~seed:3 () in
  Shared_store.check_invariants store;
  check_bool
    (Printf.sprintf "%d checkpoints >= 2" (Shared_store.checkpoints store))
    true
    (Shared_store.checkpoints store >= 2);
  linearizable history

(* ------------------------------------------------------------------ *)
(* Satellite 4: wire protocol edge cases                              *)
(* ------------------------------------------------------------------ *)

let with_server ?(idle_timeout = 5.0) f =
  let t = Server.start ~port:0 ~workers:2 ~idle_timeout () in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let connect t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port t));
  fd

let expect_ok fd req =
  match Wire.request fd req with
  | Ok reply -> reply
  | Error e -> Alcotest.failf "%s: %s" req (Wire.error_to_string e)

let test_wire_session () =
  with_server (fun t ->
      let fd = connect t in
      check_bool "ping" true (expect_ok fd "ping" = "ok pong");
      ignore (expect_ok fd "open s1");
      check_bool "insert" true (expect_ok fd "insert 3 4 7" = "ok");
      check_bool "krange" true (expect_ok fd "krange 0 9" = "ok pairs 3:4");
      check_bool "q3" true (expect_ok fd "q3 0 9 0" = "ok ids 7");
      check_bool "delete" true (expect_ok fd "delete 7" = "ok true");
      check_bool "redelete" true (expect_ok fd "delete 7" = "ok false");
      (* malformed requests keep the session alive *)
      let r = expect_ok fd "krange one two" in
      check_bool "malformed payload -> err" true
        (String.length r >= 3 && String.sub r 0 3 = "err");
      check_bool "session survives err" true (expect_ok fd "ping" = "ok pong");
      check_bool "close" true (expect_ok fd "close" = "ok bye");
      Unix.close fd)

(* Replies carry integers exactly as [string_of_int] writes them: at
   [min_int] and [max_int], at digit-count boundaries, negative, and as
   ids. An empty answer is its prefix, trailing space included. *)
let test_wire_reply_encoding () =
  let p18 = 1_000_000_000_000_000_000 in
  let pts =
    [
      (min_int, min_int, -1); (min_int, max_int, min_int); (-p18, 9, -10);
      (1 - p18, -9, -99); (-100, -10, -100); (-7, 0, -42); (0, -1, 0);
      (9, 10, 99); (10, 99, max_int); (p18 - 1, p18, 100);
      (max_int, max_int, -1_000_000_007); (max_int, min_int, 5);
    ]
  in
  let reference prefix items = prefix ^ String.concat "," items in
  let in_range lo hi x = lo <= x && x <= hi in
  let pairs lo hi =
    List.filter (fun (x, _, _) -> in_range lo hi x) pts
    |> List.map (fun (x, y, _) -> (x, y))
    |> List.sort compare
    |> List.map (fun (x, y) -> string_of_int x ^ ":" ^ string_of_int y)
    |> reference "ok pairs "
  in
  let ids xl xr yb =
    List.filter (fun (x, y, _) -> in_range xl xr x && y >= yb) pts
    |> List.map (fun (_, _, id) -> id)
    |> List.sort compare |> List.map string_of_int |> reference "ok ids "
  in
  with_server (fun t ->
      let fd = connect t in
      ignore (expect_ok fd "open extremes");
      List.iter
        (fun (x, y, id) ->
          Alcotest.(check string)
            "insert" "ok"
            (expect_ok fd (Printf.sprintf "insert %d %d %d" x y id)))
        pts;
      List.iter
        (fun (lo, hi) ->
          let req = Printf.sprintf "krange %d %d" lo hi in
          Alcotest.(check string) req (pairs lo hi) (expect_ok fd req))
        [
          (min_int, max_int); (min_int, min_int); (max_int, max_int);
          (-p18, 10);
        ];
      List.iter
        (fun (xl, xr, yb) ->
          let req = Printf.sprintf "q3 %d %d %d" xl xr yb in
          Alcotest.(check string) req (ids xl xr yb) (expect_ok fd req))
        [
          (min_int, max_int, min_int); (min_int, max_int, 0); (-p18, 10, -10);
          (1, 8, min_int); (max_int, max_int, max_int);
        ];
      check_bool "empty krange" true (expect_ok fd "krange 1 8" = "ok pairs ");
      check_bool "empty q3" true (expect_ok fd "q3 1 8 0" = "ok ids ");
      Unix.close fd)

let test_wire_two_sessions_share_store () =
  with_server (fun t ->
      let a = connect t and b = connect t in
      ignore (expect_ok a "open shared");
      ignore (expect_ok b "open shared");
      ignore (expect_ok a "insert 1 2 10");
      check_bool "b sees a's insert" true
        (expect_ok b "krange 0 5" = "ok pairs 1:2");
      Unix.close a;
      Unix.close b)

let test_wire_oversized_prefix () =
  with_server (fun t ->
      let fd = connect t in
      (* a 512 MiB declared length: replied to as an error, then dropped *)
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 0x20000000l;
      ignore (Unix.write fd hdr 0 4);
      (match Wire.read_frame fd with
      | Ok reply ->
          check_bool "oversized -> err reply" true
            (String.length reply >= 13
            && String.sub reply 0 13 = "err oversized")
      | Error _ -> () (* server may also just drop us; both are safe *));
      Unix.close fd;
      (* the server must keep serving *)
      let fd2 = connect t in
      check_bool "server survives oversized" true
        (expect_ok fd2 "ping" = "ok pong");
      Unix.close fd2)

let test_wire_mid_request_disconnect () =
  with_server (fun t ->
      let fd = connect t in
      (* declare 10 bytes, send 3, vanish *)
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 10l;
      ignore (Unix.write fd hdr 0 4);
      ignore (Unix.write fd (Bytes.of_string "abc") 0 3);
      Unix.close fd;
      let fd2 = connect t in
      check_bool "server survives mid-request disconnect" true
        (expect_ok fd2 "ping" = "ok pong");
      Unix.close fd2)

let test_wire_idle_timeout () =
  with_server ~idle_timeout:0.4 (fun t ->
      let fd = connect t in
      check_bool "live before idling" true (expect_ok fd "ping" = "ok pong");
      Unix.sleepf 1.0;
      (* the worker timed out and sent a final err frame (or already
         closed); either way the session is over and the server lives *)
      (match Wire.read_frame fd with
      | Ok reply ->
          check_bool "idle err frame" true
            (String.length reply >= 3 && String.sub reply 0 3 = "err")
      | Error _ -> ());
      Unix.close fd;
      let fd2 = connect t in
      check_bool "server survives idle client" true
        (expect_ok fd2 "ping" = "ok pong");
      Unix.close fd2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pool_hammer;
    Alcotest.test_case "obs cross-domain guard" `Quick
      test_obs_cross_domain_guard;
    Alcotest.test_case "threadsafe pool is byte-identical at domains=1" `Quick
      test_threadsafe_byte_identity;
    Alcotest.test_case "shared store matches sequential oracle" `Quick
      test_shared_store_differential;
    Alcotest.test_case "shared store krange merge vs sorted oracle" `Quick
      test_shared_store_krange_merge;
    Alcotest.test_case "shared store create keeps one point per id" `Quick
      test_shared_store_create_dedup;
    QCheck_alcotest.to_alcotest prop_shared_store_matches_fresh;
    Alcotest.test_case "lin: overlapping stale read accepted" `Quick
      test_lin_accepts_overlap;
    Alcotest.test_case "lin: stale read / phantom delete rejected" `Quick
      test_lin_rejects_stale_read;
    Alcotest.test_case "lin: history file round-trip" `Quick
      test_lin_history_roundtrip;
    Alcotest.test_case "lin: recorded 2-domain run linearizable" `Quick
      test_lin_recorded_run;
    Alcotest.test_case "wire: full session" `Quick test_wire_session;
    Alcotest.test_case "wire: replies at the integer extremes" `Quick
      test_wire_reply_encoding;
    Alcotest.test_case "wire: sessions share a store" `Quick
      test_wire_two_sessions_share_store;
    Alcotest.test_case "wire: oversized length prefix" `Quick
      test_wire_oversized_prefix;
    Alcotest.test_case "wire: mid-request disconnect" `Quick
      test_wire_mid_request_disconnect;
    Alcotest.test_case "wire: idle timeout" `Quick test_wire_idle_timeout;
  ]
