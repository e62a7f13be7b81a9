open Pc_util
open Pc_pagestore

type cell = Desc of desc | Pt of Point.t

and desc = {
  node : int;
  xlo : int;  (* inclusive x-range covered by the subtree *)
  xhi : int;
  mid : int;  (* route left iff x <= mid (internal nodes) *)
  left : int;
  right : int;
  n_pts : int;
  pts_page : cell Blocked_list.t;  (* leaves only: the B points, by y *)
  y_index : Pc_btree.Btree.t option;
      (* internal nodes: subtree points as a B+-tree keyed by y *)
}

type t = {
  pager : cell Pager.t;  (* skeletal blocks + leaf point pages *)
  index_pager : Pc_btree.Btree.cell Pager.t;  (* all per-node y-trees *)
  layout : Skeletal_layout.t option;
  block_pages : int array;
  size : int;
  height : int;
}

(* In-memory blueprint. *)
type bnode = {
  b_idx : int;
  b_xlo : int;
  b_xhi : int;
  b_mid : int;
  b_left : bnode option;
  b_right : bnode option;
  b_pts : Point.t array; (* subtree points, sorted by y then id *)
}

let create_unjournaled ?(cache_capacity = 0) ?pool ?obs ?durability ~b pts =
  if b < 4 then invalid_arg "Ext_range.create: b < 4 (B+-tree fanout)";
  (* one frame budget covers the skeletal and y-index pagers; before the
     shared pool, passing [cache_capacity] to both silently doubled the
     cache memory *)
  let pool =
    match pool with
    | Some p -> p
    | None ->
        Pc_bufferpool.Buffer_pool.create ~capacity:cache_capacity ()
  in
  let pager =
    Pager.create ~pool ?obs ?wal:durability ~obs_name:"ext_range"
      ~page_capacity:b ()
  in
  let index_pager =
    Pager.create ~pool ?obs ?wal:durability ~obs_name:"ext_range.yindex"
      ~page_capacity:b ()
  in
  Pc_obs.Obs.with_span obs ~kind:"build.rangetree" @@ fun () ->
  match pts with
  | [] ->
      {
        pager;
        index_pager;
        layout = None;
        block_pages = [||];
        size = 0;
        height = 0;
      }
  | _ ->
      let sorted = Array.of_list (List.sort Point.compare_xy pts) in
      let n = Array.length sorted in
      let nleaves = Num_util.ceil_div n b in
      let counter = ref 0 in
      let by_y seg =
        let arr = Array.copy seg in
        Array.sort Point.compare_yx arr;
        arr
      in
      (* Balanced tree over runs of [b] consecutive x-sorted points. *)
      let rec make lo_leaf hi_leaf =
        let idx = !counter in
        incr counter;
        if hi_leaf - lo_leaf = 1 then begin
          let off = lo_leaf * b in
          let len = min b (n - off) in
          let seg = Array.sub sorted off len in
          {
            b_idx = idx;
            b_xlo = (seg.(0) : Point.t).x;
            b_xhi = (seg.(len - 1) : Point.t).x;
            b_mid = (seg.(len - 1) : Point.t).x;
            b_left = None;
            b_right = None;
            b_pts = by_y seg;
          }
        end
        else begin
          let mid_leaf = (lo_leaf + hi_leaf) / 2 in
          let l = make lo_leaf mid_leaf in
          let r = make mid_leaf hi_leaf in
          {
            b_idx = idx;
            b_xlo = l.b_xlo;
            b_xhi = r.b_xhi;
            b_mid = l.b_xhi;
            b_left = Some l;
            b_right = Some r;
            b_pts = by_y (Array.append l.b_pts r.b_pts);
          }
        end
      in
      let root = make 0 nleaves in
      let num_nodes = !counter in
      let nodes = Array.make num_nodes root in
      let rec index nd =
        nodes.(nd.b_idx) <- nd;
        Option.iter index nd.b_left;
        Option.iter index nd.b_right
      in
      index root;
      let child side i =
        let nd = nodes.(i) in
        Option.map
          (fun c -> c.b_idx)
          (match side with `L -> nd.b_left | `R -> nd.b_right)
      in
      let block_height = max 1 (Num_util.ilog2 (b + 1)) in
      let layout =
        Skeletal_layout.compute ~num_nodes ~root:0 ~left:(child `L)
          ~right:(child `R) ~block_height
      in
      let descs = Array.make num_nodes None in
      let rec persist nd =
        let is_leaf = nd.b_left = None in
        let pts_page =
          if is_leaf then
            Blocked_list.store pager
              (List.map (fun p -> Pt p) (Array.to_list nd.b_pts))
          else Blocked_list.store pager []
        in
        let y_index =
          if is_leaf then None
          else
            Some
              (Pc_btree.Btree.bulk_load index_pager
                 (Array.to_list nd.b_pts
                 |> List.map (fun (p : Point.t) -> (p.y, p.id))
                 |> List.sort compare))
        in
        descs.(nd.b_idx) <-
          Some
            {
              node = nd.b_idx;
              xlo = nd.b_xlo;
              xhi = nd.b_xhi;
              mid = nd.b_mid;
              left = (match nd.b_left with Some c -> c.b_idx | None -> -1);
              right = (match nd.b_right with Some c -> c.b_idx | None -> -1);
              n_pts = Array.length nd.b_pts;
              pts_page;
              y_index;
            };
        Option.iter persist nd.b_left;
        Option.iter persist nd.b_right
      in
      persist root;
      let block_pages =
        Array.init (Skeletal_layout.num_blocks layout) (fun blk ->
            Skeletal_layout.nodes_in layout blk
            |> List.map (fun i ->
                   match descs.(i) with Some d -> Desc d | None -> assert false)
            |> Array.of_list |> Pager.alloc pager)
      in
      let rec height nd =
        1
        + max
            (match nd.b_left with Some c -> height c | None -> 0)
            (match nd.b_right with Some c -> height c | None -> 0)
      in
      {
        pager;
        index_pager;
        layout = Some layout;
        block_pages;
        size = n;
        height = height root;
      }

let query t ~x1 ~x2 ~y1 ~y2 =
  Pc_obs.Obs.with_span (Pager.obs t.pager) ~kind:"query.4sided"
    ~result_args:(fun (_, st) -> Query_stats.to_args st)
  @@ fun () ->
  let stats = Query_stats.create () in
  match t.layout with
  | _ when x1 > x2 || y1 > y2 -> ([], stats)
  | None -> ([], stats)
  | Some layout ->
      let blocks = Hashtbl.create 16 in
      let get idx =
        let page = t.block_pages.(Skeletal_layout.block_of layout idx) in
        let descs =
          match Hashtbl.find_opt blocks page with
          | Some ds -> ds
          | None ->
              let cells = Pager.read t.pager page in
              stats.skeletal_reads <- stats.skeletal_reads + 1;
              let ds =
                Array.to_list cells
                |> List.filter_map (function Desc d -> Some d | _ -> None)
              in
              Hashtbl.add blocks page ds;
              ds
        in
        List.find (fun d -> d.node = idx) descs
      in
      let out = ref [] in
      let report_y_range (d : desc) =
        match d.y_index with
        | Some bt ->
            let before = Io_stats.snapshot (Pager.stats t.index_pager) in
            let hits = Pc_btree.Btree.range bt ~lo:y1 ~hi:y2 in
            let after = Io_stats.snapshot (Pager.stats t.index_pager) in
            let delta = Io_stats.diff ~after ~before in
            stats.data_reads <- stats.data_reads + Io_stats.total delta;
            out := List.rev_append (List.map snd hits) !out
        | None ->
            (* canonical leaf: one page, filter on y *)
            let cells, reads =
              Blocked_list.scan_prefix t.pager d.pts_page ~keep:(fun _ -> true)
            in
            stats.data_reads <- stats.data_reads + reads;
            List.iter
              (function
                | Pt (p : Point.t) ->
                    if p.y >= y1 && p.y <= y2 then out := p.id :: !out
                | Desc _ -> ())
              cells
      in
      let report_boundary_leaf (d : desc) =
        let cells, reads =
          Blocked_list.scan_prefix t.pager d.pts_page ~keep:(fun _ -> true)
        in
        stats.data_reads <- stats.data_reads + reads;
        let kept = ref 0 in
        List.iter
          (function
            | Pt (p : Point.t) ->
                if p.x >= x1 && p.x <= x2 && p.y >= y1 && p.y <= y2 then begin
                  incr kept;
                  out := p.id :: !out
                end
            | Desc _ -> ())
          cells;
        stats.wasteful_reads <-
          stats.wasteful_reads
          + max 0 (reads - (!kept / Pager.page_capacity t.pager))
      in
      (* Canonical decomposition of [x1, x2]. *)
      let rec walk idx =
        let d = get idx in
        if d.xhi < x1 || d.xlo > x2 then ()
        else if x1 <= d.xlo && d.xhi <= x2 then report_y_range d
        else if d.left < 0 then report_boundary_leaf d
        else begin
          walk d.left;
          walk d.right
        end
      in
      walk 0;
      let ids = List.sort_uniq compare !out in
      stats.reported_raw <- List.length !out;
      (ids, stats)

let size t = t.size
let page_size t = Pager.page_capacity t.pager

(* Structural invariants, walked page-by-page off the live store. Costs
   I/O; run outside counted sections and with fault plans disarmed. *)
let check_invariants t =
  let fail fmt =
    Format.kasprintf failwith ("Ext_range.check_invariants: " ^^ fmt)
  in
  match t.layout with
  | None -> if t.size <> 0 then fail "no layout but size=%d" t.size
  | Some _ ->
      let b = Pager.page_capacity t.pager in
      let descs = Hashtbl.create 64 in
      Array.iter
        (fun page ->
          Array.iter
            (function
              | Desc d ->
                  if Hashtbl.mem descs d.node then fail "duplicate node %d" d.node;
                  Hashtbl.replace descs d.node d
              | Pt _ -> fail "point cell in a skeletal block")
            (Pager.read t.pager page))
        t.block_pages;
      let get i =
        match Hashtbl.find_opt descs i with
        | Some d -> d
        | None -> fail "missing descriptor for node %d" i
      in
      let total = ref 0 in
      (* Returns the subtree's (y, id) multiset, sorted, so each internal
         node's y-index can be matched against it. *)
      let rec walk i =
        let d = get i in
        if d.node <> i then fail "node %d stored under id %d" d.node i;
        if d.xlo > d.xhi then fail "node %d: empty x-range" i;
        let is_leaf = d.left < 0 in
        if is_leaf <> (d.right < 0) then fail "node %d: half-leaf" i;
        if is_leaf then begin
          if d.y_index <> None then fail "leaf %d carries a y-index" i;
          let pts =
            List.map
              (function
                | Pt p -> p
                | Desc _ -> fail "descriptor in leaf %d's point page" i)
              (Blocked_list.read_all t.pager d.pts_page)
          in
          if List.length pts <> d.n_pts then
            fail "leaf %d: %d points stored, n_pts %d" i (List.length pts)
              d.n_pts;
          if d.n_pts = 0 || d.n_pts > b then
            fail "leaf %d: %d points per leaf (b=%d)" i d.n_pts b;
          total := !total + d.n_pts;
          let rec sorted = function
            | a :: (c :: _ as rest) ->
                if Point.compare_yx a c > 0 then fail "leaf %d: points unsorted" i;
                sorted rest
            | _ -> ()
          in
          sorted pts;
          List.iter
            (fun (p : Point.t) ->
              if p.x < d.xlo || p.x > d.xhi then
                fail "leaf %d: point x=%d outside [%d,%d]" i p.x d.xlo d.xhi)
            pts;
          List.sort compare (List.map (fun (p : Point.t) -> (p.y, p.id)) pts)
        end
        else begin
          if Blocked_list.length d.pts_page <> 0 then
            fail "internal node %d holds a point page" i;
          let l = get d.left and r = get d.right in
          if l.xlo <> d.xlo || r.xhi <> d.xhi then
            fail "node %d: children do not span its x-range" i;
          if d.mid <> l.xhi then fail "node %d: mid is not the left max x" i;
          if l.xhi > r.xlo then
            fail "node %d: children's x-ranges out of order" i;
          let pts = List.merge compare (walk d.left) (walk d.right) in
          if List.length pts <> d.n_pts then
            fail "node %d: n_pts %d <> subtree total %d" i d.n_pts
              (List.length pts);
          (match d.y_index with
          | None -> fail "internal node %d lacks a y-index" i
          | Some bt ->
              Pc_btree.Btree.check_invariants bt;
              let indexed =
                List.sort compare (Pc_btree.Btree.range bt ~lo:min_int ~hi:max_int)
              in
              if indexed <> pts then
                fail "node %d: y-index disagrees with subtree points" i);
          pts
        end
      in
      let pts = walk 0 in
      ignore pts;
      if !total <> t.size then fail "stored %d points, size says %d" !total t.size

let cost_model _t = Pc_obs.Cost_model.Range2d

let conformance t ~t_out ~measured =
  Pc_obs.Cost_model.Conformance.check Pc_obs.Cost_model.Range2d ~n:t.size
    ~b:(Pager.page_capacity t.pager) ~t:t_out ~measured
let height t = t.height

let query_count t ~x1 ~x2 ~y1 ~y2 =
  List.length (fst (query t ~x1 ~x2 ~y1 ~y2))

let storage_pages t =
  Pager.pages_in_use t.pager + Pager.pages_in_use t.index_pager

let io_stats t =
  let a = Io_stats.snapshot (Pager.stats t.pager) in
  let b = Pager.stats t.index_pager in
  a.reads <- a.reads + b.reads;
  a.writes <- a.writes + b.writes;
  a.cache_hits <- a.cache_hits + b.cache_hits;
  a.allocs <- a.allocs + b.allocs;
  a.frees <- a.frees + b.frees;
  a.evictions <- a.evictions + b.evictions;
  a

let reset_io_stats t =
  Pager.reset_stats t.pager;
  Pager.reset_stats t.index_pager

(* ------------------------------------------------------------------ *)
(* Durability                                                         *)
(* ------------------------------------------------------------------ *)

let snapshot t =
  Marshal.to_string
    ( Pager.page_capacity t.pager,
      t.layout,
      t.block_pages,
      t.size,
      t.height )
    []

(* One journal transaction for the whole build — all-or-nothing. The
   inner y-index bulk loads run on the same journal and fold in. *)
let create ?cache_capacity ?pool ?obs ?durability ~b pts =
  let result = ref None in
  Wal.with_txn durability
    ~meta:(fun () -> snapshot (Option.get !result))
    (fun () ->
      let t = create_unjournaled ?cache_capacity ?pool ?obs ?durability ~b pts in
      result := Some t;
      t)

let wal t = Pager.wal t.pager

let recover ~b (r : Wal.recovered) =
  match r.Wal.r_meta with
  | None -> create ~durability:(Wal.create ()) ~b []
  | Some snapshot ->
      let (b, layout, block_pages, size, height)
            : int * Skeletal_layout.t option * int array * int * int =
        Marshal.from_string snapshot 0
      in
      let pool = Pc_bufferpool.Buffer_pool.create ~capacity:0 () in
      (* creation order: skeletal pager enrolled first, y-index second *)
      let index_pager =
        Pager.attach_recovered r ~idx:1 ~pool ~obs_name:"ext_range.yindex"
          ~page_capacity:b ()
      in
      (* Recovered skeletal pages embed y-index tree handles that still
         point at the crashed instance's pager (a live-value stand-in
         for what a real disk would store as a root page id): rebind
         them to the recovered y-index pager while rehydrating. *)
      let fixup cells =
        Array.map
          (function
            | Desc ({ y_index = Some bt; _ } as d) ->
                Desc
                  { d with y_index = Some (Pc_btree.Btree.rebind bt index_pager) }
            | c -> c)
          cells
      in
      let pager =
        Pager.attach_recovered r ~idx:0 ~pool ~obs_name:"ext_range" ~fixup
          ~page_capacity:b ()
      in
      { pager; index_pager; layout; block_pages; size; height }
