open Pc_util
open Pc_pagestore

type mode = Baseline | Cached

let pp_mode ppf = function
  | Baseline -> Format.fprintf ppf "baseline"
  | Cached -> Format.fprintf ppf "cached"

(* ------------------------------------------------------------------ *)
(* Persistent representation                                          *)
(* ------------------------------------------------------------------ *)

type cell =
  | Desc of desc
  | Pt of Point.t
  | Src of { p : Point.t; src : int }

and desc = {
  node : int;
  depth : int;
  split : int;
  min_y : int;
  min_x : int;  (* x extremes of the region's own points; quick-reject *)
  max_x : int;
  left : int;
  right : int;
  left_min_y : int;
  right_min_y : int;
  n_pts : int;
  y_list : cell Blocked_list.t;  (* own points, decreasing y *)
  a_list : cell Blocked_list.t;  (* window-ancestor cache, decreasing x *)
  a_asc_list : cell Blocked_list.t;  (* same sources, increasing x *)
  sr_list : cell Blocked_list.t;  (* right-sibling cache, decreasing y *)
  sl_list : cell Blocked_list.t;  (* left-sibling cache, decreasing y *)
}

type t = {
  mode : mode;
  pager : cell Pager.t;
  layout : Skeletal_layout.t option;
  block_pages : int array;
  seg_len : int;
  size : int;
  store : Disk_store.t option; (* open file-backed home, for [close] *)
}

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let cell_point = function
  | Pt p -> p
  | Src { p; _ } -> p
  | Desc _ -> invalid_arg "Ext_pst3: descriptor cell in a point list"

let store_points pager pts =
  Blocked_list.store_array pager (Array.map (fun p -> Pt p) pts)

(* A stable merge of [runs], each sorted by [cmp] on its cells' points:
   equal cells keep the order of their runs, which is the order a
   stable sort of the runs' concatenation gives them. *)
let merge_runs cmp runs =
  let runs = Array.of_list (List.filter (fun r -> Array.length r > 0) runs) in
  let k = Array.length runs in
  if k = 0 then [||]
  else if k = 1 then runs.(0)
  else begin
    let pos = Array.make k 0 in
    let total = Array.fold_left (fun n r -> n + Array.length r) 0 runs in
    let out = Array.make total runs.(0).(0) in
    for o = 0 to total - 1 do
      let best = ref (-1) in
      for i = 0 to k - 1 do
        let r = runs.(i) in
        if
          pos.(i) < Array.length r
          && (!best < 0
             || cmp
                  (cell_point r.(pos.(i)))
                  (cell_point runs.(!best).(pos.(!best)))
                < 0)
        then best := i
      done;
      let i = !best in
      out.(o) <- runs.(i).(pos.(i));
      pos.(i) <- pos.(i) + 1
    done;
    out
  end

let create_unjournaled ?(cache_capacity = 0) ?pool ?obs ?durability ?backend
    ~mode ~b pts =
  if b < 2 then invalid_arg "Ext_pst3.create: b < 2";
  let pager =
    Pager.create ~cache_capacity ?pool ?obs ?wal:durability ?backend
      ~obs_name:"ext_pst3" ~page_capacity:b ()
  in
  Pc_obs.Obs.with_span obs ~kind:"build.3sided" @@ fun () ->
  match pts with
  | [] ->
      {
        mode;
        pager;
        layout = None;
        block_pages = [||];
        seg_len = 1;
        size = 0;
        store = None;
      }
  | _ ->
      let seg_len = max 1 (Num_util.ilog2 (max 2 b)) in
      let rt = Pc_extpst.Region_tree.build ~capacity:b pts in
      let num_nodes = Pc_extpst.Region_tree.num_nodes rt in
      let descs = Array.make num_nodes None in
      (* Each region's first-page entries, tagged with their source once,
         in the three orders the caches need: x descending, x ascending
         and y descending. With capacity B every region fits one page, so
         the "first page" is the whole region. The x-ascending run is
         [pts_by_x] reversed and then sorted stably, since reversal leaves
         points equal in x in decreasing id rather than increasing y. *)
      let tagged pts_of =
        Array.init
          (if mode = Cached then num_nodes else 0)
          (fun i ->
            let u = Pc_extpst.Region_tree.node_by_idx rt i in
            Array.map (fun p -> Src { p; src = u.idx }) (pts_of u))
      in
      let x_desc = tagged (fun u -> u.pts_by_x) in
      let y_desc = tagged (fun u -> u.pts_by_y) in
      let x_asc =
        Array.map
          (fun run ->
            let k = Array.length run in
            let r = Array.init k (fun j -> run.(k - 1 - j)) in
            Array.stable_sort
              (fun c d -> Point.compare_xy (cell_point c) (cell_point d))
              r;
            r)
          x_desc
      in
      let rec visit (n : Pc_extpst.Region_tree.node) anc =
        let lo, hi =
          if mode = Baseline then (0, 0)
          else if n.depth = 0 then (0, 0)
          else (((n.depth - 1) / seg_len) * seg_len, n.depth)
        in
        let window =
          List.filter
            (fun ((a : Pc_extpst.Region_tree.node), _) ->
              a.depth >= lo && a.depth < hi)
            anc
        in
        (* a cache is its sources' runs merged, nearest source first *)
        let cache cmp runs sources =
          sources
          |> List.map (fun (u : Pc_extpst.Region_tree.node) -> runs.(u.idx))
          |> merge_runs cmp
          |> Blocked_list.store_array pager
        in
        let siblings pick =
          List.filter_map (fun (a, went_left) -> pick went_left a) window
        in
        let n_pts = Array.length n.pts_by_y in
        let min_x =
          if n_pts = 0 then max_int else (n.pts_by_x.(n_pts - 1) : Point.t).x
        in
        let max_x = if n_pts = 0 then min_int else (n.pts_by_x.(0) : Point.t).x in
        let child_idx = function
          | Some (c : Pc_extpst.Region_tree.node) -> c.idx
          | None -> -1
        in
        let child_min = function
          | Some (c : Pc_extpst.Region_tree.node) -> c.min_y
          | None -> max_int
        in
        (* With capacity B a region fits one page, and a single-page list
           is scanned whole in any order, so one list in decreasing y
           serves every boundary. *)
        let y_list = store_points pager n.pts_by_y in
        (* Page ids follow allocation order, which the on-disk format
           pins: the caches are stored sl, sr, a_asc, then a. *)
        let sl_list =
          cache Point.compare_y_desc y_desc
            (siblings (fun went_left a -> if went_left then None else a.left))
        in
        let sr_list =
          cache Point.compare_y_desc y_desc
            (siblings (fun went_left a -> if went_left then a.right else None))
        in
        let window = List.map fst window in
        let a_asc_list = cache Point.compare_xy x_asc window in
        let a_list = cache Point.compare_x_desc x_desc window in
        descs.(n.idx) <-
          Some
            {
              node = n.idx;
              depth = n.depth;
              split = n.split;
              min_y = n.min_y;
              min_x;
              max_x;
              left = child_idx n.left;
              right = child_idx n.right;
              left_min_y = child_min n.left;
              right_min_y = child_min n.right;
              n_pts;
              y_list;
              a_list;
              a_asc_list;
              sr_list;
              sl_list;
            };
        (match n.left with Some l -> visit l ((n, true) :: anc) | None -> ());
        match n.right with Some r -> visit r ((n, false) :: anc) | None -> ()
      in
      (match Pc_extpst.Region_tree.root rt with
      | Some r -> visit r []
      | None -> assert false);
      let child side i =
        let n = Pc_extpst.Region_tree.node_by_idx rt i in
        Option.map
          (fun (c : Pc_extpst.Region_tree.node) -> c.idx)
          (match side with `L -> n.left | `R -> n.right)
      in
      let block_height = max 1 (Num_util.ilog2 (b + 1)) in
      let layout =
        Skeletal_layout.compute ~num_nodes ~root:0 ~left:(child `L)
          ~right:(child `R) ~block_height
      in
      let block_pages =
        Array.init (Skeletal_layout.num_blocks layout) (fun blk ->
            Skeletal_layout.nodes_in layout blk
            |> List.map (fun i ->
                   match descs.(i) with Some d -> Desc d | None -> assert false)
            |> Array.of_list |> Pager.alloc pager)
      in
      {
        mode;
        pager;
        layout = Some layout;
        block_pages;
        seg_len;
        size = List.length pts;
        store = None;
      }

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

type side = L | R

let query t ~xl ~xr ~yb =
  Pc_obs.Obs.with_span (Pager.obs t.pager) ~kind:"query.3sided"
    ~result_args:(fun (_, st) -> Query_stats.to_args st)
  @@ fun () ->
  let stats = Query_stats.create () in
  match t.layout with
  | _ when xl > xr -> ([], stats)
  | None -> ([], stats)
  | Some layout ->
      let b = Pager.page_capacity t.pager in
      (* skeletal blocks read so far, by page *)
      let blocks = Hashtbl.create 16 in
      let get node =
        let page = t.block_pages.(Skeletal_layout.block_of layout node) in
        let cells =
          match Hashtbl.find_opt blocks page with
          | Some cells -> cells
          | None ->
              let cells = Pager.read t.pager page in
              stats.skeletal_reads <- stats.skeletal_reads + 1;
              Hashtbl.add blocks page cells;
              cells
        in
        let rec find i =
          if i = Array.length cells then
            invalid_arg "Ext_pst3: descriptor missing from block"
          else
            match cells.(i) with
            | Desc d when d.node = node -> d
            | _ -> find (i + 1)
        in
        find 0
      in
      (* The answer before deduplication, last found first. *)
      let out = ref [] and raw = ref 0 in
      let in_query (p : Point.t) = p.x >= xl && p.x <= xr && p.y >= yb in
      let push p =
        out := p :: !out;
        incr raw
      in
      let above (p : Point.t) = p.y >= yb in
      let note_waste reads kept =
        stats.wasteful_reads <- stats.wasteful_reads + max 0 (reads - (kept / b))
      in
      let scan list ~keep f =
        Blocked_list.iter_prefix_from t.pager list ~from:0
          ~keep:(fun c -> keep (cell_point c))
          f
      in
      (* A region's own points, kept while above [yb]: the kept ones in
         the query join the answer. Waste is charged against the kept
         points ([`Kept]) or only those in the query ([`Hits]). *)
      let scan_data ~charge (d : desc) =
        let counted = ref 0 in
        let reads =
          scan d.y_list ~keep:above (fun c ->
              let p = cell_point c in
              if in_query p then begin
                push p;
                incr counted
              end
              else if charge = `Kept then incr counted)
        in
        stats.data_reads <- stats.data_reads + reads;
        note_waste reads !counted
      in
      (* A cache: kept entries of sources that [skip] does not exclude
         join the answer if in the query, and are charged. A region fits
         one page, so a cache holds each of its sources whole and a scan
         never continues into a source's own list (§4.1). *)
      let scan_cache list ~keep ~skip =
        let counted = ref 0 in
        let reads =
          scan list ~keep (function
              | Src { p; src } ->
                  if not (skip src) then begin
                    incr counted;
                    if in_query p then push p
                  end
              | Pt _ | Desc _ -> invalid_arg "Ext_pst3: untagged cache cell")
        in
        stats.cache_reads <- stats.cache_reads + reads;
        note_waste reads !counted
      in
      (* --- Shared prefix: both boundaries route the same way. A node is
         cut by both vertical lines, so its hits are extracted by reading
         its single page (guarded by the x quick-reject when cached). --- *)
      let shared = ref [] in
      let split_node = ref None in
      let rec descend_shared d =
        shared := d :: !shared;
        if d.min_y < yb then ()
        else begin
          let dir_l = xl <= d.split and dir_r = xr < d.split in
          if dir_l <> dir_r then split_node := Some d
          else begin
            let next = if dir_l then d.left else d.right in
            if next >= 0 then descend_shared (get next)
          end
        end
      in
      descend_shared (get 0);
      List.iter
        (fun (u : desc) ->
          let skip =
            t.mode = Cached && (u.max_x < xl || u.min_x > xr || u.n_pts = 0)
          in
          if not skip then scan_data ~charge:`Hits u)
        !shared;
      (* --- Below the split: mirrored 2-sided machinery per side. --- *)
      let rec explore_children (d : desc) =
        let child c cmin =
          if c >= 0 then begin
            let c = get c in
            scan_data ~charge:`Kept c;
            if cmin >= yb then explore_children c
          end
        in
        child d.left d.left_min_y;
        child d.right d.right_min_y
      in
      let run_side side ~split:(sp : desc) start_idx =
        if start_idx >= 0 then begin
          (* The split's children head the two paths; each is a "sibling"
             of the other side's path at the split and must not be
             re-reported from sibling caches (its own side answers it). *)
          let skip_anc src = List.exists (fun d -> d.node = src) !shared in
          let skip_sib src =
            skip_anc src || src = sp.left || src = sp.right
          in
          (* Descend toward this side's boundary. *)
          let goes_deeper (u : desc) =
            match side with L -> xl <= u.split | R -> xr < u.split
          in
          let rec descend acc d =
            let acc = d :: acc in
            if d.min_y < yb then List.rev acc
            else begin
              let next = if goes_deeper d then d.left else d.right in
              if next < 0 then List.rev acc else descend acc (get next)
            end
          in
          let path = Array.of_list (descend [] (get start_idx)) in
          let len = Array.length path in
          let corner = path.(len - 1) in
          (* Corner region's own points. *)
          scan_data ~charge:`Hits corner;
          (* Right-side special case: the descent can stop because the
             corner has no right child while its left child is still
             inside [xl, xr] (its x-range sits below the corner's split,
             which is <= xr). No path node owns that child as a sibling,
             so handle it here. The left side has no mirror case: a
             skipped right child always lies strictly left of xl. *)
          (match side with
          | R
            when corner.min_y >= yb
                 && (not (goes_deeper corner))
                 && corner.right < 0 && corner.left >= 0 ->
              let sdesc = get corner.left in
              scan_data ~charge:`Kept sdesc;
              if corner.left_min_y >= yb then explore_children sdesc
          | L | R -> ());
          (match t.mode with
          | Baseline ->
              (* Read every strict-ancestor page and sibling page. *)
              for i = 0 to len - 2 do
                let u = path.(i) in
                scan_data ~charge:`Hits u;
                let sib =
                  match side with
                  | L -> if goes_deeper u then u.right else -1
                  | R -> if goes_deeper u then -1 else u.left
                in
                let sib_min =
                  match side with L -> u.right_min_y | R -> u.left_min_y
                in
                if sib >= 0 then begin
                  let sdesc = get sib in
                  scan_data ~charge:`Kept sdesc;
                  if sib_min >= yb then explore_children sdesc
                end
              done
          | Cached ->
              (* Hops: segment boundaries strictly below the split, plus
                 the corner. Their cache windows tile the below-split
                 ancestors; window entries from shared nodes are skipped
                 (answered above). *)
              let split_depth = corner.depth - len in
              let dc = corner.depth in
              let hop_depths =
                List.init (dc / t.seg_len) (fun j -> (j + 1) * t.seg_len)
                |> List.filter (fun depth -> depth > split_depth)
                |> List.cons dc |> List.sort_uniq compare
              in
              List.iter
                (fun hd ->
                  let h = path.(hd - split_depth - 1) in
                  (match side with
                  | L ->
                      scan_cache h.a_list
                        ~keep:(fun (p : Point.t) -> p.x >= xl)
                        ~skip:skip_anc
                  | R ->
                      scan_cache h.a_asc_list
                        ~keep:(fun (p : Point.t) -> p.x <= xr)
                        ~skip:skip_anc);
                  scan_cache
                    (match side with L -> h.sr_list | R -> h.sl_list)
                    ~keep:above ~skip:skip_sib)
                hop_depths;
              (* Descendants of fully-contained siblings. *)
              for i = 0 to len - 2 do
                let u = path.(i) in
                let sib, sib_min =
                  match side with
                  | L ->
                      if goes_deeper u then (u.right, u.right_min_y)
                      else (-1, max_int)
                  | R ->
                      if goes_deeper u then (-1, max_int)
                      else (u.left, u.left_min_y)
                in
                if sib >= 0 && sib_min >= yb then explore_children (get sib)
              done)
        end
      in
      (match !split_node with
      | None -> ()
      | Some sp ->
          run_side L ~split:sp sp.left;
          run_side R ~split:sp sp.right);
      stats.reported_raw <- !raw;
      (Point.dedup_by_id !out, stats)

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let mode t = t.mode
let obs t = Pager.obs t.pager
let size t = t.size
let page_size t = Pager.page_capacity t.pager

(* Structural invariants, walked page-by-page off the live store. Costs
   I/O; run outside counted sections and with fault plans disarmed. *)
let check_invariants t =
  let fail fmt =
    Format.kasprintf failwith ("Ext_pst3.check_invariants: " ^^ fmt)
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
              | Pt _ | Src _ -> fail "point cell in a skeletal block")
            (Pager.read t.pager page))
        t.block_pages;
      let get i =
        match Hashtbl.find_opt descs i with
        | Some d -> d
        | None -> fail "missing descriptor for node %d" i
      in
      let pts_of list = List.map cell_point (Blocked_list.read_all t.pager list) in
      let check_sorted what cmp l =
        let rec go = function
          | a :: (c :: _ as rest) ->
              if cmp a c > 0 then fail "%s out of order" what;
              go rest
          | _ -> ()
        in
        go l
      in
      let total = ref 0 in
      let rec walk i ~depth ~anc =
        let d = get i in
        if d.node <> i then fail "node %d stored under id %d" d.node i;
        if d.depth <> depth then
          fail "node %d: depth %d, expected %d" i d.depth depth;
        let ys = pts_of d.y_list in
        if List.length ys <> d.n_pts then
          fail "node %d: y_list length %d <> n_pts %d" i (List.length ys) d.n_pts;
        if d.n_pts > b then fail "node %d: region over capacity" i;
        if (d.left >= 0 || d.right >= 0) && d.n_pts <> b then
          fail "internal region %d not full" i;
        total := !total + d.n_pts;
        check_sorted "y_list" Point.compare_y_desc ys;
        (* denormalized extremes *)
        let fold f init sel = List.fold_left (fun acc p -> f acc (sel p)) init ys in
        let min_y = fold min max_int (fun (p : Point.t) -> p.y) in
        let min_x = fold min max_int (fun (p : Point.t) -> p.x) in
        let max_x = fold max min_int (fun (p : Point.t) -> p.x) in
        if d.min_y <> min_y then fail "node %d: stale min_y" i;
        if d.min_x <> min_x then fail "node %d: stale min_x" i;
        if d.max_x <> max_x then fail "node %d: stale max_x" i;
        (* nesting along the ancestor path *)
        List.iter
          (fun (p : Point.t) ->
            List.iter
              (fun ((a : desc), went_left) ->
                if p.y > a.min_y then
                  fail "node %d: heap violation under %d" i a.node;
                if went_left then begin
                  if p.x > a.split then
                    fail "node %d: left point beyond split of %d" i a.node
                end
                else if p.x < a.split then
                  fail "node %d: right point before split of %d" i a.node)
              anc)
          ys;
        (* caches over the segment window *)
        let lo, hi =
          if t.mode = Baseline then (0, 0)
          else if depth = 0 then (0, 0)
          else (((depth - 1) / t.seg_len) * t.seg_len, depth)
        in
        let window =
          List.filter (fun ((a : desc), _) -> a.depth >= lo && a.depth < hi) anc
        in
        let check_cache what cmp cells ~expected =
          let per_src = Hashtbl.create 4 in
          List.iter
            (function
              | Src { p = _; src } ->
                  if not (List.mem_assoc src expected) then
                    fail "node %d: %s source %d outside the window" i what src;
                  Hashtbl.replace per_src src
                    (1 + Option.value ~default:0 (Hashtbl.find_opt per_src src))
              | Pt _ | Desc _ -> fail "node %d: untagged %s cell" i what)
            cells;
          List.iter
            (fun (src, k) ->
              let got = Option.value ~default:0 (Hashtbl.find_opt per_src src) in
              if got <> k then
                fail "node %d: %s holds %d entries of source %d, expected %d" i
                  what got src k)
            expected;
          check_sorted what cmp (List.map cell_point cells)
        in
        (* a cache holds each source whole: a region is one page *)
        let anc_expected =
          List.map (fun ((a : desc), _) -> (a.node, a.n_pts)) window
        in
        check_cache "a_list" Point.compare_x_desc
          (Blocked_list.read_all t.pager d.a_list)
          ~expected:anc_expected;
        check_cache "a_asc_list" Point.compare_xy
          (Blocked_list.read_all t.pager d.a_asc_list)
          ~expected:anc_expected;
        let sib_expected pick =
          List.filter_map
            (fun ((a : desc), went_left) ->
              match pick went_left a with
              | Some s when s >= 0 -> Some (s, (get s).n_pts)
              | _ -> None)
            window
        in
        check_cache "sr_list" Point.compare_y_desc
          (Blocked_list.read_all t.pager d.sr_list)
          ~expected:
            (sib_expected (fun went_left (a : desc) ->
                 if went_left then Some a.right else None));
        check_cache "sl_list" Point.compare_y_desc
          (Blocked_list.read_all t.pager d.sl_list)
          ~expected:
            (sib_expected (fun went_left (a : desc) ->
                 if went_left then None else Some a.left));
        let child_min c = if c < 0 then max_int else (get c).min_y in
        if d.left_min_y <> child_min d.left then fail "node %d: stale left_min_y" i;
        if d.right_min_y <> child_min d.right then
          fail "node %d: stale right_min_y" i;
        if d.left >= 0 then walk d.left ~depth:(depth + 1) ~anc:((d, true) :: anc);
        if d.right >= 0 then
          walk d.right ~depth:(depth + 1) ~anc:((d, false) :: anc)
      in
      walk 0 ~depth:0 ~anc:[];
      if !total <> t.size then fail "stored %d points, size says %d" !total t.size

let cost_model t =
  Pc_obs.Cost_model.Pst3
    (match t.mode with
    | Baseline -> Pc_obs.Cost_model.Naive
    | Cached -> Pc_obs.Cost_model.Cached)

let conformance t ~t_out ~measured =
  Pc_obs.Cost_model.Conformance.check (cost_model t) ~n:t.size
    ~b:(Pager.page_capacity t.pager) ~t:t_out ~measured

let query_count t ~xl ~xr ~yb =
  List.length (fst (query t ~xl ~xr ~yb))

let storage_pages t = Pager.pages_in_use t.pager
let io_stats t = Pager.stats t.pager
let reset_io_stats t = Pager.reset_stats t.pager

(* ------------------------------------------------------------------ *)
(* Durability                                                         *)
(* ------------------------------------------------------------------ *)

let snapshot t = Marshal.to_string (t.mode, Pager.page_capacity t.pager, t.layout, t.block_pages, t.seg_len, t.size) []

(* The static build is one journal transaction — all-or-nothing under a
   crash. *)
let create ?cache_capacity ?pool ?obs ?durability ?backend ~mode ~b pts =
  let result = ref None in
  Wal.with_txn durability
    ~meta:(fun () -> snapshot (Option.get !result))
    (fun () ->
      let t =
        create_unjournaled ?cache_capacity ?pool ?obs ?durability ?backend
          ~mode ~b pts
      in
      result := Some t;
      t)

let wal t = Pager.wal t.pager
let snapshot_readable t = Pager.snapshot_readable t.pager

let of_snapshot ?cache_capacity ?obs ?backend r ~idx ~snapshot =
  let (mode, b, layout, block_pages, seg_len, size) : mode * int * Skeletal_layout.t option * int array * int * int =
    Marshal.from_string snapshot 0
  in
  let pager =
    Pager.attach_recovered r ~idx ?cache_capacity ?obs ?backend
      ~obs_name:"ext_pst3" ~page_capacity:b ()
  in
  { mode; pager; layout; block_pages; seg_len; size; store = None }

let recover ?(mode = Cached) ?backend ~b (r : Wal.recovered) =
  match r.Wal.r_meta with
  | Some snapshot -> of_snapshot ?backend r ~idx:0 ~snapshot
  | None -> create ~durability:(Wal.create ()) ?backend ~mode ~b []

(* ------------------------------------------------------------------ *)
(* File backing: binary cell codec                                    *)
(* ------------------------------------------------------------------ *)

module Codec = Pc_blockdev.Page_codec

(* Cells embed blocked lists, which are nothing but page ids plus a
   length — exactly what a real disk-resident region descriptor would
   hold. Layout per list: i64 element count, i64 page count, then the
   page ids. *)
let enc_list buf l =
  let ids, len = Blocked_list.to_ids l in
  Codec.put_int buf len;
  Codec.put_int buf (Array.length ids);
  Array.iter (Codec.put_int buf) ids

let dec_list b pos =
  let g = Codec.get_int ~page:(-1) b in
  let len = g pos in
  let npages = g (pos + 8) in
  if len < 0 || npages < 0 || npages > (Bytes.length b - pos) / 8 then
    raise
      (Codec.Corrupt_page
         {
           page = -1;
           reason =
             Printf.sprintf "blocked list claims %d elements in %d pages" len
               npages;
         });
  let ids = Array.init npages (fun i -> g (pos + 16 + (8 * i))) in
  (Blocked_list.of_ids (ids, len), pos + 16 + (8 * npages))

let enc_point buf (p : Point.t) =
  Codec.put_int buf p.x;
  Codec.put_int buf p.y;
  Codec.put_int buf p.id

let dec_point b pos =
  let g = Codec.get_int ~page:(-1) b in
  (Point.make ~x:(g pos) ~y:(g (pos + 8)) ~id:(g (pos + 16)), pos + 24)

let codec : cell Codec.t =
  {
    Codec.name = "ext-pst3-cell";
    kind = 5;
    enc =
      (fun buf -> function
        | Pt p ->
            Codec.put_u8 buf 0;
            enc_point buf p
        | Src { p; src } ->
            Codec.put_u8 buf 1;
            enc_point buf p;
            Codec.put_int buf src
        | Desc d ->
            Codec.put_u8 buf 2;
            List.iter (Codec.put_int buf)
              [
                d.node; d.depth; d.split; d.min_y; d.min_x; d.max_x; d.left;
                d.right; d.left_min_y; d.right_min_y; d.n_pts;
              ];
            List.iter (enc_list buf)
              [ d.y_list; d.a_list; d.a_asc_list; d.sr_list; d.sl_list ]);
    dec =
      (fun b pos ->
        match Codec.get_u8 ~page:(-1) b pos with
        | 0 ->
            let p, pos = dec_point b (pos + 1) in
            (Pt p, pos)
        | 1 ->
            let p, pos = dec_point b (pos + 1) in
            (Src { p; src = Codec.get_int ~page:(-1) b pos }, pos + 8)
        | 2 ->
            let g = Codec.get_int ~page:(-1) b in
            let pos = pos + 1 in
            let s i = g (pos + (8 * i)) in
            let pos = pos + (11 * 8) in
            let y_list, pos = dec_list b pos in
            let a_list, pos = dec_list b pos in
            let a_asc_list, pos = dec_list b pos in
            let sr_list, pos = dec_list b pos in
            let sl_list, pos = dec_list b pos in
            ( Desc
                {
                  node = s 0;
                  depth = s 1;
                  split = s 2;
                  min_y = s 3;
                  min_x = s 4;
                  max_x = s 5;
                  left = s 6;
                  right = s 7;
                  left_min_y = s 8;
                  right_min_y = s 9;
                  n_pts = s 10;
                  y_list;
                  a_list;
                  a_asc_list;
                  sr_list;
                  sl_list;
                },
              pos )
        | tag ->
            raise
              (Codec.Corrupt_page
                 {
                   page = -1;
                   reason = Printf.sprintf "unknown ext_pst3 cell tag %d" tag;
                 }));
  }

(* Worst cell: a descriptor whose five lists each span the segment
   window (a-lists hold up to [seg_len] pages; the others at most one
   page plus slack). A page packs up to [b] descriptors (skeletal
   blocks), so size for all-descriptor pages. *)
let page_bytes ~b =
  let lg = max 1 (Num_util.ilog2 (max 2 b)) in
  let max_list_bytes = 16 + (8 * (lg + 2)) in
  let max_cell_bytes = 1 + (11 * 8) + (5 * max_list_bytes) in
  Codec.page_size ~max_cell_bytes ~capacity:b

let close t =
  match t.store with
  | None -> ()
  | Some ds ->
      Option.iter
        (fun d -> d.Pc_blockdev.Block_device.flush ())
        (Pager.device t.pager);
      Disk_store.close ds

let open_store ~dir ~b =
  let ds = Disk_store.open_dir ~dir in
  let dev = Disk_store.device ds ~idx:0 ~page_bytes:(page_bytes ~b) in
  (ds, { Pager.dev; codec })

let create_file ?cache_capacity ?obs ~dir ~mode ~b pts =
  let ds, backend = open_store ~dir ~b in
  let wal = Wal.create () in
  Wal.attach_store wal (Disk_store.wal_store ?obs ds);
  let t =
    create ?cache_capacity ?obs ~durability:wal ~backend ~mode ~b pts
  in
  { t with store = Some ds }

let recover_file ?cache_capacity ?obs ?(mode = Cached) ~dir ~b () =
  let image =
    Disk_store.load_image ~dir
      ~parts:[ Disk_store.part codec ~idx:0 ~page_bytes:(page_bytes ~b) ]
  in
  let r = Wal.recover image in
  let ds, backend = open_store ~dir ~b in
  Wal.attach_store r.Wal.r_wal (Disk_store.wal_store ?obs ds);
  let t =
    match r.Wal.r_meta with
    | Some snapshot ->
        let t = of_snapshot ?cache_capacity ?obs ~backend r ~idx:0 ~snapshot in
        let b' = Pager.page_capacity t.pager in
        if b' <> b then
          invalid_arg
            (Printf.sprintf
               "Ext_pst3.recover_file: %s holds a structure with b=%d, not \
                b=%d"
               dir b' b);
        t
    | None ->
        (* nothing ever committed: an empty durable structure here *)
        create ?cache_capacity ?obs ~durability:r.Wal.r_wal ~backend ~mode ~b []
  in
  (* redo results were just rewritten onto the device: sync them and
     stamp a fresh superblock so the directory is clean again *)
  Wal.store_checkpoint r.Wal.r_wal;
  { t with store = Some ds }
