open Pc_util
open Pc_pagestore

type op = Ins of Point.t | Del of { id : int }

(* Top-level pager cells. Sub-structures (second level) live on their own
   pager with the shared static representation ({!Types}). *)
type cell =
  | Desc of desc
  | Pt of Point.t
  | Src of { p : Point.t; src : int; src_total : int }
  | Op of op

and desc = {
  node : int;
  split : int;
  min_y : int;
  left : int;
  right : int;
  left_min_y : int;
  right_min_y : int;
  n_pts : int;
  y_list : cell Blocked_list.t;  (* applied points, decreasing y *)
  x_list : cell Blocked_list.t;  (* applied points, decreasing x *)
  a_list : cell Blocked_list.t;
      (* first X pages of in-block path ancestors and of the region
         itself, decreasing x — windows never cross block boundaries so a
         flush only rebuilds caches inside its own super node (§5) *)
  s_list : cell Blocked_list.t;
      (* first Y pages of right children of in-block strict ancestors
         the path leaves to the left, decreasing y *)
  u_list : cell Blocked_list.t;  (* per-region delta vs [sub] (Op cells) *)
  sub : Types.structure option;  (* second-level structure (stale by [u]) *)
}

(* In-memory mirror used for maintenance decisions; every byte a query
   consumes still flows through pages. *)
type region = {
  idx : int;
  depth : int;
  split : int;
  left : region option;
  right : region option;
  parent : int; (* parent idx, -1 at root *)
  mutable pts : Point.t list;
  mutable min_y : int;
  mutable u : op list;
  mutable sub : Types.structure option;
  mutable sub_size : int;
  mutable desc : desc option;
}

type block = {
  bidx : int;
  mutable page : int;
  members : int array; (* region idxs, block preorder *)
  mutable buffer : op list; (* newest first *)
}

type t = {
  b : int;
  cap : int;
  u_cap : int;
  pager : cell Pager.t;
  sub_pager : Types.cell Pager.t;
  mutable regions : region array;
  mutable blocks : block array;
  mutable layout : Skeletal_layout.t option;
  mutable size : int;
  mutable size_at_build : int;
  mutable updates_since_build : int;
  mutable global_rebuilds : int;
  mutable sub_rebuilds : int;
  mutable heap_stale : bool;
      (* a low-y insert landed at a region whose x-side child is missing
         while the other side is populated, lowering its [min_y] below
         the sibling subtree's points; the heap ordering the query's
         descent pruning relies on is broken until the next rebuild *)
  applied : (int, int) Hashtbl.t; (* point id -> region idx *)
  pending : (int, int) Hashtbl.t; (* point id -> block idx (buffered Ins) *)
}

(* Super-node height log B - log log B (§5): small enough that rebuilding
   a block's caches costs O(B) I/Os, large enough that block crossings
   stay O(log_B n) per query. *)
let block_height b =
  let h = max 1 (Num_util.ilog2 (b + 1)) in
  max 1 (h - Num_util.ilog2 (max 2 h))

(* ------------------------------------------------------------------ *)
(* Mirror construction                                                *)
(* ------------------------------------------------------------------ *)

let region_capacity b = b * max 1 (Num_util.ceil_log2 (max 2 b))

let build_mirror ~cap pts =
  let rt = Region_tree.build ~capacity:cap pts in
  let num = Region_tree.num_nodes rt in
  if num = 0 then [||]
  else begin
    let regions = Array.make num None in
    let rec conv (n : Region_tree.node) parent =
      let r =
        {
          idx = n.idx;
          depth = n.depth;
          split = n.split;
          left = None;
          right = None;
          parent;
          pts = Array.to_list n.pts_by_y;
          min_y = n.min_y;
          u = [];
          sub = None;
          sub_size = 0;
          desc = None;
        }
      in
      regions.(n.idx) <- Some r;
      let l = Option.map (fun c -> conv c n.idx) n.left in
      let rr = Option.map (fun c -> conv c n.idx) n.right in
      let r = { r with left = l; right = rr } in
      regions.(n.idx) <- Some r;
      r
    in
    (match Region_tree.root rt with
    | Some root -> ignore (conv root (-1))
    | None -> ());
    Array.map (function Some r -> r | None -> assert false) regions
  end

(* ------------------------------------------------------------------ *)
(* Persistence of one region / one block                              *)
(* ------------------------------------------------------------------ *)

let pts_desc_y r = List.sort Point.compare_y_desc r.pts
let pts_desc_x r = List.sort Point.compare_x_desc r.pts

let refresh_min_y r =
  r.min_y <-
    (match pts_desc_y r with
    | [] -> max_int
    | l -> (List.nth l (List.length l - 1)).Point.y)

let first_x_entries b (u : region) =
  let sorted = pts_desc_x u in
  let k = min b (List.length sorted) in
  List.map (fun p -> Src { p; src = u.idx; src_total = k }) (Blocked.take k sorted)

let first_y_entries b (u : region) =
  let sorted = pts_desc_y u in
  let k = min b (List.length sorted) in
  List.map (fun p -> Src { p; src = u.idx; src_total = k }) (Blocked.take k sorted)

let src_point = function
  | Src { p; _ } -> p
  | Pt p -> p
  | Desc _ | Op _ -> invalid_arg "Dynamic: non-point cell"

(* Rebuild the persisted lists and descriptor of region [r]. The cache
   lists need the in-block ancestor path, supplied by the caller. *)
let persist_region t ~in_block_path (r : region) =
  (match r.desc with
  | Some d ->
      Blocked_list.free t.pager d.y_list;
      Blocked_list.free t.pager d.x_list;
      Blocked_list.free t.pager d.a_list;
      Blocked_list.free t.pager d.s_list;
      Blocked_list.free t.pager d.u_list
  | None -> ());
  let a_entries =
    List.concat_map (fun (u, _) -> first_x_entries t.b u) ((r, true) :: in_block_path)
    |> List.sort (fun c1 c2 -> Point.compare_x_desc (src_point c1) (src_point c2))
  in
  let s_entries =
    List.concat_map
      (fun ((u : region), went_left) ->
        if went_left then
          match u.right with Some s -> first_y_entries t.b s | None -> []
        else [])
      in_block_path
    |> List.sort (fun c1 c2 -> Point.compare_y_desc (src_point c1) (src_point c2))
  in
  let child_idx = function Some (c : region) -> c.idx | None -> -1 in
  let child_min = function Some (c : region) -> c.min_y | None -> max_int in
  let d =
    {
      node = r.idx;
      split = r.split;
      min_y = r.min_y;
      left = child_idx r.left;
      right = child_idx r.right;
      left_min_y = child_min r.left;
      right_min_y = child_min r.right;
      n_pts = List.length r.pts;
      y_list =
        Blocked_list.store t.pager (List.map (fun p -> Pt p) (pts_desc_y r));
      x_list =
        Blocked_list.store t.pager (List.map (fun p -> Pt p) (pts_desc_x r));
      a_list = Blocked_list.store t.pager a_entries;
      s_list = Blocked_list.store t.pager s_entries;
      u_list = Blocked_list.store t.pager (List.map (fun o -> Op o) r.u);
      sub = r.sub;
    }
  in
  r.desc <- Some d

(* Refresh only the metadata (min_y, child minima, sub, u) of a region's
   descriptor without touching its point or cache lists. *)
let refresh_desc (r : region) =
  match r.desc with
  | None -> ()
  | Some d ->
      let child_min = function Some (c : region) -> c.min_y | None -> max_int in
      r.desc <-
        Some
          {
            d with
            min_y = r.min_y;
            left_min_y = child_min r.left;
            right_min_y = child_min r.right;
            n_pts = List.length r.pts;
            sub = r.sub;
          }

let write_block t (blk : block) =
  let cells =
    Array.to_list blk.members
    |> List.map (fun i ->
           match t.regions.(i).desc with
           | Some d -> Desc d
           | None -> assert false)
  in
  let ops = List.rev_map (fun o -> Op o) blk.buffer in
  Pager.write t.pager blk.page (Array.of_list (cells @ ops))

(* Rebuild a region's second level from its applied points; the delta
   list empties. *)
let rebuild_sub t (r : region) =
  (match r.sub with
  | Some s -> Build.free t.sub_pager s
  | None -> ());
  r.sub <-
    (if List.length r.pts > t.b then
       Some (Build.build t.sub_pager ~modes:[ Types.Full_path ] ~caps:[ t.b ] r.pts)
     else None);
  r.sub_size <- List.length r.pts;
  r.u <- [];
  t.sub_rebuilds <- t.sub_rebuilds + 1

(* ------------------------------------------------------------------ *)
(* Full (re)build                                                     *)
(* ------------------------------------------------------------------ *)

let in_block_path_of t (r : region) =
  (* Strict ancestors of r inside r's skeletal block, innermost first,
     with the direction the path to r leaves them. *)
  match t.layout with
  | None -> []
  | Some layout ->
      let rec up acc idx prev_idx =
        if idx < 0 then acc
        else begin
          let u = t.regions.(idx) in
          if Skeletal_layout.same_block layout idx r.idx then begin
            let went_left =
              match u.left with Some l -> l.idx = prev_idx | None -> false
            in
            up (acc @ [ (u, went_left) ]) u.parent idx
          end
          else acc
        end
      in
      up [] t.regions.(r.idx).parent r.idx

let rebuild_all t pts =
  (* Release everything currently on disk. *)
  Array.iter
    (fun (r : region) ->
      (match r.desc with
      | Some d ->
          Blocked_list.free t.pager d.y_list;
          Blocked_list.free t.pager d.x_list;
          Blocked_list.free t.pager d.a_list;
          Blocked_list.free t.pager d.s_list;
          Blocked_list.free t.pager d.u_list
      | None -> ());
      match r.sub with Some s -> Build.free t.sub_pager s | None -> ())
    t.regions;
  Array.iter (fun (blk : block) -> Pager.free t.pager blk.page) t.blocks;
  Hashtbl.reset t.applied;
  Hashtbl.reset t.pending;
  t.regions <- build_mirror ~cap:t.cap pts;
  t.size <- List.length pts;
  t.size_at_build <- t.size;
  t.updates_since_build <- 0;
  t.heap_stale <- false;
  if Array.length t.regions = 0 then begin
    t.layout <- None;
    t.blocks <- [||]
  end
  else begin
    let num = Array.length t.regions in
    let child side i =
      let r = t.regions.(i) in
      Option.map
        (fun (c : region) -> c.idx)
        (match side with `L -> r.left | `R -> r.right)
    in
    let layout =
      Skeletal_layout.compute ~num_nodes:num ~root:0 ~left:(child `L)
        ~right:(child `R) ~block_height:(block_height t.b)
    in
    t.layout <- Some layout;
    Array.iter
      (fun (r : region) ->
        List.iter (fun (p : Point.t) -> Hashtbl.replace t.applied p.id r.idx) r.pts)
      t.regions;
    (* Second levels first, then lists/caches, then block pages. *)
    Array.iter
      (fun (r : region) ->
        r.sub <- None;
        r.sub_size <- 0;
        r.u <- [];
        if List.length r.pts > t.b then begin
          r.sub <-
            Some
              (Build.build t.sub_pager ~modes:[ Types.Full_path ]
                 ~caps:[ t.b ] r.pts);
          r.sub_size <- List.length r.pts
        end)
      t.regions;
    Array.iter
      (fun (r : region) ->
        persist_region t ~in_block_path:(in_block_path_of t r) r)
      t.regions;
    t.blocks <-
      Array.init (Skeletal_layout.num_blocks layout) (fun bidx ->
          let members = Array.of_list (Skeletal_layout.nodes_in layout bidx) in
          let blk = { bidx; page = -1; members; buffer = [] } in
          blk);
    Array.iter
      (fun (blk : block) ->
        let cells =
          Array.to_list blk.members
          |> List.map (fun i ->
                 match t.regions.(i).desc with
                 | Some d -> Desc d
                 | None -> assert false)
        in
        blk.page <- Pager.alloc t.pager (Array.of_list cells))
      t.blocks
  end

let to_list t =
  let dels = Hashtbl.create 16 in
  let ins = ref [] in
  Array.iter
    (fun (blk : block) ->
      List.iter
        (function
          | Ins p -> ins := p :: !ins
          | Del { id } -> Hashtbl.replace dels id ())
        blk.buffer)
    t.blocks;
  let applied = Array.to_list t.regions |> List.concat_map (fun r -> r.pts) in
  List.filter (fun (p : Point.t) -> not (Hashtbl.mem dels p.id)) applied @ !ins

(* The durability layer logs this structure logically: the commit record
   carries the live point set (the mirror is in-memory state rebuilt at
   recovery), while the page writes themselves are still journaled so a
   transaction's I/O is atomic and write amplification is measurable. *)
let snapshot t =
  Marshal.to_string (t.b, List.sort Point.compare_id (to_list t)) []

let durable_txn t f =
  Wal.with_txn (Pager.wal t.pager) ~meta:(fun () -> snapshot t) f

let create ?(cache_capacity = 0) ?pool ?obs ?durability ~b pts =
  if b < 2 then invalid_arg "Dynamic.create: b < 2";
  let descs_max = (1 lsl block_height b) - 1 in
  let u_cap = max 1 (b - descs_max) in
  (* one frame budget covers the main and substructure pagers; before the
     shared pool, passing [cache_capacity] to both silently doubled the
     cache memory *)
  let pool =
    match pool with
    | Some p -> p
    | None ->
        Pc_bufferpool.Buffer_pool.create ~capacity:cache_capacity ()
  in
  let t =
    {
      b;
      cap = region_capacity b;
      u_cap;
      pager =
        Pager.create ~pool ?obs ?wal:durability ~obs_name:"dynamic"
          ~page_capacity:b ();
      sub_pager =
        Pager.create ~pool ?obs ?wal:durability ~obs_name:"dynamic.sub"
          ~page_capacity:b ();
      regions = [||];
      blocks = [||];
      layout = None;
      size = 0;
      size_at_build = 0;
      updates_since_build = 0;
      global_rebuilds = 0;
      sub_rebuilds = 0;
      heap_stale = false;
      applied = Hashtbl.create 1024;
      pending = Hashtbl.create 64;
    }
  in
  Pc_obs.Obs.with_span obs ~kind:"build.dynamic" (fun () ->
      durable_txn t (fun () -> rebuild_all t pts));
  t

let obs t = Pager.obs t.pager
let wal t = Pager.wal t.pager

(* ------------------------------------------------------------------ *)
(* Updates                                                            *)
(* ------------------------------------------------------------------ *)

(* Charge the route I/O: one page read per distinct skeletal block from
   the root to [r]'s block. *)
let charge_path_reads t (r : region) =
  match t.layout with
  | None -> ()
  | Some layout ->
      let rec blocks_up acc idx =
        if idx < 0 then acc
        else
          blocks_up (Skeletal_layout.block_of layout idx :: acc)
            t.regions.(idx).parent
      in
      let bs = blocks_up [] r.idx |> List.sort_uniq compare in
      List.iter (fun bidx -> ignore (Pager.read t.pager t.blocks.(bidx).page)) bs

(* The region whose rectangle contains [p]: first region on p's x-descent
   whose minimum y is at or below p, else the leaf. *)
let route_region t (p : Point.t) =
  let rec walk (r : region) =
    if p.y >= r.min_y then r
    else begin
      let child = if p.x <= r.split then r.left else r.right in
      match child with Some c -> walk c | None -> r
    end
  in
  walk t.regions.(0)

(* Flush a block's update buffer: apply the operations to the block's
   regions (or push them into child blocks when their position has
   drifted below this super node), rebuild the affected lists and all of
   the block's caches, and lazily rebuild second levels (§5). *)
let rec flush t (blk : block) =
  match t.layout with
  | None -> ()
  | Some layout ->
      let ops = List.rev blk.buffer in
      blk.buffer <- [];
      let dirty = Hashtbl.create 8 in
      let pushed_blocks = ref [] in
      let apply_to (r : region) op =
        (match op with
        | Ins p ->
            r.pts <- p :: r.pts;
            Hashtbl.replace t.applied p.id r.idx
        | Del { id } ->
            r.pts <- List.filter (fun (q : Point.t) -> q.id <> id) r.pts;
            Hashtbl.remove t.applied id);
        refresh_min_y r;
        r.u <- op :: r.u;
        Hashtbl.replace dirty r.idx ()
      in
      let push_to_child (c : region) op =
        let cb = t.blocks.(Skeletal_layout.block_of layout c.idx) in
        cb.buffer <- op :: cb.buffer;
        (match op with
        | Ins p -> Hashtbl.replace t.pending p.id cb.bidx
        | Del _ -> ());
        if not (List.memq cb !pushed_blocks) then
          pushed_blocks := cb :: !pushed_blocks
      in
      let block_root = t.regions.(blk.members.(0)) in
      List.iter
        (fun op ->
          match op with
          | Del { id } -> (
              match Hashtbl.find_opt t.applied id with
              | Some ridx -> apply_to t.regions.(ridx) op
              | None -> (* already gone (e.g. superseded) *) ())
          | Ins p ->
              Hashtbl.remove t.pending p.Point.id;
              (* Trickle down within this super node; if the point's
                 position has drifted below it, log the insert in the
                 child's super node instead (paper: pushed points are
                 logged as updates in the corresponding supernodes). *)
              let rec place (r : region) =
                if p.Point.y >= r.min_y then apply_to r op
                else begin
                  let child = if p.Point.x <= r.split then r.left else r.right in
                  match child with
                  | None ->
                      (* Nowhere lower to go on this x side: the point
                         stays here and drags [min_y] under the other
                         subtree's points. Schedule a rebuild before the
                         enclosing update returns. *)
                      (match (r.left, r.right) with
                      | None, None -> ()
                      | _ -> t.heap_stale <- true);
                      apply_to r op
                  | Some c ->
                      if Skeletal_layout.same_block layout c.idx blk.members.(0)
                      then place c
                      else push_to_child c op
                end
              in
              place block_root)
        ops;
      (* Rebuild lists of dirty regions and second levels whose deltas
         overflowed; then rebuild every cache in this block (windows are
         block-local, so nothing outside is stale). *)
      Hashtbl.iter
        (fun ridx () ->
          let r = t.regions.(ridx) in
          if List.length r.u >= t.b || (r.sub = None && List.length r.pts > t.b)
          then rebuild_sub t r)
        dirty;
      Array.iter
        (fun ridx ->
          let r = t.regions.(ridx) in
          persist_region t ~in_block_path:(in_block_path_of t r) r)
        blk.members;
      write_block t blk;
      (* Parent block sees this block root's new min_y via its child-min
         fields. *)
      let root_region = t.regions.(blk.members.(0)) in
      if root_region.parent >= 0 then begin
        let parent = t.regions.(root_region.parent) in
        refresh_desc parent;
        let pb = t.blocks.(Skeletal_layout.block_of layout parent.idx) in
        write_block t pb
      end;
      (* Cascade into any child blocks that overflowed. *)
      List.iter
        (fun (cb : block) ->
          write_block t cb;
          if List.length cb.buffer >= t.u_cap then flush t cb)
        !pushed_blocks

let maybe_global_rebuild t =
  if t.heap_stale || t.updates_since_build >= max t.b (t.size_at_build / 2)
  then begin
    let pts =
      Array.to_list t.regions |> List.concat_map (fun r -> r.pts)
    in
    (* Fold in still-buffered operations. *)
    let buffered_ins = ref [] in
    let buffered_del = Hashtbl.create 16 in
    Array.iter
      (fun (blk : block) ->
        List.iter
          (function
            | Ins p -> buffered_ins := p :: !buffered_ins
            | Del { id } -> Hashtbl.replace buffered_del id ())
          blk.buffer)
      t.blocks;
    let pts =
      List.filter (fun (p : Point.t) -> not (Hashtbl.mem buffered_del p.id)) pts
      @ !buffered_ins
    in
    rebuild_all t pts;
    t.global_rebuilds <- t.global_rebuilds + 1
  end

let with_ios t f =
  let before =
    Io_stats.total (Pager.stats t.pager)
    + Io_stats.total (Pager.stats t.sub_pager)
  in
  let result = f () in
  let after =
    Io_stats.total (Pager.stats t.pager)
    + Io_stats.total (Pager.stats t.sub_pager)
  in
  (result, after - before)

let insert t (p : Point.t) =
  Pc_obs.Obs.with_span (obs t) ~kind:"insert.dynamic"
    ~result_args:(fun ios -> [ ("ios", ios) ])
  @@ fun () ->
  let (), ios =
    with_ios t (fun () ->
        durable_txn t @@ fun () ->
        if Array.length t.regions = 0 then begin
          rebuild_all t [ p ];
          t.global_rebuilds <- t.global_rebuilds + 1
        end
        else begin
          let target = route_region t p in
          charge_path_reads t target;
          let blk =
            match t.layout with
            | Some layout ->
                t.blocks.(Skeletal_layout.block_of layout target.idx)
            | None -> assert false
          in
          blk.buffer <- Ins p :: blk.buffer;
          Hashtbl.replace t.pending p.id blk.bidx;
          write_block t blk;
          if List.length blk.buffer >= t.u_cap then flush t blk;
          t.size <- t.size + 1;
          t.updates_since_build <- t.updates_since_build + 1;
          maybe_global_rebuild t
        end)
  in
  ios

let delete t ~id =
  Pc_obs.Obs.with_span (obs t) ~kind:"delete.dynamic"
    ~result_args:(fun r -> [ ("ios", Option.value r ~default:0) ])
  @@ fun () ->
  match (Hashtbl.find_opt t.pending id, Hashtbl.find_opt t.applied id) with
  | None, None -> None
  | Some bidx, _ ->
      (* Cancel a still-buffered insert in place. *)
      let (), ios =
        with_ios t (fun () ->
            durable_txn t @@ fun () ->
            let blk = t.blocks.(bidx) in
            blk.buffer <-
              List.filter
                (function Ins p -> p.Point.id <> id | Del _ -> true)
                blk.buffer;
            Hashtbl.remove t.pending id;
            write_block t blk;
            t.size <- t.size - 1;
            t.updates_since_build <- t.updates_since_build + 1;
            maybe_global_rebuild t)
      in
      Some ios
  | None, Some ridx ->
      let (), ios =
        with_ios t (fun () ->
            durable_txn t @@ fun () ->
            let r = t.regions.(ridx) in
            charge_path_reads t r;
            let blk =
              match t.layout with
              | Some layout -> t.blocks.(Skeletal_layout.block_of layout r.idx)
              | None -> assert false
            in
            blk.buffer <- Del { id } :: blk.buffer;
            write_block t blk;
            if List.length blk.buffer >= t.u_cap then flush t blk;
            t.size <- t.size - 1;
            t.updates_since_build <- t.updates_since_build + 1;
            maybe_global_rebuild t)
      in
      Some ios

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

let cell_point = function
  | Pt p -> p
  | Src { p; _ } -> p
  | Desc _ | Op _ -> invalid_arg "Dynamic: non-point cell in point list"

let query t ~xl ~yb =
  Pc_obs.Obs.with_span (obs t) ~kind:"query.2sided"
    ~result_args:(fun (_, st) -> Query_stats.to_args st)
  @@ fun () ->
  let stats = Query_stats.create () in
  match t.layout with
  | None -> ([], stats)
  | Some layout ->
      let read_pages = Hashtbl.create 16 in
      (* page id -> (descs, ops) *)
      let read_block bidx =
        let page = t.blocks.(bidx).page in
        match Hashtbl.find_opt read_pages page with
        | Some decoded -> decoded
        | None ->
            let cells = Pager.read t.pager page in
            stats.skeletal_reads <- stats.skeletal_reads + 1;
            let descs = ref [] and ops = ref [] in
            Array.iter
              (function
                | Desc d -> descs := d :: !descs
                | Op o -> ops := o :: !ops
                | Pt _ | Src _ -> ())
              cells;
            let decoded = (List.rev !descs, List.rev !ops) in
            Hashtbl.add read_pages page decoded;
            decoded
      in
      let get idx =
        let descs, _ = read_block (Skeletal_layout.block_of layout idx) in
        match List.find_opt (fun d -> d.node = idx) descs with
        | Some d -> d
        | None -> invalid_arg "Dynamic: descriptor missing from block"
      in
      let note_waste reads kept =
        stats.wasteful_reads <-
          stats.wasteful_reads + max 0 (reads - (kept / t.b))
      in
      let scan ~kind ?(from = 0) list ~keep =
        let cells, reads =
          Blocked_list.scan_prefix_from t.pager list ~from ~keep:(fun c ->
              keep (cell_point c))
        in
        (match kind with
        | `Data -> stats.data_reads <- stats.data_reads + reads
        | `Cache -> stats.cache_reads <- stats.cache_reads + reads);
        (cells, reads)
      in
      let out = ref [] in
      let deleted = Hashtbl.create 8 in
      let add pts = out := List.rev_append pts !out in
      (* Descent. *)
      let rec descend acc (d : desc) =
        let acc = d :: acc in
        if d.min_y < yb then List.rev acc
        else begin
          let next = if xl <= d.split then d.left else d.right in
          if next < 0 then List.rev acc else descend acc (get next)
        end
      in
      let path = Array.of_list (descend [] (get 0)) in
      let len = Array.length path in
      let corner = path.(len - 1) in
      let by_idx = Hashtbl.create 16 in
      Array.iter (fun d -> Hashtbl.replace by_idx d.node d) path;
      (* Corner: second level (stale) plus its one-page delta, or its
         fresh Y-list when it has no second level. *)
      (match corner.sub with
      | Some sub ->
          let pts, sub_stats = Query.two_sided t.sub_pager sub ~xl ~yb in
          Query_stats.add ~into:stats sub_stats;
          add pts;
          if not (Blocked_list.is_empty corner.u_list) then begin
            let cells, reads =
              Blocked_list.scan_prefix t.pager corner.u_list ~keep:(fun _ ->
                  true)
            in
            stats.data_reads <- stats.data_reads + reads;
            List.iter
              (function
                | Op (Ins p) ->
                    if p.Point.x >= xl && p.Point.y >= yb then add [ p ]
                | Op (Del { id }) -> Hashtbl.replace deleted id ()
                | Desc _ | Pt _ | Src _ -> ())
              cells
          end
      | None ->
          let cells, reads =
            scan ~kind:`Data corner.y_list ~keep:(fun p -> p.Point.y >= yb)
          in
          let hits =
            List.map cell_point cells
            |> List.filter (fun (p : Point.t) -> p.x >= xl)
          in
          note_waste reads (List.length hits);
          add hits);
      (* Group the path by skeletal block; each block's deepest path node
         (its exit) carries the cache covering the block's path segment. *)
      let exits = Hashtbl.create 8 in
      Array.iter
        (fun (d : desc) ->
          Hashtbl.replace exits (Skeletal_layout.block_of layout d.node) d)
        path;
      let scan_cache list ~keep ~skip_src =
        let cells, reads = scan ~kind:`Cache list ~keep in
        let per_src = Hashtbl.create 8 in
        let pts =
          List.filter_map
            (function
              | Src { p; src; src_total } ->
                  if src = skip_src then None
                  else begin
                    let k =
                      match Hashtbl.find_opt per_src src with
                      | Some (k, _) -> k + 1
                      | None -> 1
                    in
                    Hashtbl.replace per_src src (k, src_total);
                    Some p
                  end
              | _ -> invalid_arg "Dynamic: untagged cache cell")
            cells
        in
        note_waste reads (List.length pts);
        let full =
          Hashtbl.fold
            (fun src (k, total) acc -> if k = total then src :: acc else acc)
            per_src []
        in
        (pts, full)
      in
      let rec explore_children (d : desc) =
        List.iter
          (fun (cidx, cmin) ->
            if cidx >= 0 then begin
              let c = get cidx in
              let cells, reads =
                scan ~kind:`Data c.y_list ~keep:(fun p -> p.Point.y >= yb)
              in
              note_waste reads (List.length cells);
              add (List.map cell_point cells);
              if cmin >= yb then explore_children c
            end)
          [ (d.left, d.left_min_y); (d.right, d.right_min_y) ]
      in
      Hashtbl.iter
        (fun _bidx (exit : desc) ->
          (* Ancestor cache (in-block path incl. the exit; the corner's
             own entries are skipped — answered above). *)
          let a_pts, a_full =
            scan_cache exit.a_list
              ~keep:(fun p -> p.Point.x >= xl)
              ~skip_src:corner.node
          in
          add a_pts;
          List.iter
            (fun src ->
              match Hashtbl.find_opt by_idx src with
              | Some u ->
                  let cells, reads =
                    scan ~kind:`Data ~from:1 u.x_list ~keep:(fun p ->
                        p.Point.x >= xl)
                  in
                  note_waste reads (List.length cells);
                  add (List.map cell_point cells)
              | None -> ())
            a_full;
          (* Sibling cache (right children of in-block strict ancestors
             the path leaves to the left). *)
          let s_pts, s_full =
            scan_cache exit.s_list ~keep:(fun p -> p.Point.y >= yb) ~skip_src:(-1)
          in
          add s_pts;
          List.iter
            (fun src ->
              let sdesc = get src in
              let cells, reads =
                scan ~kind:`Data ~from:1 sdesc.y_list ~keep:(fun p ->
                    p.Point.y >= yb)
              in
              note_waste reads (List.length cells);
              add (List.map cell_point cells))
            s_full)
        exits;
      (* Exit siblings (the right child of a block-bottom path node lives
         in another block and no cache covers it: read its Y prefix
         directly) and descendants of fully-contained siblings. *)
      for i = 0 to len - 2 do
        let u = path.(i) in
        if xl <= u.split && u.right >= 0 then begin
          let next_on_path = path.(i + 1) in
          let crosses =
            not (Skeletal_layout.same_block layout u.node next_on_path.node)
          in
          if crosses then begin
            let sdesc = get u.right in
            let cells, reads =
              scan ~kind:`Data sdesc.y_list ~keep:(fun p -> p.Point.y >= yb)
            in
            note_waste reads (List.length cells);
            add (List.map cell_point cells)
          end;
          if u.right_min_y >= yb then explore_children (get u.right)
        end
      done;
      (* Reconcile the update buffers of every super node this query
         read: buffered inserts in range are added, buffered deletions
         suppress whatever any structure reported. *)
      Hashtbl.iter
        (fun _page (_descs, ops) ->
          List.iter
            (function
              | Ins p -> if p.Point.x >= xl && p.Point.y >= yb then add [ p ]
              | Del { id } -> Hashtbl.replace deleted id ())
            ops)
        read_pages;
      let raw =
        List.filter (fun (p : Point.t) -> not (Hashtbl.mem deleted p.id)) !out
      in
      stats.reported_raw <- List.length raw;
      (Point.dedup_by_id raw, stats)

let query_count t ~xl ~yb = List.length (fst (query t ~xl ~yb))

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let size t = t.size
let page_size t = t.b
let cost_model _t = Pc_obs.Cost_model.Dynamic2

let conformance t ~t_out ~measured =
  Pc_obs.Cost_model.Conformance.check Pc_obs.Cost_model.Dynamic2 ~n:t.size
    ~b:t.b ~t:t_out ~measured

let storage_pages t =
  Pager.pages_in_use t.pager + Pager.pages_in_use t.sub_pager

let total_ios t =
  Io_stats.total (Pager.stats t.pager)
  + Io_stats.total (Pager.stats t.sub_pager)

let reset_io_stats t =
  Pager.reset_stats t.pager;
  Pager.reset_stats t.sub_pager

let rebuilds t = (t.global_rebuilds, t.sub_rebuilds)


let check_invariants t =
  let fail msg = failwith ("Dynamic: " ^ msg) in
  Array.iter
    (fun (blk : block) ->
      if List.length blk.buffer > t.u_cap then fail "block buffer overflow")
    t.blocks;
  Array.iter
    (fun (r : region) ->
      (match pts_desc_y r with
      | [] -> if r.min_y <> max_int then fail "stale min_y (empty)"
      | l ->
          if r.min_y <> (List.nth l (List.length l - 1)).Point.y then
            fail "stale min_y");
      let check_child side = function
        | None -> ()
        | Some (c : region) ->
            let rec all (c : region) =
              c.pts
              @ (match c.left with Some l -> all l | None -> [])
              @ match c.right with Some rr -> all rr | None -> []
            in
            List.iter
              (fun (p : Point.t) ->
                if p.y > r.min_y then fail "heap violation";
                match side with
                | `L -> if p.x > r.split then fail "x-split violation (left)"
                | `R -> if p.x < r.split then fail "x-split violation (right)")
              (all c)
      in
      check_child `L r.left;
      check_child `R r.right;
      if List.length r.u > t.b then fail "region delta overflow";
      (* The second-level snapshot plus the delta must reconstruct the
         applied point count. *)
      match r.sub with
      | Some _ ->
          let ins_u =
            List.length (List.filter (function Ins _ -> true | Del _ -> false) r.u)
          in
          let del_u = List.length r.u - ins_u in
          if r.sub_size + ins_u - del_u <> List.length r.pts then
            fail "second level out of sync"
      | None -> ())
    t.regions

(* Logical recovery: rebuild from the last committed point set. The
   recovered instance journals into a fresh Wal (the rebuilt pages share
   nothing with the crashed image's journal base). *)
let recover ~b (r : Wal.recovered) =
  let b, pts =
    match r.Wal.r_meta with
    | None -> (b, [])
    | Some snapshot -> (Marshal.from_string snapshot 0 : int * Point.t list)
  in
  create ~durability:(Wal.create ()) ~b pts
