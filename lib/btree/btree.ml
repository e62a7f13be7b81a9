open Pc_pagestore

type cell =
  | Meta of { leaf : bool; next : int }
  | Kv of { key : int; value : int }
  | Branch of { sep_key : int; sep_value : int; child : int }

(* Entries are ordered lexicographically by (key, value); separators are
   (key, value) pairs, which makes every routing decision unambiguous even
   with duplicate keys. A separator is an upper bound for its child (exact
   after splits and borrows, possibly slack after deletions). *)
type sep = int * int

let sep_compare ((k1, v1) : sep) (k2, v2) =
  let c = compare k1 k2 in
  if c <> 0 then c else compare v1 v2

let top_sep : sep = (max_int, max_int)

type node =
  | LeafN of { next : int; kvs : (int * int) array }
  | IntN of { branches : (sep * int) array }

type t = {
  pager : cell Pager.t;
  mutable root : int;
  mutable size : int;
  mutable height : int;
  store : Disk_store.t option; (* open file-backed home, for [close] *)
}

let max_payload t = Pager.page_capacity t.pager - 1

(* Non-root occupancy minima. Internal nodes must keep at least two
   branches so an underfull child always has a sibling to borrow from or
   merge with. *)
let min_leaf t = max 1 (max_payload t / 2)
let min_internal t = max 2 (max_payload t / 2)

let encode = function
  | LeafN { next; kvs } ->
      Array.append
        [| Meta { leaf = true; next } |]
        (Array.map (fun (key, value) -> Kv { key; value }) kvs)
  | IntN { branches } ->
      Array.append
        [| Meta { leaf = false; next = -1 } |]
        (Array.map
           (fun ((sep_key, sep_value), child) -> Branch { sep_key; sep_value; child })
           branches)

let decode page =
  (* Every encoded page carries a [Meta] header, so an empty page can
     only be a quarantined one served in degraded mode: read it as an
     empty leaf — its records are lost and the result is marked partial. *)
  if Array.length page = 0 then LeafN { next = -1; kvs = [||] }
  else
  match page.(0) with
  | Meta { leaf = true; next } ->
      let kvs =
        Array.init
          (Array.length page - 1)
          (fun i ->
            match page.(i + 1) with
            | Kv { key; value } -> (key, value)
            | _ -> invalid_arg "Btree: malformed leaf page")
      in
      LeafN { next; kvs }
  | Meta { leaf = false; _ } ->
      let branches =
        Array.init
          (Array.length page - 1)
          (fun i ->
            match page.(i + 1) with
            | Branch { sep_key; sep_value; child } -> ((sep_key, sep_value), child)
            | _ -> invalid_arg "Btree: malformed internal page")
      in
      IntN { branches }
  | _ -> invalid_arg "Btree: page without header"

let read_node t id = decode (Pager.read t.pager id)
let write_node t id node = Pager.write t.pager id (encode node)
let alloc_node t node = Pager.alloc t.pager (encode node)

(* The tree's non-page state; the durability layer carries it in every
   commit record so recovery can rebuild the handle from pages alone. *)
let snapshot t =
  Marshal.to_string (Pager.page_capacity t.pager, t.root, t.size, t.height) []

(* On a durable pager, group the page writes of one logical operation
   into a journal transaction; on a plain pager this is just [f ()]. *)
let durable_txn t f = Wal.with_txn (Pager.wal t.pager) ~meta:(fun () -> snapshot t) f

let create pager =
  if Pager.page_capacity pager < 4 then
    invalid_arg "Btree.create: page capacity must be >= 4";
  let t = { pager; root = -1; size = 0; height = 1; store = None } in
  durable_txn t (fun () ->
      t.root <- alloc_node t (LeafN { next = -1; kvs = [||] }));
  t

let create_in ?cache_capacity ?pool ?obs ?durability ~b () =
  create
    (Pager.create ?cache_capacity ?pool ?obs ?wal:durability ~obs_name:"btree"
       ~page_capacity:b ())

let obs t = Pager.obs t.pager
let with_span t ~kind f = Pc_obs.Obs.with_span (obs t) ~kind f

let pager t = t.pager
let size t = t.size
let height t = t.height
let cost_model _t = Pc_obs.Cost_model.Btree

let conformance t ~t_out ~measured =
  Pc_obs.Cost_model.Conformance.check Pc_obs.Cost_model.Btree ~n:t.size
    ~b:(Pager.page_capacity t.pager) ~t:t_out ~measured

(* Index of the first branch whose separator is >= target; the rightmost
   spine carries top_sep so the scan always terminates in range. *)
let route branches target =
  let n = Array.length branches in
  let rec loop i =
    if i >= n - 1 then n - 1
    else if sep_compare (fst branches.(i)) target >= 0 then i
    else loop (i + 1)
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Search                                                             *)
(* ------------------------------------------------------------------ *)

let rec find_leaf t id target =
  match read_node t id with
  | LeafN _ as leaf -> (id, leaf)
  | IntN { branches } ->
      let i = route branches target in
      find_leaf t (snd branches.(i)) target

let find t key =
  with_span t ~kind:"btree.find" @@ fun () ->
  let target = (key, min_int) in
  let rec scan_leaf id =
    match read_node t id with
    | LeafN { next; kvs } -> (
        let hit = Array.find_opt (fun (k, _) -> k = key) kvs in
        match hit with
        | Some (_, v) -> Some v
        | None ->
            (* Duplicates of [key] could start in a later leaf only if
               every entry here is < key; otherwise we are done. *)
            if
              next >= 0
              && Array.length kvs > 0
              && fst kvs.(Array.length kvs - 1) < key
            then scan_leaf next
            else if Array.length kvs = 0 && next >= 0 then scan_leaf next
            else None)
    | IntN _ -> assert false
  in
  let id, _ = find_leaf t t.root target in
  scan_leaf id

let range t ~lo ~hi =
  with_span t ~kind:"btree.range" @@ fun () ->
  if lo > hi then []
  else begin
    let id, _ = find_leaf t t.root (lo, min_int) in
    let acc = ref [] in
    let rec scan id =
      if id >= 0 then begin
        match read_node t id with
        | LeafN { next; kvs } ->
            let stop = ref false in
            Array.iter
              (fun (k, v) ->
                if k > hi then stop := true
                else if k >= lo then acc := (k, v) :: !acc)
              kvs;
            if not !stop then scan next
        | IntN _ -> assert false
      end
    in
    scan id;
    List.rev !acc
  end

let to_list t = range t ~lo:min_int ~hi:max_int

(* ------------------------------------------------------------------ *)
(* Navigation                                                         *)
(* ------------------------------------------------------------------ *)

let min_entry t =
  (* Walk the leftmost spine; skip (rare) empty leaves via the chain. *)
  let id, _ = find_leaf t t.root (min_int, min_int) in
  let rec first id =
    if id < 0 then None
    else
      match read_node t id with
      | LeafN { next; kvs } ->
          if Array.length kvs > 0 then Some kvs.(0) else first next
      | IntN _ -> assert false
  in
  first id

let max_entry t =
  let rec walk id =
    match read_node t id with
    | LeafN { kvs; _ } ->
        if Array.length kvs > 0 then Some kvs.(Array.length kvs - 1) else None
    | IntN { branches } -> walk (snd branches.(Array.length branches - 1))
  in
  walk t.root

let succ t k =
  let id, _ = find_leaf t t.root (k, max_int) in
  let rec scan id =
    if id < 0 then None
    else
      match read_node t id with
      | LeafN { next; kvs } -> (
          match Array.find_opt (fun (key, _) -> key > k) kvs with
          | Some kv -> Some kv
          | None -> scan next)
      | IntN _ -> assert false
  in
  scan id

let pred t k =
  (* Route to the leaf that would hold k, then take the largest smaller
     entry seen on the way down (separators bound the left siblings). *)
  let rec walk id best =
    match read_node t id with
    | LeafN { kvs; _ } ->
        let best = ref best in
        Array.iter (fun (key, v) -> if key < k then best := Some (key, v)) kvs;
        !best
    | IntN { branches } ->
        let i = route branches (k, min_int) in
        (* entries under branches.(j) for j < i are all < k only if their
           separators are; track the max candidate by descending into the
           previous child when the target child yields nothing *)
        let res = walk (snd branches.(i)) best in
        if res = None && i > 0 then walk (snd branches.(i - 1)) best else res
  in
  walk t.root None

let fold_range t ~lo ~hi ~init ~f =
  if lo > hi then init
  else begin
    let id, _ = find_leaf t t.root (lo, min_int) in
    let rec scan id acc =
      if id < 0 then acc
      else
        match read_node t id with
        | LeafN { next; kvs } ->
            let acc = ref acc in
            let stop = ref false in
            Array.iter
              (fun (k, v) ->
                if k > hi then stop := true
                else if k >= lo then acc := f !acc k v)
              kvs;
            if !stop then !acc else scan next !acc
        | IntN _ -> assert false
    in
    scan id init
  end

let count_range t ~lo ~hi = fold_range t ~lo ~hi ~init:0 ~f:(fun n _ _ -> n + 1)

let iter t f =
  ignore (fold_range t ~lo:min_int ~hi:max_int ~init:() ~f:(fun () k v -> f k v))

(* Cursor: current leaf contents held in memory plus a position; crossing
   to the next leaf costs one read. *)
type cursor = { c_kvs : (int * int) array; c_pos : int; c_next : int }

let rec cursor_of_leaf t id pos =
  if id < 0 then { c_kvs = [||]; c_pos = 0; c_next = -1 }
  else
    match read_node t id with
    | LeafN { next; kvs } ->
        if pos < Array.length kvs then { c_kvs = kvs; c_pos = pos; c_next = next }
        else cursor_of_leaf t next 0
    | IntN _ -> assert false

let cursor_at t k =
  let id, _ = find_leaf t t.root (k, min_int) in
  match read_node t id with
  | LeafN { next; kvs } ->
      let n = Array.length kvs in
      let rec pos i = if i >= n || fst kvs.(i) >= k then i else pos (i + 1) in
      let p = pos 0 in
      if p < n then { c_kvs = kvs; c_pos = p; c_next = next }
      else cursor_of_leaf t next 0
  | IntN _ -> assert false

let cursor_next t c =
  if c.c_pos < Array.length c.c_kvs then begin
    let kv = c.c_kvs.(c.c_pos) in
    let c' =
      if c.c_pos + 1 < Array.length c.c_kvs then { c with c_pos = c.c_pos + 1 }
      else cursor_of_leaf t c.c_next 0
    in
    Some (kv, c')
  end
  else None

(* ------------------------------------------------------------------ *)
(* Insertion                                                          *)
(* ------------------------------------------------------------------ *)

let array_insert arr i x =
  let n = Array.length arr in
  Array.init (n + 1) (fun j ->
      if j < i then arr.(j) else if j = i then x else arr.(j - 1))

let array_remove arr i =
  let n = Array.length arr in
  Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

(* Result of a recursive insert: the child either fit, or split and hands
   its parent a new right sibling with the left sibling's new exact
   separator. *)
type split = No_split | Split of { left_sep : sep; right : int }

let rec insert_rec t id entry =
  match read_node t id with
  | LeafN { next; kvs } ->
      let target = (fst entry, snd entry) in
      let n = Array.length kvs in
      let rec pos i = if i >= n || sep_compare kvs.(i) target > 0 then i else pos (i + 1) in
      let kvs = array_insert kvs (pos 0) entry in
      if Array.length kvs <= max_payload t then begin
        write_node t id (LeafN { next; kvs });
        No_split
      end
      else begin
        let m = Array.length kvs / 2 in
        let left_kvs = Array.sub kvs 0 m in
        let right_kvs = Array.sub kvs m (Array.length kvs - m) in
        let right = alloc_node t (LeafN { next; kvs = right_kvs }) in
        write_node t id (LeafN { next = right; kvs = left_kvs });
        Split { left_sep = left_kvs.(m - 1); right }
      end
  | IntN { branches } ->
      let i = route branches (fst entry, snd entry) in
      let child_sep, child = branches.(i) in
      (match insert_rec t child entry with
      | No_split -> No_split
      | Split { left_sep; right } ->
          (* The child kept its page id and became the left half; its
             branch gets the exact new separator and the new right sibling
             inherits the old (upper-bound) separator. *)
          let branches =
            array_insert
              (Array.mapi (fun j b -> if j = i then (left_sep, child) else b) branches)
              (i + 1) (child_sep, right)
          in
          if Array.length branches <= max_payload t then begin
            write_node t id (IntN { branches });
            No_split
          end
          else begin
            let m = Array.length branches / 2 in
            let left_b = Array.sub branches 0 m in
            let right_b = Array.sub branches m (Array.length branches - m) in
            let right = alloc_node t (IntN { branches = right_b }) in
            write_node t id (IntN { branches = left_b });
            Split { left_sep = fst left_b.(m - 1); right }
          end)

let insert t ~key ~value =
  with_span t ~kind:"btree.insert" @@ fun () ->
  durable_txn t @@ fun () ->
  (match insert_rec t t.root (key, value) with
  | No_split -> ()
  | Split { left_sep; right } ->
      let branches = [| (left_sep, t.root); (top_sep, right) |] in
      t.root <- alloc_node t (IntN { branches });
      t.height <- t.height + 1);
  t.size <- t.size + 1

(* ------------------------------------------------------------------ *)
(* Deletion                                                           *)
(* ------------------------------------------------------------------ *)

type delete_result = Not_found_entry | Deleted of bool (* underflowed? *)

(* Rebalance the underfull child at branch index [i] of the internal node
   [branches]; returns the updated branch array. Prefers borrowing from a
   sibling with spare entries, merging otherwise. *)
let rebalance t branches i =
  let sep_i, child_i = branches.(i) in
  let child = read_node t child_i in
  let nb = Array.length branches in
  let try_left = i > 0 in
  let left_info =
    if try_left then
      let sep_l, id_l = branches.(i - 1) in
      let node_l = read_node t id_l in
      Some (sep_l, id_l, node_l)
    else None
  in
  let right_info =
    if i < nb - 1 then
      let sep_r, id_r = branches.(i + 1) in
      let node_r = read_node t id_r in
      Some (sep_r, id_r, node_r)
    else None
  in
  let min_lp = min_leaf t in
  let min_ip = min_internal t in
  match (child, left_info, right_info) with
  (* ---- Borrow from left sibling ---- *)
  | LeafN c, Some (_, id_l, LeafN l), _ when Array.length l.kvs > min_lp ->
      let total = Array.length l.kvs + Array.length c.kvs in
      let keep = total / 2 in
      let moved = Array.sub l.kvs keep (Array.length l.kvs - keep) in
      let l_kvs = Array.sub l.kvs 0 keep in
      write_node t id_l (LeafN { l with kvs = l_kvs });
      write_node t child_i (LeafN { c with kvs = Array.append moved c.kvs });
      Array.mapi
        (fun j b -> if j = i - 1 then (l_kvs.(keep - 1), id_l) else b)
        branches
  | IntN c, Some (_, id_l, IntN l), _ when Array.length l.branches > min_ip ->
      let total = Array.length l.branches + Array.length c.branches in
      let keep = total / 2 in
      let moved = Array.sub l.branches keep (Array.length l.branches - keep) in
      let l_b = Array.sub l.branches 0 keep in
      write_node t id_l (IntN { branches = l_b });
      write_node t child_i (IntN { branches = Array.append moved c.branches });
      Array.mapi
        (fun j b -> if j = i - 1 then (fst l_b.(keep - 1), id_l) else b)
        branches
  (* ---- Borrow from right sibling ---- *)
  | LeafN c, _, Some (_, id_r, LeafN r) when Array.length r.kvs > min_lp ->
      let total = Array.length r.kvs + Array.length c.kvs in
      let take = total / 2 - Array.length c.kvs in
      let moved = Array.sub r.kvs 0 take in
      let r_kvs = Array.sub r.kvs take (Array.length r.kvs - take) in
      let c_kvs = Array.append c.kvs moved in
      write_node t id_r (LeafN { r with kvs = r_kvs });
      write_node t child_i (LeafN { c with kvs = c_kvs });
      Array.mapi
        (fun j b ->
          if j = i then (c_kvs.(Array.length c_kvs - 1), child_i) else b)
        branches
  | IntN c, _, Some (_, id_r, IntN r) when Array.length r.branches > min_ip ->
      let total = Array.length r.branches + Array.length c.branches in
      let take = total / 2 - Array.length c.branches in
      let moved = Array.sub r.branches 0 take in
      let r_b = Array.sub r.branches take (Array.length r.branches - take) in
      let c_b = Array.append c.branches moved in
      write_node t id_r (IntN { branches = r_b });
      write_node t child_i (IntN { branches = c_b });
      Array.mapi
        (fun j b ->
          if j = i then (fst c_b.(Array.length c_b - 1), child_i) else b)
        branches
  (* ---- Merge with left sibling (child absorbed into left) ---- *)
  | LeafN c, Some (_, id_l, LeafN l), _ ->
      write_node t id_l (LeafN { next = c.next; kvs = Array.append l.kvs c.kvs });
      Pager.free t.pager child_i;
      let branches =
        Array.mapi (fun j b -> if j = i - 1 then (sep_i, id_l) else b) branches
      in
      array_remove branches i
  | IntN c, Some (_, id_l, IntN l), _ ->
      write_node t id_l (IntN { branches = Array.append l.branches c.branches });
      Pager.free t.pager child_i;
      let branches =
        Array.mapi (fun j b -> if j = i - 1 then (sep_i, id_l) else b) branches
      in
      array_remove branches i
  (* ---- Merge right sibling into child ---- *)
  | LeafN c, None, Some (sep_r, id_r, LeafN r) ->
      write_node t child_i
        (LeafN { next = r.next; kvs = Array.append c.kvs r.kvs });
      Pager.free t.pager id_r;
      let branches =
        Array.mapi (fun j b -> if j = i then (sep_r, child_i) else b) branches
      in
      array_remove branches (i + 1)
  | IntN c, None, Some (sep_r, id_r, IntN r) ->
      write_node t child_i (IntN { branches = Array.append c.branches r.branches });
      Pager.free t.pager id_r;
      let branches =
        Array.mapi (fun j b -> if j = i then (sep_r, child_i) else b) branches
      in
      array_remove branches (i + 1)
  | _, None, None ->
      (* Single-child internal node: only legal at the root, handled by
         the caller's root collapse. *)
      branches
  | _ -> invalid_arg "Btree.rebalance: sibling kind mismatch"

let rec delete_rec t id target =
  match read_node t id with
  | LeafN { next; kvs } -> (
      let n = Array.length kvs in
      let rec find_pos i =
        if i >= n then None
        else if sep_compare kvs.(i) target = 0 then Some i
        else if sep_compare kvs.(i) target > 0 then None
        else find_pos (i + 1)
      in
      match find_pos 0 with
      | None -> Not_found_entry
      | Some i ->
          let kvs = array_remove kvs i in
          write_node t id (LeafN { next; kvs });
          Deleted (Array.length kvs < min_leaf t))
  | IntN { branches } -> (
      let i = route branches target in
      match delete_rec t (snd branches.(i)) target with
      | Not_found_entry -> Not_found_entry
      | Deleted false -> Deleted false
      | Deleted true ->
          let branches = rebalance t branches i in
          write_node t id (IntN { branches });
          Deleted (Array.length branches < min_internal t))

let delete t ~key ~value =
  with_span t ~kind:"btree.delete" @@ fun () ->
  durable_txn t @@ fun () ->
  match delete_rec t t.root (key, value) with
  | Not_found_entry -> false
  | Deleted _ ->
      t.size <- t.size - 1;
      (* Collapse a root that has become a single-child internal node. *)
      let rec collapse () =
        match read_node t t.root with
        | IntN { branches } when Array.length branches = 1 ->
            let _, only = branches.(0) in
            Pager.free t.pager t.root;
            t.root <- only;
            t.height <- t.height - 1;
            collapse ()
        | _ -> ()
      in
      collapse ();
      true

(* ------------------------------------------------------------------ *)
(* Bulk loading                                                       *)
(* ------------------------------------------------------------------ *)

(* Chunk for bulk loading: like [Blocked.chunk] but if the trailing chunk
   would fall below [minimum], the last two chunks are re-split evenly so
   every node meets its occupancy minimum. *)
let balanced_chunks ~cap ~minimum xs =
  let chunks = Pc_util.Blocked.chunk ~b:cap xs in
  match List.rev chunks with
  | last :: prev :: earlier when Array.length last < minimum ->
      let merged = Array.append prev last in
      let m = Array.length merged / 2 in
      let a = Array.sub merged 0 m in
      let b = Array.sub merged m (Array.length merged - m) in
      List.rev (b :: a :: earlier)
  | _ -> chunks

let bulk_load pager entries =
  if Pager.page_capacity pager < 4 then
    invalid_arg "Btree.bulk_load: page capacity must be >= 4";
  Pc_obs.Obs.with_span (Pager.obs pager) ~kind:"btree.bulk_load" @@ fun () ->
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
        if sep_compare a b > 0 then invalid_arg "Btree.bulk_load: input not sorted";
        check_sorted rest
    | _ -> ()
  in
  check_sorted entries;
  let t =
    { pager; root = -1; size = List.length entries; height = 1; store = None }
  in
  let cap = max_payload t in
  durable_txn t @@ fun () ->
  match entries with
  | [] ->
      t.root <- alloc_node t (LeafN { next = -1; kvs = [||] });
      t
  | _ ->
      (* Build leaves right-to-left so each knows its successor's id. *)
      let chunks = balanced_chunks ~cap ~minimum:(min_leaf t) entries in
      let rec build_leaves acc next = function
        | [] -> acc
        | chunk :: rest ->
            let id = alloc_node t (LeafN { next; kvs = chunk }) in
            let sep = chunk.(Array.length chunk - 1) in
            build_leaves ((sep, id) :: acc) id rest
      in
      let leaves = build_leaves [] (-1) (List.rev chunks) in
      (* Raise internal levels until a single node remains; the rightmost
         child at every level gets the unbounded separator. *)
      let promote level_nodes =
        match List.rev level_nodes with
        | [] -> assert false
        | (_, last_id) :: earlier ->
            List.rev ((top_sep, last_id) :: earlier)
      in
      let rec build_levels nodes height =
        match nodes with
        | [ (_, only) ] ->
            t.root <- only;
            t.height <- height
        | _ ->
            let nodes = promote nodes in
            let groups = balanced_chunks ~cap ~minimum:(min_internal t) nodes in
            let parents =
              List.map
                (fun branches ->
                  let id = alloc_node t (IntN { branches }) in
                  (fst branches.(Array.length branches - 1), id))
                groups
            in
            build_levels parents (height + 1)
      in
      build_levels leaves 1;
      t

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let pages_used t = Pager.pages_in_use t.pager

let check_invariants t =
  let fail msg = failwith ("Btree: " ^ msg) in
  let counted = ref 0 in
  let leftmost_leaf = ref (-1) in
  (* Validates the subtree and returns its (min, max) entry bounds. *)
  let rec check id depth ~is_root ~lo ~hi =
    match read_node t id with
    | LeafN { kvs; _ } ->
        if depth <> t.height then fail "leaf at wrong depth";
        if (not is_root) && Array.length kvs < min_leaf t then
          fail "leaf underfull";
        if Array.length kvs > max_payload t then fail "leaf overfull";
        if !leftmost_leaf < 0 then leftmost_leaf := id;
        counted := !counted + Array.length kvs;
        Array.iteri
          (fun i kv ->
            if i > 0 && sep_compare kvs.(i - 1) kv > 0 then fail "leaf unsorted";
            if sep_compare kv lo < 0 || sep_compare kv hi > 0 then
              fail "leaf entry out of separator bounds")
          kvs
    | IntN { branches } ->
        if (not is_root) && Array.length branches < min_internal t then
          fail "internal underfull";
        if is_root && Array.length branches < 2 then fail "root too small";
        if Array.length branches > max_payload t then fail "internal overfull";
        Array.iteri
          (fun i (sep, child) ->
            if i > 0 && sep_compare (fst branches.(i - 1)) sep > 0 then
              fail "separators unsorted";
            if sep_compare sep hi > 0 then fail "separator exceeds bound";
            let child_lo = if i = 0 then lo else fst branches.(i - 1) in
            check child (depth + 1) ~is_root:false ~lo:child_lo ~hi:sep)
          branches
  in
  (match read_node t t.root with
  | LeafN _ -> check t.root 1 ~is_root:true ~lo:(min_int, min_int) ~hi:top_sep
  | IntN _ -> check t.root 1 ~is_root:true ~lo:(min_int, min_int) ~hi:top_sep);
  if !counted <> t.size then fail "size mismatch";
  (* The leaf chain must enumerate exactly the sorted entry sequence. *)
  let rec chain acc id =
    if id < 0 then List.rev acc
    else
      match read_node t id with
      | LeafN { next; kvs } -> chain (List.rev_append (Array.to_list kvs) acc) next
      | IntN _ -> fail "leaf chain reaches internal node"
  in
  let chained = chain [] !leftmost_leaf in
  if List.length chained <> t.size then fail "leaf chain length mismatch";
  let rec sorted = function
    | a :: (b :: _ as rest) -> sep_compare a b <= 0 && sorted rest
    | _ -> true
  in
  if not (sorted chained) then fail "leaf chain unsorted"

let bulk_load_in ?cache_capacity ?pool ?obs ?durability ~b entries =
  bulk_load
    (Pager.create ?cache_capacity ?pool ?obs ?wal:durability ~obs_name:"btree"
       ~page_capacity:b ())
    entries

(* ------------------------------------------------------------------ *)
(* Recovery                                                           *)
(* ------------------------------------------------------------------ *)

let wal t = Pager.wal t.pager
let snapshot_readable t = Pager.snapshot_readable t.pager
let rebind t pager = { t with pager }

let of_snapshot r ~idx ~snapshot =
  let (b, root, size, height) : int * int * int * int =
    Marshal.from_string snapshot 0
  in
  let pager = Pager.attach_recovered r ~idx ~page_capacity:b () in
  { pager; root; size; height; store = None }

let recover ~b (r : Wal.recovered) =
  match r.Wal.r_meta with
  | Some snapshot -> of_snapshot r ~idx:0 ~snapshot
  | None ->
      (* nothing ever committed: the durable state is an empty tree *)
      bulk_load_in ~durability:(Wal.create ()) ~b []

(* ------------------------------------------------------------------ *)
(* Binary page layout and file backing                                 *)
(* ------------------------------------------------------------------ *)

module Codec = Pc_blockdev.Page_codec

(* One byte of tag, then the cell's fields as little-endian i64s (plus
   the one-byte leaf flag on [Meta]); 25 bytes at most ([Branch]). *)
let codec : cell Codec.t =
  {
    Codec.name = "btree-cell";
    kind = 3;
    enc =
      (fun buf -> function
        | Meta { leaf; next } ->
            Codec.put_u8 buf 0;
            Codec.put_u8 buf (if leaf then 1 else 0);
            Codec.put_int buf next
        | Kv { key; value } ->
            Codec.put_u8 buf 1;
            Codec.put_int buf key;
            Codec.put_int buf value
        | Branch { sep_key; sep_value; child } ->
            Codec.put_u8 buf 2;
            Codec.put_int buf sep_key;
            Codec.put_int buf sep_value;
            Codec.put_int buf child);
    dec =
      (fun b pos ->
        let int = Codec.get_int ~page:(-1) b in
        match Codec.get_u8 ~page:(-1) b pos with
        | 0 -> (
            match Codec.get_u8 ~page:(-1) b (pos + 1) with
            | (0 | 1) as lf ->
                (Meta { leaf = lf = 1; next = int (pos + 2) }, pos + 10)
            | n ->
                raise
                  (Codec.Corrupt_page
                     {
                       page = -1;
                       reason = Printf.sprintf "bad leaf flag %d" n;
                     }))
        | 1 -> (Kv { key = int (pos + 1); value = int (pos + 9) }, pos + 17)
        | 2 ->
            ( Branch
                {
                  sep_key = int (pos + 1);
                  sep_value = int (pos + 9);
                  child = int (pos + 17);
                },
              pos + 25 )
        | n ->
            raise
              (Codec.Corrupt_page
                 {
                   page = -1;
                   reason = Printf.sprintf "unknown btree cell tag %d" n;
                 }));
  }

let page_bytes ~b = Codec.page_size ~max_cell_bytes:25 ~capacity:b

let close t =
  match t.store with
  | None -> ()
  | Some ds ->
      Option.iter
        (fun d -> d.Pc_blockdev.Block_device.flush ())
        (Pager.device t.pager);
      Disk_store.close ds

(* Open a directory as a tree's home: devices for the pages, the wal
   store for the journal. The store is attached before any pager exists
   so enrollment can insist on binary backends. [wrap_dev] interposes on
   the page device — the chaos sweep lays a [Flaky_dev] over it — and
   deliberately does not see the journal file, whose faults are injected
   at the [Wal.store] layer instead. *)
let open_store ?wrap_dev ~dir ~b () =
  let ds = Disk_store.open_dir ~dir in
  let dev = Disk_store.device ds ~idx:0 ~page_bytes:(page_bytes ~b) in
  let dev = match wrap_dev with None -> dev | Some f -> f dev in
  (ds, { Pager.dev; codec })

let create_file ?cache_capacity ?obs ?wrap_dev ~dir ~b () =
  let ds, backend = open_store ?wrap_dev ~dir ~b () in
  let wal = Wal.create () in
  Wal.attach_store wal (Disk_store.wal_store ?obs ds);
  let pager =
    Pager.create ?cache_capacity ?obs ~wal ~backend ~obs_name:"btree"
      ~page_capacity:b ()
  in
  { (create pager) with store = Some ds }

let bulk_load_file ?cache_capacity ?obs ?wrap_dev ~dir ~b entries =
  let ds, backend = open_store ?wrap_dev ~dir ~b () in
  let wal = Wal.create () in
  Wal.attach_store wal (Disk_store.wal_store ?obs ds);
  let pager =
    Pager.create ?cache_capacity ?obs ~wal ~backend ~obs_name:"btree"
      ~page_capacity:b ()
  in
  { (bulk_load pager entries) with store = Some ds }

let recover_file ?cache_capacity ?obs ?wrap_dev ~dir ~b () =
  let image =
    Disk_store.load_image ~dir
      ~parts:[ Disk_store.part codec ~idx:0 ~page_bytes:(page_bytes ~b) ]
  in
  let r = Wal.recover image in
  let ds, backend = open_store ?wrap_dev ~dir ~b () in
  Wal.attach_store r.Wal.r_wal (Disk_store.wal_store ?obs ds);
  let t =
    match r.Wal.r_meta with
    | Some snapshot ->
        let (b', root, size, height) : int * int * int * int =
          Marshal.from_string snapshot 0
        in
        if b' <> b then
          invalid_arg
            (Printf.sprintf
               "Btree.recover_file: %s holds a tree with b=%d, not b=%d" dir b'
               b);
        let pager =
          Pager.attach_recovered r ~idx:0 ?cache_capacity ?obs ~backend
            ~obs_name:"btree" ~page_capacity:b ()
        in
        { pager; root; size; height; store = Some ds }
    | None ->
        (* nothing ever committed: an empty durable tree in this dir *)
        let pager =
          Pager.create ?cache_capacity ?obs ~wal:r.Wal.r_wal ~backend
            ~obs_name:"btree" ~page_capacity:b ()
        in
        { (create pager) with store = Some ds }
  in
  (* redo results were just rewritten onto the device: sync them and
     stamp a fresh superblock so the directory is clean again *)
  Wal.store_checkpoint r.Wal.r_wal;
  t
