open Pc_util

type node = {
  idx : int;
  depth : int;
  pts_by_y : Point.t array;
  pts_by_x : Point.t array;
  min_y : int;
  split : int;
  xlo : int;
  xhi : int;
  left : node option;
  right : node option;
}

type t = {
  root : node option;
  nodes : node array; (* indexed by idx *)
  size : int;
  capacity : int;
}

(* A region owns the segment [lo, lo + len) of one array. It takes its
   top [capacity] points by [Point.compare_y_desc] in one pass with a
   bounded heap whose root is the lowest-ranked point kept so far, ties
   broken by position in the segment (what a stable sort would keep).
   The rest slides left in its order and is split at index [(m - 1) / 2].
   Only the root's segment is in input order: its rest is sorted once by
   [Point.compare_xy], and every segment below stays sorted, so no region
   re-sorts. Each level costs O(n log B): O(n log n · log B) overall.
   Children are numbered right subtree first. *)
let build ~capacity pts =
  if capacity < 1 then invalid_arg "Region_tree.build: capacity < 1";
  let arr = Array.of_list pts in
  let size = Array.length arr in
  let heap = Array.make (min capacity size) 0 in
  let taken = Bytes.make size '\000' in
  let above i j =
    let p : Point.t = arr.(i) and q : Point.t = arr.(j) in
    if p.y <> q.y then p.y > q.y
    else if p.id <> q.id then p.id < q.id
    else i < j
  in
  let rec sift_down n k =
    let l = (2 * k) + 1 in
    if l < n then begin
      let c = if l + 1 < n && above heap.(l) heap.(l + 1) then l + 1 else l in
      let hk = heap.(k) in
      if above hk heap.(c) then begin
        heap.(k) <- heap.(c);
        heap.(c) <- hk;
        sift_down n c
      end
    end
  in
  (* the segment's top points, best first, with the rest compacted *)
  let select lo len =
    let k = min capacity len in
    for j = 0 to k - 1 do
      heap.(j) <- lo + j
    done;
    for j = (k / 2) - 1 downto 0 do
      sift_down k j
    done;
    for i = lo + k to lo + len - 1 do
      if above i heap.(0) then begin
        heap.(0) <- i;
        sift_down k 0
      end
    done;
    let top = Array.sub heap 0 k in
    Array.sort (fun i j -> if above i j then -1 else 1) top;
    let pts_by_y = Array.map (fun i -> arr.(i)) top in
    Array.iter (fun i -> Bytes.set taken i '\001') top;
    let w = ref lo in
    for i = lo to lo + len - 1 do
      if Bytes.get taken i = '\000' then begin
        arr.(!w) <- arr.(i);
        incr w
      end
      else Bytes.set taken i '\000'
    done;
    pts_by_y
  in
  let counter = ref 0 in
  let acc_nodes = ref [] in
  let rec make lo len depth xlo xhi =
    if len = 0 then None
    else begin
      let idx = !counter in
      incr counter;
      let pts_by_y = select lo len in
      let pts_by_x = Array.copy pts_by_y in
      Array.stable_sort Point.compare_x_desc pts_by_x;
      let min_y = (pts_by_y.(Array.length pts_by_y - 1) : Point.t).y in
      let m = len - Array.length pts_by_y in
      if depth = 0 && m > 0 then begin
        let rest = Array.sub arr lo m in
        Array.stable_sort Point.compare_xy rest;
        Array.blit rest 0 arr lo m
      end;
      let split, left, right =
        if m = 0 then ((xlo + xhi) / 2, None, None)
        else
          let k = (m - 1) / 2 in
          let split = arr.(lo + k).Point.x in
          let right = make (lo + k + 1) (m - k - 1) (depth + 1) split xhi in
          let left = make lo (k + 1) (depth + 1) xlo split in
          (split, left, right)
      in
      let n =
        { idx; depth; pts_by_y; pts_by_x; min_y; split; xlo; xhi; left; right }
      in
      acc_nodes := n :: !acc_nodes;
      Some n
    end
  in
  let root = make 0 size 0 min_int max_int in
  let num = !counter in
  let nodes =
    Array.make (max num 1)
      {
        idx = 0;
        depth = 0;
        pts_by_y = [||];
        pts_by_x = [||];
        min_y = max_int;
        split = 0;
        xlo = min_int;
        xhi = max_int;
        left = None;
        right = None;
      }
  in
  List.iter (fun n -> nodes.(n.idx) <- n) !acc_nodes;
  { root; nodes; size; capacity }

let root t = t.root
let num_nodes t = if t.root = None then 0 else Array.length t.nodes
let size t = t.size
let capacity t = t.capacity

let height t =
  let rec h = function
    | None -> 0
    | Some n -> 1 + max (h n.left) (h n.right)
  in
  h t.root

let node_by_idx t i = t.nodes.(i)
let goes_left n ~xl = xl <= n.split

let path_to_corner t ~xl ~yb =
  let rec walk acc n =
    let acc = n :: acc in
    if n.min_y < yb then List.rev acc
    else if goes_left n ~xl then
      match n.left with Some l -> walk acc l | None -> List.rev acc
    else begin
      match n.right with Some r -> walk acc r | None -> List.rev acc
    end
  in
  match t.root with Some r -> walk [] r | None -> []

let iter f t =
  let rec go = function
    | None -> ()
    | Some n ->
        f n;
        go n.left;
        go n.right
  in
  go t.root

let all_points t =
  let acc = ref [] in
  iter (fun n -> acc := List.rev_append (Array.to_list n.pts_by_y) !acc) t;
  !acc

let check_invariants t =
  let fail msg = failwith ("Region_tree: " ^ msg) in
  let count = ref 0 in
  let rec go n =
    count := !count + Array.length n.pts_by_y;
    if Array.length n.pts_by_y > t.capacity then fail "over capacity";
    if Array.length n.pts_by_y <> Array.length n.pts_by_x then
      fail "pts_by_x cardinality mismatch";
    if (n.left <> None || n.right <> None)
       && Array.length n.pts_by_y <> t.capacity
    then fail "internal region not full";
    Array.iteri
      (fun i (p : Point.t) ->
        if i > 0 && (p : Point.t).y > (n.pts_by_y.(i - 1) : Point.t).y then
          fail "pts_by_y unsorted";
        if p.x < n.xlo || p.x > n.xhi then fail "point outside region x-range")
      n.pts_by_y;
    Array.iteri
      (fun i (p : Point.t) ->
        if i > 0 && p.x > (n.pts_by_x.(i - 1) : Point.t).x then
          fail "pts_by_x unsorted")
      n.pts_by_x;
    let check_child side c =
      (* Every descendant point lies below the parent's minimum y (ties on
         y are allowed since top-selection is by the y-then-x order). *)
      let rec all_pts n =
        Array.to_list n.pts_by_y
        @ (match n.left with Some l -> all_pts l | None -> [])
        @ match n.right with Some r -> all_pts r | None -> []
      in
      List.iter
        (fun (p : Point.t) ->
          if p.y > n.min_y then fail "heap violation";
          match side with
          | `L -> if p.x > n.split then fail "left point beyond split"
          | `R -> if p.x < n.split then fail "right point before split")
        (all_pts c)
    in
    (match n.left with Some l -> check_child `L l | None -> ());
    (match n.right with Some r -> check_child `R r | None -> ());
    (match n.left with Some l -> go l | None -> ());
    match n.right with Some r -> go r | None -> ()
  in
  (match t.root with Some r -> go r | None -> ());
  if !count <> t.size then fail "point count mismatch"
