module IntMap = Map.Make (Int)
module Point = Pc_util.Point
module Btree = Pc_btree.Btree
module Ext_pst3 = Pc_threesided.Ext_pst3

(* Points by coordinate: x, then y, then id ([Point.compare_xy]). *)
module Xy_set = Set.Make (struct
  type t = Point.t

  let compare = Point.compare_xy
end)

(* An immutable view of the store: base structures built at the last
   checkpoint plus a persistent overlay of what changed since. Readers
   grab the whole record with one [Atomic.get] and never synchronize
   again — the base structures are queried through capacity-0 pagers
   whose read path is structurally mutation-free, and the overlay's
   maps and sets are persistent. Visibility invariant maintained by the
   writer:

     visible = (base \ dels) ⊎ adds      (disjoint by id)

   i.e. [dels] holds every base point that is deleted {e or} shadowed by
   a re-insert in [adds], so merging a query subtracts [dels] and adds
   [adds], with no double counting. The overlay is indexed twice: by id,
   for [find], [mem] and upsert, and by coordinate, so that a read
   visits only the overlay points in its x-range. A read therefore costs
   O(log_B n + t/B + log |overlay| + t_overlay). *)
type snapshot = {
  version : int; (* bumped by every publish *)
  checkpoint : int; (* how many rebuilds produced this base *)
  btree : Btree.t;
  pst3 : Ext_pst3.t;
  base : Point.t IntMap.t; (* points inside btree/pst3, by id *)
  sorted : Point.t array; (* the same points in [Point.compare_xy] order *)
  adds : Point.t IntMap.t; (* inserted since the checkpoint *)
  dels : Point.t IntMap.t; (* base points no longer visible *)
  adds_xy : Xy_set.t; (* [adds] by coordinate *)
  dels_xy : Xy_set.t; (* [dels] by coordinate *)
}

type t = {
  current : snapshot Atomic.t;
  writer : Mutex.t;
  b : int;
  checkpoint_every : int;
  breaker : Breaker.t option;
  mutable commit_hook : (unit -> unit) option;
      (* fault-injection seam: runs inside the breaker-guarded commit
         region, standing in for any write-path failure (a device fault
         during a rebuild). Chaos cells and the server fault smoke
         script it; [None] in production. *)
}

exception Degraded of string

type stats = {
  st_version : int;
  st_checkpoint : int;
  st_base : int;
  st_adds : int;
  st_dels : int;
  st_size : int;
}

(* [sorted] is [base]'s points in [Point.compare_xy] order, one per
   id. The B-tree's entries and [Ext_pst3]'s input both come from it, so
   neither structure sorts again. *)
let build ~b ~version ~checkpoint ~base sorted =
  let entries =
    Array.fold_right (fun (p : Point.t) acc -> (p.x, p.y) :: acc) sorted []
  in
  let btree = Btree.bulk_load_in ~cache_capacity:0 ~b entries in
  let pst3 =
    Ext_pst3.create ~cache_capacity:0 ~mode:Ext_pst3.Cached ~b
      (Array.to_list sorted)
  in
  (* the load-bearing contract: reader domains query these with no lock *)
  assert (Btree.snapshot_readable btree);
  assert (Ext_pst3.snapshot_readable pst3);
  {
    version;
    checkpoint;
    btree;
    pst3;
    base;
    sorted;
    adds = IntMap.empty;
    dels = IntMap.empty;
    adds_xy = Xy_set.empty;
    dels_xy = Xy_set.empty;
  }

let () =
  Printexc.register_printer (function
    | Degraded m -> Some (Printf.sprintf "Shared_store.Degraded(%s)" m)
    | _ -> None)

let create ?(b = 8) ?(checkpoint_every = 512) ?breaker pts =
  if b < 4 then invalid_arg "Shared_store.create: b < 4";
  if checkpoint_every < 1 then
    invalid_arg "Shared_store.create: checkpoint_every < 1";
  (* one point per id, the last one given, as [insert]'s upsert keeps *)
  let base =
    List.fold_left (fun m (p : Point.t) -> IntMap.add p.id p m) IntMap.empty pts
  in
  let sorted = Array.of_seq (Seq.map snd (IntMap.to_seq base)) in
  Array.stable_sort Point.compare_xy sorted;
  {
    current = Atomic.make (build ~b ~version:0 ~checkpoint:0 ~base sorted);
    writer = Mutex.create ();
    b;
    checkpoint_every;
    breaker;
    commit_hook = None;
  }

let breaker t = t.breaker
let set_commit_hook t h = t.commit_hook <- h

let degraded t =
  match t.breaker with
  | Some br -> Breaker.state br = Breaker.Open
  | None -> false

let snapshot t = Atomic.get t.current
let version t = (snapshot t).version
let checkpoints t = (snapshot t).checkpoint

let visible_size s =
  Array.length s.sorted - IntMap.cardinal s.dels + IntMap.cardinal s.adds

let size t = visible_size (snapshot t)

let stats t =
  let s = snapshot t in
  {
    st_version = s.version;
    st_checkpoint = s.checkpoint;
    st_base = Array.length s.sorted;
    st_adds = IntMap.cardinal s.adds;
    st_dels = IntMap.cardinal s.dels;
    st_size = visible_size s;
  }

(* ------------------------------------------------------------------ *)
(* Readers: one Atomic.get, then pure work on the snapshot.           *)
(* ------------------------------------------------------------------ *)

let mem t id =
  let s = snapshot t in
  IntMap.mem id s.adds || (IntMap.mem id s.base && not (IntMap.mem id s.dels))

let find t id =
  let s = snapshot t in
  match IntMap.find_opt id s.adds with
  | Some p -> Some p
  | None ->
      if IntMap.mem id s.dels then None else IntMap.find_opt id s.base

(* The overlay points with [lo <= x <= hi], in [Point.compare_xy] order:
   O(log |set|) to find the first, then one step per point. *)
let in_x_range set ~lo ~hi =
  Xy_set.to_seq_from (Point.make ~x:lo ~y:min_int ~id:min_int) set
  |> Seq.take_while (fun (p : Point.t) -> p.x <= hi)

(* [lo <= key <= hi] as sorted [(key, value)] pairs, matching the
   oracle's normalization. The tree is only ever bulk-loaded from
   [Point.compare_xy]-sorted points, so its answer is sorted by (x, y),
   and the in-range [dels] and [adds] come out of their coordinate sets
   in the same order: one merge subtracts the first and adds the second.
   The B-tree stores (x, y) without ids and duplicates are legal, so each
   dead base point removes exactly {e one} occurrence of its (x, y)
   (multiset subtraction); every one of them is in the tree's answer. *)
let krange t ~lo ~hi =
  let s = snapshot t in
  let rec merge acc tree dels adds =
    match (tree, dels, adds) with
    | _, [], [] -> List.rev_append acc tree
    | (x, y) :: tree', (d : Point.t) :: dels', _ when x = d.x && y = d.y ->
        merge acc tree' dels' adds
    | (((x, y) as q) :: tree'), _, (a : Point.t) :: _
      when x < a.x || (x = a.x && y <= a.y) ->
        merge (q :: acc) tree' dels adds
    | _, _, (a : Point.t) :: adds' -> merge ((a.x, a.y) :: acc) tree dels adds'
    | q :: tree', _, [] -> merge (q :: acc) tree' dels []
    | [], _, [] -> List.rev acc
  in
  merge [] (Btree.range s.btree ~lo ~hi)
    (List.of_seq (in_x_range s.dels_xy ~lo ~hi))
    (List.of_seq (in_x_range s.adds_xy ~lo ~hi))

(* 3-sided [xl <= x <= xr, y >= yb]; ids are unique in the result. *)
let query3 t ~xl ~xr ~yb =
  let s = snapshot t in
  let pts, _ = Ext_pst3.query s.pst3 ~xl ~xr ~yb in
  let kept =
    if IntMap.is_empty s.dels then pts
    else List.filter (fun (p : Point.t) -> not (IntMap.mem p.id s.dels)) pts
  in
  Seq.fold_left
    (fun acc (p : Point.t) -> if p.y >= yb then p :: acc else acc)
    kept
    (in_x_range s.adds_xy ~lo:xl ~hi:xr)

(* ------------------------------------------------------------------ *)
(* The single writer.                                                 *)
(*                                                                    *)
(* Mutations serialize on [t.writer]; each computes a fresh snapshot  *)
(* and publishes it with one [Atomic.set] — the linearization point.  *)
(* Reclamation is the OCaml GC:                                       *)
(* readers still holding a superseded snapshot keep it alive, and it  *)
(* is collected when the last one drops it — no epochs to advance,    *)
(* no quiescence protocol.                                            *)
(* ------------------------------------------------------------------ *)

let overlay_size s = IntMap.cardinal s.adds + IntMap.cardinal s.dels

(* A checkpoint folds the overlay into the base. The by-id map drops
   every dead point and takes the inserts, O(|overlay| log n). The next
   sorted array is made from the last in one linear pass: skip the dead
   points and merge in the inserts, both taken in [Point.compare_xy]
   order from the coordinate sets. A dead point is a base point, so it
   is skipped where it stands; the inserts are disjoint by id from what
   is left, so the result keeps one point per id. *)
let fold_overlay s =
  let old = s.sorted in
  let dead = Array.of_list (Xy_set.elements s.dels_xy) in
  let adds = Array.of_list (Xy_set.elements s.adds_xy) in
  let n = Array.length old - Array.length dead + Array.length adds in
  let out = Array.make n (Point.make ~x:0 ~y:0 ~id:0) in
  let rec go k i d a =
    if k < n then
      if d < Array.length dead && Point.compare_xy old.(i) dead.(d) = 0 then
        go k (i + 1) (d + 1) a
      else if
        a < Array.length adds
        && (i = Array.length old || Point.compare_xy adds.(a) old.(i) < 0)
      then begin
        out.(k) <- adds.(a);
        go (k + 1) i d (a + 1)
      end
      else begin
        out.(k) <- old.(i);
        go (k + 1) (i + 1) d a
      end
  in
  go 0 0 0 0;
  out

let rebuild t s ~version =
  let base = IntMap.fold (fun id _ m -> IntMap.remove id m) s.dels s.base in
  let base = IntMap.fold IntMap.add s.adds base in
  build ~b:t.b ~version ~checkpoint:(s.checkpoint + 1) ~base (fold_overlay s)

let maybe_checkpoint t s =
  if overlay_size s >= t.checkpoint_every then rebuild t s ~version:s.version
  else s

(* The breaker guards the commit path: the checkpoint rebuild and the
   commit hook. Any exception there — device fault during a rebuild,
   writer deadline, a scripted failure — counts as a failure;
   [threshold] of them in a row trip the breaker and mutations fail
   fast with [Degraded] while the last published snapshot keeps serving
   readers. A no-op mutation ([next] returns [None]) touches neither the
   rebuild nor the breaker: it proves nothing about the write path. *)
let guard_commit t f =
  let f () =
    (match t.commit_hook with None -> () | Some h -> h ());
    f ()
  in
  match t.breaker with
  | None -> f ()
  | Some br -> (
      if not (Breaker.allow br) then
        raise (Degraded "circuit open: store is read-only");
      match f () with
      | v ->
          Breaker.success br;
          v
      | exception e ->
          Breaker.failure br;
          raise e)

let publish t next =
  Mutex.protect t.writer (fun () ->
      let s = Atomic.get t.current in
      match next s with
      | None -> false
      | Some s' ->
          let s' =
            guard_commit t (fun () ->
                maybe_checkpoint t { s' with version = s.version + 1 })
          in
          Atomic.set t.current s';
          true)

(* The overlay's two indexes change together. *)
let with_add s (p : Point.t) =
  let adds_xy =
    match IntMap.find_opt p.id s.adds with
    | Some prev -> Xy_set.remove prev s.adds_xy
    | None -> s.adds_xy
  in
  { s with adds = IntMap.add p.id p s.adds; adds_xy = Xy_set.add p adds_xy }

let without_add s (p : Point.t) =
  {
    s with
    adds = IntMap.remove p.id s.adds;
    adds_xy = Xy_set.remove p s.adds_xy;
  }

let with_del s (p : Point.t) =
  { s with dels = IntMap.add p.id p s.dels; dels_xy = Xy_set.add p s.dels_xy }

let insert t (p : Point.t) =
  ignore
    (publish t (fun s ->
         (* upsert by id: a still-visible base point with this id is
            shadowed — record it dead so queries never count both *)
         match IntMap.find_opt p.id s.base with
         | Some old when not (IntMap.mem p.id s.dels) ->
             Some (with_add (with_del s old) p)
         | _ -> Some (with_add s p)))

let delete t id =
  publish t (fun s ->
      match IntMap.find_opt id s.adds with
      | Some p -> Some (without_add s p)
      | None -> (
          match IntMap.find_opt id s.base with
          | Some p when not (IntMap.mem id s.dels) -> Some (with_del s p)
          | _ -> None))

let checkpoint_now t =
  Mutex.protect t.writer (fun () ->
      let s = Atomic.get t.current in
      if overlay_size s = 0 then ()
      else begin
        let s' =
          guard_commit t (fun () -> rebuild t s ~version:(s.version + 1))
        in
        Atomic.set t.current s'
      end)

let check_invariants t =
  let s = snapshot t in
  let fail fmt = Printf.ksprintf failwith ("Shared_store: " ^^ fmt) in
  Btree.check_invariants s.btree;
  Ext_pst3.check_invariants s.pst3;
  (* the sorted array is the base's points, in strict (x, y, id) order *)
  if Array.length s.sorted <> IntMap.cardinal s.base then
    fail "base array holds %d points, base map %d" (Array.length s.sorted)
      (IntMap.cardinal s.base);
  Array.iteri
    (fun i (p : Point.t) ->
      if i > 0 && Point.compare_xy s.sorted.(i - 1) p >= 0 then
        fail "base array out of order at %d" i;
      match IntMap.find_opt p.id s.base with
      | Some q when Point.equal p q -> ()
      | _ -> fail "base array point %s not in base" (Point.to_string p))
    s.sorted;
  (* each coordinate set holds exactly its map's points *)
  let same_points what set map =
    if
      Xy_set.cardinal set <> IntMap.cardinal map
      || not
           (Xy_set.for_all
              (fun (p : Point.t) ->
                match IntMap.find_opt p.id map with
                | Some q -> Point.equal p q
                | None -> false)
              set)
    then fail "%s: coordinate set and id map differ" what
  in
  same_points "adds" s.adds_xy s.adds;
  same_points "dels" s.dels_xy s.dels;
  (* overlay disjointness: adds never overlaps the visible base *)
  IntMap.iter
    (fun id _ ->
      if IntMap.mem id s.base && not (IntMap.mem id s.dels) then
        fail "id %d both in adds and visible in base" id)
    s.adds;
  IntMap.iter
    (fun id p ->
      match IntMap.find_opt id s.base with
      | Some q when Point.equal p q -> ()
      | _ -> fail "del %d not in base" id)
    s.dels
