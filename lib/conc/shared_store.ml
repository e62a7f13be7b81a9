module IntMap = Map.Make (Int)
module Point = Pc_util.Point
module Btree = Pc_btree.Btree
module Ext_pst3 = Pc_threesided.Ext_pst3
module Wal = Pc_pagestore.Wal

(* An immutable view of the store: base structures built at the last
   checkpoint plus a persistent overlay of what changed since. Readers
   grab the whole record with one [Atomic.get] and never synchronize
   again — the base structures are queried through capacity-0 pagers
   whose read path is structurally mutation-free, and the overlay maps
   are persistent. Visibility invariant maintained by the writer:

     visible = (base \ dels) ⊎ adds      (disjoint by id)

   i.e. [dels] holds every base point that is deleted {e or} shadowed by
   a re-insert in [adds], so merging a query is one id-filter plus one
   overlay scan, with no double counting. *)
type snapshot = {
  version : int; (* bumped by every publish *)
  checkpoint : int; (* how many rebuilds produced this base *)
  btree : Btree.t;
  pst3 : Ext_pst3.t;
  base : Point.t IntMap.t; (* points inside btree/pst3, by id *)
  base_size : int; (* [IntMap.cardinal base], which is O(n) to recount *)
  adds : Point.t IntMap.t; (* inserted since the checkpoint *)
  dels : Point.t IntMap.t; (* base points no longer visible *)
}

type t = {
  current : snapshot Atomic.t;
  writer : Mutex.t;
  b : int;
  checkpoint_every : int;
  wal : Wal.t option;
  breaker : Breaker.t option;
  mutable commit_hook : (unit -> unit) option;
      (* fault-injection seam: runs inside the breaker-guarded commit
         region, standing in for any write-path failure (journal fsync,
         device fault during a rebuild). Chaos cells and the server
         fault smoke script it; [None] in production. *)
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

(* [base] indexes [pts] by id. *)
let build ~b ~version ~checkpoint ~base pts =
  let entries =
    List.sort Point.compare_xy pts
    |> List.map (fun (p : Point.t) -> (p.x, p.y))
  in
  let btree = Btree.bulk_load_in ~cache_capacity:0 ~b entries in
  let pst3 = Ext_pst3.create ~cache_capacity:0 ~mode:Ext_pst3.Cached ~b pts in
  (* the load-bearing contract: reader domains query these with no lock *)
  assert (Btree.snapshot_readable btree);
  assert (Ext_pst3.snapshot_readable pst3);
  {
    version;
    checkpoint;
    btree;
    pst3;
    base;
    base_size = IntMap.cardinal base;
    adds = IntMap.empty;
    dels = IntMap.empty;
  }

let () =
  Printexc.register_printer (function
    | Degraded m -> Some (Printf.sprintf "Shared_store.Degraded(%s)" m)
    | _ -> None)

let create ?(b = 8) ?(checkpoint_every = 512) ?wal ?breaker pts =
  if b < 4 then invalid_arg "Shared_store.create: b < 4";
  if checkpoint_every < 1 then
    invalid_arg "Shared_store.create: checkpoint_every < 1";
  let base =
    List.fold_left (fun m (p : Point.t) -> IntMap.add p.id p m) IntMap.empty pts
  in
  let snap0 () = build ~b ~version:0 ~checkpoint:0 ~base pts in
  let s0 =
    match wal with
    | None -> snap0 ()
    | Some w -> Wal.with_txn (Some w) ~meta:(fun () -> "shared_store:load") snap0
  in
  {
    current = Atomic.make s0;
    writer = Mutex.create ();
    b;
    checkpoint_every;
    wal;
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
  s.base_size - IntMap.cardinal s.dels + IntMap.cardinal s.adds

let size t = visible_size (snapshot t)

let stats t =
  let s = snapshot t in
  {
    st_version = s.version;
    st_checkpoint = s.checkpoint;
    st_base = s.base_size;
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

let compare_pair (x1, y1) (x2, y2) =
  let c = Int.compare x1 x2 in
  if c <> 0 then c else Int.compare y1 y2

let merge_pairs a b =
  let rec go acc a b =
    match (a, b) with
    | [], l | l, [] -> List.rev_append acc l
    | p :: a', q :: b' ->
        if compare_pair p q <= 0 then go (p :: acc) a' b else go (q :: acc) a b'
  in
  go [] a b

(* [lo <= key <= hi] as sorted [(key, value)] pairs, matching the
   oracle's normalization. The B-tree stores (x, y) without ids and
   duplicates are legal, so each dead base point removes exactly {e one}
   occurrence of its (x, y) from the tree's answer (multiset
   subtraction). The tree is only ever bulk-loaded from a
   [Point.compare_xy]-sorted list, so its answer is already sorted by
   (x, y): only the in-range inserts, at most [checkpoint_every] of them,
   are sorted before one merge. *)
let krange t ~lo ~hi =
  let s = snapshot t in
  let tree = Btree.range s.btree ~lo ~hi in
  let removals = Hashtbl.create 16 in
  IntMap.iter
    (fun _ (p : Point.t) ->
      if lo <= p.x && p.x <= hi then
        Hashtbl.replace removals (p.x, p.y)
          (1 + Option.value ~default:0 (Hashtbl.find_opt removals (p.x, p.y))))
    s.dels;
  let kept =
    List.filter
      (fun (x, y) ->
        match Hashtbl.find_opt removals (x, y) with
        | Some n when n > 0 ->
            Hashtbl.replace removals (x, y) (n - 1);
            false
        | _ -> true)
      tree
  in
  let added =
    IntMap.fold
      (fun _ (p : Point.t) acc ->
        if lo <= p.x && p.x <= hi then (p.x, p.y) :: acc else acc)
      s.adds []
  in
  merge_pairs kept (List.sort compare_pair added)

(* 3-sided [xl <= x <= xr, y >= yb]; ids are unique in the result. *)
let query3 t ~xl ~xr ~yb =
  let s = snapshot t in
  let pts, _ = Ext_pst3.query s.pst3 ~xl ~xr ~yb in
  let kept =
    List.filter (fun (p : Point.t) -> not (IntMap.mem p.id s.dels)) pts
  in
  IntMap.fold
    (fun _ (p : Point.t) acc ->
      if xl <= p.x && p.x <= xr && p.y >= yb then p :: acc else acc)
    s.adds kept

(* ------------------------------------------------------------------ *)
(* The single writer.                                                 *)
(*                                                                    *)
(* Mutations serialize on [t.writer]; each computes a fresh snapshot  *)
(* and publishes it with one [Atomic.set] — the linearization point.  *)
(* With a WAL attached, the mutation's journal transaction commits    *)
(* before the publish, so every snapshot a reader can observe lies at *)
(* or before the WAL commit point. Reclamation is the OCaml GC:       *)
(* readers still holding a superseded snapshot keep it alive, and it  *)
(* is collected when the last one drops it — no epochs to advance,    *)
(* no quiescence protocol.                                            *)
(* ------------------------------------------------------------------ *)

let overlay_size s = IntMap.cardinal s.adds + IntMap.cardinal s.dels

(* A checkpoint folds the overlay into the base map, O(|overlay| log n):
   drop every dead base point, then add the inserts — disjoint from what
   is left, by the visibility invariant. The structures are then rebuilt
   from the map's n points. *)
let rebuild t s ~version =
  let base = IntMap.fold (fun id _ m -> IntMap.remove id m) s.dels s.base in
  let base = IntMap.fold IntMap.add s.adds base in
  build ~b:t.b ~version ~checkpoint:(s.checkpoint + 1) ~base
    (IntMap.fold (fun _ p acc -> p :: acc) base [])

let maybe_checkpoint t s =
  if overlay_size s >= t.checkpoint_every then rebuild t s ~version:s.version
  else s

(* The breaker guards the commit path: checkpoint rebuild + WAL txn.
   Any exception there — journal fsync failure, device fault during a
   rebuild, writer deadline — counts as a failure; [threshold] of them
   in a row trip the breaker and mutations fail fast with [Degraded]
   while the last published snapshot keeps serving readers. A no-op
   mutation ([next] returns [None]) touches neither the journal nor the
   breaker: it proves nothing about the write path. *)
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

let publish t ~meta next =
  Mutex.protect t.writer (fun () ->
      let s = Atomic.get t.current in
      match next s with
      | None -> false
      | Some s' ->
          let s' =
            guard_commit t (fun () ->
                let s' =
                  maybe_checkpoint t { s' with version = s.version + 1 }
                in
                (match t.wal with
                | None -> ()
                | Some w -> Wal.with_txn (Some w) ~meta (fun () -> ()));
                s')
          in
          Atomic.set t.current s';
          true)

let insert t (p : Point.t) =
  ignore
    (publish t
       ~meta:(fun () -> Printf.sprintf "shared_store:insert %d" p.id)
       (fun s ->
         (* upsert by id: a still-visible base point with this id is
            shadowed — record it dead so queries never count both *)
         let dels =
           match IntMap.find_opt p.id s.base with
           | Some old when not (IntMap.mem p.id s.dels) ->
               IntMap.add p.id old s.dels
           | _ -> s.dels
         in
         Some { s with adds = IntMap.add p.id p s.adds; dels }))

let delete t id =
  publish t
    ~meta:(fun () -> Printf.sprintf "shared_store:delete %d" id)
    (fun s ->
      if IntMap.mem id s.adds then
        Some { s with adds = IntMap.remove id s.adds }
      else
        match IntMap.find_opt id s.base with
        | Some p when not (IntMap.mem id s.dels) ->
            Some { s with dels = IntMap.add id p s.dels }
        | _ -> None)

let checkpoint_now t =
  Mutex.protect t.writer (fun () ->
      let s = Atomic.get t.current in
      if overlay_size s = 0 then ()
      else begin
        let s' =
          guard_commit t (fun () ->
              let s' = rebuild t s ~version:(s.version + 1) in
              (match t.wal with
              | None -> ()
              | Some w ->
                  Wal.with_txn (Some w)
                    ~meta:(fun () -> "shared_store:checkpoint")
                    (fun () -> ()));
              s')
        in
        Atomic.set t.current s'
      end)

let check_invariants t =
  let s = snapshot t in
  Btree.check_invariants s.btree;
  Ext_pst3.check_invariants s.pst3;
  (* overlay disjointness: adds never overlaps the visible base *)
  IntMap.iter
    (fun id _ ->
      if IntMap.mem id s.base && not (IntMap.mem id s.dels) then
        failwith
          (Printf.sprintf
             "Shared_store: id %d both in adds and visible in base" id))
    s.adds;
  IntMap.iter
    (fun id _ ->
      if not (IntMap.mem id s.base) then
        failwith (Printf.sprintf "Shared_store: del %d not in base" id))
    s.dels
