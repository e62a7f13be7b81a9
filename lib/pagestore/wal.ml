(* Redo-only write-ahead journal shared by the pagers of one structure
   (design rationale in DESIGN.md §12).

   While a transaction is open the pagers mutate their slots freely
   (reads are never stale) but defer every device write; at commit each
   dirtied page is charged twice — once into the journal region, once
   applied in place — with a commit record carrying the structure's
   metadata snapshot piggybacked on the last journal record, so a
   transaction costs exactly 2·d writes for d dirtied pages and an
   empty transaction costs nothing.

   A journal keeps one durable image. With a disk store attached it is
   the store's directory, read back by [Disk_store.load_image]. Without
   one it is the simulator's *effect log*: every charged device write is
   recorded as an effect holding a copy of the page, and [image_at
   ~ios:k] folds the first [k] effects into the disk image — pages in
   place, the journal region, the superblock — optionally leaving effect
   [k] torn. Reads never change the disk, so sweeping write-effect
   indices visits every distinct crash state of a workload.

   [recover] is a pure function of an image: it keeps only transactions
   whose records are all valid and end in a commit record, redoes them
   in order, and reports invalid pages as damaged, so recovering twice
   from one image is byte-identical by construction. Image entries are
   type-erased OCaml values ([Obj.t array], as in the pagers' slots),
   each with a validity bit: invalid exactly when torn (the simulator) or
   undecodable (a directory). Page integrity values belong to the
   pagers. The superblock write that truncates the journal is assumed
   atomic, the standard assumption for a single-sector root record. *)

type write_outcome = W_ok | W_torn | W_deny

type payload = Obj.t array option (* [None] = freed page *)

(* [dc_meta] is the structure snapshot (Marshal of its scalar state),
   [dc_tag] the caller's operation tag (see {!set_tag}), [dc_next] each
   participant's alloc watermark. *)
type commit = Disk_format.commit = {
  dc_meta : string;
  dc_tag : int;
  dc_next : (int * int) list;
}

type jrec = {
  j_txn : int;
  j_pidx : int;
  j_page : int;  (* -1 on a pure-commit record *)
  j_payload : payload;
  j_ok : bool;
  j_commit : commit option;  (* present on the transaction's last record *)
}

type eff =
  | E_journal of jrec
  | E_apply of { a_pidx : int; a_page : int; a_payload : payload; a_ok : bool }
  | E_super of { s_commit : commit option }

(* What a pager exposes to the journal: snapshots of its slots, charged
   (fault-guarded) device writes, and in-memory rollback. The exception
   builders let commit raise the pager's own typed errors without a
   dependency cycle. *)
type participant = {
  pt_idx : int;
  pt_touched : unit -> int list;  (* pages dirtied in the open txn, sorted *)
  pt_snapshot : int -> payload;
  pt_journal_write : int -> write_outcome;
  pt_apply_write : int -> write_outcome;
      (* also records the page's integrity value in the pager *)
  pt_super_write : unit -> write_outcome;
  pt_rollback : unit -> unit;
  pt_commit_clear : unit -> unit;
  pt_next_id : unit -> int;
  pt_io_fault : page:int -> op:string -> exn;
  pt_torn : page:int -> exn;
  pt_encode : (int -> bytes option) option;
      (* binary page image of the page's current content; [Some] only on
         pagers with a block-device backend *)
  pt_sync : unit -> unit;  (* durability barrier on the pager's device *)
  pt_absorb : page:int -> (unit -> unit) -> bool;
      (* run a device operation past the commit point: a failure is
         counted by the pager and returned as [false], never raised *)
}

(* Byte sink for a journal that is also durable on real files: appends
   go to wal.log, [st_sync] is the fsync at the commit point, [st_super]
   atomically replaces the superblock and truncates the journal. The
   closures keep pagestore free of any dependency on how the files are
   managed. *)
type store = {
  st_append : bytes -> unit;
  st_append_torn : bytes -> unit;
  st_sync : unit -> unit;
  st_super : bytes -> unit;
}

type t = {
  mutable parts : participant list;  (* enrollment order *)
  mutable effects : eff list;  (* reversed; empty under a store *)
  mutable n_effects : int;
  mutable journal_len : int;  (* records since the last checkpoint *)
  mutable txn_depth : int;
  mutable next_txn : int;
  mutable tag : int;
  mutable last_commit : commit option;
  checkpoint_every : int;
  mutable unclean : (int * int) list;  (* torn/refused applies to redo *)
  (* the checkpointed state a recovered journal starts from *)
  base : (int * int, payload * bool) Hashtbl.t;
  mutable base_commit : commit option;
  mutable store : store option;  (* durable byte sink, if any *)
}

let create ?(checkpoint_every = 64) () =
  if checkpoint_every <= 0 then
    invalid_arg "Wal.create: checkpoint_every <= 0";
  {
    parts = [];
    effects = [];
    n_effects = 0;
    journal_len = 0;
    txn_depth = 0;
    next_txn = 0;
    tag = -1;
    last_commit = None;
    checkpoint_every;
    unclean = [];
    base = Hashtbl.create 64;
    base_commit = None;
    store = None;
  }

let next_part_idx t = List.length t.parts

let enroll t p =
  if List.exists (fun q -> q.pt_idx = p.pt_idx) t.parts then
    invalid_arg "Wal.enroll: participant index already taken";
  if Option.is_some t.store && p.pt_encode = None then
    invalid_arg
      "Wal.enroll: journal has a disk store; every pager must have a \
       block-device backend";
  t.parts <- t.parts @ [ p ]

(* The directory becomes the durable image, so the simulated one goes:
   no effects from here on, and no base page table. *)
let attach_store t s =
  if Option.is_some t.store then
    invalid_arg "Wal.attach_store: store already attached";
  if List.exists (fun p -> p.pt_encode = None) t.parts then
    invalid_arg
      "Wal.attach_store: an enrolled pager has no block-device backend";
  t.store <- Some s;
  Hashtbl.reset t.base

(* Sync every device and stamp a fresh superblock — used after a
   recovery has rewritten the on-disk pages, so the files are clean. *)
let store_checkpoint t =
  match t.store with
  | None -> ()
  | Some s ->
      List.iter (fun p -> p.pt_sync ()) t.parts;
      s.st_super (Disk_format.build_super t.last_commit)

let txn_depth t = t.txn_depth
let set_tag t i = t.tag <- i
let journal_len t = t.journal_len

(* The simulated timeline exists only without a store. *)
let check_timeline t fn =
  if Option.is_some t.store then
    invalid_arg (fn ^ ": a journal with a disk store has no simulated image")

let crash_points t =
  check_timeline t "Wal.crash_points";
  t.n_effects

let push t e =
  if Option.is_none t.store then begin
    t.effects <- e :: t.effects;
    t.n_effects <- t.n_effects + 1
  end

(* The effect log's copy of a page; a store keeps none. *)
let snapshot t p page =
  if Option.is_none t.store then p.pt_snapshot page else None

let unclean t ~idx ~page = List.mem (idx, page) t.unclean

let mark_unclean t key =
  if not (List.mem key t.unclean) then t.unclean <- key :: t.unclean

(* A page cut to its first half, as a torn transfer leaves it: valid
   only if it was valid and nothing was cut (an empty or freed page). *)
let tear (payload, ok) =
  match payload with
  | None -> (None, ok)
  | Some a ->
      let half = Array.length a / 2 in
      (Some (Array.sub a 0 half), ok && half = Array.length a)

let applied t p page (a_payload, a_ok) =
  push t (E_apply { a_pidx = p.pt_idx; a_page = page; a_payload; a_ok })

let rollback_all t = List.iter (fun p -> p.pt_rollback ()) t.parts
let clear_all t = List.iter (fun p -> p.pt_commit_clear ()) t.parts

(* Re-apply pages whose in-place write tore or was refused, then write
   the superblock and truncate the journal once the disk is clean. With
   a store the page files are fsynced first, since the superblock
   obsoletes the journal that could redo them. A failed superblock
   write or fsync only delays the checkpoint to a later commit — the
   journal keeps growing, which is always safe. *)
let maybe_checkpoint t =
  t.unclean <-
    List.filter
      (fun (pidx, page) ->
        match List.find_opt (fun p -> p.pt_idx = pidx) t.parts with
        | None -> false
        | Some p -> (
            let payload = snapshot t p page in
            match p.pt_apply_write page with
            | W_ok ->
                applied t p page (payload, true);
                false
            | W_torn | W_deny -> true))
      t.unclean;
  if t.unclean = [] && t.journal_len >= t.checkpoint_every then
    match t.parts with
    | [] -> ()
    | p0 :: _ -> (
        match p0.pt_super_write () with
        | W_ok ->
            let durable =
              match t.store with
              | None -> true
              | Some s ->
                  List.for_all
                    (fun p -> p.pt_absorb ~page:(-1) p.pt_sync)
                    t.parts
                  && p0.pt_absorb ~page:(-1) (fun () ->
                         s.st_super (Disk_format.build_super t.last_commit))
            in
            if durable then begin
              push t (E_super { s_commit = t.last_commit });
              t.journal_len <- 0
            end
        | W_torn | W_deny -> ())

let commit t ~meta =
  (* each dirtied page with the effect log's one copy of it *)
  let dirty =
    List.concat_map
      (fun p -> List.map (fun pg -> (p, pg, snapshot t p pg)) (p.pt_touched ()))
      t.parts
  in
  let commit_rec () =
    {
      dc_meta = meta;
      dc_tag = t.tag;
      dc_next = List.map (fun p -> (p.pt_idx, p.pt_next_id ())) t.parts;
    }
  in
  let jrec_bytes p ~txn ~page jc =
    let image =
      if page < 0 then None else Option.bind p.pt_encode (fun enc -> enc page)
    in
    Disk_format.build_jrec
      {
        Disk_format.dj_txn = txn;
        dj_pidx = p.pt_idx;
        dj_page = page;
        dj_image = image;
        dj_freed = page >= 0 && image = None;
        dj_commit = jc;
      }
  in
  let journal_one ~txn ~commit:jc (p, page, payload) =
    let record ~ok =
      E_journal
        {
          j_txn = txn;
          j_pidx = p.pt_idx;
          j_page = page;
          j_payload = payload;
          j_ok = ok;
          j_commit = (if ok then jc else None);
        }
    in
    match p.pt_journal_write page with
    | W_ok -> (
        push t (record ~ok:true);
        t.journal_len <- t.journal_len + 1;
        match t.store with
        | None -> ()
        | Some s ->
            s.st_append (jrec_bytes p ~txn ~page jc);
            (* the fsync that makes the transaction durable rides on the
               record that carries the commit *)
            if jc <> None then s.st_sync ())
    | W_torn ->
        (* a torn journal record reaches the disk unreadable: it is
           invalid at recovery, so the transaction is incomplete and
           discarded — roll the memory image back to match. *)
        push t (record ~ok:false);
        t.journal_len <- t.journal_len + 1;
        Option.iter
          (fun s -> s.st_append_torn (jrec_bytes p ~txn ~page jc))
          t.store;
        let e = p.pt_torn ~page in
        rollback_all t;
        raise e
    | W_deny ->
        rollback_all t;
        raise (p.pt_io_fault ~page ~op:"journal")
  in
  (match dirty with
  | [] ->
      (* nothing dirtied; persist the metadata snapshot only if it
         changed (a pure-commit record), else the commit is free *)
      if
        t.parts <> []
        && Some meta <> Option.map (fun c -> c.dc_meta) t.last_commit
      then begin
        let c = commit_rec () in
        let p0 = List.hd t.parts in
        journal_one ~txn:t.next_txn ~commit:(Some c) (p0, -1, None);
        t.next_txn <- t.next_txn + 1;
        t.last_commit <- Some c
      end
  | _ :: _ ->
      let txn = t.next_txn in
      t.next_txn <- txn + 1;
      let c = commit_rec () in
      let n = List.length dirty in
      List.iteri
        (fun i entry ->
          journal_one ~txn ~commit:(if i = n - 1 then Some c else None) entry)
        dirty;
      t.last_commit <- Some c;
      (* in-place applies: the journal already made the transaction
         durable, so a torn or refused apply is recorded as unclean —
         re-applied before the next checkpoint, and redone by recovery
         from the journal — but never surfaces as an error. *)
      List.iter
        (fun (p, page, payload) ->
          let key = (p.pt_idx, page) in
          match p.pt_apply_write page with
          | W_ok ->
              applied t p page (payload, true);
              t.unclean <- List.filter (( <> ) key) t.unclean
          | W_torn ->
              applied t p page (tear (payload, true));
              mark_unclean t key
          | W_deny -> mark_unclean t key)
        dirty);
  clear_all t;
  maybe_checkpoint t

(* [with_txn wal ~meta f] runs [f] inside a transaction. Nested calls
   fold into the outermost transaction (their [meta] is ignored); the
   outermost commit evaluates [meta] on the post-state. Any exception —
   from the body or from a journal-write fault — rolls the in-memory
   state back to the last commit before re-raising. *)
let with_txn wal ~meta f =
  match wal with
  | None -> f ()
  | Some t ->
      t.txn_depth <- t.txn_depth + 1;
      if t.txn_depth > 1 then
        Fun.protect ~finally:(fun () -> t.txn_depth <- t.txn_depth - 1) f
      else begin
        match f () with
        | exception e ->
            rollback_all t;
            t.txn_depth <- 0;
            raise e
        | result -> (
            match commit t ~meta:(meta ()) with
            | () ->
                t.txn_depth <- 0;
                result
            | exception e ->
                t.txn_depth <- 0;
                raise e)
      end

(* ------------------------------------------------------------------ *)
(* Crash images                                                       *)
(* ------------------------------------------------------------------ *)

type image = {
  im_pages : (int * int, payload * bool) Hashtbl.t;
  im_journal : jrec list;  (* journal region since the last checkpoint *)
  im_super : commit option;
}

let image_at ?(torn = false) t ~ios:k =
  check_timeline t "Wal.image_at";
  if k < 0 || k > t.n_effects then
    invalid_arg
      (Printf.sprintf "Wal.image_at: ios %d outside [0, %d]" k t.n_effects);
  let effects = Array.of_list (List.rev t.effects) in
  let pages = Hashtbl.copy t.base in
  let super = ref t.base_commit in
  let journal = ref [] in
  let apply_full = function
    | E_journal r -> journal := r :: !journal
    | E_apply a ->
        Hashtbl.replace pages (a.a_pidx, a.a_page) (a.a_payload, a.a_ok)
    | E_super s ->
        super := s.s_commit;
        journal := []
  in
  for i = 0 to k - 1 do
    apply_full effects.(i)
  done;
  (* the effect in flight at the crash, transferred halfway *)
  if torn && k < t.n_effects then begin
    match effects.(k) with
    | E_journal r ->
        journal := { r with j_ok = false; j_commit = None } :: !journal
    | E_apply a ->
        Hashtbl.replace pages (a.a_pidx, a.a_page) (tear (a.a_payload, a.a_ok))
    | E_super _ -> () (* the superblock write is atomic *)
  end;
  { im_pages = pages; im_journal = List.rev !journal; im_super = !super }

let crash t =
  check_timeline t "Wal.crash";
  image_at t ~ios:t.n_effects

(* An image from artefacts parsed off real files
   ([Disk_store.load_image]): pages and journal records arrive decoded,
   each with its validity bit. *)
let image_of_disk ~pages ~journal ~super =
  {
    im_pages = Hashtbl.of_seq (List.to_seq pages);
    im_journal = journal;
    im_super = super;
  }

(* ------------------------------------------------------------------ *)
(* Recovery                                                           *)
(* ------------------------------------------------------------------ *)

type recovered = {
  r_wal : t;
  r_meta : string option;
  r_tag : int;
  r_next : (int * int) list;
  r_pages : (int * int, payload * bool) Hashtbl.t;
  r_damaged : (int * int) list;
  r_stats : Io_stats.t;
}

let recover (im : image) =
  let stats = Io_stats.create () in
  (* scan the journal region and the superblock *)
  stats.reads <-
    List.length im.im_journal + (if im.im_super = None then 0 else 1);
  (* group records into transactions, preserving order; a transaction
     counts only if every record is valid and the last one carries the
     commit record *)
  let txns =
    List.fold_left
      (fun acc r ->
        match acc with
        | (txn, recs) :: rest when txn = r.j_txn -> (txn, r :: recs) :: rest
        | _ -> (r.j_txn, [ r ]) :: acc)
      [] im.im_journal
    |> List.rev_map (fun (txn, recs) -> (txn, List.rev recs))
  in
  let complete =
    List.filter
      (fun (_, recs) ->
        List.for_all (fun r -> r.j_ok) recs
        && match List.rev recs with last :: _ -> last.j_commit <> None | [] -> false)
      txns
  in
  let pages = Hashtbl.copy im.im_pages in
  (* verify pass over the page table *)
  stats.reads <- stats.reads + Hashtbl.length pages;
  (* redo complete transactions in order *)
  List.iter
    (fun (_, recs) ->
      List.iter
        (fun r ->
          if r.j_page >= 0 then begin
            Hashtbl.replace pages (r.j_pidx, r.j_page) (r.j_payload, true);
            stats.writes <- stats.writes + 1
          end)
        recs)
    complete;
  let last_commit =
    match List.rev complete with
    | (_, recs) :: _ -> (List.rev recs |> List.hd).j_commit
    | [] -> im.im_super
  in
  let damaged =
    Hashtbl.fold (fun k (_, ok) acc -> if ok then acc else k :: acc) pages []
    |> List.sort compare
  in
  (* writing the recovered superblock re-checkpoints the image *)
  stats.writes <- stats.writes + 1;
  let tag = match last_commit with None -> -1 | Some c -> c.dc_tag in
  let r_wal =
    {
      (create ()) with
      base = Hashtbl.copy pages;
      base_commit = last_commit;
      last_commit;
      tag;
    }
  in
  {
    r_wal;
    r_meta = Option.map (fun c -> c.dc_meta) last_commit;
    r_tag = tag;
    r_next = (match last_commit with None -> [] | Some c -> c.dc_next);
    r_pages = pages;
    r_damaged = damaged;
    r_stats = stats;
  }

(* slots of one participant in a recovered image, for
   [Pager.attach_recovered] *)
let recovered_slots r ~idx =
  Hashtbl.fold
    (fun (pidx, page) (payload, ok) acc ->
      if pidx = idx then (page, payload, ok) :: acc else acc)
    r.r_pages []
  |> List.sort compare

let recovered_next_id r ~idx =
  match List.assoc_opt idx r.r_next with
  | Some n -> n
  | None ->
      1
      + Hashtbl.fold
          (fun (pidx, page) _ acc -> if pidx = idx then max acc page else acc)
          r.r_pages (-1)

(* Structural equality of two recovery results — the idempotence check:
   recovering twice from one image must agree on every page (by content
   fingerprint and validity), the committed metadata, the tag, the
   damage list and the recovery I/O bill. *)
let recovered_equal a b =
  let pages t =
    Hashtbl.fold
      (fun k (payload, ok) acc -> (k, Checksum.payload payload, ok) :: acc)
      t []
    |> List.sort compare
  in
  a.r_meta = b.r_meta && a.r_tag = b.r_tag
  && a.r_next = b.r_next
  && a.r_damaged = b.r_damaged
  && pages a.r_pages = pages b.r_pages
  && a.r_stats = b.r_stats