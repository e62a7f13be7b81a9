(* Redo-only write-ahead journal shared by the pagers of one structure
   (design rationale in DESIGN.md §12).

   The simulated disk is the pagers' slot arrays; this module is the
   crash-consistency layer on top. While a transaction is open the
   pagers mutate their slots freely (reads are never stale) but defer
   every device write; at commit each dirtied page is charged twice —
   once into the journal region, once applied in place — with a commit
   record carrying the structure's metadata snapshot piggybacked on the
   last journal record, so a transaction costs exactly 2·d writes for d
   dirtied pages and an empty transaction costs nothing.

   Every charged device write is also recorded as an *effect*; the
   effect log is the crash timeline. [image_at ~ios:k] folds the first
   [k] effects into the durable disk image — pages in place, the journal
   region, the superblock — optionally leaving effect [k] torn.
   [recover] is a pure function of such an image: it scans the journal,
   keeps only transactions whose records all checksum and that end in a
   commit record, redoes them in order, and checksums every page, so
   recovering twice from one image is byte-identical by construction.
   Reads never change the disk, so sweeping write-effect indices visits
   every distinct crash state of a workload.

   Page payloads are held as type-erased OCaml values ([Obj.t array]) —
   the same representation the pagers' slots use — with a structural
   fingerprint standing in for a per-page CRC (see checksum.ml). The
   superblock write that truncates the journal is assumed atomic, the
   standard journaling assumption for a single-sector root record. *)

type write_outcome = W_ok | W_torn | W_deny

type payload = Obj.t array option (* [None] = freed page *)

type commit = {
  c_meta : string;  (* structure snapshot (Marshal of its scalar state) *)
  c_tag : int;  (* caller's operation tag, see {!set_tag} *)
  c_next : (int * int) list;  (* participant idx -> alloc watermark *)
}

type jrec = {
  j_txn : int;
  j_pidx : int;
  j_page : int;  (* -1 on a pure-commit record *)
  j_payload : payload;
  j_crc : int64;
  j_commit : commit option;  (* present on the transaction's last record *)
}

type eff =
  | E_journal of jrec
  | E_apply of {
      a_pidx : int;
      a_page : int;
      a_payload : payload;
      a_crc : int64;
    }
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
  pt_super_write : unit -> write_outcome;
  pt_set_crc : int -> int64 -> unit;
  pt_rollback : unit -> unit;
  pt_commit_clear : unit -> unit;
  pt_next_id : unit -> int;
  pt_io_fault : page:int -> op:string -> exn;
  pt_torn : page:int -> len:int -> exn;
  pt_encode : (int -> bytes option) option;
      (* binary page image of the page's current content; [Some] only on
         pagers with a block-device backend *)
  pt_sync : unit -> unit;  (* durability barrier on the pager's device *)
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
  mutable effects : eff list;  (* reversed *)
  mutable n_effects : int;
  mutable journal_len : int;  (* records since the last checkpoint *)
  mutable txn_depth : int;
  mutable next_txn : int;
  mutable tag : int;
  mutable last_commit : commit option;
  checkpoint_every : int;
  mutable unclean : (int * int) list;  (* torn/denied applies to redo *)
  (* the checkpointed state a recovered journal starts from *)
  base : (int * int, payload * int64) Hashtbl.t;
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
  if t.store <> None && p.pt_encode = None then
    invalid_arg
      "Wal.enroll: journal has a disk store; every pager must have a \
       block-device backend";
  t.parts <- t.parts @ [ p ]

let attach_store t s =
  if t.store <> None then invalid_arg "Wal.attach_store: store already attached";
  if List.exists (fun p -> p.pt_encode = None) t.parts then
    invalid_arg
      "Wal.attach_store: an enrolled pager has no block-device backend";
  t.store <- Some s

(* Commit metadata as the superblock's byte payload. *)
let super_bytes c =
  Disk_format.build_super
    (Option.map
       (fun c ->
         { Disk_format.dc_meta = c.c_meta; dc_tag = c.c_tag; dc_next = c.c_next })
       c)

(* Sync every device and stamp a fresh superblock — used after a
   recovery has rewritten the on-disk pages, so the files are clean. *)
let store_checkpoint t =
  match t.store with
  | None -> ()
  | Some s ->
      List.iter (fun p -> p.pt_sync ()) t.parts;
      s.st_super (super_bytes t.last_commit)

let txn_depth t = t.txn_depth
let set_tag t i = t.tag <- i
let journal_len t = t.journal_len
let crash_points t = t.n_effects

let push t e =
  t.effects <- e :: t.effects;
  t.n_effects <- t.n_effects + 1

let rollback_all t = List.iter (fun p -> p.pt_rollback ()) t.parts
let clear_all t = List.iter (fun p -> p.pt_commit_clear ()) t.parts

let payload_len = function None -> 0 | Some a -> Array.length a

(* Re-apply pages whose in-place write tore or was denied, then write
   the superblock and truncate the journal once the disk is clean. A
   failed superblock write only delays the checkpoint — the journal
   keeps growing, which is always safe. *)
let maybe_checkpoint t =
  t.unclean <-
    List.filter
      (fun (pidx, page) ->
        match List.find_opt (fun p -> p.pt_idx = pidx) t.parts with
        | None -> false
        | Some p -> (
            let payload = p.pt_snapshot page in
            match p.pt_apply_write page with
            | W_ok ->
                push t
                  (E_apply
                     {
                       a_pidx = pidx;
                       a_page = page;
                       a_payload = payload;
                       a_crc = Checksum.payload payload;
                     });
                false
            | W_torn | W_deny -> true))
      t.unclean;
  if t.unclean = [] && t.journal_len >= t.checkpoint_every then
    match t.parts with
    | [] -> ()
    | p0 :: _ -> (
        match p0.pt_super_write () with
        | W_ok ->
            push t (E_super { s_commit = t.last_commit });
            t.journal_len <- 0;
            (match t.store with
            | None -> ()
            | Some s ->
                (* devices must be durable before the superblock
                   obsoletes the journal that could redo them *)
                List.iter (fun p -> p.pt_sync ()) t.parts;
                s.st_super (super_bytes t.last_commit))
        | W_torn | W_deny -> ())

let commit t ~meta =
  let dirty =
    List.concat_map
      (fun p -> List.map (fun pg -> (p, pg)) (p.pt_touched ()))
      t.parts
  in
  let commit_rec () =
    {
      c_meta = meta;
      c_tag = t.tag;
      c_next = List.map (fun p -> (p.pt_idx, p.pt_next_id ())) t.parts;
    }
  in
  let jrec_bytes p r =
    Disk_format.build_jrec
      {
        Disk_format.dj_txn = r.j_txn;
        dj_pidx = r.j_pidx;
        dj_page = r.j_page;
        dj_image =
          (if r.j_page < 0 then None
           else
             match p.pt_encode with None -> None | Some enc -> enc r.j_page);
        dj_freed = r.j_page >= 0 && r.j_payload = None;
        dj_commit =
          Option.map
            (fun c ->
              {
                Disk_format.dc_meta = c.c_meta;
                dc_tag = c.c_tag;
                dc_next = c.c_next;
              })
            r.j_commit;
      }
  in
  let journal_one ~txn ~commit:jc (p, page) =
    let payload = p.pt_snapshot page in
    let crc = Checksum.payload payload in
    let rec_ok =
      {
        j_txn = txn;
        j_pidx = p.pt_idx;
        j_page = page;
        j_payload = payload;
        j_crc = crc;
        j_commit = jc;
      }
    in
    match p.pt_journal_write page with
    | W_ok ->
        push t (E_journal rec_ok);
        t.journal_len <- t.journal_len + 1;
        (match t.store with
        | None -> ()
        | Some s ->
            s.st_append (jrec_bytes p rec_ok);
            (* the fsync that makes the transaction durable rides on the
               record that carries the commit *)
            if jc <> None then s.st_sync ())
    | W_torn ->
        (* a torn journal record reaches the disk unreadable: its
           checksum fails at recovery, so the transaction is incomplete
           and discarded — roll the memory image back to match. *)
        push t
          (E_journal
             { rec_ok with j_crc = Checksum.spoil crc; j_commit = None });
        t.journal_len <- t.journal_len + 1;
        (match t.store with
        | None -> ()
        | Some s -> s.st_append_torn (jrec_bytes p rec_ok));
        rollback_all t;
        raise (p.pt_torn ~page ~len:(payload_len payload))
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
        && Some meta <> Option.map (fun c -> c.c_meta) t.last_commit
      then begin
        let c = commit_rec () in
        let p0 = List.hd t.parts in
        journal_one ~txn:t.next_txn ~commit:(Some c) (p0, -1);
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
         durable, so a torn or denied apply is recorded (recovery will
         redo it from the journal) but never surfaces as an error. *)
      List.iter
        (fun (p, page) ->
          let payload = p.pt_snapshot page in
          let crc = Checksum.payload payload in
          let key = (p.pt_idx, page) in
          (match p.pt_apply_write page with
          | W_ok ->
              push t
                (E_apply
                   { a_pidx = p.pt_idx; a_page = page; a_payload = payload;
                     a_crc = crc });
              t.unclean <- List.filter (( <> ) key) t.unclean
          | W_torn ->
              let torn =
                Option.map (fun a -> Array.sub a 0 (Array.length a / 2)) payload
              in
              push t
                (E_apply
                   { a_pidx = p.pt_idx; a_page = page; a_payload = torn;
                     a_crc = crc });
              if not (List.mem key t.unclean) then
                t.unclean <- key :: t.unclean
          | W_deny ->
              if not (List.mem key t.unclean) then
                t.unclean <- key :: t.unclean);
          p.pt_set_crc page crc)
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
  im_pages : (int * int, payload * int64) Hashtbl.t;
  im_journal : jrec list;  (* journal region since the last checkpoint *)
  im_super : commit option;
}

let image_at ?(torn = false) t ~ios:k =
  if k < 0 || k > t.n_effects then
    invalid_arg
      (Printf.sprintf "Wal.image_at: ios %d outside [0, %d]" k t.n_effects);
  let effects = Array.of_list (List.rev t.effects) in
  let pages = Hashtbl.copy t.base in
  let super = ref t.base_commit in
  let journal = ref [] in
  let apply_full = function
    | E_journal r -> journal := r :: !journal
    | E_apply a -> Hashtbl.replace pages (a.a_pidx, a.a_page) (a.a_payload, a.a_crc)
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
        journal :=
          { r with j_crc = Checksum.spoil r.j_crc; j_commit = None } :: !journal
    | E_apply a ->
        let half =
          Option.map (fun p -> Array.sub p 0 (Array.length p / 2)) a.a_payload
        in
        Hashtbl.replace pages (a.a_pidx, a.a_page) (half, a.a_crc)
    | E_super _ -> () (* the superblock write is atomic *)
  end;
  { im_pages = pages; im_journal = List.rev !journal; im_super = !super }

let crash t = image_at t ~ios:t.n_effects

(* Reconstruct an image from artefacts parsed off real files
   ([Disk_store.load_image]). Pages and journal records arrive already
   decoded with a validity bit from their byte checksums; an invalid one
   gets a spoiled structural fingerprint, so [recover] treats it exactly
   as the in-memory model treats a torn record or page. *)
type disk_jrec = {
  dk_txn : int;
  dk_pidx : int;
  dk_page : int;
  dk_payload : payload;
  dk_ok : bool;
  dk_commit : commit option;
}

let image_of_disk ~pages ~journal ~super =
  let im_pages = Hashtbl.create 64 in
  List.iter
    (fun (key, (payload, ok)) ->
      let fp = Checksum.payload payload in
      Hashtbl.replace im_pages key
        (payload, if ok then fp else Checksum.spoil fp))
    pages;
  let im_journal =
    List.map
      (fun d ->
        let fp = Checksum.payload d.dk_payload in
        {
          j_txn = d.dk_txn;
          j_pidx = d.dk_pidx;
          j_page = d.dk_page;
          j_payload = d.dk_payload;
          j_crc = (if d.dk_ok then fp else Checksum.spoil fp);
          j_commit = d.dk_commit;
        })
      journal
  in
  { im_pages; im_journal; im_super = super }

(* ------------------------------------------------------------------ *)
(* Recovery                                                           *)
(* ------------------------------------------------------------------ *)

type recovered = {
  r_wal : t;
  r_meta : string option;
  r_tag : int;
  r_next : (int * int) list;
  r_pages : (int * int, payload * int64) Hashtbl.t;
  r_damaged : (int * int) list;
  r_stats : Io_stats.t;
}

let valid_rec r = r.j_crc = Checksum.payload r.j_payload

let recover (im : image) =
  let stats = Io_stats.create () in
  (* scan the journal region and the superblock *)
  stats.reads <-
    List.length im.im_journal + (if im.im_super = None then 0 else 1);
  (* group records into transactions, preserving order; a transaction
     counts only if every record checksums and the last one carries the
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
        List.for_all valid_rec recs
        && match List.rev recs with last :: _ -> last.j_commit <> None | [] -> false)
      txns
  in
  let pages = Hashtbl.copy im.im_pages in
  (* verify pass over the page table *)
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) pages [] |> List.sort compare
  in
  stats.reads <- stats.reads + List.length keys;
  (* redo complete transactions in order *)
  List.iter
    (fun (_, recs) ->
      List.iter
        (fun r ->
          if r.j_page >= 0 then begin
            Hashtbl.replace pages (r.j_pidx, r.j_page) (r.j_payload, r.j_crc);
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
    Hashtbl.fold
      (fun k (payload, crc) acc ->
        if Checksum.payload payload <> crc then k :: acc else acc)
      pages []
    |> List.sort compare
  in
  (* writing the recovered superblock re-checkpoints the image *)
  stats.writes <- stats.writes + 1;
  let r_wal =
    {
      (create ()) with
      base = Hashtbl.copy pages;
      base_commit = last_commit;
      last_commit;
      tag = (match last_commit with None -> -1 | Some c -> c.c_tag);
    }
  in
  {
    r_wal;
    r_meta = Option.map (fun c -> c.c_meta) last_commit;
    r_tag = (match last_commit with None -> -1 | Some c -> c.c_tag);
    r_next = (match last_commit with None -> [] | Some c -> c.c_next);
    r_pages = pages;
    r_damaged = damaged;
    r_stats = stats;
  }

(* slots of one participant in a recovered image, for
   [Pager.attach_recovered] *)
let recovered_slots r ~idx =
  Hashtbl.fold
    (fun (pidx, page) (payload, crc) acc ->
      if pidx = idx then (page, payload, crc) :: acc else acc)
    r.r_pages []
  |> List.sort compare
  |> List.map (fun (page, payload, crc) ->
         (page, payload, Checksum.payload payload = crc))

let recovered_next_id r ~idx =
  match List.assoc_opt idx r.r_next with
  | Some n -> n
  | None ->
      1
      + Hashtbl.fold
          (fun (pidx, page) _ acc -> if pidx = idx then max acc page else acc)
          r.r_pages (-1)

(* Structural equality of two recovery results — the idempotence check:
   recovering twice from one image must agree on every page (by stored
   checksum), the committed metadata, the tag, the damage list and the
   recovery I/O bill. *)
let recovered_equal a b =
  let pages t =
    Hashtbl.fold (fun k (_, crc) acc -> (k, crc) :: acc) t []
    |> List.sort compare
  in
  a.r_meta = b.r_meta && a.r_tag = b.r_tag
  && a.r_next = b.r_next
  && a.r_damaged = b.r_damaged
  && pages a.r_pages = pages b.r_pages
  && a.r_stats = b.r_stats
