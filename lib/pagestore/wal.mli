(** Redo-only write-ahead journal: the crash-consistency layer shared by
    the pagers of one structure (DESIGN.md §12).

    Create one [Wal.t] per structure instance and pass it to every
    {!Pager.create} the structure performs (in a fixed order — recovery
    re-attaches pagers by enrollment index). Wrap each build / insert /
    delete in {!with_txn}: while the transaction is open the pagers
    defer all device writes; at commit each dirtied page is charged
    twice (journal record + in-place apply, so write amplification is
    exactly 2× on the update path and 0× on the query path), with the
    structure's metadata snapshot carried by the commit record.

    A journal keeps one durable image. With a store attached
    ({!attach_store}) it is the store's directory, read back by
    {!Disk_store.load_image}. Without one it is the simulated timeline:
    every charged write is an {e effect} holding a copy of the page,
    {!crash_points} effects have been recorded, and {!image_at}
    reconstructs the durable disk image as of any effect prefix —
    optionally leaving the in-flight effect torn. {!recover} is a pure
    function of an image (recovering twice is byte-identical by
    construction): incomplete or torn journal transactions are
    discarded, complete ones are redone, and every page or record
    carries a validity bit, so a torn or unjournaled write can never
    surface. *)

type t

(** [create ()] makes an empty journal. [checkpoint_every] bounds the
    journal region: once that many records accumulate (and no in-place
    apply is outstanding), a superblock write truncates the journal. *)
val create : ?checkpoint_every:int -> unit -> t

(** Current transaction nesting depth; [0] outside {!with_txn}. A
    durable pager refuses mutation at depth 0 — unjournaled writes
    cannot exist. *)
val txn_depth : t -> int

(** [with_txn wal ~meta f] runs [f] in a transaction when [wal] is
    [Some] (and is just [f ()] when [None] — the pay-for-what-you-use
    path). Nested calls fold into the outermost transaction; [meta] is
    evaluated after [f] returns and must serialize the structure's
    non-page state (its scalar fields, via [Marshal]). Any exception
    rolls the in-memory pages back to the last commit and re-raises; a
    fault on a journal write surfaces as the owning pager's typed
    [Io_fault] / [Torn_write]. Nothing after the commit point surfaces,
    since the journal already made the transaction durable: a torn or
    refused in-place apply is re-applied before the next checkpoint,
    its page read from memory until then, and a checkpoint whose fsync
    or superblock write fails is retried at a later commit. The pager
    still counts each failure. *)
val with_txn : t option -> meta:(unit -> string) -> (unit -> 'a) -> 'a

(** [set_tag wal i] stamps subsequent commit records with tag [i]
    (typically the workload operation index), so recovery can report
    which operation prefix survived. Initially [-1]. *)
val set_tag : t -> int -> unit

(** Journal records accumulated since the last checkpoint. *)
val journal_len : t -> int

(** Number of effects on the simulated timeline — valid crash indices
    are [0 .. crash_points t] for {!image_at} (index [crash_points t] is
    a crash after the last write). Raises [Invalid_argument] on a
    journal with a store, which keeps no simulated timeline. *)
val crash_points : t -> int

(** The durable disk image after the first [ios] effects of the
    simulated timeline; with [~torn:true], effect [ios] itself reaches
    the disk half-transferred (a torn journal record is invalid; a torn
    in-place apply leaves a half page; a superblock write stays atomic).
    Raises [Invalid_argument] on a journal with a store: its crash image
    is {!Disk_store.load_image} of its directory. *)
type image

val image_at : ?torn:bool -> t -> ios:int -> image

(** The image with every effect of the simulated timeline durable —
    what a crash right now would leave. Raises [Invalid_argument] on a
    journal with a store, like {!image_at}. *)
val crash : t -> image

type recovered = {
  r_wal : t;  (** fresh journal whose base is the recovered image *)
  r_meta : string option;
      (** last committed metadata snapshot; [None] if nothing committed *)
  r_tag : int;  (** tag of the last committed transaction, [-1] if none *)
  r_next : (int * int) list;  (** participant idx -> alloc watermark *)
  r_pages : (int * int, Obj.t array option * bool) Hashtbl.t;
      (** page table after redo: payload and validity bit *)
  r_damaged : (int * int) list;
      (** pages still invalid after redo, sorted *)
  r_stats : Io_stats.t;
      (** recovery I/O cost: journal scan + page verify reads, redo +
          re-checkpoint writes *)
}

(** [recover image] replays the journal — deterministic and idempotent:
    equal images give equal results, byte for byte. Use
    {!Pager.attach_recovered} to rebuild each pager from the result. *)
val recover : image -> recovered

(** {1 Durable byte store}

    With a store attached the journal is durable on real files instead
    of the simulated timeline: every journal record is appended
    (framed) to [wal.log] via [st_append], the record that carries the
    commit is followed by an [st_sync] (the fsync that makes the
    transaction durable — and the only fsync on the commit path), and a
    checkpoint writes the superblock through [st_super], which also
    truncates the journal.
    [st_append_torn] mirrors a torn journal write: only half the frame
    reaches the file. Wire it to [Pc_blockdev.Wal_file] through
    {!Disk_store.wal_store}. *)

type store = {
  st_append : bytes -> unit;
  st_append_torn : bytes -> unit;
  st_sync : unit -> unit;
  st_super : bytes -> unit;
}

(** [attach_store t s] makes the journal durable. Every pager enrolled
    (now or later) must have a block-device backend — journal records
    need page images. The directory becomes the journal's only durable
    image: from here on no effect is recorded, and the page table of a
    recovered journal is dropped. *)
val attach_store : t -> store -> unit

(** Fsync every participant's device and stamp a fresh superblock —
    call after a recovery has rewritten the on-disk pages, so the
    directory is clean (journal truncated). No-op without a store. *)
val store_checkpoint : t -> unit

(** Structural equality of two recovery results — page contents (by
    fingerprint) and validity bits, metadata, tag, damage list and I/O
    bill. The idempotence property is
    [recovered_equal (recover i) (recover i)] for every image [i]. *)
val recovered_equal : recovered -> recovered -> bool

(**/**)

(* Internal plumbing for [Pager]: enrollment and commit callbacks. *)

type write_outcome = W_ok | W_torn | W_deny

type participant = {
  pt_idx : int;
  pt_touched : unit -> int list;
  pt_snapshot : int -> Obj.t array option;
  pt_journal_write : int -> write_outcome;
  pt_apply_write : int -> write_outcome;
  pt_super_write : unit -> write_outcome;
  pt_rollback : unit -> unit;
  pt_commit_clear : unit -> unit;
  pt_next_id : unit -> int;
  pt_io_fault : page:int -> op:string -> exn;
  pt_torn : page:int -> exn;
  pt_encode : (int -> bytes option) option;
  pt_sync : unit -> unit;
  pt_absorb : page:int -> (unit -> unit) -> bool;
}

val next_part_idx : t -> int
val enroll : t -> participant -> unit

(* Whether participant [idx]'s [page] awaits the re-apply of a torn or
   refused in-place write: its device image is stale until then. *)
val unclean : t -> idx:int -> page:int -> bool

(* Image reconstruction from real files, for [Disk_store.load_image]. *)

type commit = Disk_format.commit

type jrec = {
  j_txn : int;
  j_pidx : int;
  j_page : int;
  j_payload : Obj.t array option;
  j_ok : bool;  (* false: torn, or the image did not decode *)
  j_commit : commit option;
}

val image_of_disk :
  pages:((int * int) * (Obj.t array option * bool)) list ->
  journal:jrec list ->
  super:commit option ->
  image

val recovered_slots :
  recovered -> idx:int -> (int * Obj.t array option * bool) list

val recovered_next_id : recovered -> idx:int -> int
