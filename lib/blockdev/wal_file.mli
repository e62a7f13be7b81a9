(** Durable journal and superblock files for the write-ahead log.

    A directory holds two byte-level artefacts:

    - [wal.log] — an append-only sequence of framed records, each
      [magic "PCJR" | payload length (u32) | crc64 | payload]. A record
      whose frame is short, whose magic is wrong, or whose checksum
      fails marks the torn tail of the log: it and everything after it
      are ignored by {!read}. [append] fsyncs nothing by itself — call
      {!sync} at the commit point.
    - [super.a] / [super.b] — the A/B mirrored superblock. Each
      {!write_super} stamps a monotonically increasing epoch into the
      frame and overwrites the slot {e not} holding the newest valid
      superblock, then fsyncs; {!read} picks the highest-epoch slot
      whose CRC verifies. A crash at any instant of the swap therefore
      leaves at least one whole superblock readable — there is no
      rename window. {!write_super} also truncates [wal.log]: a new
      superblock obsoletes the journal, which is exactly the checkpoint
      contract.

    {!append_torn} deliberately writes only the first half of a record's
    bytes, emulating a crash mid-append; the next {!append} first
    truncates that ragged tail, as a restarted writer would. *)

type t

val open_dir : dir:string -> t
(** Creates [dir] if needed and opens [wal.log] for appending. *)

val dir : t -> string
val append : t -> bytes -> unit
val append_torn : t -> bytes -> unit
val sync : t -> unit

val write_super : t -> bytes -> unit
(** Replace the superblock via the A/B mirror (next epoch into the
    stale slot, fsync), then truncate the journal. *)

val close : t -> unit

val read : dir:string -> bytes list * bytes option
(** [(journal payloads in append order, superblock payload)] as found on
    disk, read-only; torn or corrupt tails of [wal.log] are dropped, a
    missing or corrupt superblock reads as [None]. *)

val wal_path : dir:string -> string

val super_a_path : dir:string -> string
val super_b_path : dir:string -> string
(** File locations, exposed so crash tests can do byte surgery. *)

val super_epoch : dir:string -> int option
(** Epoch of the superblock {!read} would return; [None] if no valid
    superblock exists in any slot. *)
