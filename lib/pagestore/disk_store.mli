(** A structure's on-disk home: one directory holding a page file per
    pager ([pages-<idx>.dat]), the journal ([wal.log]) and the
    superblock ([super]) — see DESIGN.md §13.

    The open handle side wires a live structure to the files: one
    {!device} per pager (passed as the pager's backend) and one
    {!wal_store} attached to the structure's [Wal]. The read-only side,
    {!load_image}, reconstructs a {!Wal.image} from the files alone —
    byte checksums decide which pages and journal records survived — so
    the ordinary pure {!Wal.recover} runs unchanged against a real
    directory. *)

type t

val open_dir : dir:string -> t
(** Create/open the directory for writing. *)

val dir : t -> string

val device : t -> idx:int -> page_bytes:int -> Pc_blockdev.Block_device.t
(** The file-backed block device for pager [idx]. Closed by {!close}. *)

val wal_store : ?obs:Pc_obs.Obs.t -> t -> Wal.store
(** The byte sink for {!Wal.attach_store}. With [?obs] and a clock
    installed on the handle, journal appends, commit fsyncs and
    superblock writes are timed as [wal.*] phase events from a source
    named ["wal"]; with the clock off no source is registered and the
    store is exactly the unobserved one. *)

val close : t -> unit
(** Close every device handed out and the journal file. *)

val pages_path : dir:string -> idx:int -> string
(** File location, exposed so crash tests can do byte surgery. *)

(** How to interpret pager [idx]'s page file: its page size and cell
    codec. Build with {!part}. *)
type part

val part : 'a Pc_blockdev.Page_codec.t -> idx:int -> page_bytes:int -> part

val load_image : dir:string -> parts:part list -> Wal.image
(** Read-only reconstruction of the crash image from the files: trimmed
    pages are freed, all-zero pages never existed, undecodable pages or
    journal records are damage for {!Wal.recover} to judge. *)
