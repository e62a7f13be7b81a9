(** A real block device under the pager: fixed-size pages of raw bytes.

    This is the byte-level substrate the binary storage path runs on
    (DESIGN.md §13). Where {!Pc_pagestore.Pager} simulates a disk of
    OCaml values with exact I/O {e counts}, a [Block_device.t] moves
    {e bytes}: every page is exactly [page_bytes] long, transfers happen
    in whole pages, and torn writes are modeled at [sector_bytes]
    granularity — the unit a real disk transfers atomically.

    Two implementations exist: {!mem} (an in-memory byte store, the
    refactored simulator core — deterministic, used by tests and as the
    reference for the file backend's semantics) and
    {!Pc_blockdev.File_dev.create} (a Unix file accessed with
    pread/pwrite, fsync on {!t.flush}).

    The device is dumb on purpose: no cache, no counters, no fault
    plans. Caching, accounting and fault injection stay in the pager,
    which is what keeps simulator I/O counts byte-identical whether or
    not a device sits underneath. *)

(** Where the bytes live. *)
type backend =
  | Mem  (** in-memory byte store *)
  | File of { path : string }  (** Unix file *)

(** How a device failure relates to retrying (DESIGN.md §15): a
    [Transient] error may succeed if the same transfer is reissued (bus
    glitch, injected soft EIO); a [Permanent] error never will (latent
    sector, unknown page, closed device); [Stalled] marks a transfer
    that exceeded its latency budget — retryable, but the caller should
    also suspect the device. *)
type error_class = Transient | Permanent | Stalled

val class_name : error_class -> string
(** ["transient"] / ["permanent"] / ["stalled"] — label used in events,
    metrics and error text. *)

exception
  Device_error of {
    dev : string;
    op : string;
    page : int;
    reason : string;
    cls : error_class;
  }
(** Every device failure is typed: short reads, unknown pages, closed
    devices, OS errors. A device never returns garbage silently. *)

type t = {
  name : string;
  backend : backend;
  page_bytes : int;  (** bytes per page; every transfer is one page *)
  sector_bytes : int;  (** atomic-transfer unit; torn writes keep a
                           whole number of sectors *)
  read_page : int -> bytes;
      (** [read_page id] returns the [page_bytes] bytes of page [id].
          Raises {!Device_error} if the page was never written or the
          read comes up short. *)
  write_page : int -> bytes -> unit;
      (** [write_page id b] stores [b] (must be exactly [page_bytes]
          long) as page [id]. *)
  write_sectors : int -> bytes -> int -> unit;
      (** [write_sectors id b k] transfers only the first [k] sectors of
          [b] — the torn-write primitive. The rest of the page keeps its
          previous content (zeros if never written). *)
  flush : unit -> unit;
      (** Durability barrier: on the file backend an [fsync]; a no-op in
          memory. *)
  trim : int -> unit;
      (** [trim id] discards page [id]: subsequent reads fail typed.
          The file backend stamps the page rather than punching a hole,
          so a trimmed page is recognizable at recovery. *)
  close : unit -> unit;
  size_pages : unit -> int;
      (** Number of pages the device currently extends to (highest
          written page + 1). *)
}

(** [mem ?sector_bytes ~page_bytes ()] is the in-memory device.
    [page_bytes] must be a positive multiple of [sector_bytes]
    (default [512]). *)
val mem : ?sector_bytes:int -> page_bytes:int -> unit -> t

(** [check_geometry ~who ~page_bytes ~sector_bytes] validates a device
    geometry, shared by all implementations. *)
val check_geometry : who:string -> page_bytes:int -> sector_bytes:int -> unit

(** The stamp {!t.trim} writes into a page's first bytes so recovery can
    tell a freed page from a torn one. *)
val trim_stamp : string

(** [fail dev op page reason] raises a {!Permanent} {!Device_error} —
    for implementors. *)
val fail : string -> string -> int -> string -> 'a

(** [fail_class cls dev op page reason] raises {!Device_error} with an
    explicit class — used by fault injectors and OS-error mapping. *)
val fail_class : error_class -> string -> string -> int -> string -> 'a
