(** Binary page layout: fixed header + packed cells.

    This is the encoding a page takes on its way to a {!Block_device}
    (DESIGN.md §13). Every page image is exactly the device's page size
    and starts with a 32-byte header:

    {v
      offset  size  field
      0       4     magic "PCPG"
      4       1     format version (1)
      5       1     codec kind tag (identifies the cell codec)
      6       2     cell count           (u16, little-endian)
      8       4     payload length       (u32, bytes of packed cells)
      12      8     page id              (i64)
      20      4     reserved (zero)
      24      8     checksum             (FNV-1a over header[0,24) + payload)
      32      ...   packed cells, then zero padding to the page size
    v}

    [decode] verifies magic, version, kind, stored page id and checksum
    before touching a single cell, and every cell decoder is
    bounds-checked — a flipped byte or a torn sector yields a typed
    {!Corrupt_page}, never a garbage value. *)

exception Corrupt_page of { page : int; reason : string }
(** The page image does not decode: bad magic/version/kind, checksum
    mismatch, id mismatch, or a malformed cell. *)

exception Overflow of { page : int; need : int; room : int }
(** The cells do not fit in the page: [need] payload bytes, [room]
    available. The page size was chosen too small for this capacity. *)

(** A cell codec: [enc] appends one cell's bytes, [dec buf pos] reads
    one cell and returns it with the next position. Decoders may assume
    [pos] is within the checksummed payload but must bounds-check their
    own reads (use the [get_]* helpers, which raise {!Corrupt_page} on
    overrun). *)
type 'a t = {
  name : string;
  kind : int;  (** 0..255, stamped into the header *)
  enc : Buffer.t -> 'a -> unit;
  dec : bytes -> int -> 'a * int;
}

val header_bytes : int

(** [page_size ~max_cell_bytes ~capacity] is a page size (bytes) that
    fits [capacity] cells of at most [max_cell_bytes] each plus the
    header, rounded up to a 512-byte sector multiple. *)
val page_size : max_cell_bytes:int -> capacity:int -> int

(** [encode codec ~page_bytes ~page cells] builds the page image.
    Raises {!Overflow} if the packed cells exceed the page. *)
val encode : 'a t -> page_bytes:int -> page:int -> 'a array -> bytes

(** [decode codec ~page buf] is the inverse. Raises {!Corrupt_page}. *)
val decode : 'a t -> page:int -> bytes -> 'a array

(** [header_crc img] is the checksum stamped at header offset 24 of an
    image of at least {!header_bytes} bytes. *)
val header_crc : bytes -> int64

(** FNV-1a over a byte range; the checksum the header carries. *)
val crc64 : bytes -> pos:int -> len:int -> int64

(** {1 Helpers for writing cell codecs} *)

val put_int : Buffer.t -> int -> unit
(** 8 bytes, little-endian, sign-preserving for OCaml ints. *)

val put_u8 : Buffer.t -> int -> unit

val get_int : page:int -> bytes -> int -> int
(** [get_int ~page buf pos] reads the 8 bytes at [pos]; {!Corrupt_page}
    on overrun. *)

val get_u8 : page:int -> bytes -> int -> int

(** {1 Stock codecs} *)

val int_cell : int t
(** Pages of bare ints — the trivial codec, used by tests. *)

val point : Pc_util.Point.t t
(** Pages of 2-D points [(x, y, id)] — the payload every
    priority-search-tree variant ultimately stores. *)
