(** External priority search tree for 3-sided queries (paper Theorems 3.3
    and 4.5).

    A 3-sided query [(xl, xr, yb)] reports all points with
    [xl <= x <= xr && y >= yb]. The structure is the same hierarchical
    region decomposition as the 2-sided tree, with caches mirrored for
    both vertical boundaries:

    - every region carries ancestor caches in both x orders (decreasing
      for the left boundary, increasing for the right) and sibling caches
      for both its right and left siblings;
    - a query descends the shared path until the two boundaries separate
      (the split), then runs the 2-sided machinery down each side;
    - regions on the shared prefix are cut by both vertical lines, so
      neither x order gives a prefix; they are answered by reading their
      single page directly, guarded by a min/max-x quick-reject kept in
      the skeletal descriptor.

    {b Deviation from the paper} (recorded in DESIGN.md §2): the paper
    claims [O(log_B n + t/B)] with [O((n/B) log^2 B)] pages but defers the
    3-sided cache layout to its full version. This implementation costs
    [O(log_B n + d_split + t/B)] I/Os, where [d_split] is the depth at
    which the two boundaries separate — identical to the paper's bound
    except for queries whose x-range is so thin that both boundaries
    track each other deep into the tree. Storage is [O((n/B) log B)]
    (double the 2-sided segmented caches). The {!Baseline} mode answers in
    [O(log2 n + t/B)], the bound of the prior art the theorem improves on.
*)

open Pc_util

type mode = Baseline | Cached

val pp_mode : Format.formatter -> mode -> unit

type t

(** The page payload (abstract): region descriptors, points, and tagged
    cache entries. Exposed only so a {!codec}-typed backend can be
    passed to {!create}. *)
type cell

val create :
  ?cache_capacity:int ->
  ?pool:Pc_bufferpool.Buffer_pool.t ->
  ?obs:Pc_obs.Obs.t ->
  ?durability:Pc_pagestore.Wal.t ->
  ?backend:cell Pc_pagestore.Pager.backend ->
  mode:mode ->
  b:int ->
  Point.t list ->
  t
val mode : t -> mode

(** [obs t] is the trace handle the pager emits into, if any. *)
val obs : t -> Pc_obs.Obs.t option

val size : t -> int
val page_size : t -> int

(** [cost_model t] identifies this instance's analytical bound (theorem
    + calibrated constants) in {!Pc_obs.Cost_model}. *)
val cost_model : t -> Pc_obs.Cost_model.structure

(** [conformance t ~t_out ~measured] checks one query's measured page
    I/Os against the instance's theorem bound ([t_out] is the query's
    output size). *)
val conformance :
  t -> t_out:int -> measured:int -> Pc_obs.Cost_model.Conformance.verdict

(** [query t ~xl ~xr ~yb] answers the 3-sided query (id-deduplicated) with
    its I/O breakdown. Returns [[]] if [xl > xr]. *)
val query :
  t -> xl:int -> xr:int -> yb:int -> Point.t list * Pc_pagestore.Query_stats.t

val query_count : t -> xl:int -> xr:int -> yb:int -> int

(** [check_invariants t] walks every page and validates the persisted
    decomposition: heap-on-y and split-on-x nesting, full internal
    regions of at most [B] points (one page each, in decreasing y),
    denormalized [min_y]/[min_x]/[max_x] and child summaries, and all
    four caches against the segment window (tagged, holding each source
    whole, sorted). Raises [Failure] with a description on the first
    violation. Reads every page — run outside counted sections and with
    fault plans disarmed. *)
val check_invariants : t -> unit

val storage_pages : t -> int
val io_stats : t -> Pc_pagestore.Io_stats.t
val reset_io_stats : t -> unit

(** {1 Durability}

    [durability] enrolls the pager in a write-ahead journal; the whole
    build then runs as one transaction (all-or-nothing under a crash)
    and {!recover} rebuilds the structure from a crash image alone —
    recovered pages plus the scalar state carried by the commit record.
    [snapshot] / [of_snapshot] split recovery for owners that embed this
    structure in a larger journaled unit. *)

val wal : t -> Pc_pagestore.Wal.t option

(** Whether the backing pager's read path is mutation-free, i.e. the
    structure may be queried from many domains at once with no lock
    (see {!Pc_pagestore.Pager.snapshot_readable}). *)
val snapshot_readable : t -> bool

val recover :
  ?mode:mode ->
  ?backend:cell Pc_pagestore.Pager.backend ->
  b:int ->
  Pc_pagestore.Wal.recovered ->
  t

val snapshot : t -> string

val of_snapshot :
  ?cache_capacity:int ->
  ?obs:Pc_obs.Obs.t ->
  ?backend:cell Pc_pagestore.Pager.backend ->
  Pc_pagestore.Wal.recovered ->
  idx:int ->
  snapshot:string ->
  t

(** {1 File backing}

    The 2-D witness of the binary storage path (DESIGN.md §13): the same
    structure with every page encoded through {!codec} onto a
    {!Pc_blockdev.File_dev} under a directory, the build journaled as one
    durable transaction, and {!recover_file} rebuilding from the
    directory's bytes alone. I/O counts are byte-identical to the
    simulator backend. *)

(** The binary cell codec (header kind 5). Embedded blocked lists are
    stored flat as element count + page ids; a descriptor holds five.
    Kind 4 was the earlier layout with seven lists per descriptor, and
    its pages are refused as [Corrupt_page]. *)
val codec : cell Pc_blockdev.Page_codec.t

(** [page_bytes ~b] is the on-disk page size for capacity [b] (512-byte
    sector multiple), sized for a page full of region descriptors. *)
val page_bytes : b:int -> int

(** [create_file ~dir ~mode ~b pts] is {!create} with every page on disk
    under [dir] and the build journaled durably. *)
val create_file :
  ?cache_capacity:int ->
  ?obs:Pc_obs.Obs.t ->
  dir:string ->
  mode:mode ->
  b:int ->
  Point.t list ->
  t

(** [recover_file ~dir ~b ()] recovers from the directory's on-disk
    image (see {!Btree.recover_file} for the contract). Raises
    [Invalid_argument] if the directory holds a structure with a
    different [b]. *)
val recover_file :
  ?cache_capacity:int -> ?obs:Pc_obs.Obs.t -> ?mode:mode ->
  dir:string -> b:int -> unit -> t

(** [close t] syncs and closes the underlying files (file-backed
    structures); no-op otherwise. *)
val close : t -> unit
