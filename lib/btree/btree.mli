(** External B+-tree over a simulated block device.

    The paper's Section 1 baseline: optimal external dynamic 1-dimensional
    range searching — [O(log_B n + t/B)] queries, [O(log_B n)] updates,
    [O(n/B)] pages. All node data lives in pager pages; every traversal is
    charged I/O through {!Pc_pagestore.Pager}.

    Keys are [int]s and may repeat; each entry is a [(key, value)] pair
    (values are typically record or point ids). A page of capacity [B]
    holds one header cell plus up to [B - 1] payload cells, so the fanout
    is [B - 1]. Requires [B >= 4].

    The tree also serves the repository as the reference implementation of
    "skeletal B-tree search" behaviour that the path-cached structures
    emulate over their own trees. *)

open Pc_pagestore

(** Page payload cells. Exposed so tests can inspect raw pages. *)
type cell =
  | Meta of { leaf : bool; next : int }
      (** header: [next] links leaves left-to-right, [-1] at the end *)
  | Kv of { key : int; value : int }  (** leaf entry *)
  | Branch of { sep_key : int; sep_value : int; child : int }
      (** internal entry: [child] holds entries lexicographically
          [<= (sep_key, sep_value)]; the globally rightmost spine carries
          [(max_int, max_int)] *)

type t

(** [create pager] makes an empty tree in [pager]. The pager's page
    capacity must be at least 4. *)
val create : cell Pager.t -> t

(** [bulk_load pager entries] builds a tree from entries sorted by key
    (duplicates allowed), packing leaves to capacity. Raises
    [Invalid_argument] if the input is not sorted. *)
val bulk_load : cell Pager.t -> (int * int) list -> t

(** [bulk_load_in ~b entries] allocates the pager internally, with an
    optional private cache ([cache_capacity]), a shared buffer pool
    ([pool]), and an optional trace handle ([obs]) — see
    {!Pc_pagestore.Pager.create}.

    [durability] enrolls the pager in a write-ahead journal: every
    mutating entry point then runs as one {!Pc_pagestore.Wal}
    transaction (build, insert, delete), carrying the tree's scalar
    state in the commit record, and {!recover} can rebuild the tree
    from a crash image alone. *)
val bulk_load_in :
  ?cache_capacity:int ->
  ?pool:Pc_bufferpool.Buffer_pool.t ->
  ?obs:Pc_obs.Obs.t ->
  ?durability:Pc_pagestore.Wal.t ->
  b:int ->
  (int * int) list ->
  t

(** {1 Recovery} *)

(** [wal t] is the journal of the backing pager, if durable. *)
val wal : t -> Pc_pagestore.Wal.t option

(** Whether the backing pager's read path is mutation-free, i.e. the
    tree may be queried from many domains at once with no lock (see
    {!Pc_pagestore.Pager.snapshot_readable}). *)
val snapshot_readable : t -> bool

(** [recover ~b r] rebuilds the tree from a {!Pc_pagestore.Wal.recover}
    result: pages re-attach at enrollment index 0 and the scalar state
    comes from the last commit record. If nothing was ever committed the
    durable state is an empty tree (built fresh, with fanout [b]). The
    recovered tree is durable again, journaled in [r.r_wal]. *)
val recover : b:int -> Pc_pagestore.Wal.recovered -> t

(** [of_snapshot r ~idx ~snapshot] is {!recover} for a tree embedded in
    a larger structure: attach at enrollment index [idx], scalars from
    [snapshot] (a {!snapshot} string the owner carried in its own commit
    record). *)
val of_snapshot : Pc_pagestore.Wal.recovered -> idx:int -> snapshot:string -> t

(** [snapshot t] marshals the tree's non-page scalars. *)
val snapshot : t -> string

(** [rebind t pager] is [t] reading through [pager] instead — the
    recovery fixup for owners that embed tree handles inside their own
    pages (a live handle stands in for what a real disk would store as a
    root page id). *)
val rebind : t -> cell Pager.t -> t

(** {1 File backing}

    The same tree, stored for real: pages encode through {!codec} into a
    {!Pc_blockdev.File_dev} under [dir] ([pages-0.dat]), the journal
    becomes durable file appends with an fsync at each commit, and
    {!recover_file} rebuilds the tree from the directory's bytes alone.
    I/O counts are byte-identical to the simulator backend; wall-clock
    time becomes real. See DESIGN.md §13. *)

(** The binary cell codec (header kind 3): a tag byte then little-endian
    i64 fields, 25 bytes at most per cell. *)
val codec : cell Pc_blockdev.Page_codec.t

(** [page_bytes ~b] is the on-disk page size for fanout [b] (512-byte
    sector multiple). *)
val page_bytes : b:int -> int

(** [create_file ~dir ~b ()] makes an empty tree and
    [bulk_load_file ~dir ~b entries] is {!bulk_load_in}, with every page
    on disk under [dir] and the journal durable. The tree is always
    durable (the file backend without a journal would not survive a
    crash anyway).
    [wrap_dev] interposes on the page device before the pager sees it —
    the chaos sweep lays a {!Pc_blockdev.Flaky_dev} over it; the journal
    file is not wrapped (its faults are injected at the [Wal.store]
    layer). *)
val create_file :
  ?cache_capacity:int ->
  ?obs:Pc_obs.Obs.t ->
  ?wrap_dev:(Pc_blockdev.Block_device.t -> Pc_blockdev.Block_device.t) ->
  dir:string ->
  b:int ->
  unit ->
  t

val bulk_load_file :
  ?cache_capacity:int ->
  ?obs:Pc_obs.Obs.t ->
  ?wrap_dev:(Pc_blockdev.Block_device.t -> Pc_blockdev.Block_device.t) ->
  dir:string ->
  b:int ->
  (int * int) list ->
  t

(** [recover_file ~dir ~b ()] recovers from the directory's on-disk
    image: page bytes that fail their checksum are damage, journal
    transactions that are torn or uncommitted are discarded, complete
    ones are redone — then the redo result is written back, synced, and
    a fresh superblock stamped. Raises [Invalid_argument] if the
    directory holds a tree with a different [b]. *)
val recover_file :
  ?cache_capacity:int ->
  ?obs:Pc_obs.Obs.t ->
  ?wrap_dev:(Pc_blockdev.Block_device.t -> Pc_blockdev.Block_device.t) ->
  dir:string ->
  b:int ->
  unit ->
  t

(** [close t] syncs and closes the underlying files ([create_file] /
    [bulk_load_file] / [recover_file] trees); no-op otherwise. *)
val close : t -> unit

(** [obs t] is the trace handle of the backing pager, if any. Entry
    points ([find], [range], [insert], [delete], [bulk_load]) open
    spans ([btree.find], ...) on it automatically. *)
val obs : t -> Pc_obs.Obs.t option

val pager : t -> cell Pager.t
val size : t -> int
val height : t -> int

(** [cost_model t] identifies this instance's analytical bound (theorem
    + calibrated constants) in {!Pc_obs.Cost_model}. *)
val cost_model : t -> Pc_obs.Cost_model.structure

(** [conformance t ~t_out ~measured] checks one query's measured page
    I/Os against the instance's theorem bound ([t_out] is the query's
    output size). *)
val conformance :
  t -> t_out:int -> measured:int -> Pc_obs.Cost_model.Conformance.verdict

(** [insert t ~key ~value] adds an entry (duplicates allowed). *)
val insert : t -> key:int -> value:int -> unit

(** [delete t ~key ~value] removes one entry matching both key and value;
    returns [false] if absent. *)
val delete : t -> key:int -> value:int -> bool

(** [find t key] returns some value with that key, if any. *)
val find : t -> int -> int option

(** [range t ~lo ~hi] returns all [(key, value)] entries with
    [lo <= key <= hi] in key order, with optimal [O(log_B n + t/B)]
    I/Os. *)
val range : t -> lo:int -> hi:int -> (int * int) list

(** [to_list t] lists all entries in key order. *)
val to_list : t -> (int * int) list

(** [iter t f] applies [f key value] to every entry in key order by
    scanning the leaf chain. *)
val iter : t -> (int -> int -> unit) -> unit

(** [pages_used t] is the number of live pages of the backing pager that
    belong to this tree (the tree assumes exclusive ownership of its
    pager). *)
val pages_used : t -> int

(** [check_invariants t] verifies key order, separator bounds, occupancy
    minima, leaf-chain consistency and the stored size. Raises [Failure]
    on violation. *)
val check_invariants : t -> unit
