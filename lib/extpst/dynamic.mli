(** Fully dynamic external priority search tree (paper §5, Theorem 5.1).

    Supports point insertion and deletion in [O(log_B n)] amortized I/Os
    while keeping 2-sided queries at [O(log_B n + t/B)], with
    [O((n/B) log log B)]-style storage.

    Architecture, following the paper:
    - the top level is a region tree of capacity [B log B] packed into
      skeletal blocks ("super nodes"); every block page carries an update
      buffer [U] of pending operations;
    - an update routes to the block whose region should hold the point and
      is logged in [U] (one page rewrite); when [U] overflows, the buffered
      operations are applied to the block's regions: their X/Y lists and
      the block's A/S caches are rebuilt immediately (amortized [O(1)]);
    - each region's second-level structure is rebuilt lazily: a per-region
      one-page delta list [u] accumulates applied operations and the
      second level is rebuilt only when [u] fills (amortized [O(1)]);
    - queries run the §4 algorithm and reconcile against the [U] buffers
      of every block they read and the [u] delta of the corner region —
      cache windows never cross block boundaries, so every region that can
      contribute points has its block page read by the query;
    - instead of the paper's per-supernode re-division and per-subtree
      rebalancing, a global rebuild runs every [max(B, n/2)] updates,
      which preserves the amortized bound (deviation recorded in
      DESIGN.md).

    All I/O flows through two private pagers (top level and second-level
    structures); storage and per-operation I/O are exact. *)

open Pc_util

type t

(** [create ~b pts] builds the structure over initial points. The main
    and substructure pagers share one buffer pool of [cache_capacity]
    frames (historically each pager got its own [cache_capacity]-frame
    cache, silently doubling the memory budget); pass [pool] to share an
    external pool instead. *)
val create :
  ?cache_capacity:int ->
  ?pool:Pc_bufferpool.Buffer_pool.t ->
  ?obs:Pc_obs.Obs.t ->
  ?durability:Pc_pagestore.Wal.t ->
  b:int ->
  Point.t list ->
  t

(** [wal t] is the journal both pagers are enrolled in, if durable. *)
val wal : t -> Pc_pagestore.Wal.t option

(** [recover ~b r] rebuilds the structure from a crash image's last
    commit record. The structure is logged {e logically}: page writes
    are journaled (each update is atomic, write amplification is the
    usual 2x) but the commit record carries the live point set, and
    recovery rebuilds the in-memory mirror from it — the skeletal-block
    mirror is derived state. If nothing was committed the durable state
    is empty; [b] sizes that fresh instance. The result journals into a
    fresh Wal. *)
val recover : b:int -> Pc_pagestore.Wal.recovered -> t

(** [obs t] is the trace handle both pagers emit into, if any. Entry
    points open spans ([build.dynamic], [insert.dynamic],
    [delete.dynamic], [query.2sided]) on it automatically. *)
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

(** [insert t p] adds a point. Points are identified by [id]; inserting an
    id that is already present is allowed (the structure stores both; the
    query deduplicates). Returns the I/Os performed. *)
val insert : t -> Point.t -> int

(** [delete t ~id] removes the point with this id if present; returns
    [Some ios] on success, [None] if no such point exists. *)
val delete : t -> id:int -> int option

(** [query t ~xl ~yb] answers the 2-sided query, reconciling pending
    updates. *)
val query : t -> xl:int -> yb:int -> Point.t list * Pc_pagestore.Query_stats.t

val query_count : t -> xl:int -> yb:int -> int

(** [storage_pages t] is the live pages across both pagers. *)
val storage_pages : t -> int

(** [total_ios t] is cumulative reads + writes across both pagers,
    including construction and maintenance. *)
val total_ios : t -> int

val reset_io_stats : t -> unit

(** [rebuilds t] is [(global, second_level)] rebuild counts. *)
val rebuilds : t -> int * int

(** [check_invariants t] verifies the mirror against the paper's
    invariants: heap order between regions, x-split consistency, buffer
    capacity, and that disk lists mirror the applied points. *)
val check_invariants : t -> unit

(** [to_list t] is the current live point set (applying pending ops). *)
val to_list : t -> Point.t list
