(** A shared buffer-pool manager: one global page-frame budget, many
    pagers.

    The paper's I/O model charges one unit per page transfer; what the
    buffer pool absorbs is free. Historically every pager owned a private
    fixed LRU, so "memory" was never actually shared or contended. This
    module owns a global frame budget that any number of pagers (or other
    clients) draw from, with one of the {!Replacement} policies behind
    it.

    The pool deliberately does {e not} store page payloads — OCaml's
    typing would force every client to share one payload type. Instead
    each client keeps its own typed frame table; the pool tracks
    residency, pin counts, dirty bits and the replacement policy. When
    the pool evicts a frame, the owning client learns about it by
    {!drain}ing its pending events at the start of its next operation
    (lazy invalidation — the pool holds no callbacks into clients, which
    also keeps pools free of closures and therefore persistable by
    {!Pc_pagestore.Persist} for every built-in policy). This is the
    classic split between a buffer manager and its page owners.

    Modes:
    - {b write-through} (default): page writes cost one I/O immediately —
      this preserves the repository's deterministic I/O counts.
    - {b write-back} ([~write_back:true]): writes only dirty the frame;
      the I/O is charged when the frame is evicted or {!flush}ed.
    - {b validation} ([~validate:true]): clients are asked to verify that
      cached frames were not mutated behind the pool's back (see
      {!Pc_pagestore.Pager.Frame_mutated}).

    A pool of capacity 0 caches nothing: every access costs exactly one
    I/O, the configuration used when experiments need exact counts.

    {b Domain safety.} By default a pool is single-domain: no lock is
    ever taken, and behavior — including every deterministic I/O count —
    is byte-identical to the historical pool. Passing [~threadsafe:true]
    to {!create} arms a pool-wide mutex: every
    operation that reads or mutates the frame table, the replacement
    policy, the owners table or the aggregate {!stats} runs under it.
    Pin counts are per-frame atomic latches ({!pin} latches a frame
    against eviction; the replacement policy honors it with one atomic
    load), and the monotonic per-client counters behind {!client_stats}
    are atomics, so metrics exporters and stress assertions reading them
    without the pool lock never observe torn or decreasing values. The
    latching order is strictly [pool lock -> frame latch]; no operation
    acquires the pool lock while holding a latch, so the pool cannot
    deadlock against itself. Caveat: eviction trace events fire on the
    {e evicting} domain, so clients of a shared thread-safe pool should
    register without [?obs] (or tolerate cross-domain emission —
    {!Pc_obs.Obs} asserts single-writer when its sink is enabled). *)

type t
type client

(** Aggregate pool counters (per-client attribution lives in each pager's
    {!Pc_pagestore.Io_stats}). [overcommits] counts demands that found
    every resident frame pinned, forcing the pool past its budget. *)
type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable write_backs : int;
  mutable overcommits : int;
}

(** [create ~capacity ()] makes a pool with a budget of [capacity] frames
    shared across all registered clients. Default policy is
    {!Replacement.Lru}. [threadsafe] (default [false]) arms the pool
    mutex so the pool may be shared across domains; see the module
    preamble. *)
val create :
  ?policy:Replacement.policy ->
  ?validate:bool ->
  ?write_back:bool ->
  ?threadsafe:bool ->
  capacity:int ->
  unit ->
  t

val capacity : t -> int

(** Whether the pool was created with [~threadsafe:true]. *)
val threadsafe : t -> bool
val occupancy : t -> int

(** Number of resident frames currently pinned. *)
val pinned_frames : t -> int

val policy_name : t -> string
val write_back_mode : t -> bool
val validate_mode : t -> bool
val stats : t -> stats
val reset_stats : t -> unit

(** [register t] adds a client (a pager, typically). [obs] attributes the
    client's eviction and write-back trace events to that source; with a
    shared pool, eviction events fire at decision time under whichever
    client's operation triggered them, but always tagged with the
    {e owning} client's source. [name] labels the client in
    {!client_stats} and metrics export (default ["client<i>"]). *)
val register : ?obs:Pc_obs.Obs.source -> ?name:string -> t -> client

val client_name : client -> string

val pool_of : client -> t

(** Pending pool events observed by a {!drain}: [d_evictions] frames of
    this client were evicted (of which [d_write_backs] were dirty — their
    deferred write I/O is charged now), and the client must drop its
    copies of the [d_drops] pages (oldest first). [d_write_backs] also
    accumulates this client's share of a pool-wide {!flush}. *)
type drained = {
  d_evictions : int;
  d_write_backs : int;
  d_drops : int list;
}

(** [drain c] returns and clears the client's pending events, or [None]
    if nothing happened since the last drain. Clients call this at the
    start of every operation, so their frame tables and I/O counters lag
    the pool by at most one event batch and are exact at observation
    points. *)
val drain : client -> drained option

(** {1 Frame lifecycle (called by pagers)} *)

(** [admit c page] makes [page] resident after a miss fill, evicting as
    needed to stay within budget (no-op on a capacity-0 pool or if already
    resident). The frame is inserted with the client's current
    access-pattern advice ({!advise_sequential}). *)
val admit : client -> int -> unit

(** [touch c page] records a hit. *)
val touch : client -> int -> unit

(** [resident c page] tests residency without touching the policy. *)
val resident : client -> int -> bool

(** [forget c page] drops a frame with no eviction or write-back
    accounting (page freed, or cache deliberately dropped). *)
val forget : client -> int -> unit

val mark_dirty : client -> int -> unit
val is_dirty : client -> int -> bool

(** {1 Pinning} *)

(** [pin c page] pins a resident frame so it cannot be evicted; pins
    nest. No-op if the frame is not resident. *)
val pin : client -> int -> unit

val unpin : client -> int -> unit
val pinned : client -> int -> bool

(** {1 Prefetch hints} *)

(** [advise_sequential c true] marks the client's upcoming accesses as a
    sequential scan: new frames are admitted with the [`Cold] hint so the
    policy prefers to evict them first (scan resistance for LRU/FIFO;
    2Q is inherently scan-resistant). *)
val advise_sequential : client -> bool -> unit

val sequential : client -> bool

(** {1 Write-back} *)

(** [dirty_pages c] lists [c]'s dirty resident pages in ascending page
    order — exactly the write-back transfers a {!flush_client} would
    perform, letting callers (e.g. a fault-injecting pager) account for
    or veto each transfer before committing to the flush. *)
val dirty_pages : client -> int list

(** [flush_client c] writes back every dirty frame of [c] (in page
    order) and returns how many, so the caller can charge the deferred
    write I/Os; frames stay resident and clean. *)
val flush_client : client -> int

(** [flush t] flushes every client's dirty frames; each client picks up
    its write-back charges at its next {!drain}. *)
val flush : t -> unit

(** [drop_client c] forgets all of [c]'s frames without any accounting
    (benchmark cache-drop semantics; dirty frames are discarded). *)
val drop_client : client -> unit

val pp_stats : Format.formatter -> stats -> unit

(** {1 Per-client cache health} *)

(** Monotonic per-client counters (never reset by {!drain} or
    {!reset_stats}; [cs_evictions]/[cs_write_backs] count frames this
    client {e owned}, whoever triggered the eviction). *)
type client_stats = {
  cs_name : string;
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
  cs_write_backs : int;
}

(** Snapshot of every registered client's counters, in registration
    order. *)
val client_stats : t -> client_stats list

(** [export_metrics t m] publishes the pool's state into a metrics
    registry as gauges labelled by replacement policy: frame budget,
    occupancy, pins, and every {!stats} counter — plus per-client
    [pathcache_pool_client_*] gauges and a
    [pathcache_cache_hit_ratio{client}] float gauge. Snapshot semantics —
    call again to refresh before exporting the registry. *)
val export_metrics : t -> Pc_obs.Metrics.t -> unit
