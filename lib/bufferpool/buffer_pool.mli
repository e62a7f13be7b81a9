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
    each client keeps its own typed frame table; the pool tracks only
    residency and the replacement policy. When the pool evicts a frame,
    the owning client learns about it by {!drain}ing its pending events
    at the start of its next operation (lazy invalidation — the pool
    holds no callbacks into clients). This is the classic split between
    a buffer manager and its page owners.

    The cache is write-through: its clients charge every page write as
    one I/O when it happens, so a frame is never dirty and an eviction
    costs no I/O. A pool of capacity 0 caches nothing: every access costs
    exactly one I/O, the configuration used when experiments need exact
    counts.

    {b Domain safety.} By default a pool is single-domain: no lock is
    ever taken, and behavior — including every deterministic I/O count —
    is byte-identical to the historical pool. Passing [~threadsafe:true]
    to {!create} arms a pool-wide mutex: every
    operation that reads or mutates the frame table, the replacement
    policy, the owners table or the aggregate {!stats} runs under it.
    The monotonic per-client counters behind {!client_stats} are
    atomics, so metrics exporters and stress assertions reading them
    without the pool lock never observe torn or decreasing values. The
    pool takes no other lock, so it cannot deadlock against itself.
    Caveat: eviction trace events fire on the {e evicting} domain, so
    clients of a shared thread-safe pool should register without [?obs]
    (or tolerate cross-domain emission — {!Pc_obs.Obs} asserts
    single-writer when its sink is enabled). *)

type t
type client

(** Aggregate pool counters (per-client attribution lives in each pager's
    {!Pc_pagestore.Io_stats}). *)
type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

(** [create ~capacity ()] makes a pool with a budget of [capacity] frames
    shared across all registered clients. Default policy is
    {!Replacement.Lru}. [threadsafe] (default [false]) arms the pool
    mutex so the pool may be shared across domains; see the module
    preamble. *)
val create :
  ?policy:Replacement.policy -> ?threadsafe:bool -> capacity:int -> unit -> t

val capacity : t -> int

(** Whether the pool was created with [~threadsafe:true]. *)
val threadsafe : t -> bool
val occupancy : t -> int
val policy_name : t -> string
val stats : t -> stats
val reset_stats : t -> unit

(** [register t] adds a client (a pager, typically). [obs] attributes the
    client's eviction trace events to that source; with a shared pool,
    eviction events fire at decision time under whichever
    client's operation triggered them, but always tagged with the
    {e owning} client's source. [name] labels the client in
    {!client_stats} and metrics export (default ["client<i>"]). *)
val register : ?obs:Pc_obs.Obs.source -> ?name:string -> t -> client

(** [drain c] returns and clears the pages of [c] the pool evicted since
    the last drain, oldest first; the client must drop its copies of
    them. Clients call this at the start of every operation, so their
    frame tables and I/O counters lag the pool by at most one event
    batch and are exact at observation points. *)
val drain : client -> int list

(** {1 Frame lifecycle (called by pagers)} *)

(** [admit c page] makes [page] resident after a miss fill, evicting as
    needed to stay within budget (no-op on a capacity-0 pool or if already
    resident). *)
val admit : client -> int -> unit

(** [touch c page] records a hit. *)
val touch : client -> int -> unit

(** [resident c page] tests residency without touching the policy. *)
val resident : client -> int -> bool

(** [forget c page] drops a frame with no eviction accounting (page
    freed, or cache deliberately dropped). *)
val forget : client -> int -> unit

(** [drop_client c] forgets all of [c]'s frames without any accounting
    (benchmark cache-drop semantics). *)
val drop_client : client -> unit

val pp_stats : Format.formatter -> stats -> unit

(** {1 Per-client cache health} *)

(** Monotonic per-client counters (never reset by {!drain} or
    {!reset_stats}; [cs_evictions] counts frames this client {e owned},
    whoever triggered the eviction). *)
type client_stats = {
  cs_name : string;
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
}

(** Snapshot of every registered client's counters, in registration
    order. *)
val client_stats : t -> client_stats list

(** [export_metrics t m] publishes the pool's state into a metrics
    registry as gauges labelled by replacement policy: frame budget,
    occupancy and every {!stats} counter — plus per-client
    [pathcache_pool_client_*] gauges and a
    [pathcache_cache_hit_ratio{client}] float gauge. Snapshot semantics —
    call again to refresh before exporting the registry. *)
val export_metrics : t -> Pc_obs.Metrics.t -> unit
