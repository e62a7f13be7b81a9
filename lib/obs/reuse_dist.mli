(** Mattson-style reuse-distance profiling and exact LRU miss-ratio
    curves, computed in one pass over the {!Obs} event stream.

    The paper's premise is that query cost is governed by which
    root-to-leaf paths stay cached — yet counters only report hits and
    misses for the one cache size a run used. The {e reuse distance} of
    an access is the number of {e distinct} pages referenced since the
    previous reference to the same page; the classic inclusion (stack)
    property of LRU says the access hits a cache of capacity [c] iff its
    distance is [< c]. Accumulating the distance histogram of a trace
    therefore yields the exact LRU hit count at {e every} cache size
    simultaneously — the miss-ratio curve (MRC) — without ever running
    the cache at those sizes.

    The profiler is a sink-side tee (like {!Metrics.attach}): it listens
    on a handle's event stream and maintains one shadow stack per pager
    source. The stack is tree-indexed (a Fenwick tree over last-access
    timestamps, compacted in place when stale slots dominate), so each
    access costs O(log n) and memory stays proportional to the number of
    live pages. Distances are exact, not sampled.

    What counts as a reference mirrors what the buffer pool sees:
    [Read] and [Cache_hit] events are {e read} references (they fill the
    histogram); [Write] and [Alloc] update the stack — a write touches
    or admits its frame — but are tallied separately, so the read MRC
    predicts exactly the {!Pc_pagestore.Io_stats} hit ratio
    ([cache_hits / (reads + cache_hits)]); [Free] removes the page, as
    the pool forgets freed frames. Out-of-model events (journal writes,
    faults, spans, phases) are ignored.

    Determinism contract: the profiler only listens. Attaching it never
    changes I/O counts, and with it absent (or the sink null) the traced
    run is byte-identical — the same contract as {!Metrics}.

    Known model edges (documented, not silently wrong): pinned frames
    can divert an eviction from the strict LRU victim, and [`Cold]
    admission hints reorder the stack; both are outside the inclusion
    property, so predictions are exact only for unhinted, unpinned LRU
    (what E17 gates) and an upper bound elsewhere. Write-back pools
    defer the [Write] events a trace would replay. [Free] of a page that
    intervened between two references to [p] retroactively shrinks
    [p]'s distance, while a small pool may already have evicted [p]
    before the free — so with frees in the stream the curve is an upper
    bound on hits, exact again at capacities holding every distinct
    page (test: [with frees: prediction bounds LRU above]). *)

(** {1 The shadow stack} *)

(** One exact LRU distance stack — exposed so tests can check it against
    brute force directly. *)
module Stack : sig
  type t

  val create : unit -> t

  (** [access t page] returns the reuse distance of this reference —
      the number of distinct pages referenced since [page]'s previous
      reference — or [None] on a cold (first) reference; then moves
      [page] to the top of the stack. O(log n). *)
  val access : t -> int -> int option

  (** [forget t page] removes [page] from the stack (freed frames leave
      the pool); a later reference is cold again. *)
  val forget : t -> int -> unit

  (** Number of pages currently on the stack. *)
  val size : t -> int
end

(** {1 Miss-ratio curves} *)

(** An immutable snapshot of one source's read-reference histogram. *)
type mrc

(** Total read references ([Read] + [Cache_hit] events). *)
val accesses : mrc -> int

(** Cold references (first touch, or first after a free): misses at
    every cache size. *)
val cold : mrc -> int

(** Pages on the shadow stack when the snapshot was taken. *)
val distinct : mrc -> int

(** [hits_at m c] is the exact number of the trace's read references an
    LRU cache of capacity [c] would absorb; [hits_at m 0 = 0] and the
    curve is flat above {!flat_at}. *)
val hits_at : mrc -> int -> int

(** [hit_ratio m c] = [hits_at m c / accesses] (0 on an empty curve);
    [miss_ratio] is its complement. *)
val hit_ratio : mrc -> int -> float

val miss_ratio : mrc -> int -> float

(** The smallest capacity at which the curve flattens (max finite
    distance + 1): larger caches absorb nothing more. *)
val flat_at : mrc -> int

(** {1 The profiler} *)

type t

val create : unit -> t

(** [observe t ev] folds one event into the profiler (see the reference
    model above). *)
val observe : t -> Obs.event -> unit

(** [sink t] is an {!Obs.sink} feeding {!observe}. *)
val sink : t -> Obs.sink

(** [attach t obs] tees the profiler onto [obs]'s current sink, keeping
    an installed trace sink working, and resolves source names through
    the handle. The handle becomes enabled if it was not. *)
val attach : t -> Obs.t -> unit

(** Registered sources seen so far, [(id, name)] sorted by id. Names
    resolve through the attached handle (["src<i>"] for traces replayed
    from a file, which do not carry names). *)
val sources : t -> (int * string) list

(** [mrc t src] snapshots one source's curve; [None] if the source never
    emitted a reference. *)
val mrc : t -> int -> mrc option

(** All per-source curves, [(name, mrc)] in source-id order. *)
val mrcs : t -> (string * mrc) list

(** Write references ([Write]/[Alloc]) folded into [src]'s stack — they
    shape the curve but are not part of {!accesses}. *)
val write_refs : t -> int -> int

(** [reset t] clears histograms and stacks (a cold restart, matching a
    dropped cache). *)
val reset : t -> unit

(** {1 Rendering} *)

(** Power-of-two capacities [1, 2, 4, ...] up to and including the first
    size at which every given curve has flattened. *)
val default_sizes : (string * mrc) list -> int list

(** One row per capacity, one hit-ratio column per source. *)
val pp_table :
  ?sizes:int list -> Format.formatter -> (string * mrc) list -> unit

(** JSON export: per-source access totals and the [(size, hit_ratio)]
    sweep. *)
val to_json : ?sizes:int list -> (string * mrc) list -> string
