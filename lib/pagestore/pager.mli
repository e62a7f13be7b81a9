(** A simulated block device with strict page capacity and I/O accounting.

    Every external data structure in this repository performs all of its
    data access through a pager: this is the substrate that stands in for
    the disk of the paper's I/O model (see DESIGN.md §2). A page holds at
    most [page_capacity] records of type ['a]; reading or writing a page
    costs one I/O unless the access is absorbed by the buffer pool.
    Counters live in {!Io_stats}.

    Caching is delegated to a {!Pc_bufferpool.Buffer_pool}: by default
    each pager gets a private LRU pool sized by [cache_capacity]
    (capacity 0 = cache nothing, the deterministic-count configuration),
    reproducing the historical built-in LRU byte-for-byte; passing
    [?pool] instead makes the pager draw frames from a budget shared with
    other pagers, with the pool's replacement policy deciding evictions
    across all of them.

    The store is typed per instance: a structure that needs pages of
    points and pages of node metadata either uses two pagers or a variant
    payload type. Page ids are dense non-negative ints. *)

open Pc_bufferpool

type 'a t

exception Io_fault of { page : int; op : string }
(** Raised when a {!Fault_plan} denies a transfer, or when a transfer's
    transient device errors outlast its retry budget (a plan burst's, or
    the policy installed with {!set_retry_policy}). *)

exception Torn_write of { page : int; kept : int; len : int }
(** Raised by a {!Fault_plan.Torn_write} plan: the device transferred
    only the first [kept] of [len] records before failing. The torn
    prefix {e is} what later reads of [page] will see — exactly the
    partial-write hazard a real disk presents. *)

exception Corrupt_page of { page : int }
(** Raised when a page read fails its integrity check (or hits a page
    that recovery marked damaged): the pager never silently returns
    garbage. A durable value page is checked against its committed
    fingerprint; a byte page must decode and, when durable, carry the
    crc64 committed for it. In degraded mode (see
    {!set_degraded}) the page is quarantined instead and reads of it
    return an empty page while {!consume_partial} reports the skip. *)

exception Page_overflow of { page : int; len : int; capacity : int }
(** Raised when a page is written with more records than it can hold. *)

(** A binary storage backend: pages round-trip through
    [codec] ({!Pc_blockdev.Page_codec}) to raw bytes on [dev]
    ({!Pc_blockdev.Block_device}) — an in-memory byte store or a real
    file. Accounting, caching and fault injection are unchanged (the
    device is dumb), so I/O {e counts} are byte-identical with and
    without a backend; what changes is that a read miss really decodes
    the device's bytes (a torn sector or flipped byte surfaces as
    {!Corrupt_page}, never garbage) and every charged write really
    lands encoded on the device. A durable pager checks each read once,
    comparing the image's header crc64 with the one committed for the
    page, so a stale image (a lost write) is {!Corrupt_page} too. *)
type 'a backend = {
  dev : Pc_blockdev.Block_device.t;
  codec : 'a Pc_blockdev.Page_codec.t;
}

(** [create ~page_capacity ()] makes an empty device. [cache_capacity]
    (default [0]) sizes a private LRU buffer pool in pages; [0] disables
    caching so every access costs exactly one I/O. [pool] overrides the
    private pool with a shared {!Buffer_pool.t} (then [cache_capacity] is
    ignored).

    [obs] attaches an observability handle: the pager registers itself as
    an event source (named [obs_name], default ["pager"]) and emits a
    trace event at every counter site — see {!Pc_obs.Obs}. Absent (the
    default), tracing code is a no-op and I/O counts are byte-identical
    to an uninstrumented pager.

    [wal] enrolls the pager in a write-ahead journal (see {!Wal} and
    DESIGN.md §12): every mutation must then happen inside
    {!Wal.with_txn}, reads verify each page's integrity value, and the
    whole structure becomes crash-recoverable. Without [wal] nothing changes —
    I/O counts are byte-identical to older trees. *)
val create :
  ?cache_capacity:int ->
  ?pool:Buffer_pool.t ->
  ?obs:Pc_obs.Obs.t ->
  ?obs_name:string ->
  ?wal:Wal.t ->
  ?backend:'a backend ->
  page_capacity:int ->
  unit ->
  'a t

(** [device t] is the block device under the pager's backend, if any. *)
val device : 'a t -> Pc_blockdev.Block_device.t option

(** [wal t] is the journal this pager is enrolled in, if any. *)
val wal : 'a t -> Wal.t option

(** [attach_recovered r ~idx ~page_capacity ()] rebuilds the pager with
    enrollment index [idx] from a {!Wal.recover} result: recovered pages
    become live (with their integrity values seeded), freed pages stay
    freed, and pages still invalid after redo become {e damaged} —
    readable only as {!Corrupt_page} or a degraded skip. The pager is
    enrolled in [r.r_wal]; attach a structure's pagers in the same order
    they were created.

    [fixup] rehydrates each intact page before installation — the hook a
    structure uses to rebind embedded handles (e.g. a sub-tree's pager,
    which on a real disk would be serialized as a root page id) to the
    recovered pagers. It must be value-preserving up to such handles, and
    integrity values are re-seeded from its output. *)
val attach_recovered :
  Wal.recovered ->
  idx:int ->
  ?cache_capacity:int ->
  ?pool:Buffer_pool.t ->
  ?obs:Pc_obs.Obs.t ->
  ?obs_name:string ->
  ?fixup:('a array -> 'a array) ->
  ?backend:'a backend ->
  page_capacity:int ->
  unit ->
  'a t

val page_capacity : 'a t -> int

(** [cache_capacity t] is the frame budget of the pager's pool — shared
    with other pagers when the pool is. *)
val cache_capacity : 'a t -> int

(** [pool t] is the buffer pool this pager draws frames from. *)
val pool : 'a t -> Buffer_pool.t

(** [obs t] is the observability handle the pager traces into, if any —
    structures use it to open {!Pc_obs.Obs.with_span} spans around their
    entry points without threading the handle separately. *)
val obs : 'a t -> Pc_obs.Obs.t option

(** [alloc t records] allocates a fresh page holding [records] and returns
    its id. Counts one write I/O. *)
val alloc : 'a t -> 'a array -> int

(** [read t id] returns the page contents. Counts one read I/O on a buffer
    pool miss, zero on a hit. The returned array is the cached frame
    itself, not a copy: callers must not mutate it, or later cache hits
    return the mutated records. Change a page through {!write}. *)
val read : 'a t -> int -> 'a array

(** [write t id records] replaces the page contents. One write I/O,
    charged immediately. *)
val write : 'a t -> int -> 'a array -> unit

(** [free t id] releases the page. Freed pages no longer count toward
    {!pages_in_use} and may not be accessed again. *)
val free : 'a t -> int -> unit

(** [pages_in_use t] is the current number of live pages — the storage
    measure reported by the experiments. *)
val pages_in_use : 'a t -> int

val stats : 'a t -> Io_stats.t
val reset_stats : 'a t -> unit

(** [snapshot_readable t] is [true] when the pager's {e read} path
    performs no structural mutation, making [t] safe to read from many
    domains at once with no lock: a capacity-0 cache (so {!read} never
    admits, touches or evicts a frame), no enabled trace sink or clock
    (no sink appends, no phase histograms), no journal, no block-device
    backend, and no fault instrumentation. The only writes left on the
    read path are the {!Io_stats} counter increments — racy-benign
    word-sized stores under the OCaml 5 memory model (counts may
    under-report under contention; values never tear). This is the
    contract the concurrent snapshot store ({!Pc_conc.Shared_store})
    asserts over the structures it publishes to reader domains. *)
val snapshot_readable : 'a t -> bool

(** [with_counted t f] runs [f ()] and returns its result together with
    the I/Os it performed on [t], computed as a snapshot difference.

    Nesting contract: calls nest safely — each level's count is exact for
    the work inside {e its own} [f], and an inner [with_counted]'s I/Os
    are {e included} in every enclosing count (attribution is inclusive,
    like a profiler's "total time", not "self time"). Callers that sum
    sibling counts must therefore not also add an enclosing count.
    Counters are never reset by this function, so concurrent reads of
    {!stats} stay monotonic. *)
val with_counted : 'a t -> (unit -> 'b) -> 'b * Io_stats.t

(** {1 Fault plans}

    The scripted-device layer used by the differential model-checking
    harness ({!Pc_check} and DESIGN.md §11) and by failure-injection
    tests. A {!Fault_plan} counts {e device transfers} (read misses,
    write charges and allocs; cache hits are free and never faulted) and
    injects at the Nth one. Every injected error also emits a
    {!Pc_obs.Obs.Fault} trace event. *)

(** [set_fault_plan t p] installs [p] on this pager; several pagers may
    share one plan (and then share its transfer counter). *)
val set_fault_plan : 'a t -> Fault_plan.t -> unit

val clear_fault_plan : 'a t -> unit

(** [set_ambient_fault_plan p] makes every {e subsequently created} pager
    inherit [p], covering structures that create pagers internally
    (including on rebuild). Existing pagers are unaffected. The harness
    brackets runs with this; remember {!clear_ambient_fault_plan}. *)
val set_ambient_fault_plan : Fault_plan.t -> unit

val clear_ambient_fault_plan : unit -> unit

(** [drop_cache t] drops this pager's frames from the buffer pool (e.g.
    between benchmark repetitions) without touching the stats. *)
val drop_cache : 'a t -> unit

(** {1 Degraded reads}

    Opt-in quarantine for corrupt pages: with [set_degraded t true], a
    failed integrity check no longer raises — the page joins the quarantine
    set, reads of it return an empty page (so read-only queries skip the
    lost records), and the partial-result marker sticks until consumed.
    Requires a durability layer. *)

val set_degraded : 'a t -> bool -> unit
val degraded : 'a t -> bool

(** [consume_partial t] reports whether any read since the last call was
    served from the quarantine (i.e. results may be partial), and clears
    the marker. No structure reads it; only the durability tests do. *)
val consume_partial : 'a t -> bool

val quarantined_pages : 'a t -> int list

(** [corrupt_page t id] rots page [id]'s stored integrity value and
    drops its cached frame, so the next read detects corruption — the
    test hook behind the {!Corrupt_page} demonstrations. *)
val corrupt_page : 'a t -> int -> unit

(** Distribution of reissues per transfer that hit transient errors
    (see {!Io_stats.t.retries}); empty unless a {!Fault_plan.Transient}
    plan fired or a {!Retry_policy} absorbed device errors. *)
val retry_histogram : 'a t -> Pc_obs.Histogram.t

(** {1 Device-error retry}

    A real device under the pager can fail a transfer with a typed
    {!Pc_blockdev.Block_device.Device_error}. Installing a
    {!Retry_policy} makes the pager reissue [Transient]/[Stalled]
    failures of page reads, page writes and fsyncs with bounded backoff.
    One retry loop serves all three, and a {!Fault_plan.Transient} burst
    too, with the plan's [retries] as a zero-backoff budget. Each failed
    attempt emits a [Fault] event; each reissue of a read or write is
    charged as one more read or write (an fsync charges nothing); the
    reissues count into {!Io_stats.t.retries} and {!retry_histogram};
    and a transfer the budget abandons counts in {!give_ups}, emits a
    [Give_up] event and raises {!Io_fault}. [Permanent] read errors skip
    the policy and take the corrupt/quarantine path ({!set_degraded})
    like any undecodable page. With no policy installed (the default) a
    device read error reads as undecodable and a write or fsync error
    propagates — the legacy semantics, byte-identical traces. *)

(** [set_retry_policy t ?sleep policy] installs [policy]. [sleep]
    receives each prescribed backoff in ns (default: ignore, which keeps
    retries deterministic — elapsed time is simulated as the sum of
    prescribed sleeps); pass a real or mock-clock sleeper to make
    backoff take wall time. *)
val set_retry_policy : 'a t -> ?sleep:(int -> unit) -> Retry_policy.t -> unit

(** Transfers abandoned at their retry budget (the policy's attempts or
    deadline, or a plan burst's [retries]) — exported as
    [pathcache_io_gave_up_total]. *)
val give_ups : 'a t -> int

(** {1 Wall-clock phase latency}

    When the obs handle carries a clock ({!Pc_obs.Obs.set_clock}), every
    device transfer, codec round-trip, value-page fingerprint check
    ([checksum.verify]) and fsync is timed into a per-phase histogram of
    nanoseconds — independent of the sink, so the histograms fill even
    with tracing off. With the
    clock off (the default) nothing is measured and the instrumented
    paths reduce to one option match. *)

(** [(phase, histogram)] pairs sorted by phase label (["codec.decode"],
    ["dev.fsync"], ["dev.read"], ...); empty when no clock is installed.
    Histograms from several pagers merge with {!Pc_obs.Histogram.merge}. *)
val phase_histograms : 'a t -> (string * Pc_obs.Histogram.t) list

(** [(count, total_ns)] of this pager's device fsyncs. *)
val fsync_stats : 'a t -> int * int

(** {1 Metrics export} *)

(** [export_metrics t m] publishes this pager's state into a metrics
    registry as gauges labelled by the pager's [obs_name]: live pages,
    page capacity, the pool's frame budget, and every {!Io_stats}
    counter ([pathcache_pager_io_*]). Snapshot semantics — call again to
    refresh before exporting the registry. *)
val export_metrics : 'a t -> Pc_obs.Metrics.t -> unit
