(** A concurrently-servable point store: lock-free snapshot readers,
    one serialized writer — the readers-writer protocol behind the
    session server and the concurrent differential harness.

    The store keeps the current state as an immutable {e snapshot}
    published through one [Atomic.t]: a B-tree (key ranges) and a
    3-sided PST built at the last {e checkpoint}, plus a persistent
    overlay of inserts and deletes since, indexed by id and by
    coordinate. N reader domains each perform one [Atomic.get] and then
    query the snapshot with no further synchronization — the base
    structures sit on capacity-0 pagers whose read path performs no
    structural mutation, and the overlay is immutable. A read visits
    only the overlay points in its x-range, so it costs
    [O(log_B n + t/B + log |overlay| + t_overlay)]. Writers serialize
    on a mutex, derive the next snapshot, and publish it with one
    [Atomic.set]; that store is the operation's linearization point.
    When the overlay reaches [checkpoint_every], the writer rebuilds
    fresh base structures from the visible point set (bulk load, from
    points kept in sorted order) and publishes an empty overlay.

    {b Reclamation} is snapshot-on-checkpoint over the GC: a superseded
    snapshot stays alive exactly as long as some reader still holds it,
    and is collected afterwards — there are no epochs to advance and no
    quiescence to wait for.

    The store is in memory: nothing is journaled, and a checkpoint is an
    in-memory rebuild, not a durability barrier.

    Query semantics match the differential oracle: points are upserted
    by [id]; [krange] returns sorted [(key, value)] pairs (duplicates
    preserved), [query3] returns each matching point once. *)

type t

(** Writer-side/observability counters, read from the current snapshot. *)
type stats = {
  st_version : int;  (** publishes so far *)
  st_checkpoint : int;  (** rebuilds so far *)
  st_base : int;  (** points in the built structures *)
  st_adds : int;  (** overlay inserts *)
  st_dels : int;  (** overlay deletes (and shadowed re-inserts) *)
  st_size : int;  (** visible points *)
}

exception Degraded of string
(** Raised by mutating entry points while the store's circuit breaker
    is open: the write path has been failing (device faults during a
    rebuild, or failures scripted through {!set_commit_hook}) and the
    store is serving read-only
    from the last published snapshot. The server maps this to a typed
    [err degraded] reply. See {!Breaker}. *)

(** [create pts] bulk-loads the initial snapshot. [pts] holds one
    point per id: when an id repeats, the last point given for it wins,
    as {!insert}'s upsert would leave it. [b] is the page
    capacity of the underlying structures (default 8, min 4);
    [checkpoint_every] (default 512) bounds the overlay size before a
    rebuild; [breaker] guards
    the commit path — consecutive write-path failures trip it, mutations
    then raise {!Degraded} until a half-open probe succeeds, and readers
    are never affected. Without [breaker] (the default) write-path
    exceptions propagate on every call, as before. *)
val create :
  ?b:int -> ?checkpoint_every:int -> ?breaker:Breaker.t ->
  Pc_util.Point.t list -> t

val breaker : t -> Breaker.t option

(** [set_commit_hook t h] installs a fault-injection seam on the commit
    path: [h] runs inside the breaker-guarded region of every mutation
    and checkpoint, standing in for any write-path failure (a device
    fault during a rebuild). An exception it raises counts as a commit
    failure toward the breaker. The chaos sweep and the server fault
    smoke script it; leave it [None] in production. *)
val set_commit_hook : t -> (unit -> unit) option -> unit

(** [degraded t] — the breaker is open: mutations fail fast with
    {!Degraded}, reads keep serving the last published snapshot. *)
val degraded : t -> bool

(** {1 Readers — safe from any domain, lock-free} *)

(** [mem t id] / [find t id]: point lookup by id. *)
val mem : t -> int -> bool

val find : t -> int -> Pc_util.Point.t option

(** [krange t ~lo ~hi] is all visible [(key, value)] pairs with
    [lo <= key <= hi], sorted (B-tree order, duplicates preserved). *)
val krange : t -> lo:int -> hi:int -> (int * int) list

(** [query3 t ~xl ~xr ~yb] is the 3-sided query
    [xl <= x <= xr, y >= yb]; each visible point appears once, in no
    particular order. *)
val query3 : t -> xl:int -> xr:int -> yb:int -> Pc_util.Point.t list

val size : t -> int
val version : t -> int
val checkpoints : t -> int
val stats : t -> stats

(** {1 The writer — callers may race; operations serialize internally} *)

(** [insert t p] upserts [p] by id. *)
val insert : t -> Pc_util.Point.t -> unit

(** [delete t id] removes the point with [id]; [false] if absent. *)
val delete : t -> int -> bool

(** [checkpoint_now t] forces a rebuild if the overlay is non-empty: an
    in-memory checkpoint, which persists nothing. It is the server
    drain's "durability barrier". *)
val checkpoint_now : t -> unit

(** Structural invariants of the current snapshot: the base structures,
    the sorted base (strictly ordered, exactly the base's points), the
    coordinate index (exactly the overlay's points) and overlay
    disjointness. Raises [Failure] on violation. *)
val check_invariants : t -> unit
