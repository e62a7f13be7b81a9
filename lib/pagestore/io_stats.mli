(** Mutable I/O counters for a simulated block device.

    The paper's cost model charges one unit per page transferred between
    disk and memory. [reads] and [writes] count transfers that actually hit
    the (simulated) disk; [cache_hits] counts accesses absorbed by the
    buffer pool and therefore free under the model.

    [evictions] counts this pager's frames pushed out of its buffer pool
    (by any pool client — with a shared {!Pc_bufferpool.Buffer_pool} the
    evictor may be another pager drawing on the same budget).

    [retries] counts the reissues of transfers that hit transient errors
    (a {!Pc_pagestore.Fault_plan.Transient} burst, or a device error
    under an installed {!Pc_pagestore.Retry_policy}), whether the
    transfer finally succeeded or gave up. Each reissue of a read or
    write is also charged as one, so [retries] measures redundant
    transfers, not extra cost. It is zero — and omitted from {!pp} and
    {!to_args}, keeping fault-free output byte-identical — unless
    transient faults were injected. *)

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable cache_hits : int;
  mutable allocs : int;
  mutable frees : int;
  mutable evictions : int;
  mutable retries : int;
}

val create : unit -> t
val reset : t -> unit

(** [total t] is [reads + writes]: the paper's I/O cost. *)
val total : t -> int

(** [snapshot t] copies the current counter values. *)
val snapshot : t -> t

(** [diff ~after ~before] is the counter-wise difference; used to attribute
    I/Os to a single query or update. *)
val diff : after:t -> before:t -> t

val pp : Format.formatter -> t -> unit

(** [to_args t] lists every counter as a [(name, value)] pair — the
    payload attached to closing trace spans (see {!Pc_obs.Obs.event}). *)
val to_args : t -> (string * int) list
