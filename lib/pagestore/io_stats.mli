(** Mutable I/O counters for a simulated block device.

    The paper's cost model charges one unit per page transferred between
    disk and memory. [reads] and [writes] count transfers that actually hit
    the (simulated) disk; [cache_hits] counts accesses absorbed by the
    buffer pool and therefore free under the model.

    [evictions] counts this pager's frames pushed out of its buffer pool
    (by any pool client — with a shared {!Pc_bufferpool.Buffer_pool} the
    evictor may be another pager drawing on the same budget). The pool
    is write-through, so [write_backs] is always 0; the field stays so
    that {!pp}, {!to_args} and the JSON round-trip keep their format.

    [retries] counts the reissues of transfers that hit transient errors
    (a {!Pc_pagestore.Fault_plan.Transient} burst, or a device error
    under an installed {!Pc_pagestore.Retry_policy}), whether the
    transfer finally succeeded or gave up. Each reissue of a read or
    write is also charged as one, so [retries] measures redundant
    transfers, not extra cost. It is zero — and omitted from {!to_args} /
    {!to_json}, keeping fault-free output byte-identical — unless
    transient faults were injected. *)

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable cache_hits : int;
  mutable allocs : int;
  mutable frees : int;
  mutable evictions : int;
  mutable write_backs : int;
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

(** [to_json t] is a flat JSON object of all counters, as consumed by the
    trace and benchmark exporters. *)
val to_json : t -> string

(** [of_json s] parses a {!to_json} object back; [None] if any counter
    field is missing or malformed. Round-trips with [to_json] (used by
    [bench-diff] to read committed baselines). *)
val of_json : string -> t option

(** [json_int_field s key] extracts [{"key":123}]-style integer fields
    from flat hand-rolled JSON — shared by the baseline parsers. *)
val json_int_field : string -> string -> int option
