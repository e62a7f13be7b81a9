(** Per-query I/O breakdown shared by all external structures.

    All counts are page reads attributed to a single query; with the
    buffer pool disabled, [total] equals the pager's read delta. *)

type t = {
  mutable skeletal_reads : int;  (** block/tree pages read while routing *)
  mutable data_reads : int;  (** primary list pages (cover/X/Y/local) *)
  mutable cache_reads : int;  (** path-cache pages (A/S/coalesced) *)
  mutable wasteful_reads : int;
      (** reads beyond [ceil(kept / B)] during list scans — the quantity
          path caching exists to bound (paper §2, Figure 3) *)
  mutable reported_raw : int;
      (** results reported before deduplication; tests assert it equals
          the deduplicated count *)
}

val create : unit -> t

(** [total t] is all page reads: [skeletal + data + cache]. *)
val total : t -> int

val add : into:t -> t -> unit
val pp : Format.formatter -> t -> unit

(** [to_args t] lists every field plus the derived [total] as
    [(name, value)] pairs — the payload attached to closing trace spans
    (see {!Pc_obs.Obs.with_span}). *)
val to_args : t -> (string * int) list
