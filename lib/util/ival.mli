(** Closed integer intervals [lo, hi] with a unique identifier.

    Used by the segment-tree and interval-tree structures and by the
    interval-management reduction of Section 1 of the paper (stabbing
    queries reduce to diagonal-corner queries on points [(lo, hi)]). *)

type t = { lo : int; hi : int; id : int }

(** [make ~lo ~hi ~id] builds the interval. Raises [Invalid_argument] if
    [lo > hi]. *)
val make : lo:int -> hi:int -> id:int -> t

val lo : t -> int
val hi : t -> int
val id : t -> int

(** [contains iv q] is true iff [lo <= q <= hi]. *)
val contains : t -> int -> bool

(** [covers outer inner] is true iff [inner] lies entirely within
    [outer]. *)
val covers : t -> t -> bool

(** [overlaps a b] is true iff the two intervals share at least one
    point. *)
val overlaps : t -> t -> bool

(** [compare_lo] orders by increasing left endpoint (ties by id); the
    order of left-direction interval-tree lists. *)
val compare_lo : t -> t -> int

(** [compare_hi_desc] orders by decreasing right endpoint (ties by id);
    the order of right-direction interval-tree lists. *)
val compare_hi_desc : t -> t -> int

val compare_id : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** [to_point iv] maps the interval to the plane point [(lo, hi)] with the
    same id: the [KRV] reduction. A point [q] stabs [iv] iff the point lies
    in the 2-sided-style query [x <= q && y >= q]. *)
val to_point : t -> Point.t

(** [of_point p] reverses {!to_point}. Raises [Invalid_argument] if
    [p.x > p.y]. *)
val of_point : Point.t -> t

(** [dedup_by_id ivs] keeps the first occurrence of each id, in input
    order ({!Point.dedup_by_key}). *)
val dedup_by_id : t list -> t list

(** [endpoints ivs] returns the sorted deduplicated list of all interval
    endpoints. *)
val endpoints : t list -> int list
