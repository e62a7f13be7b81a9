(** Planar points with integer coordinates and a unique identifier.

    All external search structures in this repository index values of type
    {!t}. Coordinates are [int]s: the I/O-model results of the paper are
    comparison-based, so integer keys lose no generality, and exact
    arithmetic keeps tests deterministic. The [id] field distinguishes
    points that share coordinates and lets queries deduplicate the copies
    introduced by path caching. *)

type t = { x : int; y : int; id : int }

val make : x:int -> y:int -> id:int -> t

val x : t -> int
val y : t -> int
val id : t -> int

(** [compare_xy] orders by [x], breaking ties by [y] then [id]. This is the
    total order used by skeletal B-trees over x-coordinates. *)
val compare_xy : t -> t -> int

(** [compare_yx] orders by [y], breaking ties by [x] then [id]. *)
val compare_yx : t -> t -> int

(** [compare_x_desc] orders by decreasing [x] (ties by [id]); the order of
    ancestor caches ("A-lists", largest x first). *)
val compare_x_desc : t -> t -> int

(** [compare_y_desc] orders by decreasing [y] (ties by [id]); the order of
    sibling caches ("S-lists", largest y first). *)
val compare_y_desc : t -> t -> int

val compare_id : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Sets of points keyed by [id]; used to deduplicate query output. *)
module Id_set : Set.S with type elt = int

(** [dedup_by_id pts] keeps the first occurrence of each id, preserving
    order of first appearance. *)
val dedup_by_id : t list -> t list
