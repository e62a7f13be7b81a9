(** Brute-force reference implementations of every query answered in this
    repository.

    Each external structure's tests compare its output, as a set of ids,
    against the corresponding oracle over the same input. The oracles are
    deliberately linear scans: trivially correct, and fast enough at test
    sizes. *)

open Pc_util

(** [two_sided pts ~xl ~yb] is all points with [x >= xl && y >= yb]. *)
val two_sided : Point.t list -> xl:int -> yb:int -> Point.t list

(** [three_sided pts ~xl ~xr ~yb] is all points with
    [xl <= x <= xr && y >= yb]. *)
val three_sided : Point.t list -> xl:int -> xr:int -> yb:int -> Point.t list

(** [range_2d pts ~x1 ~x2 ~y1 ~y2] is all points inside the closed
    rectangle — the general 2-dimensional query of Figure 1. *)
val range_2d :
  Point.t list -> x1:int -> x2:int -> y1:int -> y2:int -> Point.t list

(** [stabbing ivs ~q] is all intervals containing [q]. *)
val stabbing : Ival.t list -> q:int -> Ival.t list

(** [ids pts] is the sorted id list of [pts], for set comparison. *)
val ids : Point.t list -> int list

(** [ival_ids ivs] is the sorted id list of [ivs]. *)
val ival_ids : Ival.t list -> int list
