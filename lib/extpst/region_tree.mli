(** The hierarchical plane decomposition underlying external priority
    search trees ([IKO]; paper §3, Figure 4).

    Given a region capacity [c], the root region keeps the top [c] points
    by [y]; the remaining points are split into two halves at the median
    [x], recursively. Every node therefore corresponds to a rectangular
    region of the plane containing exactly the points stored in it, and a
    root-to-node path stacks regions top-to-bottom within nested x-ranges.

    This module is the in-memory blueprint: the external variants persist
    it (points into data pages, structure into skeletal blocks) and the
    dynamic structure of Section 5 rebuilds parts of it. *)

open Pc_util

type node = {
  idx : int;  (** dense id, preorder *)
  depth : int;
  pts_by_y : Point.t array;  (** region's points, decreasing y *)
  pts_by_x : Point.t array;  (** same points, decreasing x *)
  min_y : int;  (** min y among the region's points; [max_int] if none *)
  split : int;
      (** x routing key: the left subtree holds points with [x <= split],
          the right subtree points with [x >= split] *)
  xlo : int;  (** inclusive x-range of the region *)
  xhi : int;
  left : node option;
  right : node option;
}

type t

(** [build ~capacity pts] constructs the decomposition. [capacity >= 1]. *)
val build : capacity:int -> Point.t list -> t

val root : t -> node option
val num_nodes : t -> int
val size : t -> int
val height : t -> int
val capacity : t -> int

(** [node_by_idx t i] retrieves a node by dense id. *)
val node_by_idx : t -> int -> node

(** [iter f t] visits all nodes in preorder. *)
val iter : (node -> unit) -> t -> unit

(** [all_points t] lists every stored point. *)
val all_points : t -> Point.t list

(** [check_invariants t] validates: point partition, x-range nesting, the
    heap property (children's points lie below the parent's minimum), and
    capacity limits. Raises [Failure] on violation. *)
val check_invariants : t -> unit
