(** Synthetic workload generators for points, intervals and queries.

    The paper's theorems are worst-case and distribution-free; these
    generators provide the distributions swept by the benchmark harness
    (uniform, clustered, diagonal, adversarial) plus query generators with
    controllable expected output size [t]. Every generator is deterministic
    given its {!Rng.t}. *)

(** Point distribution shapes. *)
type point_dist =
  | Uniform  (** i.i.d. uniform over the coordinate universe *)
  | Clustered of int
      (** [Clustered k]: points concentrated around [k] random centers;
          stresses skewed region occupancy *)
  | Diagonal
      (** points near the main diagonal with [x <= y]; the image of random
          intervals under the stabbing reduction *)
  | Skyline
      (** anti-correlated band ([x + y] roughly constant); many points are
          maximal, stressing sibling caches *)

(** [points rng dist ~n ~universe] generates [n] points with distinct ids
    [0..n-1] and coordinates in [0, universe). *)
val points : Rng.t -> point_dist -> n:int -> universe:int -> Point.t list

(** Interval length shapes. *)
type ival_dist =
  | Short_ivals  (** lengths ~ universe/n: few stabbing hits *)
  | Long_ivals  (** lengths ~ universe/4: heavy overlap *)
  | Mixed_ivals  (** log-uniform lengths *)
  | Nested_ivals  (** telescoping nests; adversarial for interval trees *)

(** [intervals rng dist ~n ~universe] generates [n] intervals with distinct
    ids and endpoints in [0, universe). *)
val intervals : Rng.t -> ival_dist -> n:int -> universe:int -> Ival.t list

(** [two_sided_corners rng ~k ~universe] generates [k] query corners
    [(xl, yb)] uniformly. *)
val two_sided_corners : Rng.t -> k:int -> universe:int -> (int * int) list

(** [three_sided rng ~k ~universe ~width] generates [k] triples
    [(xl, xr, yb)] with [xr - xl ~ width]. *)
val three_sided :
  Rng.t -> k:int -> universe:int -> width:int -> (int * int * int) list

(** [stab_queries rng ~k ~universe] generates [k] stabbing coordinates. *)
val stab_queries : Rng.t -> k:int -> universe:int -> int list

(** [corner_for_target_t pts ~frac] computes a 2-sided corner whose output
    over [pts] is approximately [frac] of the input (used by the
    output-sensitivity sweep E3). *)
val corner_for_target_t : Point.t list -> frac:float -> int * int
