(** Per-structure access profiles and the global cache advisor, built on
    {!Reuse_dist}.

    Where {!Reuse_dist} answers "how would this stream behave at any
    cache size", this layer answers the two questions beside it: {e
    what} does each structure touch (per-level touch counts, hot pages,
    working-set size), and {e how should a shared frame budget be
    split} across the live structures.

    {b Levels.} The event stream carries no tree depth, but every query
    entry point opens an {!Obs} span and a path-cached structure reads
    root-to-leaf inside it — so the ordinal of a touch within the
    innermost open span is the page's level for tree descents (level 0
    = root). The per-level table splits hits from misses, making the
    paper's premise visible directly: upper levels should hit, the
    fringe should miss.

    {b Working set.} Distinct pages referenced in the last [window]
    references (default 256), per source, tracked as current and peak —
    the gauge [serve-metrics] exports.

    {b Advisor.} Given the per-source MRCs and a global frame budget,
    {!advise} assigns frames one at a time to the source whose curve
    gains the most hits from its next frame (marginal-miss-rate
    descent), then keeps the better of that split and the naive even
    split — greedy is optimal for concave curves and never reported
    when it loses to even on a non-concave one. Predicted hit counts
    come straight off the curves, so "predicted vs actual" is a
    comparison the caller can make after running the advised split.

    Determinism contract: like {!Reuse_dist}, this layer only listens;
    attaching it never changes I/O counts or traces. *)

type t

(** [create ()] builds a profiler with its own private {!Reuse_dist.t}.
    [window] is the working-set window in references, [top_k] how many
    hot pages each profile retains. *)
val create : ?window:int -> ?top_k:int -> unit -> t

(** The underlying reuse-distance profiler (for {!Reuse_dist.mrcs},
    tables, JSON). *)
val reuse : t -> Reuse_dist.t

(** [observe t ev] folds one event into both the reuse profiler and the
    profile tables. *)
val observe : t -> Obs.event -> unit

val sink : t -> Obs.sink

(** [attach t obs] tees onto [obs]'s current sink, like
    {!Metrics.attach}. *)
val attach : t -> Obs.t -> unit

val reset : t -> unit

(** {1 Profiles} *)

type level = {
  lv_depth : int;  (** touch ordinal within the innermost open span *)
  lv_hits : int;  (** [Cache_hit] touches at this depth *)
  lv_misses : int;  (** [Read] (device) touches at this depth *)
}

type profile = {
  p_source : string;
  p_reads : int;  (** read references ([Read] + [Cache_hit]) *)
  p_hits : int;  (** of which [Cache_hit] *)
  p_distinct : int;  (** pages currently on the shadow stack *)
  p_levels : level list;  (** depth-ascending; all-zero rows omitted *)
  p_hot : (int * int) list;  (** [(page, touches)], hottest first, top-K *)
  p_ws_current : int;  (** distinct pages in the last [window] refs *)
  p_ws_peak : int;
}

(** Snapshot per-source profiles, in source-id order. *)
val profiles : t -> profile list

(** Current sliding-window working set of one source (0 if unseen). *)
val working_set : t -> int -> int

val pp_profiles : Format.formatter -> profile list -> unit

(** {1 The advisor} *)

type alloc = {
  a_source : string;
  a_frames : int;
  a_accesses : int;  (** read references backing the prediction *)
  a_pred_hits : int;  (** {!Reuse_dist.hits_at} the assigned frames *)
}

val alloc_hit_ratio : alloc -> float

type advice = {
  budget : int;
  allocs : alloc list;  (** recommended split, source order *)
  even : alloc list;  (** naive even split of the same budget *)
}

(** Predicted misses of a split = sum of [accesses - pred_hits]. *)
val predicted_misses : alloc list -> int

(** [advise curves ~budget] partitions [budget] frames across the given
    per-source curves (see the algorithm note above). Raises
    [Invalid_argument] on a negative budget or no curves. *)
val advise : (string * Reuse_dist.mrc) list -> budget:int -> advice

val pp_advice : Format.formatter -> advice -> unit
val advice_json : advice -> string
