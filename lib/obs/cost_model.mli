(** Analytical I/O bounds of the paper's theorems, as checkable data.

    PR 2's tracing records what each query {e did}; this module records
    what each query was {e allowed} to do. Every external structure in
    the repository claims a worst-case per-query I/O bound — Lemma 3.1
    and Theorems 3.2–3.5, 4.3–4.5 and 5.1 of the paper, plus the B+-tree
    baseline and the range-tree extension — and each bound here is a
    closed-form function of the instance size [n], the page size [b] and
    the query output size [t], with the theorem number and our measured
    constants captured as data (the paper states no constants; ours are
    calibrated against the fixed-seed regression workloads in
    [bench/regress.ml] and recorded in DESIGN.md §10).

    {!Conformance.check} turns one measured query into a pass/fail
    verdict ([measured / predicted <= 1]); {!Conformance.summary}
    accumulates worst ratios per structure — the measured-vs-theorem
    ledger column of EXPERIMENTS.md and the conformance half of the
    [bench-diff] CI gate. *)

(** The five 2-sided PST variants of §3–4 (mirrors
    [Pc_extpst.Ext_pst.variant], which this library cannot see). *)
type pst_variant = Iko | Basic | Segmented | Two_level | Multilevel

(** Cached/naive flavour of a structure ([Naive] doubles as the 3-sided
    [Baseline] mode). *)
type flavour = Naive | Cached

(** One entry per structure whose query cost a theorem bounds. *)
type structure =
  | Btree  (** B+-tree range search — the §1 1-D baseline *)
  | Pst2 of pst_variant  (** 2-sided queries: Lemma 3.1, Thms 3.2/4.3/4.4 *)
  | Pst3 of flavour  (** 3-sided queries: Thm 3.3 *)
  | Segtree of flavour  (** external segment tree stabbing: Thm 3.4 *)
  | Inttree of flavour  (** external interval tree stabbing: Thm 3.5 *)
  | Range2d  (** external range tree, general 4-sided (extension) *)
  | Stab_store  (** dynamic interval management via [KRV] (§1, §5) *)
  | Class_index  (** OODB class-hierarchy indexing via 3-sided (§1) *)
  | Dynamic2  (** fully dynamic 2-sided: Thm 5.1 *)

val name : structure -> string

(** [of_name s] inverts {!name} (used by [bench-diff] baselines). *)
val of_name : string -> structure option

(** Every structure, naive and cached flavours included. *)
val all : structure list

(** A query bound [c * shape(n, b, t) + a]: the theorem it restates and
    the constants we measured for it. *)
type bound = {
  theorem : string;  (** e.g. ["Thm 3.4"] *)
  shape : string;  (** human-readable, e.g. ["log_B n + t/B"] *)
  c : float;  (** multiplicative constant *)
  a : float;  (** additive constant *)
}

val query_bound : structure -> bound

(** [predicted_query_ios s ~n ~b ~t] is the bound's value: the maximum
    page I/Os a query with output size [t] may cost on an [n]-item
    instance with page size [b]. Always [>= 1]. *)
val predicted_query_ios : structure -> n:int -> b:int -> t:int -> float

(** [predicted_build_ios s ~n ~b] bounds the page I/Os of a bulk build
    (a constant number of writes per occupied page plus sorting-pass
    reads). *)
val predicted_build_ios : structure -> n:int -> b:int -> float

(** [predicted_storage_pages s ~n ~b] bounds the live pages the built
    structure may occupy — the space side of each theorem. *)
val predicted_storage_pages : structure -> n:int -> b:int -> float

(** {1 Conformance checking} *)

module Conformance : sig
  (** One measured query against its theorem. [ratio] is
      [measured /. predicted]; [within] is [ratio <= 1.] — the constants
      already live inside the prediction, so 1.0 is the line. *)
  type verdict = {
    structure : structure;
    n : int;
    b : int;
    t_out : int;  (** query output size *)
    measured : int;  (** page I/Os the query actually cost *)
    predicted : float;
    ratio : float;
    within : bool;
  }

  (** [check s ~n ~b ~t ~measured] compares one measured query against
      [predicted_query_ios s]. *)
  val check : structure -> n:int -> b:int -> t:int -> measured:int -> verdict

  (** Accumulates verdicts and keeps the worst (highest-ratio) one per
      structure. *)
  type summary

  val summary : unit -> summary
  val record : summary -> verdict -> unit
  val count : summary -> int

  (** [worst s] is the highest-ratio verdict recorded, if any. *)
  val worst : summary -> verdict option

  (** [worst_ratio s] is [worst]'s ratio, [0.] when empty. *)
  val worst_ratio : summary -> float

  (** [by_structure s] lists the worst verdict per structure, sorted by
      decreasing ratio. *)
  val by_structure : summary -> (structure * verdict) list

  val violations : summary -> verdict list
  val all_within : summary -> bool

  (** [pp_summary] prints the per-structure worst-ratio table. *)
  val pp_summary : Format.formatter -> summary -> unit

  (** [report s] is {!pp_summary} as a string (CI artifact). *)
  val report : summary -> string
end
