(* Analytical bounds of the paper's theorems as data + closed forms.

   The paper states asymptotic bounds with no constants; the constants
   below are ours, calibrated so that every fixed-seed workload in
   bench/regress.ml and the conformance test suite sits within the bound
   with headroom, while a structure run against a *stronger* structure's
   bound (e.g. the IKO baseline against Lemma 3.1's B-ary bound) lands
   clearly outside it. Changing a constant is a semantic change to the
   repository's regression gate: record it in DESIGN.md §10 and
   regenerate BENCH_regress.json. *)

type pst_variant = Iko | Basic | Segmented | Two_level | Multilevel
type flavour = Naive | Cached

type structure =
  | Btree
  | Pst2 of pst_variant
  | Pst3 of flavour
  | Segtree of flavour
  | Inttree of flavour
  | Range2d
  | Stab_store
  | Class_index
  | Dynamic2

let name = function
  | Btree -> "btree"
  | Pst2 Iko -> "pst2.iko"
  | Pst2 Basic -> "pst2.basic"
  | Pst2 Segmented -> "pst2.segmented"
  | Pst2 Two_level -> "pst2.two_level"
  | Pst2 Multilevel -> "pst2.multilevel"
  | Pst3 Naive -> "pst3.baseline"
  | Pst3 Cached -> "pst3.cached"
  | Segtree Naive -> "segtree.naive"
  | Segtree Cached -> "segtree.cached"
  | Inttree Naive -> "inttree.naive"
  | Inttree Cached -> "inttree.cached"
  | Range2d -> "range2d"
  | Stab_store -> "stabbing"
  | Class_index -> "class_index"
  | Dynamic2 -> "dynamic2"

let all =
  [
    Btree;
    Pst2 Iko;
    Pst2 Basic;
    Pst2 Segmented;
    Pst2 Two_level;
    Pst2 Multilevel;
    Pst3 Naive;
    Pst3 Cached;
    Segtree Naive;
    Segtree Cached;
    Inttree Naive;
    Inttree Cached;
    Range2d;
    Stab_store;
    Class_index;
    Dynamic2;
  ]

let of_name s = List.find_opt (fun st -> name st = s) all

(* ------------------------------------------------------------------ *)
(* Closed-form ingredients                                            *)
(* ------------------------------------------------------------------ *)

let log2f n = log (float_of_int (max 2 n)) /. log 2.

(* B-ary search depth; at least 1 so bounds never collapse below a
   single page access. *)
let logbf ~b n =
  Float.max 1. (log (float_of_int (max 2 n)) /. log (float_of_int (max 2 b)))

(* The reporting term: a query with output t may touch ceil(t/B) list
   pages per sorted run it consumes. *)
let t_over_b ~b t = float_of_int ((max 0 t + b - 1) / max 1 b)

(* log* B: iterations of log2 until the value drops to <= 1. *)
let log_star b =
  let rec go v acc =
    if v <= 1. then acc else go (log v /. log 2.) (acc + 1)
  in
  float_of_int (go (float_of_int (max 2 b)) 0)

(* ------------------------------------------------------------------ *)
(* Query bounds                                                       *)
(* ------------------------------------------------------------------ *)

type bound = { theorem : string; shape : string; c : float; a : float }

type shape_fn = B_ary | Binary | Multi | Range_product

let shape_value shape ~n ~b ~t =
  let tb = t_over_b ~b t in
  match shape with
  | B_ary -> logbf ~b n +. tb
  | Binary -> log2f n +. tb
  | Multi -> logbf ~b n +. tb +. log_star b
  | Range_product -> (log2f n *. logbf ~b n) +. tb

let shape_name = function
  | B_ary -> "log_B n + t/B"
  | Binary -> "log2 n + t/B"
  | Multi -> "log_B n + t/B + log* B"
  | Range_product -> "log2 n * log_B n + t/B"

(* (theorem, shape, c, a) per structure. Additive constants absorb the
   bounded number of cache/descriptor pages a query touches regardless
   of n (and, for 3-sided, the documented O(d_split) deviation on the
   workloads we pin). *)
let query_spec = function
  | Btree -> ("§1 baseline", B_ary, 1.0, 4.)
  (* reporting constants >= 2: underfull pages mean large outputs cost
     up to ~2 reads per ceil(t/B) on every variant (bench E3) *)
  | Pst2 Iko -> ("[IKO] baseline", Binary, 2.5, 4.)
  | Pst2 Basic -> ("Lemma 3.1", B_ary, 2.0, 4.)
  | Pst2 Segmented -> ("Thm 3.2", B_ary, 2.0, 5.)
  | Pst2 Two_level -> ("Thm 4.3", B_ary, 1.5, 6.)
  | Pst2 Multilevel -> ("Thm 4.4", Multi, 1.5, 7.)
  | Pst3 Naive -> ("pre-Thm 3.3 baseline", Binary, 1.5, 6.)
  | Pst3 Cached -> ("Thm 3.3", B_ary, 2.0, 9.)
  | Segtree Naive -> ("[BlGb] baseline", Binary, 1.5, 4.)
  | Segtree Cached -> ("Thm 3.4", B_ary, 2.0, 5.)
  | Inttree Naive -> ("[Edea] baseline", Binary, 1.5, 4.)
  | Inttree Cached -> ("Thm 3.5", B_ary, 2.0, 5.)
  | Range2d -> ("range-tree extension", Range_product, 1.0, 6.)
  | Stab_store -> ("§1 + Thm 5.1 ([KRV])", B_ary, 2.0, 9.)
  | Class_index ->
      (* wide preorder-range queries split at both x-bounds of the
         3-sided query, paying two root-to-leaf paths; the additive
         constant absorbs the second (the Thm 3.3 deviation note in
         DESIGN.md §5) *)
      ("§1 + Thm 3.3 ([KRV])", B_ary, 2.0, 16.)
  | Dynamic2 -> ("Thm 5.1", B_ary, 2.0, 9.)

let query_bound s =
  let theorem, shape, c, a = query_spec s in
  { theorem; shape = shape_name shape; c; a }

let predicted_query_ios s ~n ~b ~t =
  let _, shape, c, a = query_spec s in
  Float.max 1. ((c *. shape_value shape ~n ~b ~t) +. a)

(* ------------------------------------------------------------------ *)
(* Storage and build bounds                                           *)
(* ------------------------------------------------------------------ *)

(* Pages over the n/B floor: (c * factor(n, b) + a) * n/B + 16, the
   space half of each theorem. The +16 floor covers the skeletal
   descriptors of tiny instances. *)
let storage_spec = function
  | Btree -> (2.0, 0.) (* O(n/B) *)
  | Pst2 Iko -> (2.0, 0.)
  | Pst2 Basic -> (1.5, 0.) (* factor log2 n *)
  | Pst2 Segmented -> (2.0, 0.) (* factor log2 B *)
  | Pst2 Two_level -> (4.0, 0.) (* factor log2 log2 B *)
  | Pst2 Multilevel -> (5.0, 0.) (* factor log* B *)
  | Pst3 Naive -> (4.0, 0.) (* factor log2 B *)
  | Pst3 Cached -> (4.0, 0.)
  | Segtree Naive -> (2.0, 0.) (* factor log2 n *)
  | Segtree Cached -> (2.0, 0.)
  | Inttree Naive -> (3.0, 0.) (* O(n/B) *)
  | Inttree Cached -> (2.0, 0.) (* factor log2 B *)
  | Range2d -> (3.0, 0.) (* factor log2 (n/B) *)
  | Stab_store -> (6.0, 0.) (* dynamic two-level, factor log2 log2 B *)
  | Class_index -> (4.0, 0.)
  | Dynamic2 -> (6.0, 0.)

let storage_factor s ~n ~b =
  match s with
  | Btree | Pst2 Iko | Inttree Naive -> 1.
  | Pst2 Basic | Segtree Naive | Segtree Cached -> log2f n
  | Pst2 Segmented | Pst3 Naive | Pst3 Cached | Inttree Cached | Class_index ->
      log2f b
  | Pst2 Two_level | Stab_store | Dynamic2 ->
      Float.max 1. (log (log2f b) /. log 2.)
  | Pst2 Multilevel -> log_star b
  | Range2d -> Float.max 1. (log2f (max 2 (n / max 1 b)))

let predicted_storage_pages s ~n ~b =
  let c, a = storage_spec s in
  let floor_pages = float_of_int (max 1 n) /. float_of_int (max 2 b) in
  (((c *. storage_factor s ~n ~b) +. a) *. floor_pages) +. 16.

(* A bulk build writes each occupied page O(1) times and re-reads pages
   while packing caches; dynamic structures pay their initial rebuild.
   A flat multiplier over the storage bound covers all of them. *)
let predicted_build_ios s ~n ~b =
  (6. *. predicted_storage_pages s ~n ~b) +. 64.

(* ------------------------------------------------------------------ *)
(* Conformance                                                        *)
(* ------------------------------------------------------------------ *)

module Conformance = struct
  type verdict = {
    structure : structure;
    n : int;
    b : int;
    t_out : int;
    measured : int;
    predicted : float;
    ratio : float;
    within : bool;
  }

  let check s ~n ~b ~t ~measured =
    let predicted = predicted_query_ios s ~n ~b ~t in
    let ratio = float_of_int measured /. predicted in
    {
      structure = s;
      n;
      b;
      t_out = t;
      measured;
      predicted;
      ratio;
      within = ratio <= 1.0;
    }

  (* Worst verdict per structure, plus global counters. *)
  type summary = {
    mutable verdicts : (string * verdict) list; (* name -> worst *)
    mutable total : int;
    mutable violation_list : verdict list; (* newest first *)
  }

  let summary () = { verdicts = []; total = 0; violation_list = [] }

  let record s v =
    s.total <- s.total + 1;
    if not v.within then s.violation_list <- v :: s.violation_list;
    let key = name v.structure in
    match List.assoc_opt key s.verdicts with
    | Some w when w.ratio >= v.ratio -> ()
    | _ -> s.verdicts <- (key, v) :: List.remove_assoc key s.verdicts

  let count s = s.total

  let by_structure s =
    List.map (fun (_, v) -> (v.structure, v)) s.verdicts
    |> List.sort (fun (_, a) (_, b) -> compare b.ratio a.ratio)

  let worst s =
    match by_structure s with [] -> None | (_, v) :: _ -> Some v

  let worst_ratio s = match worst s with None -> 0. | Some v -> v.ratio
  let violations s = List.rev s.violation_list
  let all_within s = s.violation_list = []

  let pp_summary ppf s =
    Format.fprintf ppf
      "conformance: %d queries checked, %d violation(s)@\n" s.total
      (List.length s.violation_list);
    Format.fprintf ppf "%-16s %-22s %9s %10s %7s %s@\n" "structure" "theorem"
      "measured" "predicted" "ratio" "verdict";
    List.iter
      (fun (st, v) ->
        Format.fprintf ppf "%-16s %-22s %9d %10.1f %7.2f %s@\n" (name st)
          (query_bound st).theorem v.measured v.predicted v.ratio
          (if v.within then "ok" else "VIOLATION"))
      (by_structure s)

  let report s = Format.asprintf "%a" pp_summary s
end
