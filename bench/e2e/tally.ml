(* Per-structure totals of a query replay: call time, pages read, output
   size, and the pages the cost model predicts (Btree.conformance and
   Ext_pst3.conformance), reported as pages per query, fill (the useful
   share of the pages read) and measured / predicted pages. *)

type t = {
  mutable queries : int;
  mutable pages : int;
  mutable outputs : int;
  mutable predicted : float;
  mutable time : float; (* seconds *)
}

let create () =
  { queries = 0; pages = 0; outputs = 0; predicted = 0.; time = 0. }

let add t ~pages ~outputs (v : Pc_obs.Cost_model.Conformance.verdict) =
  t.queries <- t.queries + 1;
  t.pages <- t.pages + pages;
  t.outputs <- t.outputs + outputs;
  t.predicted <- t.predicted +. v.predicted

(* [b] is the page capacity, in records. *)
let report r ~b name t =
  let ratio = Stats.ratio in
  Report.add r (name ^ ".pages_per_query")
    (ratio (float_of_int t.pages) (float_of_int t.queries))
    "pages";
  Report.add r (name ^ ".fill")
    (ratio (float_of_int t.outputs) (float_of_int (t.pages * b)))
    "ratio";
  Report.add r (name ^ ".cost_ratio")
    (ratio (float_of_int t.pages) t.predicted)
    "ratio"
