(** Path caching: optimal external searching (Ramaswamy & Subramanian,
    PODS 1994).

    Umbrella module of the library. The paper's contribution — the
    path-caching transformation and the structures built with it — lives
    in the [Ext_*] modules; the substrates (simulated disk, B+-tree,
    brute-force oracle) are exposed for reuse and benchmarking; the two
    motivating database reductions of §1 are {!Stabbing} (dynamic interval
    management) and {!Class_index} (OODB class-hierarchy indexing).

    {1 Substrates}
    - {!Point}, {!Ival}: indexed values
    - {!Pager}, {!Blocked_list}, {!Io_stats}, {!Query_stats}: the
      simulated block device and its accounting
    - {!Buffer_pool}, {!Replacement}: shared buffer-pool manager with
      pluggable replacement policies (LRU, FIFO, CLOCK, 2Q)
    - {!Obs}, {!Histogram}: observability — typed I/O event traces,
      query spans, and log-bucketed latency/I-O histograms
    - {!Cost_model}, {!Metrics}, {!Bench_gate}: the paper's analytical
      bounds as checkable data, a Prometheus/JSON metrics registry, and
      the benchmark regression gate consuming both
    - {!Btree}: external B+-tree (1-D optimal baseline, §1)
    - {!Oracle}: brute-force scans that the tests and the differential
      checker compare every structure against

    {1 Path-cached external structures}
    - {!Ext_pst}: 2-sided queries — [IKO] baseline, Lemma 3.1, Theorems
      3.2, 4.3, 4.4
    - {!Dynamic_pst}: fully dynamic 2-sided (§5, Theorem 5.1)
    - {!Ext_pst3}: 3-sided queries (Theorem 3.3)
    - {!Ext_seg}: external segment tree (§2, Theorem 3.4)
    - {!Ext_int}: external interval tree (Theorem 3.5)

    {1 Applications}
    - {!Stabbing}: dynamic interval management via the [KRV] reduction
    - {!Class_index}: class-hierarchy indexing via 3-sided queries *)

module Point = Pc_util.Point
module Ival = Pc_util.Ival
module Rng = Pc_util.Rng
module Workload = Pc_util.Workload
module Num_util = Pc_util.Num_util
module Blocked = Pc_util.Blocked
module Skeletal_layout = Pc_util.Skeletal_layout
module Buffer_pool = Pc_bufferpool.Buffer_pool
module Replacement = Pc_bufferpool.Replacement
module Obs = Pc_obs.Obs
module Histogram = Pc_obs.Histogram
module Cost_model = Pc_obs.Cost_model
module Metrics = Pc_obs.Metrics
module Reuse_dist = Pc_obs.Reuse_dist
module Access_profile = Pc_obs.Access_profile
module Bench_gate = Pc_obs.Bench_gate
module Pager = Pc_pagestore.Pager
module Wal = Pc_pagestore.Wal
module Fault_plan = Pc_pagestore.Fault_plan
module Blocked_list = Pc_pagestore.Blocked_list
module Io_stats = Pc_pagestore.Io_stats
module Query_stats = Pc_pagestore.Query_stats
module Btree = Pc_btree.Btree
module Oracle = Pc_inmem.Oracle
module Region_tree = Pc_extpst.Region_tree
module Ext_pst = Pc_extpst.Ext_pst
module Dynamic_pst = Pc_extpst.Dynamic
module Ext_pst3 = Pc_threesided.Ext_pst3
module Ext_seg = Pc_extseg.Ext_seg
module Ext_int = Pc_extint.Ext_int
module Ext_range = Pc_extrange.Ext_range
module Stabbing = Stabbing
module Class_index = Class_index
module Logmethod = Logmethod
module Dynamic_pst3 = Dynamic_pst3
