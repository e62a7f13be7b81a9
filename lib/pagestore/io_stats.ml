type t = {
  mutable reads : int;
  mutable writes : int;
  mutable cache_hits : int;
  mutable allocs : int;
  mutable frees : int;
  mutable evictions : int;
  mutable retries : int;
}

let create () =
  {
    reads = 0;
    writes = 0;
    cache_hits = 0;
    allocs = 0;
    frees = 0;
    evictions = 0;
    retries = 0;
  }

let reset t =
  t.reads <- 0;
  t.writes <- 0;
  t.cache_hits <- 0;
  t.allocs <- 0;
  t.frees <- 0;
  t.evictions <- 0;
  t.retries <- 0

let total t = t.reads + t.writes

let snapshot t =
  {
    reads = t.reads;
    writes = t.writes;
    cache_hits = t.cache_hits;
    allocs = t.allocs;
    frees = t.frees;
    evictions = t.evictions;
    retries = t.retries;
  }

let diff ~after ~before =
  {
    reads = after.reads - before.reads;
    writes = after.writes - before.writes;
    cache_hits = after.cache_hits - before.cache_hits;
    allocs = after.allocs - before.allocs;
    frees = after.frees - before.frees;
    evictions = after.evictions - before.evictions;
    retries = after.retries - before.retries;
  }

let pp ppf t =
  Format.fprintf ppf
    "{reads=%d; writes=%d; hits=%d; allocs=%d; frees=%d; evictions=%d}"
    t.reads t.writes t.cache_hits t.allocs t.frees t.evictions;
  if t.retries > 0 then Format.fprintf ppf " retries=%d" t.retries

let to_args t =
  [
    ("reads", t.reads);
    ("writes", t.writes);
    ("cache_hits", t.cache_hits);
    ("allocs", t.allocs);
    ("frees", t.frees);
    ("evictions", t.evictions);
  ]
  @ (if t.retries > 0 then [ ("retries", t.retries) ] else [])
