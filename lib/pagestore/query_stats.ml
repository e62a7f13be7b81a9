type t = {
  mutable skeletal_reads : int;
  mutable data_reads : int;
  mutable cache_reads : int;
  mutable wasteful_reads : int;
  mutable reported_raw : int;
}

let create () =
  {
    skeletal_reads = 0;
    data_reads = 0;
    cache_reads = 0;
    wasteful_reads = 0;
    reported_raw = 0;
  }

let total t = t.skeletal_reads + t.data_reads + t.cache_reads

let add ~into b =
  into.skeletal_reads <- into.skeletal_reads + b.skeletal_reads;
  into.data_reads <- into.data_reads + b.data_reads;
  into.cache_reads <- into.cache_reads + b.cache_reads;
  into.wasteful_reads <- into.wasteful_reads + b.wasteful_reads;
  into.reported_raw <- into.reported_raw + b.reported_raw

let pp ppf t =
  Format.fprintf ppf "{skel=%d data=%d cache=%d wasteful=%d raw=%d}"
    t.skeletal_reads t.data_reads t.cache_reads t.wasteful_reads t.reported_raw

let to_args t =
  [
    ("skeletal_reads", t.skeletal_reads);
    ("data_reads", t.data_reads);
    ("cache_reads", t.cache_reads);
    ("wasteful_reads", t.wasteful_reads);
    ("reported_raw", t.reported_raw);
    ("total", total t);
  ]
