(* Monotonic time in seconds, with nanosecond resolution. With the
   microseconds of gettimeofday, the median of a few-microsecond call
   would read the same quantum run after run. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
