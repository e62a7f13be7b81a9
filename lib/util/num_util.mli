(** Small integer/asymptotics helpers shared across the repository.

    The paper's bounds are phrased in terms of [log2 n], [log_B n],
    [log log B] and [log* B]; these helpers compute the integer versions
    used to size caches and to predict I/O curves in the benchmarks. *)

(** [ceil_div a b] is [a / b] rounded up. Requires [b > 0]. *)
val ceil_div : int -> int -> int

(** [ilog2 n] is [floor (log2 n)] for [n >= 1]. Raises [Invalid_argument]
    otherwise. *)
val ilog2 : int -> int

(** [ceil_log2 n] is [ceil (log2 n)] for [n >= 1] ([0] when [n = 1]). *)
val ceil_log2 : int -> int

(** [ceil_log ~base n] is [ceil (log_base n)] for [n >= 1], [base >= 2].
    This is the paper's [log_B n] search-path bound. *)
val ceil_log : base:int -> int -> int

(** [log_star n] is the iterated logarithm: the number of times [ilog2]
    must be applied to [n] before the value drops to [<= 1]. *)
val log_star : int -> int

(** [is_pow2 n] is true iff [n] is a positive power of two. *)
val is_pow2 : int -> bool

(** [next_pow2 n] is the least power of two [>= max 1 n]. *)
val next_pow2 : int -> int

(** [clamp ~lo ~hi v] bounds [v] into [lo, hi]. *)
val clamp : lo:int -> hi:int -> int -> int
