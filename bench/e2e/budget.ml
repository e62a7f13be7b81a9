(* How long a request loop runs: a wall-clock window (measured runs) or
   a request count (--smoke). The first 5 % is untimed warm-up. *)

type spec = Seconds of float | Ops of int

type t =
  | Timed of { warm_until : float; until : float }
  | Counted of { warm : int; total : int }

let start = function
  | Seconds s ->
      let t = Clock.now () in
      Timed { warm_until = t +. (0.05 *. s); until = t +. (1.05 *. s) }
  | Ops n -> Counted { warm = n / 20; total = n }

(* [continue b i]: may request [i] (0-based) be issued? *)
let continue b i =
  match b with
  | Timed { until; _ } -> Clock.now () < until
  | Counted { total; _ } -> i < total

(* [timed b i t0]: is request [i], started at [t0], past the warm-up? *)
let timed b i t0 =
  match b with
  | Timed { warm_until; _ } -> t0 >= warm_until
  | Counted { warm; _ } -> i >= warm

let to_args = function
  | Seconds s -> [ "--seconds"; Printf.sprintf "%.17g" s ]
  | Ops n -> [ "--ops"; string_of_int n ]

let of_args args =
  match Args.opt args "--ops" with
  | Some n -> Ops (int_of_string n)
  | None -> Seconds (float_of_string (Args.get args "--seconds"))
