(* Growable sample buffers and the order statistics the report uses. *)

type buf = { mutable a : float array; mutable n : int }

let buf () = { a = Array.make 1024 0.; n = 0 }

let add b v =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0. in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- v;
  b.n <- b.n + 1

(* [a / b], or 0 when there is nothing to divide by. *)
let ratio a b = if b > 0. then a /. b else 0.

let length b = b.n
let get b i = b.a.(i)
let total b = Array.fold_left ( +. ) 0. (Array.sub b.a 0 b.n)
let mean b = if b.n = 0 then 0. else total b /. float_of_int b.n

let sorted b =
  let a = Array.sub b.a 0 b.n in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the [p]th percentile: a percentile is reported
   as resolved only with at least ten of them. *)
let beyond sorted p =
  let v = pct sorted p in
  Array.fold_left (fun c x -> if x > v then c + 1 else c) 0 sorted

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so a spread printed here is the
   spread Python computes from the same values. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0., 0., 0.)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m
