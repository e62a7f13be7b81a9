let ceil_div a b =
  if b <= 0 then invalid_arg "Num_util.ceil_div: non-positive divisor";
  if a <= 0 then 0 else (a + b - 1) / b

let ilog2 n =
  if n < 1 then invalid_arg "Num_util.ilog2: n < 1";
  let rec loop acc n = if n <= 1 then acc else loop (acc + 1) (n lsr 1) in
  loop 0 n

let ceil_log2 n =
  if n < 1 then invalid_arg "Num_util.ceil_log2: n < 1";
  let l = ilog2 n in
  if 1 lsl l = n then l else l + 1

let ceil_log ~base n =
  if base < 2 then invalid_arg "Num_util.ceil_log: base < 2";
  if n < 1 then invalid_arg "Num_util.ceil_log: n < 1";
  let rec loop acc pow =
    if pow >= n then acc
    else if pow > max_int / base then acc + 1
    else loop (acc + 1) (pow * base)
  in
  loop 0 1

let log_star n =
  let rec loop acc n = if n <= 1 then acc else loop (acc + 1) (ilog2 n) in
  loop 0 n

let is_pow2 n = n > 0 && n land (n - 1) = 0

let next_pow2 n =
  let n = max 1 n in
  let rec loop p = if p >= n then p else loop (p * 2) in
  loop 1

let clamp ~lo ~hi v = if v < lo then lo else if v > hi then hi else v
