type point_dist = Uniform | Clustered of int | Diagonal | Skyline

let points rng dist ~n ~universe =
  if n < 0 then invalid_arg "Workload.points: n < 0";
  if universe <= 0 then invalid_arg "Workload.points: universe <= 0";
  let u = universe in
  let gen_one i =
    match dist with
    | Uniform -> Point.make ~x:(Rng.int rng u) ~y:(Rng.int rng u) ~id:i
    | Clustered k ->
        (* Pick a deterministic center from a small palette, then jitter. *)
        let k = max 1 k in
        let c = Rng.int rng k in
        let cx = (c * 2 + 1) * u / (2 * k) in
        let cy = ((c * 7919) mod k * 2 + 1) * u / (2 * k) in
        let spread = max 1 (u / (4 * k)) in
        let jitter () = Rng.int rng (2 * spread) - spread in
        let x = Num_util.clamp ~lo:0 ~hi:(u - 1) (cx + jitter ()) in
        let y = Num_util.clamp ~lo:0 ~hi:(u - 1) (cy + jitter ()) in
        Point.make ~x ~y ~id:i
    | Diagonal ->
        let x = Rng.int rng u in
        let y = Num_util.clamp ~lo:0 ~hi:(u - 1) (x + Rng.int rng (max 1 (u / 8))) in
        Point.make ~x ~y ~id:i
    | Skyline ->
        let x = Rng.int rng u in
        let band = max 1 (u / 16) in
        let y =
          Num_util.clamp ~lo:0 ~hi:(u - 1) (u - 1 - x + Rng.int rng (2 * band) - band)
        in
        Point.make ~x ~y ~id:i
  in
  List.init n gen_one

type ival_dist = Short_ivals | Long_ivals | Mixed_ivals | Nested_ivals

let intervals rng dist ~n ~universe =
  if n < 0 then invalid_arg "Workload.intervals: n < 0";
  if universe <= 1 then invalid_arg "Workload.intervals: universe <= 1";
  let u = universe in
  let gen_one i =
    match dist with
    | Short_ivals ->
        let len = 1 + Rng.int rng (max 1 (u / max 1 n)) in
        let lo = Rng.int rng (max 1 (u - len)) in
        Ival.make ~lo ~hi:(min (u - 1) (lo + len)) ~id:i
    | Long_ivals ->
        let len = u / 8 + Rng.int rng (max 1 (u / 8)) in
        let lo = Rng.int rng (max 1 (u - len)) in
        Ival.make ~lo ~hi:(min (u - 1) (lo + len)) ~id:i
    | Mixed_ivals ->
        (* Log-uniform lengths: pick a scale 2^k first. *)
        let kmax = max 1 (Num_util.ilog2 u) in
        let k = Rng.int rng kmax in
        let len = 1 + Rng.int rng (max 1 (1 lsl k)) in
        let len = min len (u - 1) in
        let lo = Rng.int rng (max 1 (u - len)) in
        Ival.make ~lo ~hi:(min (u - 1) (lo + len)) ~id:i
    | Nested_ivals ->
        (* Telescoping family around the universe midpoint. *)
        let step = max 1 (u / (2 * max 1 n)) in
        let off = (i * step) mod (u / 2) in
        Ival.make ~lo:off ~hi:(u - 1 - off) ~id:i
  in
  List.init n gen_one

let two_sided_corners rng ~k ~universe =
  List.init k (fun _ -> (Rng.int rng universe, Rng.int rng universe))

let three_sided rng ~k ~universe ~width =
  List.init k (fun _ ->
      let xl = Rng.int rng universe in
      let w = max 0 (width + Rng.int rng (max 1 (width / 2 + 1)) - width / 4) in
      let xr = min (universe - 1) (xl + w) in
      let yb = Rng.int rng universe in
      (xl, xr, yb))

let stab_queries rng ~k ~universe = List.init k (fun _ -> Rng.int rng universe)

let corner_for_target_t pts ~frac =
  (* Choose the corner on the anti-diagonal sweep whose dominating set has
     the closest size to [frac * n]. A coarse scan over quantiles is
     enough: benchmarks only need approximate output sizes. *)
  let n = List.length pts in
  if n = 0 then (0, 0)
  else begin
    let xs = List.map Point.x pts |> List.sort compare |> Array.of_list in
    let ys = List.map Point.y pts |> List.sort compare |> Array.of_list in
    let target = int_of_float (frac *. float_of_int n) in
    let count_at xl yb =
      List.fold_left
        (fun acc (p : Point.t) -> if p.x >= xl && p.y >= yb then acc + 1 else acc)
        0 pts
    in
    let best = ref (xs.(0), ys.(0)) in
    let best_err = ref max_int in
    let steps = 24 in
    for i = 0 to steps do
      let idx = Num_util.clamp ~lo:0 ~hi:(n - 1) (i * (n - 1) / steps) in
      (* Symmetric quantile cut: take x-quantile idx and y-quantile idx. *)
      let xl = xs.(idx) and yb = ys.(idx) in
      let err = abs (count_at xl yb - target) in
      if err < !best_err then begin
        best_err := err;
        best := (xl, yb)
      end
    done;
    !best
  end
