(* The measured window of a request loop, cut into blocks of
   consecutive requests that the caller numbers. Throughput and the p50
   of each latency class — krange, q3, write — are computed per block,
   and the report takes the fast tenth over blocks: the 90th percentile
   of block throughput and the 10th of block p50s.

   Why the fast tenth: on a shared host the speed of the same CPU-bound
   loop drifts by up to 2x over seconds to minutes, while the blocks of
   one run at one speed agree within a few percent. Interference only
   ever adds time, so the fast blocks are the program's own speed, and a
   change to the program moves them as it moves every block. A block is
   counted in requests, not seconds, so that a periodic cost (a
   checkpoint every so many writes) falls into every block alike. The
   first and the last block, cut by the warm-up and the window's end,
   are left out. The tail is over the whole window. *)

type block = { start : float; mutable stop : float; mutable n : int }

type t = {
  samples : (string * int, Stats.buf) Hashtbl.t; (* (class, block) -> us *)
  blocks : (int, block) Hashtbl.t;
}

let create () = { samples = Hashtbl.create 64; blocks = Hashtbl.create 64 }

(* Records request [i] of block [b], [req], which ran from [t0] to [t1],
   if it falls in the measured window. *)
let add t budget ~i ~block:b req t0 t1 =
  if Budget.timed budget i t0 then begin
    let key = (Gen.latency_class req, b) in
    if not (Hashtbl.mem t.samples key) then
      Hashtbl.replace t.samples key (Stats.buf ());
    Stats.add (Hashtbl.find t.samples key) ((t1 -. t0) *. 1e6);
    if not (Hashtbl.mem t.blocks b) then
      Hashtbl.replace t.blocks b { start = t0; stop = t1; n = 0 };
    let blk = Hashtbl.find t.blocks b in
    blk.stop <- t1;
    blk.n <- blk.n + 1
  end

(* The percentile of the blocks that is reported, from the fast end. *)
let fast = 10.

let sorted a =
  Array.sort compare a;
  a

(* ops_s, then [<class>_p50_us], [<class>_p90_us] and the tail per
   class; returns ops_s. The p50 of the read classes are end-to-end
   metrics; the rest is information: only mixed_rw and file_cold write,
   and a p90 moves with the host's other tenants by more than any
   useful bound. *)
let report r t =
  let ids =
    match List.sort compare (List.of_seq (Hashtbl.to_seq_keys t.blocks)) with
    | _ :: (_ :: _ :: _ as rest) -> List.rev (List.tl (List.rev rest))
    | few -> few (* a smoke run: too few blocks to leave any out *)
  in
  let ops =
    List.map
      (fun b ->
        let blk = Hashtbl.find t.blocks b in
        float_of_int blk.n /. Float.max 1e-9 (blk.stop -. blk.start))
      ids
  in
  let ops_s = Stats.pct (sorted (Array.of_list ops)) (100. -. fast) in
  Report.add r "ops_s" ops_s "1/s";
  List.iter
    (fun cls ->
      let per_block =
        Array.of_list
          (List.filter_map
             (fun b ->
               Option.map Stats.sorted (Hashtbl.find_opt t.samples (cls, b)))
             ids)
      in
      if Array.length per_block > 0 then begin
        let pct p =
          Stats.pct (sorted (Array.map (fun a -> Stats.pct a p) per_block)) fast
        in
        Report.add r (cls ^ "_p50_us") (pct 50.) "us"
          ~note:(if cls = "write" then "info" else "");
        Report.add r (cls ^ "_p90_us") (pct 90.) "us" ~note:"info";
        let all = sorted (Array.concat (Array.to_list per_block)) in
        Report.tail r cls all
      end)
    Gen.latency_classes;
  ops_s
