(* Per-structure access profiles + the frame-budget advisor. See the
   mli for the model; the code below is bookkeeping around Reuse_dist.

   Levels: a global touch ordinal, reset at every Span_begin, indexes
   the per-source (hits, misses) tables. Spans carry src = -1, so the
   ordinal is per-handle, not per-source — correct for the common case
   of one structure querying at a time, and documented as approximate
   elsewhere. Depths are clamped into the last bucket beyond max_depth
   so a scan inside a span cannot grow the table without bound. *)

let max_depth = 32

type src_state = {
  mutable ap_reads : int;
  mutable ap_hits : int;
  d_hits : int array; (* per-depth Cache_hit touches *)
  d_misses : int array; (* per-depth Read touches *)
  touches : (int, int) Hashtbl.t; (* page -> touch count *)
  (* sliding-window working set: ring of the last [window] pages with a
     multiset of their counts; ws = cardinality of the multiset *)
  ring : int array;
  mutable ring_len : int; (* filled slots, < window until warm *)
  mutable ring_pos : int;
  in_window : (int, int) Hashtbl.t;
  mutable ws_peak : int;
}

type t = {
  rd : Reuse_dist.t;
  window : int;
  top_k : int;
  srcs : (int, src_state) Hashtbl.t;
  mutable depth : int; (* touch ordinal within the innermost open span *)
  mutable resolve : int -> string option;
}

let create ?(window = 256) ?(top_k = 8) () =
  if window <= 0 then invalid_arg "Access_profile.create: window <= 0";
  {
    rd = Reuse_dist.create ();
    window;
    top_k;
    srcs = Hashtbl.create 8;
    depth = 0;
    resolve = (fun _ -> None);
  }

let reuse t = t.rd

let state t src =
  match Hashtbl.find_opt t.srcs src with
  | Some s -> s
  | None ->
      let s =
        {
          ap_reads = 0;
          ap_hits = 0;
          d_hits = Array.make max_depth 0;
          d_misses = Array.make max_depth 0;
          touches = Hashtbl.create 64;
          ring = Array.make t.window 0;
          ring_len = 0;
          ring_pos = 0;
          in_window = Hashtbl.create 64;
          ws_peak = 0;
        }
      in
      Hashtbl.replace t.srcs src s;
      s

let bump tbl page delta =
  let cur = Option.value ~default:0 (Hashtbl.find_opt tbl page) in
  let next = cur + delta in
  if next <= 0 then Hashtbl.remove tbl page else Hashtbl.replace tbl page next

let slide s page =
  if s.ring_len = Array.length s.ring then
    bump s.in_window s.ring.(s.ring_pos) (-1)
  else s.ring_len <- s.ring_len + 1;
  s.ring.(s.ring_pos) <- page;
  s.ring_pos <- (s.ring_pos + 1) mod Array.length s.ring;
  bump s.in_window page 1;
  let ws = Hashtbl.length s.in_window in
  if ws > s.ws_peak then s.ws_peak <- ws

let touch t s page ~hit =
  s.ap_reads <- s.ap_reads + 1;
  if hit then s.ap_hits <- s.ap_hits + 1;
  let d = min t.depth (max_depth - 1) in
  let arr = if hit then s.d_hits else s.d_misses in
  arr.(d) <- arr.(d) + 1;
  t.depth <- t.depth + 1;
  bump s.touches page 1;
  slide s page

(* The table half of the fold — Reuse_dist keeps its own stack state. *)
let profile_observe t (e : Obs.event) =
  match e.Obs.kind with
  | Obs.Span_begin -> t.depth <- 0
  | Obs.Cache_hit -> touch t (state t e.Obs.src) e.Obs.page ~hit:true
  | Obs.Read -> touch t (state t e.Obs.src) e.Obs.page ~hit:false
  | _ -> ()

let observe t (e : Obs.event) =
  Reuse_dist.observe t.rd e;
  profile_observe t e

let sink t = Obs.custom (observe t)

let attach t obs =
  t.resolve <- Obs.source_name obs;
  (* Reuse_dist.attach tees its own listener (and takes the handle's
     name resolver); we tee only the table half beside it. *)
  Reuse_dist.attach t.rd obs;
  Obs.set_sink obs
    (Obs.tee (Obs.current_sink obs) (Obs.custom (profile_observe t)))

let reset t =
  Reuse_dist.reset t.rd;
  Hashtbl.reset t.srcs;
  t.depth <- 0

(* ------------------------------------------------------------------ *)
(* Profiles                                                           *)
(* ------------------------------------------------------------------ *)

type level = { lv_depth : int; lv_hits : int; lv_misses : int }

type profile = {
  p_source : string;
  p_reads : int;
  p_hits : int;
  p_distinct : int;
  p_levels : level list;
  p_hot : (int * int) list;
  p_ws_current : int;
  p_ws_peak : int;
}

let source_label t i =
  match t.resolve i with Some n -> n | None -> Printf.sprintf "src%d" i

let hot_pages t s =
  Hashtbl.fold (fun page n acc -> (page, n) :: acc) s.touches []
  |> List.sort (fun (p1, n1) (p2, n2) ->
         match compare n2 n1 with 0 -> compare p1 p2 | c -> c)
  |> List.filteri (fun i _ -> i < t.top_k)

let profile_of t i s =
  let levels = ref [] in
  for d = max_depth - 1 downto 0 do
    if s.d_hits.(d) > 0 || s.d_misses.(d) > 0 then
      levels :=
        { lv_depth = d; lv_hits = s.d_hits.(d); lv_misses = s.d_misses.(d) }
        :: !levels
  done;
  {
    p_source = source_label t i;
    p_reads = s.ap_reads;
    p_hits = s.ap_hits;
    p_distinct =
      (match Reuse_dist.mrc t.rd i with
      | Some m -> Reuse_dist.distinct m
      | None -> Hashtbl.length s.touches);
    p_levels = !levels;
    p_hot = hot_pages t s;
    p_ws_current = Hashtbl.length s.in_window;
    p_ws_peak = s.ws_peak;
  }

let profiles t =
  Hashtbl.fold (fun i s acc -> (i, s) :: acc) t.srcs []
  |> List.sort compare
  |> List.map (fun (i, s) -> profile_of t i s)

let working_set t src =
  match Hashtbl.find_opt t.srcs src with
  | Some s -> Hashtbl.length s.in_window
  | None -> 0

let pp_profiles ppf ps =
  List.iter
    (fun p ->
      Format.fprintf ppf "%s: reads=%d hits=%d distinct=%d ws=%d peak-ws=%d@\n"
        p.p_source p.p_reads p.p_hits p.p_distinct p.p_ws_current p.p_ws_peak;
      if p.p_levels <> [] then begin
        Format.fprintf ppf "  %-6s %10s %10s %6s@\n" "level" "hits" "misses"
          "hit%";
        List.iter
          (fun lv ->
            let tot = lv.lv_hits + lv.lv_misses in
            Format.fprintf ppf "  %-6d %10d %10d %6.1f@\n" lv.lv_depth
              lv.lv_hits lv.lv_misses
              (if tot = 0 then 0. else 100. *. float lv.lv_hits /. float tot))
          p.p_levels
      end;
      if p.p_hot <> [] then begin
        Format.fprintf ppf "  hot:";
        List.iter
          (fun (page, n) -> Format.fprintf ppf " %d(%d)" page n)
          p.p_hot;
        Format.fprintf ppf "@\n"
      end)
    ps

(* ------------------------------------------------------------------ *)
(* The advisor                                                        *)
(* ------------------------------------------------------------------ *)

type alloc = {
  a_source : string;
  a_frames : int;
  a_accesses : int;
  a_pred_hits : int;
}

let alloc_hit_ratio a =
  if a.a_accesses = 0 then 0.
  else float a.a_pred_hits /. float a.a_accesses

type advice = { budget : int; allocs : alloc list; even : alloc list }

let predicted_misses allocs =
  List.fold_left (fun acc a -> acc + a.a_accesses - a.a_pred_hits) 0 allocs

let mk_allocs curves frames =
  List.map2
    (fun (name, m) f ->
      {
        a_source = name;
        a_frames = f;
        a_accesses = Reuse_dist.accesses m;
        a_pred_hits = Reuse_dist.hits_at m f;
      })
    curves frames

(* Even split with the remainder handed out left to right. *)
let even_frames n budget =
  List.init n (fun i -> (budget / n) + if i < budget mod n then 1 else 0)

let advise curves ~budget =
  if budget < 0 then invalid_arg "Access_profile.advise: negative budget";
  let n = List.length curves in
  if n = 0 then invalid_arg "Access_profile.advise: no curves";
  let arr = Array.of_list curves in
  let frames = Array.make n 0 in
  (* Greedy marginal-miss-rate descent: each frame goes to the curve
     with the largest hit gain from its next frame. Ties break to the
     curve with fewer frames so equal curves split evenly, then to
     source order for determinism. Frames beyond every curve's flat
     point gain nothing; they are spread round-robin so the split still
     sums to the budget. *)
  let gain i =
    let _, m = arr.(i) in
    Reuse_dist.hits_at m (frames.(i) + 1) - Reuse_dist.hits_at m frames.(i)
  in
  for _ = 1 to budget do
    let best = ref 0 in
    for i = 1 to n - 1 do
      let g = gain i and gb = gain !best in
      if g > gb || (g = gb && frames.(i) < frames.(!best)) then best := i
    done;
    frames.(!best) <- frames.(!best) + 1
  done;
  let greedy = mk_allocs curves (Array.to_list frames) in
  let even = mk_allocs curves (even_frames n budget) in
  (* Greedy is optimal when the curves are concave; on a non-concave
     curve it can lose to even, in which case recommend even. *)
  let allocs =
    if predicted_misses greedy <= predicted_misses even then greedy else even
  in
  { budget; allocs; even }

let pp_advice ppf a =
  let w =
    List.fold_left
      (fun acc al -> max acc (String.length al.a_source))
      8 a.allocs
  in
  Format.fprintf ppf "budget: %d frames@\n" a.budget;
  Format.fprintf ppf "%-*s %8s %10s %10s %6s@\n" w "source" "frames"
    "accesses" "pred-miss" "hit%";
  List.iter
    (fun al ->
      Format.fprintf ppf "%-*s %8d %10d %10d %6.1f@\n" w al.a_source
        al.a_frames al.a_accesses
        (al.a_accesses - al.a_pred_hits)
        (100. *. alloc_hit_ratio al))
    a.allocs;
  let rec_m = predicted_misses a.allocs
  and even_m = predicted_misses a.even in
  Format.fprintf ppf
    "predicted misses: recommended=%d even-split=%d (delta %+d)@\n" rec_m
    even_m (rec_m - even_m)

let advice_json a =
  let buf = Buffer.create 512 in
  let allocs_json allocs =
    String.concat ","
      (List.map
         (fun al ->
           Printf.sprintf
             "\n    {\"source\": %S, \"frames\": %d, \"accesses\": %d, \
              \"predicted_hits\": %d, \"predicted_hit_ratio\": %.6f}"
             al.a_source al.a_frames al.a_accesses al.a_pred_hits
             (alloc_hit_ratio al))
         allocs)
  in
  Buffer.add_string buf (Printf.sprintf "{\n  \"budget\": %d," a.budget);
  Buffer.add_string buf
    (Printf.sprintf "\n  \"recommended\": [%s],"  (allocs_json a.allocs));
  Buffer.add_string buf
    (Printf.sprintf "\n  \"even_split\": [%s]," (allocs_json a.even));
  Buffer.add_string buf
    (Printf.sprintf
       "\n  \"predicted_misses\": {\"recommended\": %d, \"even\": %d}\n}\n"
       (predicted_misses a.allocs)
       (predicted_misses a.even));
  Buffer.contents buf
