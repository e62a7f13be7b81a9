(* Exact reuse-distance profiling over the Obs event stream.

   The shadow stack is the textbook Mattson structure made O(log n): we
   never materialize the LRU list. Each page carries the timestamp of
   its most recent reference, and a Fenwick (binary-indexed) tree over
   timestamp slots holds a 1 for every slot that is some page's current
   timestamp. The reuse distance of a reference to [p] is then the
   number of set slots above [p]'s old timestamp — pages referenced
   since [p] last was — which is two prefix sums. Timestamps grow with
   the trace, so when the slot array fills and most slots are stale
   (dead 0s left behind by re-references) we renumber the live pages in
   timestamp order and rebuild; the rebuild is O(live log live) and
   happens at most every O(live) references, keeping the amortized cost
   logarithmic and the memory proportional to live pages, not trace
   length — a profiler left attached to a long-lived server stays
   bounded. *)

module Stack = struct
  type t = {
    mutable bit : int array; (* 1-based Fenwick over timestamp slots *)
    mutable cap : int; (* slots available *)
    mutable time : int; (* next timestamp (slots used so far) *)
    last : (int, int) Hashtbl.t; (* page -> current timestamp *)
  }

  let initial_cap = 64

  let create () =
    {
      bit = Array.make (initial_cap + 1) 0;
      cap = initial_cap;
      time = 0;
      last = Hashtbl.create 64;
    }

  let size t = Hashtbl.length t.last

  (* Fenwick primitives: slot for timestamp [ts] is [ts + 1]. *)
  let bit_add t i delta =
    let i = ref (i + 1) in
    while !i <= t.cap do
      t.bit.(!i) <- t.bit.(!i) + delta;
      i := !i + (!i land - !i)
    done

  (* set slots with timestamp <= ts *)
  let bit_prefix t ts =
    let i = ref (ts + 1) and s = ref 0 in
    while !i > 0 do
      s := !s + t.bit.(!i);
      i := !i - (!i land - !i)
    done;
    !s

  (* Renumber live pages 0..live-1 in timestamp order and rebuild the
     tree over a capacity that leaves headroom, or grow when the slots
     are mostly live. *)
  let compact t =
    let live = size t in
    let pages =
      Hashtbl.fold (fun page ts acc -> (ts, page) :: acc) t.last []
      |> List.sort compare
    in
    let cap = max initial_cap (4 * max 1 live) in
    t.cap <- cap;
    t.bit <- Array.make (cap + 1) 0;
    t.time <- 0;
    List.iter
      (fun (_, page) ->
        Hashtbl.replace t.last page t.time;
        bit_add t t.time 1;
        t.time <- t.time + 1)
      pages

  let access t page =
    if t.time >= t.cap then compact t;
    let dist =
      match Hashtbl.find_opt t.last page with
      | None -> None
      | Some old ->
          (* distinct pages referenced since [page]'s last reference =
             set slots strictly above its old timestamp *)
          let above = bit_prefix t (t.time - 1) - bit_prefix t old in
          bit_add t old (-1);
          Some above
    in
    Hashtbl.replace t.last page t.time;
    bit_add t t.time 1;
    t.time <- t.time + 1;
    dist

  let forget t page =
    match Hashtbl.find_opt t.last page with
    | None -> ()
    | Some ts ->
        bit_add t ts (-1);
        Hashtbl.remove t.last page
end

(* ------------------------------------------------------------------ *)
(* Miss-ratio curves                                                  *)
(* ------------------------------------------------------------------ *)

type mrc = {
  m_accesses : int;
  m_cold : int;
  m_distinct : int;
  m_hits : int array;
      (* m_hits.(c) = read references with distance < c, i.e. exact LRU
         hits at capacity c; length flat_at + 1, m_hits.(0) = 0 *)
}

let accesses m = m.m_accesses
let cold m = m.m_cold
let distinct m = m.m_distinct
let flat_at m = Array.length m.m_hits - 1

let hits_at m c =
  if c <= 0 then 0
  else m.m_hits.(min c (Array.length m.m_hits - 1))

let hit_ratio m c =
  if m.m_accesses = 0 then 0.
  else float_of_int (hits_at m c) /. float_of_int m.m_accesses

let miss_ratio m c = 1. -. hit_ratio m c

(* ------------------------------------------------------------------ *)
(* The profiler                                                       *)
(* ------------------------------------------------------------------ *)

type src_state = {
  stack : Stack.t;
  mutable hist : int array; (* hist.(d) = read references at distance d *)
  mutable max_d : int; (* largest finite distance seen, -1 if none *)
  mutable s_cold : int;
  mutable s_reads : int;
  mutable s_writes : int;
}

type t = {
  srcs : (int, src_state) Hashtbl.t;
  mutable resolve : int -> string option;
}

let create () = { srcs = Hashtbl.create 8; resolve = (fun _ -> None) }

let state t src =
  match Hashtbl.find_opt t.srcs src with
  | Some s -> s
  | None ->
      let s =
        {
          stack = Stack.create ();
          hist = Array.make 64 0;
          max_d = -1;
          s_cold = 0;
          s_reads = 0;
          s_writes = 0;
        }
      in
      Hashtbl.replace t.srcs src s;
      s

let record_read s page =
  s.s_reads <- s.s_reads + 1;
  match Stack.access s.stack page with
  | None -> s.s_cold <- s.s_cold + 1
  | Some d ->
      if d >= Array.length s.hist then begin
        let bigger = Array.make (max (d + 1) (2 * Array.length s.hist)) 0 in
        Array.blit s.hist 0 bigger 0 (Array.length s.hist);
        s.hist <- bigger
      end;
      s.hist.(d) <- s.hist.(d) + 1;
      if d > s.max_d then s.max_d <- d

let record_write s page =
  s.s_writes <- s.s_writes + 1;
  ignore (Stack.access s.stack page)

let observe t (e : Obs.event) =
  match e.Obs.kind with
  | Obs.Read | Obs.Cache_hit -> record_read (state t e.Obs.src) e.Obs.page
  | Obs.Write | Obs.Alloc -> record_write (state t e.Obs.src) e.Obs.page
  | Obs.Free -> Stack.forget (state t e.Obs.src).stack e.Obs.page
  | Obs.Evict | Obs.Write_back | Obs.Pin | Obs.Fault | Obs.Retry | Obs.Give_up
  | Obs.Journal_write | Obs.Checkpoint | Obs.Corrupt | Obs.Phase
  | Obs.Span_begin | Obs.Span_end ->
      ()

let sink t = Obs.custom (observe t)

let attach t obs =
  t.resolve <- Obs.source_name obs;
  Obs.set_sink obs (Obs.tee (Obs.current_sink obs) (sink t))

let source_label t i =
  match t.resolve i with Some n -> n | None -> Printf.sprintf "src%d" i

let sources t =
  Hashtbl.fold (fun i _ acc -> i :: acc) t.srcs []
  |> List.sort compare
  |> List.map (fun i -> (i, source_label t i))

let mrc t src =
  match Hashtbl.find_opt t.srcs src with
  | None -> None
  | Some s when s.s_reads = 0 -> None
  | Some s ->
      let flat = s.max_d + 1 in
      let hits = Array.make (flat + 1) 0 in
      for c = 1 to flat do
        hits.(c) <- hits.(c - 1) + s.hist.(c - 1)
      done;
      Some
        {
          m_accesses = s.s_reads;
          m_cold = s.s_cold;
          m_distinct = Stack.size s.stack;
          m_hits = hits;
        }

let mrcs t =
  List.filter_map (fun (i, name) ->
      Option.map (fun m -> (name, m)) (mrc t i))
    (sources t)

let write_refs t src =
  match Hashtbl.find_opt t.srcs src with Some s -> s.s_writes | None -> 0

let reset t = Hashtbl.reset t.srcs

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let default_sizes curves =
  let flat =
    List.fold_left (fun acc (_, m) -> max acc (flat_at m)) 1 curves
  in
  let rec up acc c = if c / 2 >= flat then List.rev acc else up (c * 2 :: acc) (c * 2) in
  up [ 1 ] 1

let pp_table ?sizes ppf curves =
  let sizes = match sizes with Some s -> s | None -> default_sizes curves in
  let w =
    List.fold_left (fun acc (name, _) -> max acc (String.length name)) 8 curves
  in
  Format.fprintf ppf "%-10s" "";
  List.iter (fun (name, _) -> Format.fprintf ppf " %*s" w name) curves;
  Format.fprintf ppf "@\n%-10s" "accesses";
  List.iter (fun (_, m) -> Format.fprintf ppf " %*d" w (accesses m)) curves;
  Format.fprintf ppf "@\n%-10s" "cold";
  List.iter (fun (_, m) -> Format.fprintf ppf " %*d" w (cold m)) curves;
  Format.fprintf ppf "@\n%-10s" "flat-at";
  List.iter (fun (_, m) -> Format.fprintf ppf " %*d" w (flat_at m)) curves;
  Format.fprintf ppf "@\n%-10s" "cache";
  List.iter (fun _ -> Format.fprintf ppf " %*s" w "hit%") curves;
  Format.fprintf ppf "@\n";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-10d" c;
      List.iter
        (fun (_, m) ->
          Format.fprintf ppf " %*.1f" w (100. *. hit_ratio m c))
        curves;
      Format.fprintf ppf "@\n")
    sizes

let to_json ?sizes curves =
  let sizes = match sizes with Some s -> s | None -> default_sizes curves in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"curves\": [";
  List.iteri
    (fun i (name, m) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"source\": %S, \"accesses\": %d, \"cold\": %d, \
            \"distinct\": %d, \"flat_at\": %d, \"points\": ["
           name (accesses m) (cold m) (distinct m) (flat_at m));
      List.iteri
        (fun j c ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf "{\"size\": %d, \"hit_ratio\": %.6f}" c
               (hit_ratio m c)))
        sizes;
      Buffer.add_string buf "]}")
    curves;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
