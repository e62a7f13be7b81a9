type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}
type frame = { f_owner : int; f_page : int }

(* Per-owner events not yet observed by the owning client. The pool holds
   no callbacks into its clients; instead clients {!drain} pending events
   at the start of each of their own operations. *)
type pending = {
  mutable p_drops : int list; (* evicted pages the owner must forget *)
  p_obs : Pc_obs.Obs.source option;
      (* trace source of the owning pager: eviction events are emitted
         here, at decision time, correctly attributed even when the
         evictor is another client sharing the pool *)
  p_name : string;
  (* monotonic per-client counters (never reset by drain) — the cache
     health serve-metrics exports per structure. Atomic: they are read by
     exporters and stress assertions without the pool lock and must never
     tear or decrease. *)
  c_hits : int Atomic.t;
  c_misses : int Atomic.t;
  c_evictions : int Atomic.t;
}

type t = {
  pool_capacity : int;
  policy_state : Replacement.state;
  frames : (int, frame) Hashtbl.t; (* packed key -> frame *)
  owners : (int, pending) Hashtbl.t;
  mutable next_owner : int;
  st : stats;
  lock : Mutex.t option;
      (* [Some _] = domain-safe mode: every operation that reads or
         mutates the frame table, the replacement policy, the owners
         table or the aggregate stats runs under this mutex. [None] —
         the default — is the single-domain fast path: no lock is ever
         taken and behavior (and therefore every deterministic I/O
         count) is byte-identical to the pre-concurrency pool. *)
}

type client = { pool : t; owner : int }

(* Pages are dense non-negative ints per pager; pack (owner, page) into
   one key for the policy structures. 2^31 pages per pager is far beyond
   anything the simulator allocates. *)
let page_bits = 31

let pack ~owner ~page =
  if page < 0 || page lsr page_bits <> 0 then
    invalid_arg "Buffer_pool: page id out of range";
  (owner lsl page_bits) lor page

let mk_stats () = { hits = 0; misses = 0; evictions = 0 }

(* The single-domain fast path is [lock = None]: one match, no mutex.
   [Mutex.protect] releases on exceptions, so a raising policy callback
   cannot wedge the pool. *)
let[@inline] locked t f =
  match t.lock with None -> f () | Some m -> Mutex.protect m f

let create ?(policy = Replacement.Lru) ?(threadsafe = false) ~capacity () =
  if capacity < 0 then invalid_arg "Buffer_pool.create: negative capacity";
  {
    pool_capacity = capacity;
    policy_state = Replacement.make policy ~capacity;
    frames = Hashtbl.create (max 16 capacity);
    owners = Hashtbl.create 8;
    next_owner = 0;
    st = mk_stats ();
    lock = (if threadsafe then Some (Mutex.create ()) else None);
  }

let capacity t = t.pool_capacity
let threadsafe t = t.lock <> None
let occupancy t = locked t (fun () -> Hashtbl.length t.frames)
let policy_name t = Replacement.s_name t.policy_state
let stats t = t.st

let reset_stats t =
  locked t (fun () ->
      t.st.hits <- 0;
      t.st.misses <- 0;
      t.st.evictions <- 0)

let register ?obs ?name t =
  locked t (fun () ->
      let owner = t.next_owner in
      t.next_owner <- owner + 1;
      let p_name =
        match name with Some n -> n | None -> Printf.sprintf "client%d" owner
      in
      Hashtbl.replace t.owners owner
        {
          p_drops = [];
          p_obs = obs;
          p_name;
          c_hits = Atomic.make 0;
          c_misses = Atomic.make 0;
          c_evictions = Atomic.make 0;
        };
      { pool = t; owner })

let obs_emit p kind ~page =
  match p.p_obs with
  | None -> ()
  | Some src -> Pc_obs.Obs.emit src kind ~page

(* Unlocked: callers hold the pool lock (or run on the fast path). *)
let pending_of c = Hashtbl.find c.pool.owners c.owner

let drain c =
  locked c.pool (fun () ->
      let p = pending_of c in
      let drops = List.rev p.p_drops in
      p.p_drops <- [];
      drops)

(* Evict policy-chosen frames until one more fits. The owner learns
   about each eviction at its next drain. Runs under the pool lock in
   domain-safe mode (only [admit] calls it). *)
let rec make_room t =
  if Hashtbl.length t.frames >= t.pool_capacity then
    match Replacement.s_victim t.policy_state with
    | None -> ()
    | Some k ->
        (match Hashtbl.find_opt t.frames k with
        | Some f ->
            let p = Hashtbl.find t.owners f.f_owner in
            let work () =
              Hashtbl.remove t.frames k;
              t.st.evictions <- t.st.evictions + 1;
              Atomic.incr p.c_evictions;
              p.p_drops <- f.f_page :: p.p_drops;
              obs_emit p Pc_obs.Obs.Evict ~page:f.f_page
            in
            (* timed as a pool.evict phase when the victim owner's handle
               carries a clock; otherwise runs untouched *)
            (match p.p_obs with
            | Some src ->
                Pc_obs.Obs.with_phase src ~phase:"pool.evict" ~page:f.f_page
                  work
            | None -> work ())
        | None -> ());
        make_room t

let admit c page =
  let t = c.pool in
  if t.pool_capacity > 0 then
    locked t (fun () ->
        let k = pack ~owner:c.owner ~page in
        if not (Hashtbl.mem t.frames k) then begin
          make_room t;
          Hashtbl.replace t.frames k { f_owner = c.owner; f_page = page };
          Replacement.s_insert t.policy_state k;
          t.st.misses <- t.st.misses + 1;
          let p = Hashtbl.find t.owners c.owner in
          Atomic.incr p.c_misses
        end)

let touch c page =
  let t = c.pool in
  if t.pool_capacity > 0 then
    locked t (fun () ->
        let k = pack ~owner:c.owner ~page in
        if Hashtbl.mem t.frames k then begin
          t.st.hits <- t.st.hits + 1;
          let p = Hashtbl.find t.owners c.owner in
          Atomic.incr p.c_hits;
          Replacement.s_touch t.policy_state k
        end)

let resident c page =
  locked c.pool (fun () ->
      Hashtbl.mem c.pool.frames (pack ~owner:c.owner ~page))

let forget c page =
  let t = c.pool in
  locked t (fun () ->
      let k = pack ~owner:c.owner ~page in
      if Hashtbl.mem t.frames k then begin
        Hashtbl.remove t.frames k;
        Replacement.s_remove t.policy_state k
      end)

let drop_client c =
  let t = c.pool in
  locked t (fun () ->
      let mine =
        Hashtbl.fold
          (fun k f acc -> if f.f_owner = c.owner then k :: acc else acc)
          t.frames []
      in
      List.iter
        (fun k ->
          Hashtbl.remove t.frames k;
          Replacement.s_remove t.policy_state k)
        mine)

let pp_stats ppf s =
  Format.fprintf ppf "{hits=%d; misses=%d; evictions=%d}" s.hits s.misses
    s.evictions

type client_stats = {
  cs_name : string;
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
}

let client_stats t =
  locked t (fun () ->
      Hashtbl.fold (fun owner p acc -> (owner, p) :: acc) t.owners []
      |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
      |> List.map (fun (_, p) ->
             {
               cs_name = p.p_name;
               cs_hits = Atomic.get p.c_hits;
               cs_misses = Atomic.get p.c_misses;
               cs_evictions = Atomic.get p.c_evictions;
             }))

(* ------------------------------------------------------------------ *)
(* Metrics export                                                     *)
(* ------------------------------------------------------------------ *)

let export_metrics t m =
  let labels = [ ("policy", policy_name t) ] in
  let set name help v =
    Pc_obs.Metrics.set (Pc_obs.Metrics.gauge m ~help ~labels name) v
  in
  set "pathcache_pool_capacity_frames" "Frame budget of the pool."
    (capacity t);
  set "pathcache_pool_occupancy_frames" "Currently resident frames."
    (occupancy t);
  let st = stats t in
  set "pathcache_pool_hits" "Accesses absorbed by the pool." st.hits;
  set "pathcache_pool_misses" "Accesses that went to the simulated disk."
    st.misses;
  set "pathcache_pool_evictions" "Frames pushed out of the pool."
    st.evictions;
  (* per-client cache health, labelled by the client's registered name *)
  List.iter
    (fun cs ->
      let labels = [ ("client", cs.cs_name) ] in
      let set name help v =
        Pc_obs.Metrics.set (Pc_obs.Metrics.gauge m ~help ~labels name) v
      in
      set "pathcache_pool_client_hits" "Pool hits, by client." cs.cs_hits;
      set "pathcache_pool_client_misses" "Pool misses, by client."
        cs.cs_misses;
      set "pathcache_pool_client_evictions" "Frames evicted, by owner."
        cs.cs_evictions;
      let refs = cs.cs_hits + cs.cs_misses in
      Pc_obs.Metrics.fset
        (Pc_obs.Metrics.fgauge m
           ~help:"Pool hit ratio (hits / (hits + misses)), by client."
           ~labels "pathcache_cache_hit_ratio")
        (if refs = 0 then 0. else float_of_int cs.cs_hits /. float_of_int refs))
    (client_stats t)
