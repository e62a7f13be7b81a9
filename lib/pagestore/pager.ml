open Pc_bufferpool
module Bdev = Pc_blockdev.Block_device
module Codec = Pc_blockdev.Page_codec

exception Io_fault of { page : int; op : string }
exception Torn_write of { page : int; kept : int; len : int }
exception Corrupt_page of { page : int }
exception Page_overflow of { page : int; len : int; capacity : int }

(* [Damaged] only appears on pagers rebuilt by {!attach_recovered}: a
   page still invalid after journal redo. Reading it is a
   [Corrupt_page] (or a quarantined skip in degraded mode); overwriting
   it heals it. *)
type 'a slot = Live of 'a array | Freed | Damaged

(* Durability state of a pager enrolled in a {!Wal}: its enrollment
   index, the integrity side table (committed content only: a value
   page's fingerprint, or the crc64 in the header of the image a byte
   page last had written), the quarantine set for degraded reads, and
   the open transaction's first-touch undo log. *)
type 'a dur = {
  wal : Wal.t;
  idx : int;
  crcs : (int, int64) Hashtbl.t;
  quarantined : (int, unit) Hashtbl.t;
  undo : (int, 'a slot_opt) Hashtbl.t;
  mutable in_txn : bool;
  mutable undo_next_id : int;
  mutable undo_live : int;
  mutable degraded : bool;
  mutable partial : bool; (* sticky: a quarantined page was skipped *)
}

and 'a slot_opt = 'a slot option

(* A block-device backend: pages round-trip through [codec] to raw
   bytes on [dev]. The slots array stays as an in-memory mirror
   (journal records, rollback and invariants need it), but read misses
   decode off the device — a durable pager's checked once, against the
   crc64 committed for the page — and every charged write lands on it
   encoded, so the sim's I/O counts are untouched while the bytes
   become real. *)
type 'a backend = { dev : Bdev.t; codec : 'a Codec.t }

type 'a t = {
  page_capacity : int;
  mutable slots : 'a slot option array;
  mutable next_id : int;
  mutable live : int;
  frames : (int, 'a array) Hashtbl.t; (* this pager's pool-resident pages *)
  pool : Buffer_pool.t;
  client : Buffer_pool.client;
  stats : Io_stats.t;
  mutable plan : Fault_plan.t option;
  obs : Pc_obs.Obs.t option;
  obs_src : Pc_obs.Obs.source option;
  name : string; (* the [obs_name]; labels this pager's exported metrics *)
  mutable dur : 'a dur option;
  bin : 'a backend option;
  mutable retry : (Retry_policy.t * (int -> unit)) option;
      (* policy + sleep hook for transient *device* errors; [None] keeps
         the legacy semantics (a read error reads as undecodable, a
         write or fsync error propagates) *)
  mutable give_ups : int; (* retried transfers abandoned at the policy *)
  retry_histo : Pc_obs.Histogram.t; (* transient burst lengths absorbed *)
  phase_histos : (string, Pc_obs.Histogram.t) Hashtbl.t;
      (* per-phase wall-clock ns; fills only when the handle's clock is on *)
}

(* The ambient plan: structures create pagers internally (often two per
   structure, and again on every rebuild), so the check harness cannot
   hand a plan to each [create] call. Instead it installs one plan here
   and every pager created while it is set inherits it — all of them
   sharing the plan's single access counter, which is what makes "the
   Nth transfer anywhere in the structure" expressible. *)
let ambient_plan : Fault_plan.t option ref = ref None

let set_ambient_fault_plan p = ambient_plan := Some p
let clear_ambient_fault_plan () = ambient_plan := None

let create_raw ?(cache_capacity = 0) ?pool ?obs ?(obs_name = "pager") ?backend
    ~page_capacity () =
  if page_capacity <= 0 then invalid_arg "Pager.create: page_capacity <= 0";
  let pool =
    match pool with
    | Some p -> p
    | None ->
        (* private per-pager pool: the legacy configuration, byte-identical
           I/O counts to the old built-in LRU *)
        Buffer_pool.create ~policy:Replacement.Lru ~capacity:cache_capacity ()
  in
  let obs_src = Option.map (fun o -> Pc_obs.Obs.register o ~name:obs_name) obs in
  {
    page_capacity;
    slots = Array.make 64 None;
    next_id = 0;
    live = 0;
    frames = Hashtbl.create 64;
    pool;
    client = Buffer_pool.register ?obs:obs_src ~name:obs_name pool;
    stats = Io_stats.create ();
    plan = !ambient_plan;
    obs;
    obs_src;
    name = obs_name;
    dur = None;
    bin = backend;
    retry = None;
    give_ups = 0;
    retry_histo = Pc_obs.Histogram.create ();
    phase_histos = Hashtbl.create 8;
  }

let page_capacity t = t.page_capacity
let device t = Option.map (fun b -> b.dev) t.bin

(* Wall-clock timing of a leaf phase. Gated on the clock, not the sink:
   with a real clock and the null sink the per-pager latency histograms
   still fill (bench --phases) at zero trace cost; with the clock off —
   the default — this is a single option match and [f] runs untouched,
   so control flow and I/O counts never depend on measured time. *)
let phase_histogram t phase =
  match Hashtbl.find_opt t.phase_histos phase with
  | Some h -> h
  | None ->
      let h = Pc_obs.Histogram.create () in
      Hashtbl.add t.phase_histos phase h;
      h

let timed t ~phase ~page f =
  match t.obs with
  | Some o when Pc_obs.Obs.wall_enabled o ->
      let t0 = Pc_obs.Obs.now_ns o in
      let finish () =
        let ns = max 0 (Pc_obs.Obs.now_ns o - t0) in
        Pc_obs.Histogram.add (phase_histogram t phase) ns;
        match t.obs_src with
        | Some src -> Pc_obs.Obs.emit_phase src ~phase ~page ~ns
        | None -> ()
      in
      (match f () with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e)
  | _ -> f ()

(* --- device transfers ------------------------------------------------ *)

(* Trace-event hook at every counter site; a single option match when
   tracing is off, so counts and timing stay on the uninstrumented
   path. *)
let ev t kind ~page =
  match t.obs_src with
  | None -> ()
  | Some src -> Pc_obs.Obs.emit src kind ~page

let fault_ev t ~page = ev t Pc_obs.Obs.Fault ~page

let encode_page b ~page records =
  Codec.encode b.codec ~page_bytes:b.dev.Bdev.page_bytes ~page records

(* A value page's integrity value; a byte page's is its image's crc64. *)
let fingerprint records =
  Checksum.payload (Some (Obj.magic records : Obj.t array))

(* The one retry loop: every device transfer runs through it, and
   [transfer ()] performs the transfer once. A [Transient]/[Stalled]
   device error, whether a real device's or a fault plan's burst, is
   reissued under [policy]: the installed {!Retry_policy} with its sleep
   hook, or a burst's zero-backoff budget. Each failed attempt emits
   [Fault]. Each reissue is charged by [bill]: a retried transfer is
   still a transfer, while an fsync is not a page transfer and charges
   nothing. The reissues count into [Io_stats.retries] and the burst
   histogram whether the transfer finally succeeds (one [Retry] event)
   or the policy gives up ([Give_up], [give_ups], and [Io_fault]). With
   no policy the first error propagates. Any other exception (a
   [Permanent] error, undecodable bytes) leaves the loop uncounted. *)
let retrying t ~page ~op ~bill policy transfer =
  match transfer () with
  | r -> r
  | exception
      (Bdev.Device_error { cls = Bdev.Transient | Bdev.Stalled; _ } as e) -> (
      match policy with
      | None -> raise e
      | Some (rp, sleep) ->
          let absorb n =
            if n > 0 then begin
              t.stats.retries <- t.stats.retries + n;
              Pc_obs.Histogram.add t.retry_histo n
            end
          in
          fault_ev t ~page;
          let rec reissue attempt elapsed_ns =
            match Retry_policy.decide rp ~attempt ~elapsed_ns with
            | Retry_policy.Give_up ->
                absorb (attempt - 1);
                t.give_ups <- t.give_ups + 1;
                ev t Pc_obs.Obs.Give_up ~page;
                raise (Io_fault { page; op })
            | Retry_policy.Retry { sleep_ns } -> (
                sleep sleep_ns;
                (match bill with
                | `Read -> t.stats.reads <- t.stats.reads + 1
                | `Write -> t.stats.writes <- t.stats.writes + 1
                | `Nothing -> ());
                match transfer () with
                | r ->
                    absorb attempt;
                    ev t Pc_obs.Obs.Retry ~page;
                    r
                | exception
                    Bdev.Device_error { cls = Bdev.Transient | Bdev.Stalled; _ }
                  ->
                    fault_ev t ~page;
                    reissue (attempt + 1) (elapsed_ns + sleep_ns))
          in
          reissue 1 0)

(* The charged device write, materialized: encode the page and put it on
   the device. Reissuing the whole page also heals a torn write: the
   tear left half the sectors stale, and the reissue rewrites all of
   them. Returns the crc64 the image carries in its header. *)
let dev_put t b ~page records =
  let bytes =
    timed t ~phase:"codec.encode" ~page (fun () -> encode_page b ~page records)
  in
  retrying t ~page ~op:"write" ~bill:`Write t.retry (fun () ->
      timed t ~phase:"dev.write" ~page (fun () ->
          b.dev.Bdev.write_page page bytes));
  Codec.header_crc bytes

let dev_put_torn t ~page records =
  match t.bin with
  | None -> ()
  | Some b ->
      let nsec = b.dev.Bdev.page_bytes / b.dev.Bdev.sector_bytes in
      let bytes =
        timed t ~phase:"codec.encode" ~page (fun () ->
            encode_page b ~page records)
      in
      timed t ~phase:"dev.write" ~page (fun () ->
          b.dev.Bdev.write_sectors page bytes (nsec / 2))

let dev_trim t ~page =
  match t.bin with
  | None -> ()
  | Some b -> timed t ~phase:"dev.trim" ~page (fun () -> b.dev.Bdev.trim page)

(* The device barrier (fsync). A flush that gives up must escalate:
   pretending the barrier held would break the commit protocol. *)
let dev_flush t =
  match t.bin with
  | None -> ()
  | Some b ->
      retrying t ~page:(-1) ~op:"flush" ~bill:`Nothing t.retry (fun () ->
          timed t ~phase:"dev.fsync" ~page:(-1) (fun () -> b.dev.Bdev.flush ()))

(* A durable pager defers in-place device writes to the commit's apply
   step, so for a page the open transaction has already touched the
   device still holds the pre-transaction image; so does a page whose
   apply tore or was refused, until the journal re-applies it. For such
   a page the slots mirror is the only truth. *)
let in_open_txn d id = d.in_txn && Hashtbl.mem d.undo id

let mirror_only t id =
  match t.dur with
  | Some d -> in_open_txn d id || Wal.unclean d.wal ~idx:d.idx ~page:id
  | None -> false

(* A page's content as the device holds it, [None] if it cannot be
   trusted. Without a backend the mirror IS the storage; a page whose
   device image is stale is served from the mirror too. Otherwise the
   device bytes are read and decoded, unless their header crc64 is not
   the one committed for the page: a lost write, caught by the byte
   page's one integrity check. Bytes that do not decode raise
   [Codec.Corrupt_page]. *)
let stored t id mirror =
  match (mirror, t.bin) with
  | Some _, Some b when not (mirror_only t id) -> (
      let bytes =
        timed t ~phase:"dev.read" ~page:id (fun () -> b.dev.Bdev.read_page id)
      in
      match Option.bind t.dur (fun d -> Hashtbl.find_opt d.crcs id) with
      | Some crc when crc <> Codec.header_crc bytes -> None
      | _ ->
          Some
            (timed t ~phase:"codec.decode" ~page:id (fun () ->
                 Codec.decode b.codec ~page:id bytes)))
  | _ -> mirror

(* One charged device read of page [id]; a plan may deny it before the
   charge. [mirror] is the slot's in-memory records, [None] for a page
   recovery marked damaged. The result is [None] when the page cannot
   be read back intact (a damaged slot, a lost write, undecodable bytes,
   a [Permanent] device error, or any device error with no retry policy
   installed) — never garbage. A plan's transient burst strikes before each attempt,
   with the plan's [retries] as a zero-backoff budget. *)
let fetch t id mirror =
  let decision =
    match t.plan with
    | None -> Fault_plan.Proceed
    | Some p -> Fault_plan.decide p ~write:false
  in
  (match decision with
  | Fault_plan.Deny ->
      fault_ev t ~page:id;
      raise (Io_fault { page = id; op = "read" })
  | _ -> ());
  t.stats.reads <- t.stats.reads + 1;
  ev t Pc_obs.Obs.Read ~page:id;
  match
    match decision with
    | Fault_plan.Transient_burst { retries; strike } ->
        let budget =
          Retry_policy.make ~max_attempts:(retries + 1) ~base_ns:0 ~cap_ns:0
            ~deadline_ns:max_int ()
        in
        retrying t ~page:id ~op:"read" ~bill:`Read
          (Some (budget, ignore))
          (fun () ->
            strike ~page:id;
            stored t id mirror)
    | _ when Option.is_none t.bin -> mirror (* no device, nothing can fail *)
    | _ ->
        retrying t ~page:id ~op:"read" ~bill:`Read t.retry (fun () ->
            stored t id mirror)
  with
  | r -> r
  | exception (Codec.Corrupt_page _ | Bdev.Device_error _) -> None

let cache_capacity t = Buffer_pool.capacity t.pool
let pool t = t.pool
let obs t = t.obs

(* The plan's verdict on one charged device write. A write never
   bursts, so the write sites see only these three outcomes. *)
let plan_write t =
  match t.plan with
  | None -> `Proceed
  | Some p -> (
      match Fault_plan.decide p ~write:true with
      | Fault_plan.Proceed | Fault_plan.Transient_burst _ -> `Proceed
      | Fault_plan.Deny -> `Deny
      | Fault_plan.Tear -> `Tear)

let ensure_capacity t id =
  let len = Array.length t.slots in
  if id >= len then begin
    let slots = Array.make (max (len * 2) (id + 1)) None in
    Array.blit t.slots 0 slots 0 len;
    t.slots <- slots
  end

(* --- durability layer (see wal.ml and DESIGN.md §12) ---------------- *)

(* A device operation past the commit point (an in-place apply, a
   checkpoint's fsync or superblock write): the journal already holds
   the transaction, so a failure is counted — by the retry loop's
   [Fault] events and give-up, or by one [Fault] event if no policy
   handled it — and reported as [false], never raised. *)
let absorbed t ~page f =
  match f () with
  | () -> true
  | exception Io_fault _ -> false
  | exception Bdev.Device_error _ ->
      fault_ev t ~page;
      false

(* One guarded durability write (journal record, in-place apply or
   superblock), charged like any device write but reported as an
   outcome: the [Wal] decides what a tear or denial means at each
   commit phase. A device that refuses the write counts as a denial. *)
let nop () = ()

let dev_write_outcome t ~page ~kind ?(on_ok = nop) ?(on_torn = nop) () =
  let charge () =
    t.stats.writes <- t.stats.writes + 1;
    ev t kind ~page
  in
  match plan_write t with
  | `Proceed ->
      charge ();
      if absorbed t ~page on_ok then Wal.W_ok else Wal.W_deny
  | `Deny ->
      fault_ev t ~page;
      Wal.W_deny
  | `Tear ->
      charge ();
      on_torn ();
      fault_ev t ~page;
      Wal.W_torn

let enroll t wal ~idx ~seed_crcs =
  let d =
    {
      wal;
      idx;
      crcs = seed_crcs;
      quarantined = Hashtbl.create 4;
      undo = Hashtbl.create 16;
      in_txn = false;
      undo_next_id = 0;
      undo_live = 0;
      degraded = false;
      partial = false;
    }
  in
  t.dur <- Some d;
  let slot page =
    if page < 0 || page >= Array.length t.slots then None else t.slots.(page)
  in
  Wal.enroll wal
    {
      pt_idx = idx;
      pt_touched =
        (fun () ->
          if d.in_txn then
            Hashtbl.fold (fun k _ acc -> k :: acc) d.undo []
            |> List.sort compare
          else []);
      pt_snapshot =
        (fun page ->
          match slot page with
          | Some (Live records) ->
              Some (Obj.magic (Array.copy records) : Obj.t array)
          | Some Freed | Some Damaged | None -> None);
      pt_journal_write =
        (* the journal bytes themselves are appended by the Wal's store;
           this is only the charge and the fault decision *)
        (fun page -> dev_write_outcome t ~page ~kind:Pc_obs.Obs.Journal_write ());
      pt_apply_write =
        (fun page ->
          (* the in-place apply is the write that reaches the page's own
             device location: committed content, freed pages trimmed.
             It also records the page's integrity value: a value page's
             fingerprint, or the crc64 of the byte image once that image
             is on the device *)
          Hashtbl.remove d.crcs page;
          let kind = Pc_obs.Obs.Write in
          match (slot page, t.bin) with
          | Some (Live records), None ->
              Hashtbl.replace d.crcs page (fingerprint records);
              dev_write_outcome t ~page ~kind ()
          | Some (Live records), Some b ->
              dev_write_outcome t ~page ~kind
                ~on_ok:(fun () ->
                  Hashtbl.replace d.crcs page (dev_put t b ~page records))
                ~on_torn:(fun () -> dev_put_torn t ~page records)
                ()
          | Some Freed, _ ->
              dev_write_outcome t ~page ~kind
                ~on_ok:(fun () -> dev_trim t ~page)
                ()
          | (Some Damaged | None), _ -> dev_write_outcome t ~page ~kind ());
      pt_super_write =
        (fun () -> dev_write_outcome t ~page:(-1) ~kind:Pc_obs.Obs.Checkpoint ());
      pt_rollback =
        (fun () ->
          if d.in_txn then begin
            Hashtbl.iter
              (fun page pre ->
                if page < Array.length t.slots then t.slots.(page) <- pre;
                Hashtbl.remove t.frames page;
                Buffer_pool.forget t.client page)
              d.undo;
            t.next_id <- d.undo_next_id;
            t.live <- d.undo_live;
            Hashtbl.reset d.undo;
            d.in_txn <- false
          end);
      pt_commit_clear =
        (fun () ->
          Hashtbl.reset d.undo;
          d.in_txn <- false);
      pt_next_id = (fun () -> t.next_id);
      pt_io_fault = (fun ~page ~op -> Io_fault { page; op });
      pt_torn =
        (fun ~page ->
          let len =
            match slot page with Some (Live r) -> Array.length r | _ -> 0
          in
          Torn_write { page; kept = len / 2; len });
      pt_encode =
        Option.map
          (fun b page ->
            match slot page with
            | Some (Live records) -> Some (encode_page b ~page records)
            | Some Freed | Some Damaged | None -> None)
          t.bin;
      pt_sync = (fun () -> dev_flush t);
      pt_absorb = (fun ~page f -> absorbed t ~page f);
    }

(* Every mutation of a durable pager must sit inside a [Wal.with_txn]:
   the device write is deferred to commit, so an unjournaled write can
   never reach the disk. First touch saves the pre-image for rollback;
   rewriting a page also lifts its quarantine (the new content will be
   checksummed at commit). *)
let touch_txn t id =
  match t.dur with
  | None -> ()
  | Some d ->
      if Wal.txn_depth d.wal = 0 then
        invalid_arg
          (Printf.sprintf
             "Pager(%s): durable pager mutated outside Wal.with_txn" t.name);
      if not d.in_txn then begin
        d.in_txn <- true;
        d.undo_next_id <- t.next_id;
        d.undo_live <- t.live
      end;
      if not (Hashtbl.mem d.undo id) then
        Hashtbl.add d.undo id
          (if id < Array.length t.slots then t.slots.(id) else None);
      Hashtbl.remove d.quarantined id

let durable t = t.dur <> None

let check_len t ~page records =
  let len = Array.length records in
  if len > t.page_capacity then
    raise (Page_overflow { page; len; capacity = t.page_capacity })

(* Reconcile pool events since our last operation: drop the frames the
   pool evicted and count the evictions. Runs at the start of every
   operation, so lookups in [t.frames] never see a stale frame. *)
let sync t =
  match Buffer_pool.drain t.client with
  | [] -> ()
  | drops ->
      List.iter (Hashtbl.remove t.frames) drops;
      t.stats.evictions <- t.stats.evictions + List.length drops

(* Make [id] resident (caller guarantees it is not). May evict frames of
   this or any other pager sharing the pool. *)
let cache_insert t id data =
  if Buffer_pool.capacity t.pool > 0 then begin
    Hashtbl.replace t.frames id data;
    Buffer_pool.admit t.client id
  end

(* Charge one write I/O now: the pool is write-through.

   A torn write transfers only the first half of the page: the prefix
   replaces the slot (later reads see the torn page), the stale cached
   frame is dropped, the partial transfer is still charged as one write,
   and the caller gets the typed error. *)
let charge_write t id ~op ~records =
  match plan_write t with
  | `Deny ->
      fault_ev t ~page:id;
      raise (Io_fault { page = id; op })
  | `Tear ->
      let len = Array.length records in
      let kept = len / 2 in
      t.slots.(id) <- Some (Live (Array.sub records 0 kept));
      (* on a device the tear is at sector granularity: half the
         page's sectors transfer, later reads fail the checksum *)
      dev_put_torn t ~page:id records;
      Hashtbl.remove t.frames id;
      Buffer_pool.forget t.client id;
      t.stats.writes <- t.stats.writes + 1;
      ev t Pc_obs.Obs.Write ~page:id;
      fault_ev t ~page:id;
      raise (Torn_write { page = id; kept; len })
  | `Proceed -> (
      t.stats.writes <- t.stats.writes + 1;
      ev t Pc_obs.Obs.Write ~page:id;
      match t.bin with
      | Some b -> ignore (dev_put t b ~page:id records)
      | None -> ())

let alloc t records =
  sync t;
  let id = t.next_id in
  check_len t ~page:id records;
  touch_txn t id;
  ensure_capacity t id;
  t.slots.(id) <- Some (Live records);
  t.next_id <- id + 1;
  t.live <- t.live + 1;
  t.stats.allocs <- t.stats.allocs + 1;
  ev t Pc_obs.Obs.Alloc ~page:id;
  cache_insert t id records;
  if not (durable t) then charge_write t id ~op:"alloc" ~records;
  id

(* Rejects unknown and freed pages but tolerates [Damaged]: overwriting
   (or freeing) a damaged page is how it heals. *)
let check_writable t id op =
  if id < 0 || id >= t.next_id then
    invalid_arg (Printf.sprintf "Pager.%s: unknown page %d" op id);
  match t.slots.(id) with
  | Some (Live _) | Some Damaged -> ()
  | Some Freed -> invalid_arg (Printf.sprintf "Pager.%s: page %d was freed" op id)
  | None -> invalid_arg (Printf.sprintf "Pager.%s: unknown page %d" op id)

(* Fingerprint verdict for a read off a durable value page (byte pages
   are checked in [stored]). Committed content must match the side
   table; pages touched by the open transaction are exempt (their
   fingerprint is taken when the commit applies them). *)
let read_verdict t id records =
  match t.dur with
  | Some d when Option.is_none t.bin && not (in_open_txn d id) -> (
      match Hashtbl.find_opt d.crcs id with
      | Some crc ->
          let actual =
            timed t ~phase:"checksum.verify" ~page:id (fun () ->
                fingerprint records)
          in
          if actual <> crc then `Corrupt else `Ok
      | None -> `Ok)
  | _ -> `Ok

(* A read that fails its integrity check (or hits a [Damaged] slot)
   never returns garbage: it raises [Corrupt_page], or — in degraded
   mode — the page is quarantined, the result is marked partial, and
   the caller gets an empty page to skip. *)
let corrupt_read t id =
  match t.dur with
  | Some d when d.degraded ->
      Hashtbl.replace d.quarantined id ();
      d.partial <- true;
      ev t Pc_obs.Obs.Corrupt ~page:id;
      [||]
  | _ -> raise (Corrupt_page { page = id })

let read t id =
  sync t;
  match Hashtbl.find_opt t.frames id with
  | Some data ->
      t.stats.cache_hits <- t.stats.cache_hits + 1;
      ev t Pc_obs.Obs.Cache_hit ~page:id;
      Buffer_pool.touch t.client id;
      data
  | None -> (
      match t.dur with
      | Some d when Hashtbl.mem d.quarantined id ->
          (* known bad: skipped without another device transfer *)
          d.partial <- true;
          [||]
      | _ -> (
          if id < 0 || id >= t.next_id then
            invalid_arg (Printf.sprintf "Pager.read: unknown page %d" id);
          match t.slots.(id) with
          | Some Freed ->
              invalid_arg (Printf.sprintf "Pager.read: page %d was freed" id)
          | None -> invalid_arg (Printf.sprintf "Pager.read: unknown page %d" id)
          | Some Damaged ->
              ignore (fetch t id None);
              corrupt_read t id
          | Some (Live records) -> (
              match fetch t id (Some records) with
              | None -> corrupt_read t id
              | Some records -> (
                  match read_verdict t id records with
                  | `Corrupt -> corrupt_read t id
                  | `Ok ->
                      cache_insert t id records;
                      records))))

let write t id records =
  sync t;
  check_len t ~page:id records;
  check_writable t id "write";
  touch_txn t id;
  t.slots.(id) <- Some (Live records);
  if Hashtbl.mem t.frames id then begin
    Hashtbl.replace t.frames id records;
    Buffer_pool.touch t.client id
  end
  else cache_insert t id records;
  if not (durable t) then charge_write t id ~op:"write" ~records

let free t id =
  sync t;
  check_writable t id "free";
  touch_txn t id;
  t.slots.(id) <- Some Freed;
  t.live <- t.live - 1;
  t.stats.frees <- t.stats.frees + 1;
  ev t Pc_obs.Obs.Free ~page:id;
  Hashtbl.remove t.frames id;
  Buffer_pool.forget t.client id;
  (* durable pagers defer the trim to the commit's in-place apply *)
  if not (durable t) then dev_trim t ~page:id

let pages_in_use t = t.live

let stats t =
  sync t;
  t.stats

let reset_stats t =
  sync t;
  Io_stats.reset t.stats

let with_counted t f =
  let before = Io_stats.snapshot (stats t) in
  let result = f () in
  let after = Io_stats.snapshot (stats t) in
  (result, Io_stats.diff ~after ~before)

let set_fault_plan t p = t.plan <- Some p
let clear_fault_plan t = t.plan <- None

let drop_cache t =
  sync t;
  Hashtbl.reset t.frames;
  Buffer_pool.drop_client t.client

(* ------------------------------------------------------------------ *)
(* Durability: creation, recovery, degraded reads                     *)
(* ------------------------------------------------------------------ *)

let create ?cache_capacity ?pool ?obs ?obs_name ?wal ?backend ~page_capacity ()
    =
  let t =
    create_raw ?cache_capacity ?pool ?obs ?obs_name ?backend ~page_capacity ()
  in
  (match wal with
  | None -> ()
  | Some w ->
      enroll t w ~idx:(Wal.next_part_idx w) ~seed_crcs:(Hashtbl.create 64));
  t

let wal t = Option.map (fun d -> d.wal) t.dur

(* The read path mutates nothing structural exactly when: the pool never
   caches (capacity 0 makes admit/touch no-ops and [cache_insert] is
   gated on a positive capacity), tracing and timing are off (no sink
   appends, no phase-histogram fills), and there is no journal, binary
   device, or fault plan on the path. What remains are Io_stats int
   increments — racy-benign word stores under the OCaml 5 model. *)
let snapshot_readable t =
  Buffer_pool.capacity t.pool = 0
  && (match t.obs with
     | None -> true
     | Some o -> not (Pc_obs.Obs.enabled o) && not (Pc_obs.Obs.wall_enabled o))
  && Option.is_none t.dur && Option.is_none t.bin && Option.is_none t.plan

let attach_recovered (r : Wal.recovered) ~idx ?cache_capacity ?pool ?obs
    ?obs_name ?fixup ?backend ~page_capacity () =
  let t =
    create_raw ?cache_capacity ?pool ?obs ?obs_name ?backend ~page_capacity ()
  in
  let crcs = Hashtbl.create 64 in
  let rehydrate arr =
    match fixup with None -> arr | Some f -> f arr
  in
  List.iter
    (fun (page, payload, ok) ->
      ensure_capacity t page;
      t.next_id <- max t.next_id (page + 1);
      match payload with
      | Some arr when ok ->
          let arr = rehydrate (Obj.magic (Array.copy arr) : 'a array) in
          t.slots.(page) <- Some (Live arr);
          t.live <- t.live + 1;
          (* a byte page materializes the journal redo on the device —
             recovery's answer must be readable from the bytes alone
             next time — and is checked against the image it wrote *)
          Hashtbl.replace crcs page
            (match t.bin with
            | Some b -> dev_put t b ~page arr
            | None -> fingerprint arr)
      | Some _ ->
          (* invalid even after redo: quarantinable, never silently
             readable (the device keeps the corrupt bytes) *)
          t.slots.(page) <- Some Damaged;
          t.live <- t.live + 1
      | None ->
          t.slots.(page) <- Some Freed;
          dev_trim t ~page)
    (Wal.recovered_slots r ~idx);
  t.next_id <- max t.next_id (Wal.recovered_next_id r ~idx);
  enroll t r.Wal.r_wal ~idx ~seed_crcs:crcs;
  t

let set_degraded t on =
  match t.dur with
  | None -> invalid_arg "Pager.set_degraded: pager has no durability layer"
  | Some d -> d.degraded <- on

let degraded t = match t.dur with Some d -> d.degraded | None -> false

let consume_partial t =
  match t.dur with
  | Some d ->
      let p = d.partial in
      d.partial <- false;
      p
  | None -> false

let quarantined_pages t =
  match t.dur with
  | Some d ->
      Hashtbl.fold (fun k () acc -> k :: acc) d.quarantined []
      |> List.sort compare
  | None -> []

(* Test hook: rot the stored integrity value so the next uncached read
   of [page] detects corruption. *)
let corrupt_page t page =
  match t.dur with
  | None -> invalid_arg "Pager.corrupt_page: pager has no durability layer"
  | Some d ->
      check_writable t page "corrupt_page";
      let old = Option.value (Hashtbl.find_opt d.crcs page) ~default:0L in
      Hashtbl.replace d.crcs page (Checksum.spoil old);
      Hashtbl.remove t.frames page;
      Buffer_pool.forget t.client page

let retry_histogram t = t.retry_histo

(* --- device-error retry policy ------------------------------------ *)

let set_retry_policy t ?(sleep = fun (_ : int) -> ()) policy =
  t.retry <- Some (policy, sleep)

let give_ups t = t.give_ups

(* Per-phase latency histograms, sorted by phase label. Empty unless a
   wall clock was installed on the handle. *)
let phase_histograms t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.phase_histos []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fsync_stats t =
  match Hashtbl.find_opt t.phase_histos "dev.fsync" with
  | None -> (0, 0)
  | Some h -> (Pc_obs.Histogram.count h, Pc_obs.Histogram.total h)

(* ------------------------------------------------------------------ *)
(* Metrics export                                                     *)
(* ------------------------------------------------------------------ *)

let export_metrics t m =
  let labels = [ ("pager", t.name) ] in
  let set name help v =
    Pc_obs.Metrics.set (Pc_obs.Metrics.gauge m ~help ~labels name) v
  in
  set "pathcache_pager_pages_in_use" "Live pages on the simulated disk."
    t.live;
  set "pathcache_pager_page_capacity" "Records per page (the model's B)."
    t.page_capacity;
  set "pathcache_pager_cache_frames" "Frame budget of the backing pool."
    (Buffer_pool.capacity t.pool);
  List.iter
    (fun (k, v) ->
      set
        ("pathcache_pager_io_" ^ k)
        "Cumulative I/O counter snapshot (see Io_stats)." v)
    (Io_stats.to_args t.stats);
  set "pathcache_io_retries_total"
    "Transient transfer failures absorbed by retrying (sim bursts and \
     device-error reissues)."
    t.stats.retries;
  set "pathcache_io_gave_up_total"
    "Retried transfers abandoned at the retry policy's attempt or \
     deadline budget."
    t.give_ups;
  if Pc_obs.Histogram.count t.retry_histo > 0 then
    List.iter
      (fun (k, v) ->
        set
          ("pathcache_pager_retry_burst_" ^ k)
          "Transient bursts absorbed in-pager (reissues per burst)." v)
      [
        ("count", Pc_obs.Histogram.count t.retry_histo);
        ("p50", Pc_obs.Histogram.p50 t.retry_histo);
        ("p99", Pc_obs.Histogram.p99 t.retry_histo);
        ("max", Pc_obs.Histogram.max_value t.retry_histo);
      ];
  List.iter
    (fun (phase, h) ->
      if Pc_obs.Histogram.count h > 0 then
        let prefix =
          "pathcache_pager_phase_"
          ^ String.map (fun c -> if c = '.' then '_' else c) phase
          ^ "_ns_"
        in
        List.iter
          (fun (k, v) ->
            set (prefix ^ k) "Wall-clock phase latency snapshot (ns)." v)
          [
            ("count", Pc_obs.Histogram.count h);
            ("total", Pc_obs.Histogram.total h);
            ("p99", Pc_obs.Histogram.p99 h);
            ("max", Pc_obs.Histogram.max_value h);
          ])
    (phase_histograms t)
