(* Observability: a typed trace of I/O events with pluggable sinks.

   Design constraints (DESIGN.md §7):
   - zero dependencies — stdlib only, so every library can link it;
   - zero overhead when disabled — a pager whose [obs] is [None] or
     whose sink is the null sink must produce byte-identical I/O counts
     and indistinguishable wall-clock time;
   - deterministic — events are stamped with a logical tick; the wall
     clock is opt-in ([Clock], off by default) and never feeds back
     into control flow, so a fixed seed yields a fixed trace. *)

(* ------------------------------------------------------------------ *)
(* Clocks                                                             *)
(* ------------------------------------------------------------------ *)

module Clock = struct
  (* The real clock is injected as a function so this library stays
     stdlib-only (no Unix): callers pass e.g.
     [fun () -> int_of_float (Unix.gettimeofday () *. 1e9)]. The mock
     clock advances by a fixed step on every read, which makes every
     wall_ns in a trace a deterministic function of the event order. *)
  type t =
    | Off
    | Fn of (unit -> int)
    | Mock of { mutable now : int; step : int }

  let off = Off
  let of_fn f = Fn f

  let mock ?(start = 0) ?(step = 1000) () =
    if step <= 0 then invalid_arg "Obs.Clock.mock: step <= 0";
    Mock { now = start; step }

  let enabled = function Off -> false | Fn _ | Mock _ -> true

  let now = function
    | Off -> 0
    | Fn f -> f ()
    | Mock m ->
        let v = m.now in
        m.now <- v + m.step;
        v
end

type kind =
  | Read
  | Write
  | Alloc
  | Free
  | Cache_hit
  | Evict
  | Write_back
  | Pin
  | Fault
  | Retry
  | Give_up
  | Journal_write
  | Checkpoint
  | Corrupt
  | Phase
  | Span_begin
  | Span_end

type event = {
  tick : int;
  kind : kind;
  src : int;
  page : int;
  label : string;
  args : (string * int) list;
  wall_ns : int option;
}

let kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Alloc -> "alloc"
  | Free -> "free"
  | Cache_hit -> "cache_hit"
  | Evict -> "evict"
  | Write_back -> "write_back"
  | Pin -> "pin"
  | Fault -> "fault"
  | Retry -> "retry"
  | Give_up -> "give_up"
  | Journal_write -> "journal_write"
  | Checkpoint -> "checkpoint"
  | Corrupt -> "corrupt"
  | Phase -> "phase"
  | Span_begin -> "span_begin"
  | Span_end -> "span_end"

let kind_of_name = function
  | "read" -> Some Read
  | "write" -> Some Write
  | "alloc" -> Some Alloc
  | "free" -> Some Free
  | "cache_hit" -> Some Cache_hit
  | "evict" -> Some Evict
  | "write_back" -> Some Write_back
  | "pin" -> Some Pin
  | "fault" -> Some Fault
  | "retry" -> Some Retry
  | "give_up" -> Some Give_up
  | "journal_write" -> Some Journal_write
  | "checkpoint" -> Some Checkpoint
  | "corrupt" -> Some Corrupt
  | "phase" -> Some Phase
  | "span_begin" -> Some Span_begin
  | "span_end" -> Some Span_end
  | _ -> None

(* Phase labels are ["layer.op"]; the layer prefix names the attribution
   category so a span's wall time decomposes into
   device/codec/wal/checksum/pool/other. *)
let phase_category label =
  match String.index_opt label '.' with
  | None -> "other"
  | Some i -> (
      match String.sub label 0 i with
      | "dev" -> "device"
      | "codec" -> "codec"
      | "wal" -> "wal"
      | "checksum" -> "checksum"
      | "pool" -> "pool"
      | _ -> "other")

let phase_categories = [ "device"; "codec"; "wal"; "checksum"; "pool"; "other" ]

(* ------------------------------------------------------------------ *)
(* JSON emission (hand-rolled: the formats are fixed and flat)        *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let args_json args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" (escape k) v) args)
  ^ "}"

let jsonl_line e =
  let base =
    Printf.sprintf "{\"tick\":%d,\"kind\":\"%s\",\"src\":%d,\"page\":%d" e.tick
      (kind_name e.kind) e.src e.page
  in
  (* appended only when present, so clock-off traces are byte-identical
     to those of earlier versions *)
  let wall =
    match e.wall_ns with
    | None -> ""
    | Some w -> Printf.sprintf ",\"wall_ns\":%d" w
  in
  let label =
    if e.label = "" then "" else Printf.sprintf ",\"label\":\"%s\"" (escape e.label)
  in
  let args = if e.args = [] then "" else ",\"args\":" ^ args_json e.args in
  base ^ wall ^ label ^ args ^ "}"

(* A [Phase] event's measured duration. *)
let phase_ns e = Option.value ~default:0 (List.assoc_opt "ns" e.args)

(* Chrome trace_event format (the JSON-array flavour): spans become
   duration events (ph B/E) on tid 0, I/O events become instants on a
   tid per source, so Perfetto renders one lane per pager. With a clock
   installed, ts is wall microseconds; otherwise the logical tick. *)
let chrome_line e =
  let ts = match e.wall_ns with Some w -> w / 1000 | None -> e.tick in
  match e.kind with
  | Span_begin ->
      Printf.sprintf
        "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":%d,\"pid\":0,\"tid\":0}"
        (escape e.label) ts
  | Span_end ->
      Printf.sprintf
        "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":%d,\"pid\":0,\"tid\":0,\"args\":%s}"
        (escape e.label) ts (args_json e.args)
  | Phase ->
      let ns = phase_ns e in
      let dur = ns / 1000 in
      Printf.sprintf
        "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":0,\"tid\":%d,\"args\":{\"page\":%d,\"ns\":%d}}"
        (escape e.label)
        (max 0 (ts - dur))
        dur (e.src + 1) e.page ns
  | k ->
      Printf.sprintf
        "{\"name\":\"%s\",\"cat\":\"io\",\"ph\":\"i\",\"ts\":%d,\"pid\":0,\"tid\":%d,\"s\":\"t\",\"args\":{\"page\":%d}}"
        (kind_name k) ts (e.src + 1) e.page

(* ------------------------------------------------------------------ *)
(* Sinks                                                              *)
(* ------------------------------------------------------------------ *)

type sink_ops = {
  s_emit : event -> unit;
  s_flush : unit -> unit;
  s_close : unit -> unit;
  s_events : unit -> event list;
}

type sink = Null | Active of sink_ops

let null = Null

let no_events () = []

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Obs.ring: capacity <= 0";
  let buf = Array.make capacity None in
  let next = ref 0 in
  let emit e =
    buf.(!next mod capacity) <- Some e;
    incr next
  in
  let events () =
    let n = !next in
    let first = max 0 (n - capacity) in
    List.filter_map
      (fun i -> buf.(i mod capacity))
      (List.init (n - first) (fun k -> first + k))
  in
  Active { s_emit = emit; s_flush = ignore; s_close = ignore; s_events = events }

(* File sinks flush every [flush_every] events in addition to on
   flush/close, so a killed process loses at most a bounded tail of the
   trace rather than the whole stdlib channel buffer. *)
let jsonl ?(flush_every = 256) oc =
  if flush_every <= 0 then invalid_arg "Obs.jsonl: flush_every <= 0";
  let pending = ref 0 in
  Active
    {
      s_emit =
        (fun e ->
          output_string oc (jsonl_line e ^ "\n");
          incr pending;
          if !pending >= flush_every then (
            pending := 0;
            flush oc));
      s_flush = (fun () -> flush oc);
      s_close = (fun () -> flush oc);
      s_events = no_events;
    }

let chrome ?(flush_every = 256) oc =
  if flush_every <= 0 then invalid_arg "Obs.chrome: flush_every <= 0";
  let first = ref true in
  let pending = ref 0 in
  output_string oc "[";
  Active
    {
      s_emit =
        (fun e ->
          if !first then first := false else output_string oc ",\n";
          output_string oc (chrome_line e);
          incr pending;
          if !pending >= flush_every then (
            pending := 0;
            flush oc));
      s_flush = (fun () -> flush oc);
      s_close =
        (fun () ->
          output_string oc "]\n";
          flush oc);
      s_events = no_events;
    }

let custom f =
  Active { s_emit = f; s_flush = ignore; s_close = ignore; s_events = no_events }

let tee a b =
  match (a, b) with
  | Null, s | s, Null -> s
  | Active x, Active y ->
      Active
        {
          s_emit =
            (fun e ->
              x.s_emit e;
              y.s_emit e);
          s_flush =
            (fun () ->
              x.s_flush ();
              y.s_flush ());
          s_close =
            (fun () ->
              x.s_close ();
              y.s_close ());
          s_events = x.s_events;
        }

(* ------------------------------------------------------------------ *)
(* The handle                                                         *)
(* ------------------------------------------------------------------ *)

type t = {
  mutable tick : int;
  mutable sink : sink;
  mutable clock : Clock.t;
  mutable next_src : int;
  mutable sources : (int * string) list; (* src id -> name, newest first *)
  mutable next_span : int;
  mutable depth : int;
  mutable on_close : unit -> unit;
  owner_domain : int;
      (* The handle is single-writer: ring/JSONL/Chrome sinks append to
         unsynchronized buffers and channels, and [tick] itself is a
         mutable sequence. Rather than pay for a lock on every traced
         event, the handle records its creating domain and emission
         asserts it when the sink is enabled. Null-sink handles are
         freely shareable (every emit is a no-op). *)
}

type source = { o : t; sid : int }

exception Cross_domain_emit of { owner : int; caller : int }

let () =
  Printexc.register_printer (function
    | Cross_domain_emit { owner; caller } ->
        Some
          (Printf.sprintf
             "Pc_obs.Obs.Cross_domain_emit: trace handle owned by domain %d \
              used from domain %d (Obs handles are single-writer; give each \
              domain its own handle or keep the sink null)"
             owner caller)
    | _ -> None)

let create ?(sink = Null) ?(clock = Clock.Off) () =
  {
    tick = 0;
    sink;
    clock;
    next_src = 0;
    sources = [];
    next_span = 0;
    depth = 0;
    on_close = ignore;
    owner_domain = (Domain.self () :> int);
  }

let owner_domain t = t.owner_domain

(* Only emissions that would actually mutate the sink are checked, so
   null-sink handles stay shareable and the default traced-off path is
   untouched. *)
let[@inline] check_owner t =
  let caller = (Domain.self () :> int) in
  if caller <> t.owner_domain then
    raise (Cross_domain_emit { owner = t.owner_domain; caller })

let set_sink t sink = t.sink <- sink
let current_sink t = t.sink
let enabled t = t.sink <> Null
let tick t = t.tick
let set_clock t clock = t.clock <- clock
let clock t = t.clock
let wall_enabled t = Clock.enabled t.clock
let now_ns t = Clock.now t.clock

(* [None] when the clock is off, so serialized events are byte-identical
   to those of clock-unaware versions. *)
let stamp t =
  match t.clock with Clock.Off -> None | c -> Some (Clock.now c)

let register t ~name =
  let sid = t.next_src in
  t.next_src <- sid + 1;
  t.sources <- (sid, name) :: t.sources;
  { o = t; sid }

let source_id s = s.sid
let source_name t sid = List.assoc_opt sid t.sources

let push t e =
  match t.sink with
  | Null -> ()
  | Active ops ->
      ops.s_emit e

let emit s kind ~page =
  let t = s.o in
  match t.sink with
  | Null -> ()
  | Active ops ->
      check_owner t;
      let tick = t.tick in
      t.tick <- tick + 1;
      ops.s_emit
        { tick; kind; src = s.sid; page; label = ""; args = [];
          wall_ns = stamp t }

(* [emit_phase] records a completed timed section: [ns] is the measured
   duration, [wall_ns] the stamp at emission. Phases never nest inside
   each other (they wrap leaf operations), so summing them under a span
   never double-counts. *)
let emit_phase s ~phase ~page ~ns =
  let t = s.o in
  match t.sink with
  | Null -> ()
  | Active ops ->
      check_owner t;
      let tick = t.tick in
      t.tick <- tick + 1;
      ops.s_emit
        { tick; kind = Phase; src = s.sid; page; label = phase;
          args = [ ("ns", ns) ]; wall_ns = stamp t }

let with_phase s ~phase ~page f =
  let t = s.o in
  match t.clock with
  | Clock.Off -> f ()
  | c ->
      let t0 = Clock.now c in
      let finish () =
        let ns = max 0 (Clock.now c - t0) in
        emit_phase s ~phase ~page ~ns
      in
      (match f () with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e)

let span_depth t = t.depth

let with_span obs ~kind ?result_args f =
  match obs with
  | None -> f ()
  | Some t -> (
      match t.sink with
      | Null -> f ()
      | Active _ ->
          check_owner t;
          let id = t.next_span in
          t.next_span <- id + 1;
          let tk = t.tick in
          t.tick <- tk + 1;
          t.depth <- t.depth + 1;
          push t
            { tick = tk; kind = Span_begin; src = -1; page = id; label = kind;
              args = []; wall_ns = stamp t };
          let finish args =
            t.depth <- t.depth - 1;
            let tk = t.tick in
            t.tick <- tk + 1;
            push t
              { tick = tk; kind = Span_end; src = -1; page = id; label = kind;
                args; wall_ns = stamp t }
          in
          (match f () with
          | r ->
              finish (match result_args with Some g -> g r | None -> []);
              r
          | exception e ->
              finish [ ("error", 1) ];
              raise e))

let events t =
  match t.sink with Null -> [] | Active ops -> ops.s_events ()

let flush t = match t.sink with Null -> () | Active ops -> ops.s_flush ()

let close t =
  (match t.sink with Null -> () | Active ops -> ops.s_close ());
  let f = t.on_close in
  t.on_close <- ignore;
  f ();
  t.sink <- Null

(* [to_file path] picks the format by extension: [.json] gets the Chrome
   trace_event array (load in chrome://tracing or ui.perfetto.dev),
   anything else newline-delimited JSON objects. *)
let to_file ?flush_every path =
  let oc = open_out path in
  let sink =
    if Filename.check_suffix path ".json" then chrome ?flush_every oc
    else jsonl ?flush_every oc
  in
  let t = create ~sink () in
  t.on_close <- (fun () -> close_out oc);
  t

(* ------------------------------------------------------------------ *)
(* Reading a JSONL trace                                              *)
(* ------------------------------------------------------------------ *)

let tbl_add tbl key v =
  let cur = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (cur + v)

(* Decode one line written by {!jsonl_line} in a single left-to-right
   pass over its field order: tick, kind, src, page, then the optional
   wall_ns, label and args. Not a general JSON parser: strings (the kind,
   the label, args keys) run to the next quote, unescaped, and any other
   shape raises [Failure]. *)
let decode line =
  let n = String.length line in
  let pos = ref 0 in
  let fail what =
    failwith (Printf.sprintf "expected %s at column %d" what (!pos + 1))
  in
  let looking_at lit =
    let l = String.length lit in
    let rec same i = i = l || (line.[!pos + i] = lit.[i] && same (i + 1)) in
    if !pos + l <= n && same 0 then (
      pos := !pos + l;
      true)
    else false
  in
  let expect lit = if not (looking_at lit) then fail lit in
  let int () =
    let neg = looking_at "-" in
    let start = !pos and v = ref 0 in
    while !pos < n && line.[!pos] >= '0' && line.[!pos] <= '9' do
      let d = Char.code line.[!pos] - Char.code '0' in
      if !v > (max_int - d) / 10 then fail "an integer in range";
      v := (!v * 10) + d;
      incr pos
    done;
    if !pos = start then fail "an integer";
    if neg then - !v else !v
  in
  let str () =
    match String.index_from_opt line !pos '"' with
    | None -> fail "a closing quote"
    | Some stop ->
        let s = String.sub line !pos (stop - !pos) in
        pos := stop + 1;
        s
  in
  expect {|{"tick":|};
  let tick = int () in
  expect {|,"kind":"|};
  let kind =
    let k = str () in
    match kind_of_name k with
    | Some kind -> kind
    | None -> failwith (Printf.sprintf "unknown kind %S" k)
  in
  expect {|,"src":|};
  let src = int () in
  expect {|,"page":|};
  let page = int () in
  let wall_ns = if looking_at {|,"wall_ns":|} then Some (int ()) else None in
  let label = if looking_at {|,"label":"|} then str () else "" in
  let rec args acc =
    if looking_at "}" then List.rev acc
    else begin
      if acc <> [] then expect ",";
      expect {|"|};
      let k = str () in
      expect ":";
      let v = int () in
      args ((k, v) :: acc)
    end
  in
  let args = if looking_at {|,"args":{|} then args [] else [] in
  expect "}";
  if !pos < n then fail "end of line";
  { tick; kind; src; page; label; args; wall_ns }

(* The one JSONL reader: every offline consumer of a trace is a fold fed
   from here, exactly as it is fed live through {!custom}. *)
let iter_file path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go lineno =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        let line = String.trim line in
        (if line <> "" then
           try f (decode line)
           with Failure msg ->
             failwith (Printf.sprintf "%s: line %d: %s" path lineno msg));
        go (lineno + 1)
  in
  go 1

type totals = {
  t_reads : int;
  t_writes : int;
  t_cache_hits : int;
  t_allocs : int;
  t_frees : int;
  t_evictions : int;
  t_write_backs : int;
  t_spans : int;
  t_events : int;
  t_wall_ns : int;
  t_phase_ns : (string * int) list;
}

(* Replay a JSONL trace back into I/O totals. A [Write_back] is a
   deferred write being charged, so it counts into [t_writes] too —
   mirroring how {!Pc_pagestore.Io_stats} accounts write-backs. Events
   carrying [wall_ns] (v2 traces) additionally contribute a wall-clock
   extent and per-category phase sums; v1 tick-only traces yield zeros. *)
let replay_file path =
  let acc =
    ref
      {
        t_reads = 0;
        t_writes = 0;
        t_cache_hits = 0;
        t_allocs = 0;
        t_frees = 0;
        t_evictions = 0;
        t_write_backs = 0;
        t_spans = 0;
        t_events = 0;
        t_wall_ns = 0;
        t_phase_ns = [];
      }
  in
  let wall_min = ref max_int and wall_max = ref min_int in
  let phases : (string, int) Hashtbl.t = Hashtbl.create 8 in
  iter_file path (fun e ->
      (match e.wall_ns with
      | None -> ()
      | Some w ->
          if w < !wall_min then wall_min := w;
          if w > !wall_max then wall_max := w);
      let a = { !acc with t_events = !acc.t_events + 1 } in
      acc :=
        match e.kind with
        | Read -> { a with t_reads = a.t_reads + 1 }
        | Write | Journal_write | Checkpoint ->
            (* durability writes are device writes, mirroring Io_stats *)
            { a with t_writes = a.t_writes + 1 }
        | Write_back ->
            {
              a with
              t_write_backs = a.t_write_backs + 1;
              t_writes = a.t_writes + 1;
            }
        | Cache_hit -> { a with t_cache_hits = a.t_cache_hits + 1 }
        | Alloc -> { a with t_allocs = a.t_allocs + 1 }
        | Free -> { a with t_frees = a.t_frees + 1 }
        | Evict -> { a with t_evictions = a.t_evictions + 1 }
        | Span_begin -> { a with t_spans = a.t_spans + 1 }
        | Phase ->
            tbl_add phases (phase_category e.label) (phase_ns e);
            a
        | Pin | Fault | Retry | Give_up | Corrupt | Span_end -> a);
  let t_wall_ns = if !wall_max >= !wall_min then !wall_max - !wall_min else 0 in
  let t_phase_ns =
    List.filter_map
      (fun cat ->
        match Hashtbl.find_opt phases cat with
        | Some ns when ns > 0 -> Some (cat, ns)
        | _ -> None)
      phase_categories
  in
  { !acc with t_wall_ns; t_phase_ns }

let pp_ns ppf ns =
  if ns >= 1_000_000_000 then Format.fprintf ppf "%.3fs" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then
    Format.fprintf ppf "%.2fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Format.fprintf ppf "%.1fus" (float_of_int ns /. 1e3)
  else Format.fprintf ppf "%dns" ns

let ns_string ns = Format.asprintf "%a" pp_ns ns

let pp_totals ppf t =
  Format.fprintf ppf
    "{events=%d; reads=%d; writes=%d; hits=%d; allocs=%d; frees=%d; \
     evictions=%d; write_backs=%d; spans=%d}"
    t.t_events t.t_reads t.t_writes t.t_cache_hits t.t_allocs t.t_frees
    t.t_evictions t.t_write_backs t.t_spans;
  (* wall-clock lines only when the trace carries wall_ns stamps, so v1
     tick-only traces print exactly as before *)
  if t.t_wall_ns > 0 || t.t_phase_ns <> [] then begin
    Format.fprintf ppf "@\nwall: %a" pp_ns t.t_wall_ns;
    if t.t_phase_ns <> [] then
      Format.fprintf ppf "@\nphases: %s"
        (String.concat "; "
           (List.map
              (fun (cat, ns) -> Printf.sprintf "%s=%s" cat (ns_string ns))
              t.t_phase_ns))
  end

(* ------------------------------------------------------------------ *)
(* Per-span-label profile of a trace                                  *)
(* ------------------------------------------------------------------ *)

module Profile = struct
  type row = {
    label : string;
    count : int;
    total_ios : int;
    mean : float;
    p99 : int;
    max : int;
    wall_ns : int;
    phases : (string * int) list;
  }

  type stack = {
    stack_path : string list;
    stack_value : int;
    stack_ios : int;
    stack_count : int;
  }

  type analysis = { rows : row list; stacks : stack list; has_wall : bool }

  type agg = {
    mutable a_count : int;
    mutable a_total : int;
    mutable a_wall : int;
    a_phases : (string, int) Hashtbl.t;
    a_histo : Histogram.t;
  }

  (* One open span: its id, label, and the I/Os seen since it opened.
     Attribution is inclusive (an event counts toward every open span),
     mirroring the documented [with_counted] nesting contract. Phase
     durations are likewise inclusive for the per-label rows; for the
     folded stacks a phase attaches once, as a leaf frame under the
     innermost open span, and each span's own folded value is its
     exclusive ("self") time — wall minus child spans minus phases. *)
  type open_span = {
    os_id : int;
    os_label : string;
    os_key : string; (* root-first frame path, ";"-joined *)
    os_wall0 : int option;
    mutable os_ios : int;
    mutable os_child_ios : int;
    mutable os_child_wall : int;
    mutable os_self_phase : int;
    os_phases : (string, int) Hashtbl.t;
  }

  type snode = {
    mutable sn_value : int;
    mutable sn_ios : int;
    mutable sn_count : int;
  }

  type t = {
    aggs : (string, agg) Hashtbl.t;
    snodes : (string, snode) Hashtbl.t; (* folded stacks by os_key *)
    mutable open_spans : open_span list; (* innermost first *)
    mutable saw_wall : bool;
  }

  let create () =
    {
      aggs = Hashtbl.create 16;
      snodes = Hashtbl.create 16;
      open_spans = [];
      saw_wall = false;
    }

  let agg_of t label =
    match Hashtbl.find_opt t.aggs label with
    | Some a -> a
    | None ->
        let a =
          {
            a_count = 0;
            a_total = 0;
            a_wall = 0;
            a_phases = Hashtbl.create 8;
            a_histo = Histogram.create ();
          }
        in
        Hashtbl.add t.aggs label a;
        a

  let snode_of t key =
    match Hashtbl.find_opt t.snodes key with
    | Some n -> n
    | None ->
        let n = { sn_value = 0; sn_ios = 0; sn_count = 0 } in
        Hashtbl.add t.snodes key n;
        n

  let child_key t label =
    match t.open_spans with [] -> label | top :: _ -> top.os_key ^ ";" ^ label

  (* [fold ~on_close t e] folds one event; [on_close span wall_ns] runs
     after [span] closes, with the closing event's stamp. *)
  let fold ~on_close t e =
    match e.kind with
    | Span_begin ->
        t.open_spans <-
          {
            os_id = e.page;
            os_label = e.label;
            os_key = child_key t e.label;
            os_wall0 = e.wall_ns;
            os_ios = 0;
            os_child_ios = 0;
            os_child_wall = 0;
            os_self_phase = 0;
            os_phases = Hashtbl.create 8;
          }
          :: t.open_spans
    | Span_end -> (
        match t.open_spans with
        | [] -> failwith "Obs.Profile: span_end with no open span"
        | top :: _ when top.os_id <> e.page ->
            failwith
              (Printf.sprintf
                 "Obs.Profile: span nesting mismatch: open %d, end %d" top.os_id
                 e.page)
        | top :: rest ->
            t.open_spans <- rest;
            let wall =
              match (top.os_wall0, e.wall_ns) with
              | Some w0, Some w1 ->
                  t.saw_wall <- true;
                  max 0 (w1 - w0)
              | _ -> 0
            in
            let a = agg_of t top.os_label in
            a.a_count <- a.a_count + 1;
            a.a_total <- a.a_total + top.os_ios;
            a.a_wall <- a.a_wall + wall;
            Hashtbl.iter (fun c ns -> tbl_add a.a_phases c ns) top.os_phases;
            Histogram.add a.a_histo top.os_ios;
            let n = snode_of t top.os_key in
            n.sn_value <-
              n.sn_value + max 0 (wall - top.os_child_wall - top.os_self_phase);
            n.sn_ios <- n.sn_ios + (top.os_ios - top.os_child_ios);
            n.sn_count <- n.sn_count + 1;
            (match rest with
            | [] -> ()
            | parent :: _ ->
                parent.os_child_wall <- parent.os_child_wall + wall;
                (* inclusive counting means the child's I/Os are already
                   in the parent's os_ios *)
                parent.os_child_ios <- parent.os_child_ios + top.os_ios);
            on_close top e.wall_ns)
    | Phase ->
        let ns = phase_ns e in
        let cat = phase_category e.label in
        List.iter (fun os -> tbl_add os.os_phases cat ns) t.open_spans;
        (match t.open_spans with
        | [] -> ()
        | top :: _ -> top.os_self_phase <- top.os_self_phase + ns);
        let n = snode_of t (child_key t e.label) in
        n.sn_value <- n.sn_value + ns;
        n.sn_count <- n.sn_count + 1
    | Read | Write | Write_back | Journal_write | Checkpoint ->
        List.iter (fun os -> os.os_ios <- os.os_ios + 1) t.open_spans
    | Alloc | Free | Cache_hit | Evict | Pin | Fault | Retry | Give_up | Corrupt
      ->
        ()

  let observe t e = fold ~on_close:(fun _ _ -> ()) t e

  let analysis t =
    let rows =
      Hashtbl.fold
        (fun label a acc ->
          let cat_sum = Hashtbl.fold (fun _ ns s -> s + ns) a.a_phases 0 in
          let phases =
            if (not t.saw_wall) && cat_sum = 0 then []
            else
              List.map
                (fun cat ->
                  if cat = "other" then
                    (cat, max 0 (a.a_wall - cat_sum))
                  else
                    (cat, Option.value ~default:0 (Hashtbl.find_opt a.a_phases cat)))
                phase_categories
          in
          {
            label;
            count = a.a_count;
            total_ios = a.a_total;
            mean =
              (if a.a_count = 0 then 0.
               else float_of_int a.a_total /. float_of_int a.a_count);
            p99 = Histogram.p99 a.a_histo;
            max = Histogram.max_value a.a_histo;
            wall_ns = a.a_wall;
            phases;
          }
          :: acc)
        t.aggs []
      |> List.sort (fun a b ->
             match compare b.total_ios a.total_ios with
             | 0 -> compare a.label b.label
             | c -> c)
    in
    let stacks =
      Hashtbl.fold
        (fun key n acc ->
          {
            stack_path = String.split_on_char ';' key;
            stack_value = n.sn_value;
            stack_ios = n.sn_ios;
            stack_count = n.sn_count;
          }
          :: acc)
        t.snodes []
      |> List.sort (fun a b -> compare a.stack_path b.stack_path)
    in
    { rows; stacks; has_wall = t.saw_wall }

  let analyze_file path =
    let t = create () in
    iter_file path (observe t);
    analysis t

  let of_file path = (analyze_file path).rows

  (* Label column width: at least the historical 18 (keeps old goldens
     byte-identical) and wide enough for the longest label so long span
     names (e.g. ext_pst3.query_3sided) no longer misalign columns. *)
  let label_width rows =
    List.fold_left (fun acc r -> max acc (String.length r.label)) 18 rows

  let pp ppf rows =
    let w = label_width rows in
    Format.fprintf ppf "%-*s %8s %10s %8s %6s %6s@\n" w "span" "count"
      "total-io" "mean" "p99" "max";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-*s %8d %10d %8.1f %6d %6d@\n" w r.label r.count
          r.total_ios r.mean r.p99 r.max)
      rows

  (* The wall-clock attribution table: one row per span label, the span's
     total wall time decomposed into the phase categories. The column
     sums equal [wall] by construction ("other" is the remainder). *)
  let pp_phases ppf rows =
    let w = label_width rows in
    Format.fprintf ppf "%-*s %8s %10s" w "span" "count" "wall";
    List.iter (fun cat -> Format.fprintf ppf " %10s" cat) phase_categories;
    Format.fprintf ppf "@\n";
    List.iter
      (fun r ->
        if r.phases <> [] then begin
          Format.fprintf ppf "%-*s %8d %10s" w r.label r.count
            (ns_string r.wall_ns);
          List.iter
            (fun cat ->
              let ns = Option.value ~default:0 (List.assoc_opt cat r.phases) in
              Format.fprintf ppf " %10s" (ns_string ns))
            phase_categories;
          Format.fprintf ppf "@\n"
        end)
      rows

  (* Inclusive total of a folded node: its own self value plus every
     deeper frame's. Traces are small; the quadratic scan is fine. *)
  let rec is_prefix p q =
    match (p, q) with
    | [], _ -> true
    | x :: p', y :: q' -> x = y && is_prefix p' q'
    | _ :: _, [] -> false

  let inclusive stacks path =
    List.fold_left
      (fun (v, ios) s ->
        if is_prefix path s.stack_path then
          (v + s.stack_value, ios + s.stack_ios)
        else (v, ios))
      (0, 0) stacks

  (* Heaviest-child chain from each root span label, by wall time when
     available, by I/O count otherwise. *)
  let critical_paths { stacks; has_wall; _ } =
    let value (v, ios) = if has_wall then v else ios in
    let roots =
      List.sort_uniq compare
        (List.filter_map
           (fun s -> match s.stack_path with r :: _ -> Some r | [] -> None)
           stacks)
    in
    let children path =
      List.sort_uniq compare
        (List.filter_map
           (fun s ->
             let rec strip p q =
               match (p, q) with
               | [], y :: _ -> Some y
               | x :: p', y :: q' when x = y -> strip p' q'
               | _ -> None
             in
             strip path s.stack_path)
           stacks)
    in
    let rec chain path acc =
      let kids = children path in
      match
        List.sort
          (fun a b ->
            compare
              (value (inclusive stacks (path @ [ b ])))
              (value (inclusive stacks (path @ [ a ]))))
          kids
      with
      | [] -> List.rev acc
      | best :: _ ->
          let p = path @ [ best ] in
          chain p ((best, value (inclusive stacks p)) :: acc)
    in
    List.map
      (fun r ->
        let total = value (inclusive stacks [ r ]) in
        (r, total, chain [ r ] []))
      roots
    |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)

  let pp_critical ppf analysis =
    let unit v = if analysis.has_wall then ns_string v else string_of_int v in
    List.iter
      (fun (root, total, chain) ->
        Format.fprintf ppf "critical path: %s (%s)" root (unit total);
        List.iter
          (fun (frame, v) ->
            let pct =
              if total > 0 then 100. *. float_of_int v /. float_of_int total
              else 0.
            in
            Format.fprintf ppf " -> %s (%s, %.0f%%)" frame (unit v) pct)
          chain;
        Format.fprintf ppf "@\n")
      (critical_paths analysis)

  (* Collapsed-stack ("folded") export for flamegraph tooling: one line
     per unique frame path, value = self wall-ns (self I/O count for
     tick-only traces). *)
  let write_folded oc { stacks; has_wall; _ } =
    List.iter
      (fun s ->
        let v = if has_wall then s.stack_value else s.stack_ios in
        if v > 0 then
          Printf.fprintf oc "%s %d\n" (String.concat ";" s.stack_path) v)
      stacks
end

(* ------------------------------------------------------------------ *)
(* Slow-operation log                                                 *)
(* ------------------------------------------------------------------ *)

(* A sink-side watcher: tee {!Slow_log.sink} beside the trace sink and
   every span whose wall time meets the threshold is dumped as one JSON
   line with its inclusive I/O count and phase breakdown. It is the
   {!Profile} fold with a close hook, so it must be installed before the
   first span opens. Purely an observer — it never affects control flow
   or the trace itself. *)
module Slow_log = struct
  type t = {
    oc : out_channel;
    threshold_ns : int;
    spans : Profile.t;
    mutable logged : int;
  }

  let create oc ~threshold_ns =
    { oc; threshold_ns; spans = Profile.create (); logged = 0 }

  let logged t = t.logged

  let phases_json tbl =
    let fields =
      List.filter_map
        (fun cat ->
          match Hashtbl.find_opt tbl cat with
          | Some ns when ns > 0 -> Some (Printf.sprintf "\"%s\":%d" cat ns)
          | _ -> None)
        phase_categories
    in
    "{" ^ String.concat "," fields ^ "}"

  let write_line t line =
    output_string t.oc (line ^ "\n");
    Stdlib.flush t.oc;
    t.logged <- t.logged + 1

  let on_close t (span : Profile.open_span) wall_ns =
    match (span.os_wall0, wall_ns) with
    | Some w0, Some w1 when w1 - w0 >= t.threshold_ns ->
        write_line t
          (Printf.sprintf
             "{\"label\":\"%s\",\"wall_ns\":%d,\"ios\":%d,\"phases\":%s}"
             (escape span.os_label) (w1 - w0) span.os_ios
             (phases_json span.os_phases))
    | _ -> ()

  let sink t = custom (Profile.fold ~on_close:(on_close t) t.spans)

  (* A span that stayed under the wall threshold can still violate its
     analytical bound; the CLI reports those here too. *)
  let note_violation t ~label ~measured ~predicted =
    write_line t
      (Printf.sprintf
         "{\"label\":\"%s\",\"violation\":\"cost_model\",\"measured\":%d,\"predicted\":%g}"
         (escape label) measured predicted)

  let close t = Stdlib.flush t.oc
end
