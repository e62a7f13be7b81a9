(** I/O tracing: typed events, pluggable sinks, operation spans.

    The paper's guarantees are worst-case {e per-query} I/O bounds, but
    aggregate counters ({!Pc_pagestore.Io_stats}) only expose means. This
    module records the full event sequence — which pages an operation
    touched, in what order, attributed to the span (query, insert, build)
    that caused them — so distributions and worst cases become observable
    (see DESIGN.md §9).

    Events are stamped with a {e logical tick}, a monotonically increasing
    counter. A wall clock is strictly opt-in ({!Clock}, off by default):
    when installed it adds an optional [wall_ns] stamp beside the tick so
    latency can be attributed, but it never feeds back into control flow —
    traces of a fixed seed are deterministic and (with the clock off or
    the mock clock installed) can be compared byte-for-byte in tests.

    The overhead contract: with no handle ([?obs] absent) or with the
    {!null} sink installed, instrumented code paths reduce to a single
    match on an option/variant — I/O counts are byte-identical and timing
    is unchanged. Tracing is strictly opt-in. *)

(** {1 Clocks} *)

module Clock : sig
  type t

  (** [off] — the default — stamps nothing: events carry no [wall_ns]
      and serialized traces are byte-identical to clock-unaware ones. *)
  val off : t

  (** [of_fn f] reads monotonic nanoseconds from [f]. The real clock is
      injected as a function so this library stays stdlib-only; callers
      pass e.g. [fun () -> int_of_float (Unix.gettimeofday () *. 1e9)]. *)
  val of_fn : (unit -> int) -> t

  (** [mock ()] is a deterministic clock: starts at [start] (default 0)
      and advances by [step] nanoseconds (default 1000) on every read —
      golden-trace tests get fixed [wall_ns] values. *)
  val mock : ?start:int -> ?step:int -> unit -> t

  val enabled : t -> bool

  (** [now c] reads the clock (0 when off). Reading a mock clock
      advances it. *)
  val now : t -> int
end

(** Event taxonomy. [Read]..[Pin] fire at the {!Pc_pagestore.Pager} and
    {!Pc_bufferpool.Buffer_pool} counter sites; [Span_begin]/[Span_end]
    bracket structure entry points. *)
type kind =
  | Read  (** page miss serviced by the simulated disk *)
  | Write  (** page write charged immediately (write-through) *)
  | Alloc  (** fresh page allocated *)
  | Free  (** page released *)
  | Cache_hit  (** access absorbed by the buffer pool *)
  | Evict  (** frame pushed out of the buffer pool *)
  | Write_back  (** deferred write charged at eviction or flush *)
  | Pin  (** frame pinned resident *)
  | Fault
      (** a failed transfer attempt — a {!Pc_pagestore.Fault_plan}
          injection or a device error — one event per attempt, tagged
          with the page, so a trace shows exactly where the fault
          landed *)
  | Retry
      (** a transfer the pager's retry loop completed after transient
          failures: one event per transfer, after its failed attempts'
          [Fault] events *)
  | Give_up
      (** a retried transfer abandoned: its budget (a
          {!Pc_pagestore.Retry_policy}'s attempts or per-op deadline, or a
          fault-plan burst's retries) ran out and the pager raised
          [Io_fault]; one event per transfer, after its [Fault] events *)
  | Journal_write
      (** a page journaled at commit by the durability layer
          ({!Pc_pagestore.Wal}); a device write, counted as such by
          {!replay_file} *)
  | Checkpoint
      (** a superblock write truncating the journal; a device write *)
  | Corrupt
      (** a checksum mismatch quarantined in degraded mode — reads of
          this page now return nothing and results are marked partial *)
  | Phase
      (** a completed timed section ([label] = ["layer.op"], args
          [[("ns", duration)]]) — only emitted when a clock is installed,
          so a span's wall time decomposes into phase categories *)
  | Span_begin
  | Span_end

type event = {
  tick : int;  (** logical timestamp, unique and monotonic per handle *)
  kind : kind;
  src : int;  (** registered source (pager) id; [-1] for span events *)
  page : int;  (** page id; span id for span events *)
  label : string;  (** span kind, e.g. ["query2sided"]; phase name for
                       [Phase]; [""] otherwise *)
  args : (string * int) list;
      (** [Span_end] payload: the query's {!Pc_pagestore.Query_stats}
          breakdown; [[("ns", d)]] for [Phase]; [[]] otherwise *)
  wall_ns : int option;
      (** wall-clock stamp in nanoseconds; [None] when the clock is off
          (the default), so serialization is unchanged *)
}

val kind_name : kind -> string
val kind_of_name : string -> kind option

(** [phase_category label] maps a phase label to its attribution
    category: ["dev.*"] → ["device"], ["codec.*"] → ["codec"], ["wal.*"]
    → ["wal"], ["checksum.*"] → ["checksum"], ["pool.*"] → ["pool"],
    anything else ["other"]. *)
val phase_category : string -> string

(** The fixed category order: [device; codec; wal; checksum; pool;
    other]. *)
val phase_categories : string list

(** {1 Sinks} *)

type sink

(** [null] drops every event; the default. A handle whose sink is [null]
    is disabled: no ticks advance, no allocation happens per event. *)
val null : sink

(** [ring ~capacity] keeps the most recent [capacity] events in memory;
    read them back with {!events}. *)
val ring : capacity:int -> sink

(** [jsonl oc] writes one JSON object per event per line. The channel is
    flushed every [flush_every] events (default 256) and on
    {!flush}/{!close}, so a killed process loses at most a bounded tail
    of the trace. *)
val jsonl : ?flush_every:int -> out_channel -> sink

(** [chrome oc] writes the Chrome [trace_event] JSON-array format: open
    the file in [chrome://tracing] or {{:https://ui.perfetto.dev}
    Perfetto}. Spans render as nested duration slices, I/O events as
    instants on one lane per pager, phases as complete ("X") slices.
    {!close} writes the closing bracket. Flushes like {!jsonl}. *)
val chrome : ?flush_every:int -> out_channel -> sink

(** [custom f] calls [f] on every event. *)
val custom : (event -> unit) -> sink

(** [tee a b] delivers every event to both [a] and [b]; flush and close
    fan out, {!events} reads [a]'s buffer. {!null} operands collapse
    away ([tee null s] is [s]), so teeing onto a disabled handle's sink
    yields just the new sink. Used by {!Metrics.attach} to listen beside
    an installed trace sink. *)
val tee : sink -> sink -> sink

(** {1 Handles} *)

type t

(** [create ()] makes a handle, disabled by default ([?sink] = {!null},
    [?clock] = {!Clock.off}).

    {b Domain safety.} A handle is {e single-writer}: its sinks append
    to unsynchronized buffers/channels and its tick counter is a plain
    mutable. The handle records the domain that created it; any
    sink-mutating emission ({!emit}, {!emit_phase}, an enabled
    {!with_span}) from another domain raises {!Cross_domain_emit}
    instead of corrupting the trace. Disabled (null-sink) handles are
    freely shareable across domains — every emit is a no-op and the
    guard never fires, preserving the byte-identity contract. Parallel
    tracing therefore means one handle per domain, merged offline. *)
val create : ?sink:sink -> ?clock:Clock.t -> unit -> t

(** Raised when a handle whose sink is enabled is emitted to from a
    domain other than the one that created it. *)
exception Cross_domain_emit of { owner : int; caller : int }

(** The id of the domain that created the handle (the only domain
    allowed to emit through an enabled sink). *)
val owner_domain : t -> int

val set_sink : t -> sink -> unit

(** [current_sink t] is the installed sink ({!null} when disabled). *)
val current_sink : t -> sink

(** [enabled t] is [false] iff the sink is {!null}. *)
val enabled : t -> bool

(** [tick t] is the next logical timestamp. *)
val tick : t -> int

(** [set_clock t c] installs a wall clock. Independent of the sink: with
    an enabled clock and the {!null} sink, {!wall_enabled}/{!now_ns}
    still time operations (per-pager latency histograms fill) while the
    trace stays off. *)
val set_clock : t -> Clock.t -> unit

val clock : t -> Clock.t

(** [wall_enabled t] is [true] iff a clock is installed. *)
val wall_enabled : t -> bool

(** [now_ns t] reads the installed clock (0 when off). *)
val now_ns : t -> int

(** [to_file path] opens a file sink, choosing the format by extension:
    [.json] gets the Chrome format, anything else JSONL. {!close} closes
    the file. *)
val to_file : ?flush_every:int -> string -> t

(** [flush t] flushes a file-backed sink. *)
val flush : t -> unit

(** [close t] finalizes the sink (writes the Chrome closing bracket,
    closes a {!to_file} channel) and installs {!null}. *)
val close : t -> unit

(** {1 Sources and events} *)

(** An event source registered on a handle — one per pager. Cheap to
    carry; {!emit} through it is the hot path. *)
type source

(** [register t ~name] allocates the next source id. *)
val register : t -> name:string -> source

val source_id : source -> int
val source_name : t -> int -> string option

(** [emit src kind ~page] appends one event, stamping the next tick (and
    [wall_ns] when a clock is installed). No-op (no tick consumed) when
    the sink is {!null}. *)
val emit : source -> kind -> page:int -> unit

(** [emit_phase src ~phase ~page ~ns] appends a [Phase] event recording a
    completed timed section of [ns] nanoseconds. No-op when the sink is
    {!null}. Phases must not nest inside each other (they wrap leaf
    operations), so summing them under a span never double-counts. *)
val emit_phase : source -> phase:string -> page:int -> ns:int -> unit

(** [with_phase src ~phase ~page f] times [f ()] against the installed
    clock and emits the [Phase] event (also on exception). With the
    clock off this is exactly [f ()]. *)
val with_phase : source -> phase:string -> page:int -> (unit -> 'a) -> 'a

(** [events t] returns the buffered events of a {!ring} sink, oldest
    first; [[]] for any other sink. *)
val events : t -> event list

(** {1 Spans} *)

(** [with_span obs ~kind f] brackets [f ()] between [Span_begin] and
    [Span_end] events so the I/O events [f] causes nest under it.
    [result_args], evaluated on [f]'s result, attaches a stats breakdown
    to the closing event. If [f] raises, the span is closed with
    [[("error", 1)]] and the exception re-raised. [with_span None ~kind f]
    is exactly [f ()]. *)
val with_span :
  t option ->
  kind:string ->
  ?result_args:('a -> (string * int) list) ->
  (unit -> 'a) ->
  'a

(** [span_depth t] is the current nesting depth (0 outside any span). *)
val span_depth : t -> int

(** {1 Reading traces}

    Every consumer of a trace — {!replay_file}, {!Profile},
    {!Reuse_dist}, {!Access_profile} — is a fold over events, fed live
    through {!custom} or from a JSONL file through {!iter_file}, so a
    replayed trace and a live attachment fold identically. *)

(** [iter_file path f] applies [f] to each event of the JSONL trace at
    [path], in trace order; blank lines are skipped. Each line is decoded
    in one left-to-right pass over the field order the {!jsonl} sink
    writes: [tick], [kind], [src], [page], then the optional [wall_ns],
    [label] and [args]. The label and args keys are read up to the next
    quote, unescaped. Raises [Failure] naming the file and line on any
    other line, and re-raises a [Failure] from [f] with the line of the
    event [f] failed on. *)
val iter_file : string -> (event -> unit) -> unit

(** I/O totals read back from a trace, so a trace can be checked against
    the counters it mirrors. *)
type totals = {
  t_reads : int;
  t_writes : int;  (** immediate writes plus write-backs, as {!Pc_pagestore.Io_stats.writes} *)
  t_cache_hits : int;
  t_allocs : int;
  t_frees : int;
  t_evictions : int;
  t_write_backs : int;
  t_spans : int;  (** number of [Span_begin] events *)
  t_events : int;  (** total events parsed *)
  t_wall_ns : int;
      (** wall-clock extent (max − min [wall_ns] over all stamped
          events); 0 for tick-only v1 traces *)
  t_phase_ns : (string * int) list;
      (** per-category phase duration sums in {!phase_categories} order,
          zero categories omitted; [[]] for tick-only traces *)
}

(** [replay_file path] folds the trace at [path] into totals. Same
    [Failure] contract as {!iter_file}. *)
val replay_file : string -> totals

(** Prints the I/O totals record; traces carrying [wall_ns] get extra
    [wall:]/[phases:] lines (tick-only traces print exactly as before). *)
val pp_totals : Format.formatter -> totals -> unit

(** [pp_ns ppf ns] renders nanoseconds human-readably (ns/us/ms/s). *)
val pp_ns : Format.formatter -> int -> unit

(** {1 Profiling}

    Folds a trace into a per-span-label table — the "where do the I/Os
    (and the nanoseconds) go" view. I/O attribution is inclusive,
    matching the {!Pc_pagestore.Pager.with_counted} contract: an event
    inside nested spans counts toward every open span. Spans left open
    by a truncated trace are dropped. *)

module Profile : sig
  type row = {
    label : string;  (** span label, e.g. ["query.2sided"] *)
    count : int;  (** spans closed with this label *)
    total_ios : int;  (** reads + writes (incl. write-backs) inside them *)
    mean : float;  (** [total_ios / count] *)
    p99 : int;  (** per-span I/O p99 (log-bucketed) *)
    max : int;  (** worst single span *)
    wall_ns : int;  (** total wall time across these spans; 0 tick-only *)
    phases : (string * int) list;
        (** category → ns in {!phase_categories} order; ["other"] is the
            span wall time minus all measured phases, so the sums equal
            [wall_ns] by construction. [[]] for tick-only traces. *)
  }

  (** One folded-stack frame path with its {e exclusive} (self) values:
      a span's own value excludes child spans and phases, which appear
      as deeper paths; a phase is a leaf frame under the innermost open
      span. *)
  type stack = {
    stack_path : string list;  (** root-first frame path *)
    stack_value : int;  (** self wall-ns summed over occurrences *)
    stack_ios : int;  (** self I/O count *)
    stack_count : int;  (** occurrences *)
  }

  type analysis = {
    rows : row list;  (** sorted by decreasing [total_ios] *)
    stacks : stack list;  (** sorted by path *)
    has_wall : bool;  (** some span carried [wall_ns] stamps *)
  }

  type t

  val create : unit -> t

  (** [observe t e] folds one event. Raises [Failure] on a [Span_end]
      that does not close the innermost open span, so a fold fed live
      must be installed before the first span opens. *)
  val observe : t -> event -> unit

  (** The analysis of the events folded so far. *)
  val analysis : t -> analysis

  (** [analyze_file path] is {!iter_file} plus {!observe}; raises
      [Failure] naming the line on malformed input or broken span
      nesting. *)
  val analyze_file : string -> analysis

  (** Rows sorted by decreasing [total_ios]. *)
  val of_file : string -> row list

  (** The original I/O table — byte-identical output to earlier versions
      for any trace. *)
  val pp : Format.formatter -> row list -> unit

  (** The wall-clock attribution table: wall total and the six phase
      category columns per span label. Rows without phase data are
      skipped, so tick-only traces print only the header. *)
  val pp_phases : Format.formatter -> row list -> unit

  (** One line per root span label: the heaviest-child chain through the
      folded tree (by wall time; by I/O count for tick-only traces). *)
  val pp_critical : Format.formatter -> analysis -> unit

  (** Collapsed-stack ("folded") export for flamegraph tooling: one line
      per frame path, [path;frames value], value = self wall-ns (self
      I/Os for tick-only traces). *)
  val write_folded : out_channel -> analysis -> unit
end

(** {1 Slow-operation log}

    A sink-side watcher: tee {!Slow_log.sink} beside the trace sink and
    every span whose wall time meets the threshold is written to the
    channel as one JSON line ([{"label":..,"wall_ns":..,"ios":..,
    "phases":{..}}]), flushed immediately. It is the {!Profile} fold with
    a per-span close hook, so install it before the first span opens.
    Purely an observer — it never affects control flow or the trace
    itself. *)

module Slow_log : sig
  type t

  val create : out_channel -> threshold_ns:int -> t

  (** The sink to tee beside the trace sink. *)
  val sink : t -> sink

  (** Spans under the wall threshold can still violate their analytical
      bound; callers report those with [note_violation] and they are
      logged as [{"label":..,"violation":"cost_model",..}] lines. *)
  val note_violation : t -> label:string -> measured:int -> predicted:float -> unit

  (** Number of lines written so far. *)
  val logged : t -> int

  (** Flushes the channel (the caller owns closing it). *)
  val close : t -> unit
end
