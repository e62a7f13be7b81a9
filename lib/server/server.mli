(** The concurrent session server (DESIGN.md §14).

    [start ()] binds a loopback TCP socket and spawns N worker
    {e domains}; each accepted connection is a session served to
    completion by one worker, so K concurrent sessions on K workers run
    genuinely in parallel. Sessions speak the {!Wire} frame protocol;
    payloads are one-line text requests:

    {v
    ping                  -> ok pong
    open NAME             -> ok opened NAME size=K   (creates on demand)
    insert X Y ID         -> ok
    delete ID             -> ok true | ok false
    krange LO HI          -> ok pairs x1:y1,x2:y2,...
    q3 XL XR YB           -> ok ids id1,id2,...
    stats                 -> ok version=V checkpoints=C size=S
    close                 -> ok bye                  (ends the session)
    shutdown              -> ok shutting down        (stops the server)
    anything else         -> err <reason>            (session continues)
    v}

    Stores are {!Pc_conc.Shared_store}s named by [open]; all sessions
    that open the same name share one store, with lock-free snapshot
    reads and a serialized writer. Malformed requests get [err]
    replies; an unframeable stream (oversized length prefix) or an
    expired idle timeout gets a final [err] frame and the session is
    dropped.

    {b Fault handling} (DESIGN.md §15): a request never kills more than
    itself. A client that disconnects between request and reply costs
    only its session (EPIPE/ECONNRESET on the reply are absorbed), and
    so does one that stops reading its replies, once a reply write has
    made no progress for [idle_timeout]; an exception escaping
    evaluation becomes [err internal ...]; a store
    whose circuit breaker is open refuses mutations with
    [err degraded ...] while queries keep serving the last published
    snapshot; with [max_inflight] set, excess concurrent requests are
    shed at the door with [err busy]; with [request_deadline] set, an
    over-deadline evaluation replies [err deadline ...] (the effects of
    a mutation may still have applied — the reply says so). [shutdown]
    drains: workers stop accepting, in-flight sessions get one final
    frame after their current request, and {!wait} checkpoints every
    store before returning. That "durability barrier" is an in-memory
    checkpoint: the served stores persist nothing. *)

type t

(** [start ()] binds and serves. [port] 0 picks an ephemeral port (read
    it back with {!port}); [workers] is the domain count (default 4);
    [idle_timeout] (default 5s) bounds how long a connection that
    neither sends a request nor accepts reply bytes holds a worker;
    [b]/[checkpoint_every] configure created stores;
    [max_inflight] bounds concurrently evaluated requests (default: no
    bound) — control verbs ping/close/shutdown are exempt;
    [request_deadline] (seconds) is the soft per-request deadline
    (default: none); [make_store] overrides how [open] builds a missing
    store (default: an empty {!Pc_conc.Shared_store} with a fresh
    circuit breaker). *)
val start :
  ?port:int ->
  ?workers:int ->
  ?idle_timeout:float ->
  ?b:int ->
  ?checkpoint_every:int ->
  ?max_inflight:int ->
  ?request_deadline:float ->
  ?make_store:(name:string -> Pc_conc.Shared_store.t) ->
  unit ->
  t

val port : t -> int

(** Sessions accepted since start. *)
val sessions_served : t -> int

(** Requests refused with [err busy] by the overload gate. *)
val shed_requests : t -> int

(** The server is draining: a client sent [shutdown] or
    {!request_drain} was called. *)
val draining : t -> bool

(** [request_drain t] starts a graceful drain, as the [shutdown] verb
    does: stop accepting, finish in-flight requests, close sessions
    with a final frame. Follow with {!wait}. *)
val request_drain : t -> unit

(** [stop t] signals every worker, joins them, and closes the socket.
    In-flight sessions finish their current request. *)
val stop : t -> unit

(** [request_stop t] only raises the stop flag — safe from a signal
    handler; follow with {!wait}. *)
val request_stop : t -> unit

(** [wait t] joins the workers (returns once the server has stopped —
    via {!stop}, {!request_stop}, or a client's [shutdown] verb) and
    closes the socket. *)
val wait : t -> unit

(** A minimal blocking client for tests and CLI probes. *)
module Client : sig
  type conn

  val connect : ?host:string -> port:int -> unit -> conn
  val request : conn -> string -> (string, Wire.error) result

  (** Sends [close] (best effort) and closes the socket. *)
  val close : conn -> unit
end
