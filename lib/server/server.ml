(* The session server: N worker domains accepting sessions over the
   length-prefixed wire protocol, all serving shared stores.

   Workers are domains, not systhreads — systhreads in one domain never
   run in parallel, and parallel query service is the point. All
   workers poll the same non-blocking listening socket ([select] with a
   short timeout so the stop flag is honored promptly); whoever's
   [accept] wins serves that session to completion. Sessions are
   plain request/reply over {!Wire} frames with a receive and a send
   timeout, so a client that neither sends a request nor accepts reply
   bytes (idle, half-open, or no longer reading) costs one worker at
   most [idle_timeout] seconds — the serve-metrics lesson.

   Queries run on whichever worker domain holds the session;
   Shared_store readers are lock-free, so K sessions on K workers
   query in parallel, while inserts/deletes serialize on each store's
   single writer. *)

module Point = Pc_util.Point
module Shared_store = Pc_conc.Shared_store

type t = {
  sock : Unix.file_descr;
  port : int;
  stop_flag : bool Atomic.t;
  draining : bool Atomic.t;
      (* graceful shutdown: stop accepting, finish in-flight requests,
         close sessions with a final frame, checkpoint stores, exit *)
  stores : (string, Shared_store.t) Hashtbl.t;
  registry : Mutex.t; (* guards [stores] *)
  mutable workers : unit Domain.t array;
  sessions : int Atomic.t; (* total sessions served, for smoke tests *)
  inflight : int Atomic.t; (* requests being evaluated right now *)
  shed : int Atomic.t; (* requests refused with [err busy] *)
  max_inflight : int option;
  request_deadline : float option;
  make_store : name:string -> Shared_store.t;
  idle_timeout : float;
}

let port t = t.port
let sessions_served t = Atomic.get t.sessions
let shed_requests t = Atomic.get t.shed
let draining t = Atomic.get t.draining

let valid_name n =
  n <> ""
  && String.length n <= 64
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
         | _ -> false)
       n

let store_of t name =
  Mutex.protect t.registry (fun () ->
      match Hashtbl.find_opt t.stores name with
      | Some s -> s
      | None ->
          let s = t.make_store ~name in
          Hashtbl.replace t.stores name s;
          s)

(* ------------------------------------------------------------------ *)
(* Request evaluation                                                 *)
(* ------------------------------------------------------------------ *)

type session = { mutable current : (string * Shared_store.t) option }

(* [prefix] then the items, comma-separated, in one buffer *)
let list_reply prefix add l =
  let buf = Buffer.create (String.length prefix + (16 * List.length l)) in
  Buffer.add_string buf prefix;
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      add buf v)
    l;
  Buffer.contents buf

let ints_reply prefix l =
  list_reply prefix (fun buf k -> Buffer.add_string buf (string_of_int k)) l

let pairs_reply prefix l =
  list_reply prefix
    (fun buf (k, v) ->
      Buffer.add_string buf (string_of_int k);
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int v))
    l

(* [eval_words] returns the reply payload and whether the session goes
   on. Every parse failure is an [err ...] reply, never a dropped
   connection — a malformed request must not kill the session. *)
let eval_words t session words =
  let int_of w = int_of_string_opt w in
  let with_store k =
    match session.current with
    | None -> ("err no store open (send: open NAME)", true)
    | Some (_, s) -> k s
  in
  match words with
  | [ "ping" ] -> ("ok pong", true)
  | [ "open"; name ] ->
      if valid_name name then begin
        let s = store_of t name in
        session.current <- Some (name, s);
        (Printf.sprintf "ok opened %s size=%d" name (Shared_store.size s), true)
      end
      else ("err invalid store name", true)
  | [ "insert"; x; y; id ] -> (
      match (int_of x, int_of y, int_of id) with
      | Some x, Some y, Some id ->
          with_store (fun s ->
              Shared_store.insert s (Point.make ~x ~y ~id);
              ("ok", true))
      | _ -> ("err insert wants: insert X Y ID", true))
  | [ "delete"; id ] -> (
      match int_of id with
      | Some id ->
          with_store (fun s ->
              (Printf.sprintf "ok %b" (Shared_store.delete s id), true))
      | None -> ("err delete wants: delete ID", true))
  | [ "krange"; lo; hi ] -> (
      match (int_of lo, int_of hi) with
      | Some lo, Some hi ->
          with_store (fun s ->
              (pairs_reply "ok pairs " (Shared_store.krange s ~lo ~hi), true))
      | _ -> ("err krange wants: krange LO HI", true))
  | [ "q3"; xl; xr; yb ] -> (
      match (int_of xl, int_of xr, int_of yb) with
      | Some xl, Some xr, Some yb ->
          with_store (fun s ->
              let ids =
                Shared_store.query3 s ~xl ~xr ~yb
                |> List.map Point.id |> List.sort Int.compare
              in
              (ints_reply "ok ids " ids, true))
      | _ -> ("err q3 wants: q3 XL XR YB", true))
  | [ "stats" ] ->
      with_store (fun s ->
          let st = Shared_store.stats s in
          let breaker =
            match Shared_store.breaker s with
            | None -> "none"
            | Some br -> Pc_conc.Breaker.state_name (Pc_conc.Breaker.state br)
          in
          ( Printf.sprintf "ok version=%d checkpoints=%d size=%d breaker=%s"
              st.Shared_store.st_version st.Shared_store.st_checkpoint
              st.Shared_store.st_size breaker,
            true ))
  | [ "close" ] -> ("ok bye", false)
  | [ "shutdown" ] ->
      (* the serve-metrics /quit precedent: loopback-only service, any
         client may stop it — what the CI smoke test uses. Shutdown is a
         drain: workers stop accepting, in-flight sessions get a final
         frame after their current request, [wait] then checkpoints
         stores. *)
      Atomic.set t.draining true;
      ("ok shutting down", false)
  | [] -> ("err empty request", true)
  | verb :: _ -> (Printf.sprintf "err unknown verb %S" verb, true)

(* The full request path laid over [eval_words]:

   - {b overload gate}: with [max_inflight] set, a request arriving
     while that many are already evaluating is shed with [err busy]
     before touching any store — bounded work in flight, load is shed at
     the door. Control verbs (ping/close/shutdown) are exempt so a
     loaded server can still be probed and drained.
   - {b typed degradation}: a store whose circuit breaker is open
     refuses mutations with {!Shared_store.Degraded}; the session sees
     [err degraded ...] and lives on.
   - {b exception floor}: no exception escapes a request — anything
     unexpected becomes [err internal ...]; the session (and above it
     the worker domain) never dies for one bad request.
   - {b soft deadline}: with [request_deadline] set, a request whose
     evaluation overran replies [err deadline ...] instead of its
     result. The work already happened — a mutation's effects may have
     applied — which is exactly the ambiguity a real timeout has; the
     reply says so. *)
let eval t session req =
  let words =
    String.split_on_char ' ' (String.trim req)
    |> List.filter (fun w -> w <> "")
  in
  let control =
    match words with
    | [ "ping" ] | [ "close" ] | [ "shutdown" ] -> true
    | _ -> false
  in
  let run () =
    try eval_words t session words with
    | Shared_store.Degraded m -> ("err degraded " ^ m, true)
    | e -> ("err internal " ^ Printexc.to_string e, true)
  in
  let deadlined () =
    match t.request_deadline with
    | None -> run ()
    | Some dl ->
        let t0 = Unix.gettimeofday () in
        let reply, continue = run () in
        let elapsed = Unix.gettimeofday () -. t0 in
        if elapsed > dl then
          ( Printf.sprintf
              "err deadline %.0fms exceeded (took %.0fms; a mutation's \
               effects may have applied)"
              (dl *. 1000.) (elapsed *. 1000.),
            continue )
        else (reply, continue)
  in
  if control then run ()
  else
    match t.max_inflight with
    | None -> deadlined ()
    | Some m ->
        let n = Atomic.fetch_and_add t.inflight 1 in
        Fun.protect
          ~finally:(fun () -> Atomic.decr t.inflight)
          (fun () ->
            if n >= m then begin
              Atomic.incr t.shed;
              ("err busy", true)
            end
            else deadlined ())

(* ------------------------------------------------------------------ *)
(* Sessions and workers                                               *)
(* ------------------------------------------------------------------ *)

let serve_session t fd =
  Atomic.incr t.sessions;
  List.iter
    (fun opt ->
      try Unix.setsockopt_float fd opt t.idle_timeout
      with Unix.Unix_error _ -> ())
    [ Unix.SO_RCVTIMEO; Unix.SO_SNDTIMEO ];
  let session = { current = None } in
  (* A failed reply means the client is gone (EPIPE/ECONNRESET on a
     disconnect between request and reply, EAGAIN once a write has made
     no progress for [idle_timeout], or any other socket error):
     report it so the loop drops just this session — the worker domain
     must never die for a vanished peer. A reply that does not fit in one
     frame is replaced by an error naming its size, and the session goes
     on. *)
  let say s =
    let s =
      let n = String.length s in
      if n <= Wire.max_frame then s
      else Printf.sprintf "err reply too large (%d bytes); narrow the query" n
    in
    match Wire.write_frame fd s with
    | () -> true
    | exception
        Unix.Unix_error
          ((Unix.EPIPE | Unix.ECONNRESET | Unix.ENOTCONN | Unix.EBADF), _, _)
      ->
        false
    | exception Unix.Unix_error _ -> false
  in
  let rec loop () =
    if Atomic.get t.stop_flag then ()
    else if Atomic.get t.draining then
      (* graceful drain: the in-flight request (if any) was answered;
         tell the client instead of vanishing *)
      ignore (say "err draining, closing")
    else
      match Wire.read_frame fd with
      | Ok req ->
          let reply, continue = eval t session req in
          if say reply && continue then loop ()
      | Error Wire.Closed -> ()
      | Error Wire.Timeout -> ignore (say "err idle timeout, closing")
      | Error (Wire.Oversized _ as e) ->
          (* the declared length is a lie or an attack; the stream can
             no longer be framed, so reply and drop the session *)
          ignore (say ("err " ^ Wire.error_to_string e))
  in
  loop ();
  try Unix.close fd with Unix.Unix_error _ -> ()

let worker_loop t =
  while not (Atomic.get t.stop_flag || Atomic.get t.draining) do
    match Unix.select [ t.sock ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
        (* the listening socket is non-blocking: when several workers
           wake for one connection, the losers' accept just EAGAINs *)
        match Unix.accept t.sock with
        | fd, _ -> (
            (* belt and braces under the per-request exception floor:
               whatever escapes a session costs that session, never the
               worker domain *)
            try serve_session t fd
            with _ -> ( try Unix.close fd with Unix.Unix_error _ -> ()))
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ()
        | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let start ?(port = 9470) ?(workers = 4) ?(idle_timeout = 5.0) ?(b = 8)
    ?(checkpoint_every = 512) ?max_inflight ?request_deadline ?make_store () =
  if workers < 1 then invalid_arg "Server.start: workers < 1";
  (match max_inflight with
  | Some m when m < 0 -> invalid_arg "Server.start: max_inflight < 0"
  | _ -> ());
  let make_store =
    match make_store with
    | Some f -> f
    | None ->
        fun ~name:_ ->
          Shared_store.create ~b ~checkpoint_every
            ~breaker:(Pc_conc.Breaker.create ()) []
  in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 64;
  Unix.set_nonblock sock;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t =
    {
      sock;
      port;
      stop_flag = Atomic.make false;
      draining = Atomic.make false;
      stores = Hashtbl.create 8;
      registry = Mutex.create ();
      workers = [||];
      sessions = Atomic.make 0;
      inflight = Atomic.make 0;
      shed = Atomic.make 0;
      max_inflight;
      request_deadline;
      make_store;
      idle_timeout;
    }
  in
  t.workers <- Array.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let request_stop t = Atomic.set t.stop_flag true
let request_drain t = Atomic.set t.draining true

let wait t =
  Array.iter Domain.join t.workers;
  t.workers <- [||];
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  (* the drain's barrier: fold each store's overlay into a fresh
     in-memory checkpoint. A store whose breaker is open can't commit —
     skip it; its last snapshot already holds everything that was ever
     acknowledged. *)
  Mutex.protect t.registry (fun () ->
      Hashtbl.iter
        (fun _ s ->
          try Shared_store.checkpoint_now s with _ -> ())
        t.stores)

let stop t =
  request_stop t;
  wait t

(* ------------------------------------------------------------------ *)
(* A minimal blocking client, for tests and the CLI                   *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type conn = { fd : Unix.file_descr }

  let connect ?(host = "127.0.0.1") ~port () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    { fd }

  let request c s = Wire.request c.fd s

  let close c =
    (match request c "close" with Ok _ | Error _ -> ());
    try Unix.close c.fd with Unix.Unix_error _ -> ()
end
