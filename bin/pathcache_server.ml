(* The session server: N worker domains serving shared stores over the
   length-prefixed wire protocol (see Pc_server.Server for the request
   grammar). This binary is its only command-line entry point.

   Runs until SIGINT/SIGTERM or a client's `shutdown` verb. *)

let () =
  let port = ref 9470 in
  let workers = ref 4 in
  let idle = ref 5.0 in
  let b = ref 8 in
  let checkpoint_every = ref 512 in
  let max_inflight = ref 0 in
  let request_deadline = ref 0.0 in
  let spec =
    [
      ("--port", Arg.Set_int port, "P  TCP port on loopback (default 9470; 0 = ephemeral)");
      ("--workers", Arg.Set_int workers, "N  worker domains (default 4)");
      ( "--idle-timeout",
        Arg.Set_float idle,
        "SEC  drop connections silent this long (default 5.0)" );
      ("--b", Arg.Set_int b, "B  page size of created stores (default 8)");
      ( "--checkpoint-every",
        Arg.Set_int checkpoint_every,
        "K  overlay size that triggers a store rebuild (default 512)" );
      ( "--max-inflight",
        Arg.Set_int max_inflight,
        "N  shed requests past N in flight with `err busy' (default 0 = \
         unbounded)" );
      ( "--request-deadline",
        Arg.Set_float request_deadline,
        "SEC  soft per-request deadline; overruns reply `err deadline' \
         (default 0 = none)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pathcache_server [--port 9470] [--workers 4] [--idle-timeout 5.0]";
  let t =
    Pc_server.Server.start ~port:!port ~workers:!workers ~idle_timeout:!idle
      ~b:!b ~checkpoint_every:!checkpoint_every
      ?max_inflight:(if !max_inflight > 0 then Some !max_inflight else None)
      ?request_deadline:
        (if !request_deadline > 0.0 then Some !request_deadline else None)
      ()
  in
  Printf.printf
    "pathcache_server: %d worker domain(s) on 127.0.0.1:%d (wire protocol; \
     send `shutdown` or SIGTERM to stop)\n%!"
    !workers (Pc_server.Server.port t);
  let on_signal _ = Pc_server.Server.request_stop t in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
   with Invalid_argument _ -> ());
  Pc_server.Server.wait t;
  Printf.printf "pathcache_server: stopped after %d session(s)\n%!"
    (Pc_server.Server.sessions_served t)
