(* serve.exe: the benchmark's child processes.

   serve.exe serve --points FILE --workers W
     the session server over loopback (Server.start, port 0), whose
     store [open] creates from the preloaded points as the server's
     default store is configured. Prints "port N", serves until a client
     sends [shutdown], then prints its session count.

   serve.exe file-cold ...
     the file_cold workload, in a process of its own (see File_cold). *)

module Server = Pc_server.Server

let serve args =
  let pts = Gen.read_points (Args.get args "--points") in
  let workers = int_of_string (Args.get args "--workers") in
  let server =
    Server.start ~port:0 ~workers
      ~make_store:(fun ~name:_ -> Served.new_store pts)
      ()
  in
  Printf.printf "port %d\n%!" (Server.port server);
  Server.wait server;
  Printf.printf "sessions %d\n%!" (Server.sessions_served server)

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve" :: args -> serve args
  | _ :: "file-cold" :: args -> File_cold.main args
  | _ ->
      prerr_endline "usage: serve.exe (serve | file-cold) ARGS";
      exit 2
