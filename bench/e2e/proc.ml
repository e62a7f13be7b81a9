(* Child processes of the benchmark: spawned with their standard output
   on a pipe, always reaped, and killed if the benchmark exits early. *)

type t = { pid : int; ic : in_channel }

let live = ref []

let spawn exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  live := pid :: !live;
  { pid; ic = Unix.in_channel_of_descr r }

(* The child's next output line; its death before printing one is an
   error. *)
let line p =
  match input_line p.ic with
  | l -> l
  | exception End_of_file -> failwith "child process exited early"

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Reads the child's remaining output, then reaps it. *)
let wait p =
  let rec drain acc =
    match input_line p.ic with
    | l -> drain (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = drain [] in
  close_in p.ic;
  let st = waitpid p.pid in
  live := List.filter (( <> ) p.pid) !live;
  match st with
  | Unix.WEXITED 0 -> lines
  | _ -> failwith "child process failed"

(* The process's peak resident set (VmHWM), in MB. *)
let peak_rss_mb pid =
  let status =
    In_channel.with_open_text
      (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_all
  in
  let kb =
    List.find_map
      (fun l -> try Scanf.sscanf l "VmHWM: %d kB" Option.some with _ -> None)
      (String.split_on_char '\n' status)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "no VmHWM in /proc status"

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (waitpid pid) with Unix.Unix_error _ -> ())
        !live)
