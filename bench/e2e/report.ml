(* One workload run's results: metrics, the layer table, and the
   correctness tally. The file workload's child process prints a report
   as lines ([to_lines]) and the parent reads it back ([of_line]). *)

type metric = { name : string; value : float; unit : string; note : string }

type t = {
  workload : string;
  mutable metrics : metric list; (* newest first *)
  mutable layers : (string * float * bool) list;
      (* row, seconds, derived (a remainder, not a measurement); newest
         first *)
  mutable wall : float; (* the end-to-end time the layer rows split *)
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : string list; (* oracle and durability failures *)
}

let create workload =
  {
    workload;
    metrics = [];
    layers = [];
    wall = 0.;
    attempted = 0;
    failed = 0;
    mismatches = [];
  }

let add r ?(note = "") name value unit =
  if not (Float.is_finite value) then
    Printf.ksprintf failwith "%s %s: not a finite number" r.workload name;
  r.metrics <- { name; value; unit; note } :: r.metrics

let layer r ?(derived = false) name seconds =
  r.layers <- (name, seconds, derived) :: r.layers

let mismatch r fmt =
  Printf.ksprintf (fun s -> r.mismatches <- s :: r.mismatches) fmt

let metrics r = List.rev r.metrics
let find r name = List.find_opt (fun m -> m.name = name) r.metrics
let value r name = Option.map (fun m -> m.value) (find r name)

(* The tail of a sorted latency sample (us), as information only: p99,
   p99.9 and max, each with the number of samples beyond it. *)
let tail r prefix sorted =
  let n = Array.length sorted in
  List.iter
    (fun (label, p) ->
      let beyond = Stats.beyond sorted p in
      add r
        ~note:(Printf.sprintf "info %d of %d samples beyond" beyond n)
        (Printf.sprintf "%s_%s_us" prefix label)
        (Stats.pct sorted p) "us")
    [ ("p99", 99.); ("p999", 99.9); ("max", 100.) ]

(* Layer rows that are remainders may be slightly negative from timing
   noise; below -5 % of the wall a layer was attributed wrongly. *)
let check_layers r =
  List.iter
    (fun (name, s, derived) ->
      if derived && s < -0.05 *. r.wall then
        mismatch r "layer %s is %.1f%% of wall: attribution is wrong" name
          (100. *. s /. r.wall))
    r.layers

let share r name =
  if r.wall <= 0. then 0.
  else
    List.fold_left
      (fun acc (n, s, _) -> if n = name then acc +. (s /. r.wall) else acc)
      0. r.layers

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let metric_line r m =
  Printf.sprintf "%s %s %.17g %s%s" r.workload m.name m.value m.unit
    (if m.note = "" then "" else " " ^ m.note)

let print_layers r =
  if r.layers <> [] then begin
    let pct s = if r.wall > 0. then 100. *. s /. r.wall else 0. in
    Printf.printf "%s layer table (share of %.3f s end-to-end wall):\n"
      r.workload r.wall;
    let sum = ref 0. in
    List.iter
      (fun (name, s, derived) ->
        sum := !sum +. s;
        Printf.printf "  %-26s %10.3f s %7.2f%%%s\n" name s (pct s)
          (if derived then "  (remainder)" else ""))
      (List.rev r.layers);
    Printf.printf "  %-26s %10.3f s %7.2f%%\n" "sum" !sum (pct !sum)
  end

(* The one-line JSON summary: the tally and [(name, value, unit)]. *)
let json ~correct ~attempted ~failed metrics =
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* ------------------------------------------------------------------ *)
(* Child-to-parent transport                                          *)
(* ------------------------------------------------------------------ *)

let to_lines r =
  List.map
    (fun m ->
      Printf.sprintf "metric %s %.17g %s %s" m.name m.value m.unit m.note)
    (metrics r)
  @ List.map
      (fun (n, s, d) -> Printf.sprintf "layer %s %.17g %b" n s d)
      (List.rev r.layers)
  @ [
      Printf.sprintf "wall %.17g" r.wall;
      Printf.sprintf "count %d %d" r.attempted r.failed;
    ]
  @ List.map (fun s -> "mismatch " ^ s) (List.rev r.mismatches)

let of_line r line =
  match String.split_on_char ' ' line with
  | "metric" :: name :: v :: unit :: note ->
      let note = String.trim (String.concat " " note) in
      add r ~note name (float_of_string v) unit
  | [ "layer"; name; s; d ] ->
      layer r ~derived:(bool_of_string d) name (float_of_string s)
  | [ "wall"; s ] -> r.wall <- float_of_string s
  | [ "count"; a; f ] ->
      r.attempted <- r.attempted + int_of_string a;
      r.failed <- r.failed + int_of_string f
  | "mismatch" :: rest -> mismatch r "%s" (String.concat " " rest)
  | _ -> ()
