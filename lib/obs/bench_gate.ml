(* Baseline schema + the bench-diff comparison rules.

   The JSON is hand-rolled and line-oriented on purpose (the repository
   carries no JSON dependency): the writer puts exactly one entry per
   line, and the reader only requires that — a baseline edited by hand
   still parses as long as entries keep their own lines. *)

type entry = {
  experiment : string;
  structure : string;
  theorem : string;
  n : int;
  b : int;
  queries : int;
  mean_ios : float;
  p50_ios : int;
  p99_ios : int;
  max_ios : int;
  worst_ratio : float;
  within : bool;
  mean_us : float;
  p99_us : float;
}

type baseline = { seed : int; entries : entry list }

let schema = "pathcache-bench-baseline-v2"

(* v1 files lack the wall-clock fields; they parse with zeros, and the
   gate never compares wall-clock anyway *)
let schema_v1 = "pathcache-bench-baseline-v1"

let wall_stats = function
  | [] -> (0., 0.)
  | times ->
      let sorted = List.sort compare times in
      let len = List.length sorted in
      let mean = List.fold_left ( +. ) 0. sorted /. float_of_int len in
      let p99 = List.nth sorted (min (len - 1) (99 * len / 100)) in
      (mean, p99)

let entry_of_verdicts ?(times_us = []) ~experiment ~structure ~histo ~summary
    ~n ~b () =
  let mean_us, p99_us = wall_stats times_us in
  {
    experiment;
    structure = Cost_model.name structure;
    theorem = (Cost_model.query_bound structure).Cost_model.theorem;
    n;
    b;
    queries = Histogram.count histo;
    mean_ios = Histogram.mean histo;
    p50_ios = Histogram.p50 histo;
    p99_ios = Histogram.p99 histo;
    max_ios = Histogram.max_value histo;
    worst_ratio = Cost_model.Conformance.worst_ratio summary;
    within = Cost_model.Conformance.all_within summary;
    mean_us;
    p99_us;
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let entry_json e =
  Printf.sprintf
    "{\"experiment\":\"%s\",\"structure\":\"%s\",\"theorem\":\"%s\",\"n\":%d,\"b\":%d,\"queries\":%d,\"mean_ios\":%.4f,\"p50_ios\":%d,\"p99_ios\":%d,\"max_ios\":%d,\"worst_ratio\":%.4f,\"within\":%b,\"mean_us\":%.1f,\"p99_us\":%.1f}"
    (escape e.experiment) (escape e.structure) (escape e.theorem) e.n e.b
    e.queries e.mean_ios e.p50_ios e.p99_ios e.max_ios e.worst_ratio e.within
    e.mean_us e.p99_us

let to_json b =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"schema\": \"%s\",\n  \"seed\": %d,\n  \"entries\": [\n"
       schema b.seed);
  List.iteri
    (fun i e ->
      Buffer.add_string buf
        (Printf.sprintf "    %s%s\n" (entry_json e)
           (if i = List.length b.entries - 1 then "" else ",")))
    b.entries;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* field extraction over a single line of the baseline file *)

let find_pat line pat =
  let plen = String.length pat and llen = String.length line in
  let rec go i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then Some (i + plen)
    else go (i + 1)
  in
  go 0

(* position after the key's colon, whitespace skipped (the writer pads
   top-level fields like ["seed": 42]) *)
let value_pos line key =
  match find_pat line ("\"" ^ key ^ "\":") with
  | None -> None
  | Some p ->
      let llen = String.length line in
      let p = ref p in
      while !p < llen && (line.[!p] = ' ' || line.[!p] = '\t') do
        incr p
      done;
      Some !p

let str_field line key =
  match value_pos line key with
  | None -> None
  | Some start when start < String.length line && line.[start] = '"' -> (
      let start = start + 1 in
      match String.index_from_opt line start '"' with
      | None -> None
      | Some stop -> Some (String.sub line start (stop - start)))
  | Some _ -> None

let num_field line key =
  match value_pos line key with
  | None -> None
  | Some start ->
      let llen = String.length line in
      let stop = ref start in
      while
        !stop < llen
        &&
        match line.[!stop] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        incr stop
      done;
      if !stop = start then None
      else float_of_string_opt (String.sub line start (!stop - start))

let int_field line key = Option.map int_of_float (num_field line key)

let bool_field line key =
  match value_pos line key with
  | None -> None
  | Some start ->
      if
        String.length line >= start + 4
        && String.sub line start 4 = "true"
      then Some true
      else if
        String.length line >= start + 5
        && String.sub line start 5 = "false"
      then Some false
      else None

let parse_entry lineno line =
  let ( let* ) = Option.bind in
  let entry =
    let* experiment = str_field line "experiment" in
    let* structure = str_field line "structure" in
    let* theorem = str_field line "theorem" in
    let* n = int_field line "n" in
    let* b = int_field line "b" in
    let* queries = int_field line "queries" in
    let* mean_ios = num_field line "mean_ios" in
    let* p50_ios = int_field line "p50_ios" in
    let* p99_ios = int_field line "p99_ios" in
    let* max_ios = int_field line "max_ios" in
    let* worst_ratio = num_field line "worst_ratio" in
    let* within = bool_field line "within" in
    (* wall-clock fields arrived with schema v2; absent means a v1 file *)
    let mean_us = Option.value ~default:0. (num_field line "mean_us") in
    let p99_us = Option.value ~default:0. (num_field line "p99_us") in
    Some
      {
        experiment;
        structure;
        theorem;
        n;
        b;
        queries;
        mean_ios;
        p50_ios;
        p99_ios;
        max_ios;
        worst_ratio;
        within;
        mean_us;
        p99_us;
      }
  in
  match entry with
  | Some e -> Ok e
  | None -> Error (Printf.sprintf "line %d: malformed baseline entry" lineno)

let of_string s =
  let lines = String.split_on_char '\n' s in
  if
    not
      (List.exists
         (fun l -> find_pat l schema <> None || find_pat l schema_v1 <> None)
         lines)
  then Error (Printf.sprintf "baseline schema is not %S (or v1)" schema)
  else
    let seed =
      List.find_map (fun l -> int_field l "seed") lines |> Option.value ~default:0
    in
    let rec go lineno acc = function
      | [] -> Ok { seed; entries = List.rev acc }
      | line :: rest ->
          if find_pat line "\"experiment\"" <> None then
            match parse_entry lineno line with
            | Ok e -> go (lineno + 1) (e :: acc) rest
            | Error m -> Error m
          else go (lineno + 1) acc rest
    in
    go 1 [] lines

let of_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error m -> Error m

(* ------------------------------------------------------------------ *)
(* The gate                                                           *)
(* ------------------------------------------------------------------ *)

type failure =
  | Missing of string
  | Regression of {
      key : string;
      metric : string;
      baseline : float;
      current : float;
    }
  | Violation of string

type report = {
  compared : int;
  added : string list;
  failures : failure list;
}

let passed r = r.failures = []

let key_of e = Printf.sprintf "%s/%s(n=%d,b=%d)" e.experiment e.structure e.n e.b

let diff ?(tolerance = 0.10) ~baseline ~current () =
  let failures = ref [] and compared = ref 0 in
  let fail f = failures := f :: !failures in
  let find b e =
    List.find_opt
      (fun e' ->
        e'.experiment = e.experiment
        && e'.structure = e.structure
        && e'.n = e.n && e'.b = e.b)
      b.entries
  in
  List.iter
    (fun base ->
      match find current base with
      | None -> fail (Missing (key_of base))
      | Some cur ->
          incr compared;
          let check metric bv cv =
            (* a tiny absolute slack keeps near-zero baselines from
               tripping on +1 I/O *)
            if cv > (bv *. (1. +. tolerance)) +. 0.5 then
              fail
                (Regression
                   { key = key_of base; metric; baseline = bv; current = cv })
          in
          check "mean_ios" base.mean_ios cur.mean_ios;
          check "p99_ios" (float_of_int base.p99_ios) (float_of_int cur.p99_ios);
          check "max_ios" (float_of_int base.max_ios) (float_of_int cur.max_ios);
          if not cur.within then fail (Violation (key_of base)))
    baseline.entries;
  (* conformance violations in entries the baseline does not know yet
     still fail the gate — a new structure must enter green *)
  let added =
    List.filter_map
      (fun cur ->
        match find baseline cur with
        | Some _ -> None
        | None ->
            if not cur.within then fail (Violation (key_of cur));
            Some (key_of cur))
      current.entries
  in
  { compared = !compared; added; failures = List.rev !failures }

let pp_failure ppf = function
  | Missing k -> Format.fprintf ppf "MISSING   %s: not measured by this run" k
  | Regression { key; metric; baseline; current } ->
      Format.fprintf ppf "REGRESSED %s: %s %.2f -> %.2f (+%.1f%%)" key metric
        baseline current
        (100. *. ((current /. Float.max 1e-9 baseline) -. 1.))
  | Violation k -> Format.fprintf ppf "VIOLATION %s: query over theorem bound" k

let pp_report ppf r =
  Format.fprintf ppf "bench-diff: %d compared, %d added, %d failure(s)@\n"
    r.compared (List.length r.added) (List.length r.failures);
  List.iter (fun f -> Format.fprintf ppf "  %a@\n" pp_failure f) r.failures
