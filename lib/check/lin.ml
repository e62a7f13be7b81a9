(* Concurrent differential checking: N domains of generated operations
   against one Pc_conc.Shared_store, a recorded invocation/response
   history, and a linearizability decision against the same in-memory
   oracle the sequential harness uses.

   The checker is Wing & Gong's greedy history search. It stays
   tractable here for two structural reasons: (1) every domain runs its
   program sequentially, so at most one operation per domain is in
   flight and the search frontier never exceeds N; (2) generated insert
   ids are globally unique (domain d draws from d * id_stride), so the
   oracle state after linearizing a set of operations depends only on
   the SET, not the order — which makes memoizing failed positions
   (one per-domain-progress vector) sound and complete. *)

module Point = Pc_util.Point
module Rng = Pc_util.Rng
module Shared_store = Pc_conc.Shared_store
module IntMap = Map.Make (Int)

type outcome =
  | O_ok
  | O_bool of bool
  | O_pairs of (int * int) list (* krange answer, sorted *)
  | O_ids of int list (* query3 answer ids, sorted *)

type call = {
  dom : int; (* which domain issued it *)
  idx : int; (* its rank within that domain's program *)
  op : Dsl.op;
  inv : int; (* invocation stamp (shared atomic clock) *)
  res : int; (* response stamp *)
  out : outcome;
}

type history = { domains : int; calls : call array }

type verdict =
  | Linearizable
  | Violation of history (* already shrunk *)
  | Inconclusive of string

(* ------------------------------------------------------------------ *)
(* Workload generation                                                *)
(* ------------------------------------------------------------------ *)

(* Inserted ids are partitioned per domain so they are globally unique
   across the whole run — the property the memoized search relies on. *)
let id_stride = 1_000_000

let gen_program rng ~dom ~n ~universe =
  let next = ref 0 in
  let mine = ref [] in
  Array.init n (fun _ ->
      let r = Rng.int rng 100 in
      let coord () = Rng.int rng universe in
      if r < 40 || !mine = [] then begin
        let id = (dom * id_stride) + !next in
        incr next;
        mine := id :: !mine;
        Dsl.Insert (Point.make ~x:(coord ()) ~y:(coord ()) ~id)
      end
      else if r < 55 then begin
        (* mostly our own ids (contended live points), sometimes a
           foreign domain's range so deletes race inserts cross-domain *)
        let ids = Array.of_list !mine in
        let id = ids.(Rng.int rng (Array.length ids)) in
        let id =
          if Rng.int rng 4 = 0 then (id + id_stride) mod (4 * id_stride)
          else id
        in
        Dsl.Delete id
      end
      else if r < 75 then begin
        let a = coord () and b = coord () in
        Dsl.Krange { lo = min a b; hi = max a b }
      end
      else begin
        let a = coord () and b = coord () in
        Dsl.Q3 { xl = min a b; xr = max a b; yb = coord () }
      end)

(* ------------------------------------------------------------------ *)
(* Concurrent execution                                               *)
(* ------------------------------------------------------------------ *)

let run_op store op =
  match op with
  | Dsl.Insert p ->
      Shared_store.insert store p;
      O_ok
  | Dsl.Delete id -> O_bool (Shared_store.delete store id)
  | Dsl.Krange { lo; hi } -> O_pairs (Shared_store.krange store ~lo ~hi)
  | Dsl.Q3 { xl; xr; yb } ->
      O_ids
        (Shared_store.query3 store ~xl ~xr ~yb
        |> List.map Point.id |> List.sort compare)
  | _ -> O_ok (* not generated for concurrent runs *)

let run ?(b = 8) ?(checkpoint_every = 32) ?(universe = Dsl.universe) ~domains
    ~per_domain ~seed () =
  if domains < 1 then invalid_arg "Lin.run: domains < 1";
  let progs =
    Array.init domains (fun d ->
        gen_program (Rng.create (seed + (7919 * d))) ~dom:d ~n:per_domain
          ~universe)
  in
  let store = Shared_store.create ~b ~checkpoint_every [] in
  let clock = Atomic.make 0 in
  let gate = Atomic.make domains in
  let run_domain d =
    (* all domains spin at the gate so programs start together *)
    Atomic.decr gate;
    while Atomic.get gate > 0 do
      Domain.cpu_relax ()
    done;
    Array.mapi
      (fun idx op ->
        let inv = Atomic.fetch_and_add clock 1 in
        let out = run_op store op in
        let res = Atomic.fetch_and_add clock 1 in
        { dom = d; idx; op; inv; res; out })
      progs.(d)
  in
  let workers =
    Array.init (domains - 1) (fun i ->
        Domain.spawn (fun () -> run_domain (i + 1)))
  in
  let mine = run_domain 0 in
  let calls =
    Array.concat (mine :: Array.to_list (Array.map Domain.join workers))
  in
  (store, { domains; calls })

(* ------------------------------------------------------------------ *)
(* The oracle step                                                    *)
(* ------------------------------------------------------------------ *)

(* [step state c] is [Some state'] when the observed outcome of [c] is
   consistent with linearizing it at a moment when the live set is
   [state]; queries use the same normalizations as the sequential
   harness (sorted (key, value) pairs, sorted ids). *)
let step state (c : call) =
  match (c.op, c.out) with
  | Dsl.Insert p, O_ok -> Some (IntMap.add p.id p state)
  | Dsl.Delete id, O_bool present ->
      if IntMap.mem id state = present then Some (IntMap.remove id state)
      else None
  | Dsl.Krange { lo; hi }, O_pairs obs ->
      let expect =
        IntMap.fold
          (fun _ (p : Point.t) acc ->
            if lo <= p.x && p.x <= hi then (p.x, p.y) :: acc else acc)
          state []
        |> List.sort compare
      in
      if expect = obs then Some state else None
  | Dsl.Q3 { xl; xr; yb }, O_ids obs ->
      let expect =
        IntMap.fold
          (fun id (p : Point.t) acc ->
            if xl <= p.x && p.x <= xr && p.y >= yb then id :: acc else acc)
          state []
        |> List.sort compare
      in
      if expect = obs then Some state else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Linearizability decision                                           *)
(* ------------------------------------------------------------------ *)

exception Exhausted

let decide ?(budget = 2_000_000) calls =
  let ndom = Array.fold_left (fun m c -> max m (c.dom + 1)) 1 calls in
  let per_dom = Array.make ndom [] in
  Array.iter (fun c -> per_dom.(c.dom) <- c :: per_dom.(c.dom)) calls;
  let per_dom =
    Array.map
      (fun l ->
        Array.of_list (List.sort (fun a b -> compare a.idx b.idx) l))
      per_dom
  in
  let total = Array.length calls in
  let positions = Array.make ndom 0 in
  let memo = Hashtbl.create 4096 in
  let steps = ref 0 in
  let rec search state depth =
    depth = total
    || (not (Hashtbl.mem memo positions))
       &&
       begin
         incr steps;
         if !steps > budget then raise Exhausted;
         (* frontier: each domain's next un-linearized call; of those,
            only calls invoked before the earliest frontier response may
            linearize first (any completed call precedes them) *)
         let frontier = ref [] in
         let min_res = ref max_int in
         Array.iteri
           (fun d pos ->
             if pos < Array.length per_dom.(d) then begin
               let c = per_dom.(d).(pos) in
               frontier := (d, c) :: !frontier;
               if c.res < !min_res then min_res := c.res
             end)
           positions;
         let ok =
           List.exists
             (fun (d, c) ->
               c.inv < !min_res
               &&
               match step state c with
               | None -> false
               | Some state' ->
                   positions.(d) <- positions.(d) + 1;
                   let r = search state' (depth + 1) in
                   positions.(d) <- positions.(d) - 1;
                   r)
             !frontier
         in
         if not ok then Hashtbl.add memo (Array.copy positions) ();
         ok
       end
  in
  search IntMap.empty 0

(* Shrink a violating history to a minimal still-violating sub-history.
   Subsequences preserve per-domain program order and keep the original
   stamps, so the checker's real-time order is meaningful on every
   candidate; a candidate the budget cannot decide is treated as
   passing, which keeps the shrink sound (never returns a non-violating
   history). *)
let shrink_violation ?budget calls =
  let fails cs =
    Array.length cs > 0
    && match decide ?budget cs with v -> not v | exception Exhausted -> false
  in
  if not (fails calls) then calls else Shrink.minimize fails calls

let check ?budget (h : history) =
  match decide ?budget h.calls with
  | true -> Linearizable
  | false ->
      Violation { h with calls = shrink_violation ?budget h.calls }
  | exception Exhausted ->
      Inconclusive
        (Printf.sprintf
           "linearizability search exhausted its budget on %d calls"
           (Array.length h.calls))

(* ------------------------------------------------------------------ *)
(* History (de)serialization — the concurrent .repro format           *)
(* ------------------------------------------------------------------ *)

let magic = "pathcache-lin 1"

let outcome_to_string = function
  | O_ok -> "ok"
  | O_bool b -> Printf.sprintf "bool %b" b
  | O_pairs l ->
      "pairs "
      ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) l)
  | O_ids l -> "ids " ^ String.concat "," (List.map string_of_int l)

let outcome_of_string s =
  match String.index_opt s ' ' with
  (* an empty result list serializes as "pairs " / "ids " and line
     trimming strips the trailing space, so the bare keyword must
     round-trip too *)
  | None -> (
      match s with
      | "ok" -> Some O_ok
      | "pairs" -> Some (O_pairs [])
      | "ids" -> Some (O_ids [])
      | _ -> None)
  | Some i -> (
      let key = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      let ints sep str =
        if String.trim str = "" then Some []
        else
          try
            Some
              (String.split_on_char sep str
              |> List.map (fun w -> int_of_string (String.trim w)))
          with _ -> None
      in
      match key with
      | "bool" -> ( try Some (O_bool (bool_of_string v)) with _ -> None)
      | "ids" -> Option.map (fun l -> O_ids l) (ints ',' v)
      | "pairs" ->
          if String.trim v = "" then Some (O_pairs [])
          else begin
            try
              Some
                (O_pairs
                   (String.split_on_char ',' v
                   |> List.map (fun w ->
                          match String.split_on_char ':' (String.trim w) with
                          | [ a; b ] -> (int_of_string a, int_of_string b)
                          | _ -> failwith "pair")))
            with _ -> None
          end
      | _ -> None)

let call_to_string c =
  Printf.sprintf "call %d %d %d %d | %s | %s" c.dom c.idx c.inv c.res
    (Dsl.to_string c.op)
    (outcome_to_string c.out)

let call_of_string line =
  match String.split_on_char '|' line with
  | [ hd; op_s; out_s ] -> (
      match
        String.split_on_char ' ' (String.trim hd)
        |> List.filter (fun w -> w <> "")
      with
      | [ "call"; dom; idx; inv; res ] -> (
          try
            match
              (Dsl.of_string (String.trim op_s),
               outcome_of_string (String.trim out_s))
            with
            | Some op, Some out ->
                Some
                  {
                    dom = int_of_string dom;
                    idx = int_of_string idx;
                    inv = int_of_string inv;
                    res = int_of_string res;
                    op;
                    out;
                  }
            | _ -> None
          with _ -> None)
      | _ -> None)
  | _ -> None

let to_string (h : history) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "domains %d\n" h.domains);
  Buffer.add_string buf (Printf.sprintf "calls %d\n" (Array.length h.calls));
  Array.iter
    (fun c ->
      Buffer.add_string buf (call_to_string c);
      Buffer.add_char buf '\n')
    h.calls;
  Buffer.contents buf

let of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char '\n' s with
  | m :: rest when String.trim m = magic ->
      let domains = ref 1 and ncalls = ref (-1) and calls = ref [] in
      let rec go = function
        | [] -> Ok ()
        | line :: rest -> (
            let line = String.trim line in
            if line = "" then go rest
            else if String.length line >= 5 && String.sub line 0 5 = "call " then
              match call_of_string line with
              | Some c ->
                  calls := c :: !calls;
                  go rest
              | None -> err "unparsable call line %S" line
            else
              match String.split_on_char ' ' line with
              | [ "domains"; v ] ->
                  domains := int_of_string v;
                  go rest
              | [ "calls"; v ] ->
                  ncalls := int_of_string v;
                  go rest
              | _ -> err "unparsable header line %S" line)
      in
      (match go rest with
      | Error _ as e -> e
      | Ok () ->
          let calls = Array.of_list (List.rev !calls) in
          if !ncalls >= 0 && Array.length calls <> !ncalls then
            err "calls header says %d, file has %d" !ncalls
              (Array.length calls)
          else Ok { domains = !domains; calls })
  | _ -> Error "not a pathcache-lin history file"

let is_history_file path =
  match open_in path with
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      String.trim line = magic
  | exception Sys_error _ -> false

let save h path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string h))

let load path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error m -> Error m

let pp_call ppf c =
  Format.fprintf ppf "d%d#%d [%d,%d] %s => %s" c.dom c.idx c.inv c.res
    (Dsl.to_string c.op)
    (outcome_to_string c.out)

let pp_history ppf h =
  Format.fprintf ppf "%d domains, %d calls:@." h.domains (Array.length h.calls);
  Array.iter (fun c -> Format.fprintf ppf "  %a@." pp_call c) h.calls
