(* Deterministic fault plans for the simulated block device. A plan
   counts armed device transfers and answers "what happens to this one".
   A transient burst is the one fault the plan raises itself, as typed
   [Block_device] errors, so the pager retries it in the same loop as a
   real device's; everything else about *how* a fault manifests (torn
   prefix length, retry charging) lives in [Pager], which owns the
   device. *)

type kind =
  | Fail_stop of { at : int }
  | Transient of { every : int; fails : int; retries : int }
  | Torn_write of { at : int }

let pp_kind ppf = function
  | Fail_stop { at } -> Format.fprintf ppf "fail_stop@%d" at
  | Transient { every; fails; retries } ->
      Format.fprintf ppf "transient e=%d f=%d r=%d" every fails retries
  | Torn_write { at } -> Format.fprintf ppf "torn_write@%d" at

let kind_to_string k = Format.asprintf "%a" pp_kind k

let kind_of_string s =
  let s = String.trim s in
  try
    if String.length s > 10 && String.sub s 0 10 = "fail_stop@" then
      Some
        (Fail_stop { at = int_of_string (String.sub s 10 (String.length s - 10)) })
    else if String.length s > 11 && String.sub s 0 11 = "torn_write@" then
      Some
        (Torn_write
           { at = int_of_string (String.sub s 11 (String.length s - 11)) })
    else
      Scanf.sscanf s "transient e=%d f=%d r=%d" (fun every fails retries ->
          Some (Transient { every; fails; retries }))
  with _ -> None

type t = {
  kind : kind;
  mutable armed : bool;
  mutable accesses : int; (* armed device transfers seen *)
  mutable reads : int; (* armed reads seen (Transient counts these) *)
  mutable writes : int; (* armed writes seen (Torn_write counts these) *)
  mutable injected : int; (* device errors injected *)
}

let validate = function
  | Fail_stop { at } ->
      if at < 1 then invalid_arg "Fault_plan: fail_stop at must be >= 1"
  | Transient { every; fails; retries } ->
      if every < 1 then invalid_arg "Fault_plan: transient every must be >= 1";
      if fails < 1 then invalid_arg "Fault_plan: transient fails must be >= 1";
      if retries < 0 then invalid_arg "Fault_plan: transient retries must be >= 0"
  | Torn_write { at } ->
      if at < 1 then invalid_arg "Fault_plan: torn_write at must be >= 1"

let make kind =
  validate kind;
  { kind; armed = true; accesses = 0; reads = 0; writes = 0; injected = 0 }

let kind t = t.kind
let arm t = t.armed <- true
let disarm t = t.armed <- false
let injected t = t.injected

type decision =
  | Proceed
  | Deny
  | Transient_burst of { retries : int; strike : page:int -> unit }
  | Tear

(* The burst's failures are counted where they are raised: one per
   attempt the pager makes while the burst lasts. *)
let burst t ~fails ~retries =
  let left = ref fails in
  let strike ~page =
    if !left > 0 then begin
      decr left;
      t.injected <- t.injected + 1;
      Pc_blockdev.Block_device.fail_class Pc_blockdev.Block_device.Transient
        "sim" "read_page" page "injected transient burst"
    end
  in
  Transient_burst { retries; strike }

let decide t ~write =
  if not t.armed then Proceed
  else begin
    t.accesses <- t.accesses + 1;
    if write then t.writes <- t.writes + 1 else t.reads <- t.reads + 1;
    match t.kind with
    | Fail_stop { at } ->
        if t.accesses >= at then begin
          t.injected <- t.injected + 1;
          Deny
        end
        else Proceed
    | Transient { every; fails; retries } ->
        if (not write) && t.reads mod every = 0 then burst t ~fails ~retries
        else Proceed
    | Torn_write { at } ->
        if write && t.writes = at then begin
          t.injected <- t.injected + 1;
          Tear
        end
        else Proceed
  end
