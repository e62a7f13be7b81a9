(* Page fingerprints for value pages (see DESIGN.md §12).

   A pager without a block-device backend stores OCaml values, not byte
   images, so a page's integrity value is a deterministic structural
   fingerprint: an FNV-1a fold over the page length and a depth-limited
   traversal of each record. The traversal visits immediates, string
   bytes and block shapes down to [max_depth] levels and then stops, so
   it never descends into handles a record might carry (e.g. a B-tree
   handle inside an [Ext_range] descriptor reaches its pager only below
   the cut-off) — the fingerprint depends only on the page's own
   payload, never on mutable machinery behind it.

   This detects every corruption the simulator can produce: a torn
   write changes the page length (and the record shapes), and the
   explicit rot hook invalidates the stored value directly. Byte pages
   carry [Page_codec]'s crc64 instead and are never fingerprinted. *)

let max_depth = 3

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let mix (h : int64) (v : int) : int64 =
  Int64.mul (Int64.logxor h (Int64.of_int v)) fnv_prime

let mix_string h s =
  let h = ref (mix h (String.length s)) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

let rec fp depth h (o : Obj.t) =
  if Obj.is_int o then mix h ((2 * (Obj.obj o : int)) + 1)
  else
    let tag = Obj.tag o in
    if tag = Obj.string_tag then mix_string (mix h tag) (Obj.obj o : string)
    else if tag = Obj.double_tag then
      mix (mix h tag) (Int64.to_int (Int64.bits_of_float (Obj.obj o : float)))
    else if tag >= Obj.no_scan_tag then
      (* custom / abstract blocks: shape only *)
      mix (mix h tag) (Obj.size o)
    else begin
      let h = ref (mix (mix h tag) (Obj.size o)) in
      if depth > 0 then
        for i = 0 to Obj.size o - 1 do
          h := fp (depth - 1) !h (Obj.field o i)
        done;
      !h
    end

(** Fingerprint of a page payload; [None] encodes a freed page. *)
let payload (p : Obj.t array option) : int64 =
  match p with
  | None -> fnv_offset
  | Some arr ->
      let h = ref (mix fnv_offset (Array.length arr)) in
      Array.iter (fun c -> h := fp max_depth !h c) arr;
      !h

(** An intentionally-invalid sibling of [c] — the rot hook's
    ([Pager.corrupt_page]) stored integrity value. *)
let spoil (c : int64) : int64 = Int64.logxor c 0x5A5A5A5AL
