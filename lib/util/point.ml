type t = { x : int; y : int; id : int }

let make ~x ~y ~id = { x; y; id }
let x p = p.x
let y p = p.y
let id p = p.id

let compare_xy a b =
  let c = compare a.x b.x in
  if c <> 0 then c
  else
    let c = compare a.y b.y in
    if c <> 0 then c else compare a.id b.id

let compare_yx a b =
  let c = compare a.y b.y in
  if c <> 0 then c
  else
    let c = compare a.x b.x in
    if c <> 0 then c else compare a.id b.id

let compare_x_desc a b =
  let c = compare b.x a.x in
  if c <> 0 then c else compare a.id b.id

let compare_y_desc a b =
  let c = compare b.y a.y in
  if c <> 0 then c else compare a.id b.id

let compare_id a b = compare a.id b.id
let equal a b = a.id = b.id && a.x = b.x && a.y = b.y
let pp ppf p = Format.fprintf ppf "#%d(%d,%d)" p.id p.x p.y
let to_string p = Format.asprintf "%a" pp p

(* Open addressing over 2^bits [int] slots, at most half full: a
   multiplicative hash (2^63 over the golden ratio, made odd) picks a
   key's first slot, and linear probing the next ones. [min_int] marks
   an empty slot, so a key equal to it is remembered by a flag of its
   own. The slots are made per call, never shared: readers on several
   domains deduplicate at once. They come in arrays of at most 256, the
   largest the minor heap takes: one array of 2 048 slots, the size for
   an 800-point answer, would go to the major heap on every query and
   raise a served store's peak RSS (DESIGN.md §4). *)
let dedup_by_key key l =
  match l with
  | [] | [ _ ] -> l
  | _ ->
      let bits = Num_util.ceil_log2 (2 * List.length l) in
      let mask = (1 lsl bits) - 1 in
      let slots =
        Array.init ((mask lsr 8) + 1) (fun _ ->
            Array.make (min 256 (mask + 1)) min_int)
      in
      let seen_min_int = ref false in
      let rec fresh k i =
        let chunk = slots.(i lsr 8) in
        let s = chunk.(i land 255) in
        if s = min_int then begin
          chunk.(i land 255) <- k;
          true
        end
        else s <> k && fresh k ((i + 1) land mask)
      in
      List.filter
        (fun x ->
          let k = key x in
          if k = min_int then begin
            let first = not !seen_min_int in
            seen_min_int := true;
            first
          end
          else fresh k ((k * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - bits)))
        l

let dedup_by_id pts = dedup_by_key id pts
