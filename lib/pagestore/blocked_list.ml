type 'a t = { pages : int array; len : int }

let store pager xs =
  let b = Pager.page_capacity pager in
  let blocks = Pc_util.Blocked.chunk ~b xs in
  let pages = List.map (Pager.alloc pager) blocks |> Array.of_list in
  { pages; len = List.length xs }

let store_array pager arr =
  let b = Pager.page_capacity pager in
  let blocks = Pc_util.Blocked.chunk_array ~b arr in
  let pages = List.map (Pager.alloc pager) blocks |> Array.of_list in
  { pages; len = Array.length arr }

let length t = t.len
let num_blocks t = Array.length t.pages
let is_empty t = t.len = 0

let read_all pager t =
  Array.to_list t.pages
  |> List.concat_map (fun id -> Array.to_list (Pager.read pager id))

let iter_prefix_from pager t ~from ~keep f =
  let nblocks = Array.length t.pages in
  let rec loop reads i =
    if i >= nblocks then reads
    else begin
      let complete = ref true in
      Array.iter
        (fun x -> if keep x then f x else complete := false)
        (Pager.read pager t.pages.(i));
      if !complete then loop (reads + 1) (i + 1) else reads + 1
    end
  in
  loop 0 (max 0 from)

let scan_prefix_from pager t ~from ~keep =
  let acc = ref [] in
  let reads =
    iter_prefix_from pager t ~from ~keep (fun x -> acc := x :: !acc)
  in
  (List.rev !acc, reads)

let scan_prefix pager t ~keep = scan_prefix_from pager t ~from:0 ~keep

let free pager t = Array.iter (Pager.free pager) t.pages
let to_ids t = (Array.copy t.pages, t.len)
let of_ids (pages, len) = { pages = Array.copy pages; len }
