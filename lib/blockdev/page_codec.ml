exception Corrupt_page of { page : int; reason : string }
exception Overflow of { page : int; need : int; room : int }

let () =
  Printexc.register_printer (function
    | Corrupt_page { page; reason } ->
        Some (Printf.sprintf "Page_codec.Corrupt_page(page %d: %s)" page reason)
    | Overflow { page; need; room } ->
        Some
          (Printf.sprintf "Page_codec.Overflow(page %d: %d bytes into %d)" page
             need room)
    | _ -> None)

type 'a t = {
  name : string;
  kind : int;
  enc : Buffer.t -> 'a -> unit;
  dec : bytes -> int -> 'a * int;
}

let header_bytes = 32
let magic = "PCPG"
let version = 1

let page_size ~max_cell_bytes ~capacity =
  let raw = header_bytes + (max_cell_bytes * capacity) in
  (raw + 511) / 512 * 512

(* --- checksum ------------------------------------------------------ *)

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L
let mix h v = Int64.mul (Int64.logxor h (Int64.of_int v)) fnv_prime

let crc64 b ~pos ~len =
  let h = ref (mix fnv_offset len) in
  for i = pos to pos + len - 1 do
    h := mix !h (Char.code (Bytes.get b i))
  done;
  !h

(* --- primitive cell fields ----------------------------------------- *)

let corrupt page reason = raise (Corrupt_page { page; reason })

let put_int buf (v : int) =
  let v = Int64.of_int v in
  for byte = 0 to 7 do
    Buffer.add_char buf
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * byte)) 0xFFL)))
  done

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let get_int ~page b pos =
  if pos < 0 || pos + 8 > Bytes.length b then
    corrupt page (Printf.sprintf "cell field at %d overruns the page" pos);
  Int64.to_int (Bytes.get_int64_le b pos)

let get_u8 ~page b pos =
  if pos < 0 || pos >= Bytes.length b then
    corrupt page (Printf.sprintf "cell tag at %d overruns the page" pos);
  Char.code (Bytes.get b pos)

(* --- page image ----------------------------------------------------- *)

let encode codec ~page_bytes ~page cells =
  let buf = Buffer.create 256 in
  Array.iter (codec.enc buf) cells;
  let payload = Buffer.to_bytes buf in
  let plen = Bytes.length payload in
  let room = page_bytes - header_bytes in
  if plen > room then raise (Overflow { page; need = plen; room });
  if Array.length cells > 0xFFFF then
    invalid_arg "Page_codec.encode: more than 65535 cells";
  let img = Bytes.make page_bytes '\000' in
  Bytes.blit_string magic 0 img 0 4;
  Bytes.set_uint8 img 4 version;
  Bytes.set_uint8 img 5 codec.kind;
  Bytes.set_uint16_le img 6 (Array.length cells);
  Bytes.set_int32_le img 8 (Int32.of_int plen);
  Bytes.set_int64_le img 12 (Int64.of_int page);
  Bytes.blit payload 0 img header_bytes plen;
  (* checksum covers the header (sans itself) and the payload, computed
     over the contiguous image so a torn sector anywhere in range
     invalidates it *)
  let crc =
    Int64.logxor
      (crc64 img ~pos:0 ~len:24)
      (crc64 img ~pos:header_bytes ~len:plen)
  in
  Bytes.set_int64_le img 24 crc;
  img

let header_crc img = Bytes.get_int64_le img 24

let decode codec ~page img =
  let len = Bytes.length img in
  if len < header_bytes then corrupt page "image shorter than the header";
  if Bytes.sub_string img 0 4 <> magic then
    corrupt page
      (if Bytes.sub_string img 0 (String.length Block_device.trim_stamp)
          = Block_device.trim_stamp
       then "page was trimmed"
       else "bad magic");
  let v = Bytes.get_uint8 img 4 in
  if v <> version then corrupt page (Printf.sprintf "format version %d" v);
  let kind = Bytes.get_uint8 img 5 in
  if kind <> codec.kind then
    corrupt page
      (Printf.sprintf "kind tag %d, expected %d (%s)" kind codec.kind codec.name);
  let count = Bytes.get_uint16_le img 6 in
  let plen = Int32.to_int (Bytes.get_int32_le img 8) in
  if plen < 0 || header_bytes + plen > len then
    corrupt page (Printf.sprintf "payload length %d overruns the page" plen);
  let stored_id = Int64.to_int (Bytes.get_int64_le img 12) in
  if stored_id <> page then
    corrupt page (Printf.sprintf "image belongs to page %d" stored_id);
  let crc =
    Int64.logxor (crc64 img ~pos:0 ~len:24) (crc64 img ~pos:header_bytes ~len:plen)
  in
  (* compare against the stored field without mutating the caller's
     buffer: recompute with the field zeroed is avoided by checksumming
     around it (the field sits at [24, 32), outside both ranges) *)
  if Bytes.get_int64_le img 24 <> crc then corrupt page "checksum mismatch";
  let pos = ref header_bytes in
  let limit = header_bytes + plen in
  let cells =
    Array.init count (fun _ ->
        if !pos >= limit then corrupt page "cell count overruns the payload";
        let cell, next =
          try codec.dec img !pos
          with Corrupt_page { reason; _ } -> corrupt page reason
        in
        if next > limit || next <= !pos then
          corrupt page "cell decoder overran the payload";
        pos := next;
        cell)
  in
  if !pos <> limit then corrupt page "trailing bytes after the last cell";
  cells

(* --- stock codecs --------------------------------------------------- *)

let int_cell =
  {
    name = "int";
    kind = 1;
    enc = put_int;
    dec = (fun b pos -> (get_int ~page:(-1) b pos, pos + 8));
  }

let point =
  {
    name = "point";
    kind = 2;
    enc =
      (fun buf (p : Pc_util.Point.t) ->
        put_int buf p.x;
        put_int buf p.y;
        put_int buf p.id);
    dec =
      (fun b pos ->
        let g = get_int ~page:(-1) b in
        ( Pc_util.Point.make ~x:(g pos) ~y:(g (pos + 8)) ~id:(g (pos + 16)),
          pos + 24 ));
  }
