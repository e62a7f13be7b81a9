type backend = Mem | File of { path : string }

type error_class = Transient | Permanent | Stalled

let class_name = function
  | Transient -> "transient"
  | Permanent -> "permanent"
  | Stalled -> "stalled"

exception
  Device_error of {
    dev : string;
    op : string;
    page : int;
    reason : string;
    cls : error_class;
  }

let () =
  Printexc.register_printer (function
    | Device_error { dev; op; page; reason; cls } ->
        Some
          (Printf.sprintf "Block_device.Device_error(%s: %s page %d: %s [%s])"
             dev op page reason (class_name cls))
    | _ -> None)

type t = {
  name : string;
  backend : backend;
  page_bytes : int;
  sector_bytes : int;
  read_page : int -> bytes;
  write_page : int -> bytes -> unit;
  write_sectors : int -> bytes -> int -> unit;
  flush : unit -> unit;
  trim : int -> unit;
  close : unit -> unit;
  size_pages : unit -> int;
}

let trim_stamp = "PCTRIMMD"

let check_geometry ~who ~page_bytes ~sector_bytes =
  if sector_bytes <= 0 then
    invalid_arg (who ^ ": sector_bytes must be positive");
  if page_bytes <= 0 || page_bytes mod sector_bytes <> 0 then
    invalid_arg (who ^ ": page_bytes must be a positive multiple of sector_bytes")

let fail_class cls name op page reason =
  raise (Device_error { dev = name; op; page; reason; cls })

(* Structural errors (unknown page, bad geometry, closed device) are
   permanent: retrying the same transfer can never succeed. *)
let fail name op page reason = fail_class Permanent name op page reason

(* The in-memory byte device: a growable table of page images. This is
   the storage core the old simulator kept implicitly inside the pager,
   now byte-typed and behind the device interface; the file backend is
   behaviourally identical modulo durability. *)
let mem ?(sector_bytes = 512) ~page_bytes () =
  check_geometry ~who:"Block_device.mem" ~page_bytes ~sector_bytes;
  let name = "mem" in
  let pages : (int, bytes) Hashtbl.t = Hashtbl.create 64 in
  let hi = ref 0 in
  let closed = ref false in
  let check op page =
    if !closed then fail name op page "device closed";
    if page < 0 then fail name op page "negative page id"
  in
  let check_len op page b =
    if Bytes.length b <> page_bytes then
      fail name op page
        (Printf.sprintf "buffer is %d bytes, page is %d" (Bytes.length b)
           page_bytes)
  in
  let note page = if page >= !hi then hi := page + 1 in
  {
    name;
    backend = Mem;
    page_bytes;
    sector_bytes;
    read_page =
      (fun page ->
        check "read_page" page;
        match Hashtbl.find_opt pages page with
        | Some b -> Bytes.copy b
        | None -> fail name "read_page" page "page never written");
    write_page =
      (fun page b ->
        check "write_page" page;
        check_len "write_page" page b;
        Hashtbl.replace pages page (Bytes.copy b);
        note page);
    write_sectors =
      (fun page b k ->
        check "write_sectors" page;
        check_len "write_sectors" page b;
        let nsec = page_bytes / sector_bytes in
        if k < 0 || k > nsec then
          fail name "write_sectors" page
            (Printf.sprintf "%d sectors outside [0, %d]" k nsec);
        let prev =
          match Hashtbl.find_opt pages page with
          | Some old -> Bytes.copy old
          | None -> Bytes.make page_bytes '\000'
        in
        Bytes.blit b 0 prev 0 (k * sector_bytes);
        Hashtbl.replace pages page prev;
        note page);
    flush = (fun () -> if !closed then fail name "flush" (-1) "device closed");
    trim =
      (fun page ->
        check "trim" page;
        let b = Bytes.make page_bytes '\000' in
        Bytes.blit_string trim_stamp 0 b 0 (String.length trim_stamp);
        Hashtbl.replace pages page b;
        note page);
    close = (fun () -> closed := true);
    size_pages = (fun () -> !hi);
  }
