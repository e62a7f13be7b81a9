open Block_device

(* Full-buffer read/write loops over a seeked fd: single-threaded
   pread/pwrite. OCaml 5.1's Unix has no pread binding, and one seek per
   page transfer is faithful enough for a wall-clock model. *)
let really_write fd b pos len =
  let off = ref pos in
  let remaining = ref len in
  while !remaining > 0 do
    let n = Unix.write fd b !off !remaining in
    off := !off + n;
    remaining := !remaining - n
  done

let really_read fd b pos len =
  let off = ref pos in
  let remaining = ref len in
  while !remaining > 0 do
    let n = Unix.read fd b !off !remaining in
    if n = 0 then raise End_of_file;
    off := !off + n;
    remaining := !remaining - n
  done

let create ?(sector_bytes = 512) ~path ~page_bytes () =
  check_geometry ~who:"File_dev.create" ~page_bytes ~sector_bytes;
  let name = Printf.sprintf "file:%s" (Filename.basename path) in
  let os op page f =
    try f ()
    with Unix.Unix_error (e, fn, _) ->
      raise
        (Device_error
           {
             dev = name;
             op;
             page;
             reason = fn ^ ": " ^ Unix.error_message e;
             cls = Permanent;
           })
  in
  let fd =
    os "open" (-1) (fun () -> Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644)
  in
  let closed = ref false in
  let check op page =
    if !closed then fail name op page "device closed";
    if page < 0 then fail name op page "negative page id"
  in
  let file_len () = os "stat" (-1) (fun () -> (Unix.fstat fd).Unix.st_size) in
  let write_n page b len =
    check "write_page" page;
    if Bytes.length b <> page_bytes then
      fail name "write_page" page
        (Printf.sprintf "buffer is %d bytes, page is %d" (Bytes.length b)
           page_bytes);
    os "write_page" page (fun () ->
        ignore (Unix.lseek fd (page * page_bytes) Unix.SEEK_SET);
        really_write fd b 0 len)
  in
  {
    name;
    backend = File { path };
    page_bytes;
    sector_bytes;
    read_page =
      (fun page ->
        check "read_page" page;
        let off = page * page_bytes in
        if off + page_bytes > file_len () then
          fail name "read_page" page "past end of file";
        let b = Bytes.create page_bytes in
        os "read_page" page (fun () ->
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            try really_read fd b 0 page_bytes
            with End_of_file -> fail name "read_page" page "short read");
        b);
    write_page = (fun page b -> write_n page b page_bytes);
    write_sectors =
      (fun page b k ->
        let nsec = page_bytes / sector_bytes in
        if k < 0 || k > nsec then
          fail name "write_sectors" page
            (Printf.sprintf "%d sectors outside [0, %d]" k nsec);
        (* extend the file to full page size first so the untransferred
           tail reads back as zeros, like a real partially-flushed page *)
        if (page + 1) * page_bytes > file_len () then
          os "truncate" page (fun () ->
              Unix.ftruncate fd ((page + 1) * page_bytes));
        write_n page b (k * sector_bytes));
    flush =
      (fun () ->
        if !closed then fail name "flush" (-1) "device closed";
        os "flush" (-1) (fun () -> Unix.fsync fd));
    trim =
      (fun page ->
        check "trim" page;
        let b = Bytes.make page_bytes '\000' in
        Bytes.blit_string trim_stamp 0 b 0 (String.length trim_stamp);
        write_n page b page_bytes);
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          os "close" (-1) (fun () -> Unix.close fd)
        end);
    size_pages = (fun () -> (file_len () + page_bytes - 1) / page_bytes);
  }
