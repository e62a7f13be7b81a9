let magic = "PCJR"
let wal_path ~dir = Filename.concat dir "wal.log"
let super_a_path ~dir = Filename.concat dir "super.a"
let super_b_path ~dir = Filename.concat dir "super.b"

type t = {
  t_dir : string;
  mutable fd : Unix.file_descr;
  mutable torn_tail : int option;
      (* offset of a deliberately half-written record; the next append
         truncates back to it first *)
  mutable epoch : int; (* epoch of the newest valid superblock slot *)
  mutable cur_slot : [ `A | `B ] option;
      (* slot holding that superblock; the next write goes to the OTHER
         slot, so the current one stays readable through any crash *)
  mutable closed : bool;
}

let oserr fn what =
  try fn ()
  with Unix.Unix_error (e, f, _) ->
    raise
      (Block_device.Device_error
         {
           dev = "wal";
           op = what;
           page = -1;
           reason = f ^ ": " ^ Unix.error_message e;
           cls = Permanent;
         })

let really_write fd b pos len =
  let off = ref pos and remaining = ref len in
  while !remaining > 0 do
    let n = Unix.write fd b !off !remaining in
    off := !off + n;
    remaining := !remaining - n
  done

let fsync_dir dir =
  oserr
    (fun () ->
      let dfd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close dfd) (fun () -> Unix.fsync dfd))
    "fsync-dir"

(* --- read-only helpers (shared by open and scan) ------------------- *)

let read_file path =
  if not (Sys.file_exists path) then None
  else
    Some
      (oserr
         (fun () ->
           let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
           Fun.protect
             ~finally:(fun () -> Unix.close fd)
             (fun () ->
               let len = (Unix.fstat fd).Unix.st_size in
               let b = Bytes.create len in
               let off = ref 0 in
               while !off < len do
                 let n = Unix.read fd b !off (len - !off) in
                 if n = 0 then raise End_of_file;
                 off := !off + n
               done;
               b))
         "read")

let scan_one b off =
  let len = Bytes.length b in
  if off + 16 > len then None
  else if Bytes.sub_string b off 4 <> magic then None
  else
    let plen = Int32.to_int (Bytes.get_int32_le b (off + 4)) in
    if plen < 0 || off + 16 + plen > len then None
    else
      let payload = Bytes.sub b (off + 16) plen in
      if Page_codec.crc64 payload ~pos:0 ~len:plen <> Bytes.get_int64_le b (off + 8)
      then None
      else Some (payload, off + 16 + plen)

(* A mirrored slot holds one frame whose payload is [u64 epoch | super
   payload]; a torn or missing slot reads as [None]. *)
let scan_slot path =
  match read_file path with
  | None -> None
  | Some b -> (
      match scan_one b 0 with
      | None -> None
      | Some (p, _) when Bytes.length p < 8 -> None
      | Some (p, _) ->
          Some
            ( Int64.to_int (Bytes.get_int64_le p 0),
              Bytes.sub p 8 (Bytes.length p - 8) ))

(* Newest valid superblock across the two mirror slots; on an epoch tie
   slot A wins. *)
let best_super ~dir =
  let slot tag path = Option.map (fun (e, p) -> (e, tag, p)) (scan_slot path) in
  match (slot `A (super_a_path ~dir), slot `B (super_b_path ~dir)) with
  | None, c | c, None -> c
  | (Some (ea, _, _) as a), (Some (eb, _, _) as b) -> if eb > ea then b else a

let open_dir ~dir =
  oserr (fun () -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755) "mkdir";
  let fd =
    oserr
      (fun () ->
        Unix.openfile (wal_path ~dir) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644)
      "open"
  in
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  let epoch, cur_slot =
    match best_super ~dir with
    | Some (e, slot, _) -> (e, Some slot)
    | None -> (0, None)
  in
  { t_dir = dir; fd; torn_tail = None; epoch; cur_slot; closed = false }

let dir t = t.t_dir

let check t op =
  if t.closed then
    raise
      (Block_device.Device_error
         { dev = "wal"; op; page = -1; reason = "store closed"; cls = Permanent })

let frame payload =
  let plen = Bytes.length payload in
  let b = Bytes.create (16 + plen) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_int32_le b 4 (Int32.of_int plen);
  Bytes.set_int64_le b 8 (Page_codec.crc64 payload ~pos:0 ~len:plen);
  Bytes.blit payload 0 b 16 plen;
  b

let heal t =
  match t.torn_tail with
  | None -> ()
  | Some off ->
      oserr (fun () -> Unix.ftruncate t.fd off) "truncate";
      ignore (Unix.lseek t.fd off Unix.SEEK_SET);
      t.torn_tail <- None

let append t payload =
  check t "append";
  heal t;
  let b = frame payload in
  oserr (fun () -> really_write t.fd b 0 (Bytes.length b)) "append"

let append_torn t payload =
  check t "append_torn";
  heal t;
  let off = oserr (fun () -> Unix.lseek t.fd 0 Unix.SEEK_CUR) "seek" in
  let b = frame payload in
  let half = Bytes.length b / 2 in
  oserr (fun () -> really_write t.fd b 0 half) "append_torn";
  t.torn_tail <- Some off

let sync t =
  check t "sync";
  oserr (fun () -> Unix.fsync t.fd) "sync"

(* A/B mirrored superblock: each write stamps the next epoch and lands
   in-place on the slot NOT holding the newest valid superblock, so at
   every instant — including mid-write and mid-crash — at least one slot
   carries a whole, checksummed superblock. Picking the winner is
   {!best_super}'s highest-valid-epoch rule; no rename window, no instant
   with zero readable superblocks. *)
let write_super t payload =
  check t "write_super";
  let epoch = t.epoch + 1 in
  let target = match t.cur_slot with Some `A -> `B | Some `B | None -> `A in
  let path =
    match target with
    | `A -> super_a_path ~dir:t.t_dir
    | `B -> super_b_path ~dir:t.t_dir
  in
  let existed = Sys.file_exists path in
  let stamped = Bytes.create (8 + Bytes.length payload) in
  Bytes.set_int64_le stamped 0 (Int64.of_int epoch);
  Bytes.blit payload 0 stamped 8 (Bytes.length payload);
  oserr
    (fun () ->
      let fd =
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let b = frame stamped in
          really_write fd b 0 (Bytes.length b);
          Unix.fsync fd))
    "write_super";
  if not existed then fsync_dir t.t_dir;
  t.epoch <- epoch;
  t.cur_slot <- Some target;
  (* the superblock supersedes the journal: truncate it *)
  t.torn_tail <- None;
  oserr (fun () -> Unix.ftruncate t.fd 0) "truncate";
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  oserr (fun () -> Unix.fsync t.fd) "sync"

let close t =
  if not t.closed then begin
    t.closed <- true;
    oserr (fun () -> Unix.close t.fd) "close"
  end

(* --- read-only scan -------------------------------------------------- *)

let read ~dir =
  let journal =
    match read_file (wal_path ~dir) with
    | None -> []
    | Some b ->
        let rec go acc off =
          match scan_one b off with
          | None -> List.rev acc
          | Some (p, next) -> go (p :: acc) next
        in
        go [] 0
  in
  let super =
    match best_super ~dir with None -> None | Some (_, _, p) -> Some p
  in
  (journal, super)

let super_epoch ~dir =
  match best_super ~dir with None -> None | Some (e, _, _) -> Some e
