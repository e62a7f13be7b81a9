module Wal_file = Pc_blockdev.Wal_file
module Codec = Pc_blockdev.Page_codec
module Bdev = Pc_blockdev.Block_device

type part = {
  p_idx : int;
  p_page_bytes : int;
  p_decode : page:int -> bytes -> Obj.t array;
}

let part (codec : 'a Codec.t) ~idx ~page_bytes =
  {
    p_idx = idx;
    p_page_bytes = page_bytes;
    p_decode =
      (fun ~page b -> (Obj.magic (Codec.decode codec ~page b) : Obj.t array));
  }

type t = {
  ds_dir : string;
  ds_wal : Wal_file.t;
  mutable ds_devs : Bdev.t list;
  mutable ds_closed : bool;
}

let open_dir ~dir =
  { ds_dir = dir; ds_wal = Wal_file.open_dir ~dir; ds_devs = []; ds_closed = false }

let dir t = t.ds_dir
let pages_path ~dir ~idx = Filename.concat dir (Printf.sprintf "pages-%d.dat" idx)

let device t ~idx ~page_bytes =
  let dev =
    Pc_blockdev.File_dev.create
      ~path:(pages_path ~dir:t.ds_dir ~idx)
      ~page_bytes ()
  in
  t.ds_devs <- dev :: t.ds_devs;
  dev

(* With an obs handle carrying a clock, the journal's own byte
   operations are timed as wal.* phases: append, the commit fsync, and
   the superblock tmp+rename+dir-sync dance. With the clock off (the
   default) no source is even registered, so source ids — and therefore
   existing traces — are byte-identical. *)
let wal_store ?obs t : Wal.store =
  let src =
    match obs with
    | Some o when Pc_obs.Obs.wall_enabled o ->
        Some (Pc_obs.Obs.register o ~name:"wal")
    | _ -> None
  in
  let phase name f =
    match src with
    | Some s ->
        fun x -> Pc_obs.Obs.with_phase s ~phase:name ~page:(-1) (fun () -> f x)
    | None -> f
  in
  {
    st_append = phase "wal.append" (fun b -> Wal_file.append t.ds_wal b);
    st_append_torn = (fun b -> Wal_file.append_torn t.ds_wal b);
    st_sync = phase "wal.fsync" (fun () -> Wal_file.sync t.ds_wal);
    st_super = phase "wal.super" (fun b -> Wal_file.write_super t.ds_wal b);
  }

let close t =
  if not t.ds_closed then begin
    t.ds_closed <- true;
    List.iter (fun d -> d.Bdev.close ()) t.ds_devs;
    Wal_file.close t.ds_wal
  end

(* --- loading the on-disk image -------------------------------------- *)

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let all_zero s lo len =
  let rec go i = i >= lo + len || (s.[i] = '\000' && go (i + 1)) in
  go lo

let trimmed s lo =
  let stamp = Bdev.trim_stamp in
  String.length s - lo >= String.length stamp
  && String.sub s lo (String.length stamp) = stamp

let commit_of_disk (c : Disk_format.commit) : Wal.commit =
  { Wal.c_meta = c.Disk_format.dc_meta; c_tag = c.dc_tag; c_next = c.dc_next }

(* Pages as found in one participant's page file. A page that is
   all-zero was never reached by any write and is absent; a trimmed
   page is freed; anything else must decode or it is damaged. *)
let load_pages p path =
  if not (Sys.file_exists path) then []
  else begin
    let raw = read_whole path in
    let n = (String.length raw + p.p_page_bytes - 1) / p.p_page_bytes in
    List.filter_map
      (fun page ->
        let lo = page * p.p_page_bytes in
        let len = min p.p_page_bytes (String.length raw - lo) in
        if len = p.p_page_bytes && all_zero raw lo len then None
        else if trimmed raw lo then Some ((p.p_idx, page), (None, true))
        else if len < p.p_page_bytes then
          (* a short tail: the page never finished transferring *)
          Some ((p.p_idx, page), (Some [||], false))
        else
          let img = Bytes.of_string (String.sub raw lo len) in
          match p.p_decode ~page img with
          | payload -> Some ((p.p_idx, page), (Some payload, true))
          | exception _ -> Some ((p.p_idx, page), (Some [||], false)))
      (List.init n Fun.id)
  end

let load_image ~dir ~parts =
  let pages =
    List.concat_map (fun p -> load_pages p (pages_path ~dir ~idx:p.p_idx)) parts
  in
  let raw_journal, raw_super = Wal_file.read ~dir in
  let journal =
    List.filter_map
      (fun payload ->
        match Disk_format.parse_jrec payload with
        | None -> None (* frame checksummed but the payload is malformed *)
        | Some r ->
            let find_part idx = List.find_opt (fun p -> p.p_idx = idx) parts in
            let dk_payload, dk_ok =
              match r.Disk_format.dj_image with
              | None -> (None, true) (* freed page or pure-commit record *)
              | Some img -> (
                  match find_part r.dj_pidx with
                  | None -> (Some [||], false)
                  | Some p -> (
                      match p.p_decode ~page:r.dj_page img with
                      | payload -> (Some payload, true)
                      | exception _ -> (Some [||], false)))
            in
            Some
              {
                Wal.dk_txn = r.dj_txn;
                dk_pidx = r.dj_pidx;
                dk_page = r.dj_page;
                dk_payload;
                dk_ok;
                dk_commit = Option.map commit_of_disk r.dj_commit;
              })
      raw_journal
  in
  let super =
    match raw_super with
    | None -> None
    | Some payload -> (
        match Disk_format.parse_super payload with
        | None | Some None -> None
        | Some (Some c) -> Some (commit_of_disk c))
  in
  Wal.image_of_disk ~pages ~journal ~super
