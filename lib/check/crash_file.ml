(* Crash-point sweep against the real file backend (DESIGN.md §13).

   The simulator sweep in [Crash] replays a recorded effect log; this
   sweep works on actual bytes. A file-backed B-tree runs a tagged
   workload in a scratch directory, and after every operation the
   directory's three artefacts (wal.log, super, pages-0.dat) are
   snapshotted. A crash during operation [i] can leave exactly: the
   pages and superblock as of operation [i - 1] (journal appends are
   synced before any in-place apply), plus any prefix of operation [i]'s
   journal frames — cut cleanly at a frame boundary, or torn mid-frame
   (for the last frame, the classic torn final sector). Each such image
   is materialized into a fresh directory and recovered purely from its
   bytes via {!Pc_pagestore.Disk_store.load_image}; the sweep checks
   recovery idempotence, that the recovered tag's committed prefix is
   reproduced exactly, and that recovering the recovered directory is a
   fixed point.

   If a checkpoint truncates the journal mid-workload the frame-prefix
   relation breaks; that operation degrades to sweeping its two durable
   endpoint states (a checkpoint is itself atomic: tmp + fsync +
   rename). *)

module W = Pc_pagestore.Wal
module Ds = Pc_pagestore.Disk_store
module Wf = Pc_blockdev.Wal_file
module B = Pc_btree.Btree
module Rng = Pc_util.Rng

type failure = { f_op : int; f_cut : int; f_torn : bool; f_reason : string }

type report = {
  r_points : int;  (** crash images materialized and recovered *)
  r_failures : failure list;
}

let passed r = r.r_failures = []

let pp_failure ppf f =
  Format.fprintf ppf "op %d, journal cut at byte %d%s: %s" f.f_op f.f_cut
    (if f.f_torn then " (torn)" else "")
    f.f_reason

let pp_report ppf r =
  if passed r then
    Format.fprintf ppf "btree-file: %d crash images ok" r.r_points
  else
    Format.fprintf ppf "btree-file: %d/%d crash images failed:@ %a"
      (List.length r.r_failures)
      r.r_points
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_failure)
      r.r_failures

(* ---- raw directory snapshots ---------------------------------------- *)

(* The superblock is A/B mirrored, so a snapshot carries both slot files
   opaquely. *)
type supersnap = {
  ss_a : string option;
  ss_b : string option;
}

type dirsnap = {
  s_wal : string;
  s_super : supersnap;
  s_pages : string option;
}

let read_opt path =
  if Sys.file_exists path then
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  else None

let snap ~dir =
  {
    s_wal = Option.value ~default:"" (read_opt (Wf.wal_path ~dir));
    s_super =
      {
        ss_a = read_opt (Wf.super_a_path ~dir);
        ss_b = read_opt (Wf.super_b_path ~dir);
      };
    s_pages = read_opt (Ds.pages_path ~dir ~idx:0);
  }

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let write_image ~dir ~wal ~super ~pages =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  write_file (Wf.wal_path ~dir) wal;
  Option.iter (write_file (Wf.super_a_path ~dir)) super.ss_a;
  Option.iter (write_file (Wf.super_b_path ~dir)) super.ss_b;
  Option.iter (write_file (Ds.pages_path ~dir ~idx:0)) pages

(* ---- journal frame geometry ------------------------------------------ *)

(* A frame is [magic "PCJR" | u32 payload length | crc64 | payload]. *)
let frame_len s pos =
  if pos + 16 > String.length s then String.length s - pos
  else 16 + Int32.to_int (String.get_int32_le s (pos + 4))

(* Frame boundaries of [s] from [pos] to the end, inclusive of both
   endpoints: cutting at any returned offset leaves whole frames only. *)
let boundaries s pos =
  let n = String.length s in
  let rec go acc pos =
    let acc = pos :: acc in
    if pos + 16 > n then List.rev acc
    else
      let next = pos + frame_len s pos in
      if next > n then List.rev acc else go acc next
  in
  go [] pos

(* ---- the sweep ------------------------------------------------------- *)

(* One workload step: mostly inserts over a small key universe (so pages
   split and share), an occasional delete of a live entry. Returns the
   updated model. *)
let step rng t model =
  let remove_one x l =
    let rec go acc = function
      | [] -> List.rev acc
      | y :: tl when y = x -> List.rev_append acc tl
      | y :: tl -> go (y :: acc) tl
    in
    go [] l
  in
  if model <> [] && Rng.int rng 4 = 0 then begin
    let k, v = List.nth model (Rng.int rng (List.length model)) in
    ignore (B.delete t ~key:k ~value:v);
    remove_one (k, v) model
  end
  else begin
    let k = Rng.int rng 64 and v = Rng.int rng 1024 in
    B.insert t ~key:k ~value:v;
    (k, v) :: model
  end

let sweep ?(b = 8) ~root ~n ~seed () =
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let rng = Rng.create seed in
  let live = Filename.concat root "live" in
  let t = B.create_file ~dir:live ~b () in
  let wal = Option.get (B.wal t) in
  (* Tagged reference run: snapshot the model and the directory bytes
     after every commit. [snaps.(tag + 1)] is the oracle for a recovery
     that reports [tag]; the initial empty build commits with tag -1. *)
  let snaps = Array.make (n + 1) [] in
  let dirs = Array.make (n + 1) (snap ~dir:live) in
  let model = ref [] in
  for i = 0 to n - 1 do
    W.set_tag wal i;
    model := step rng t !model;
    snaps.(i + 1) <- List.sort compare !model;
    dirs.(i + 1) <- snap ~dir:live
  done;
  B.close t;
  let parts = [ Ds.part B.codec ~idx:0 ~page_bytes:(B.page_bytes ~b) ] in
  let scratch_id = ref 0 in
  let verify ~op ~cut ~torn ~pages ~super ~wal_bytes =
    incr scratch_id;
    let dir = Filename.concat root (Printf.sprintf "crash-%d" !scratch_id) in
    write_image ~dir ~wal:wal_bytes ~super ~pages;
    let outcome =
      match
        let r1 = W.recover (Ds.load_image ~dir ~parts) in
        let r2 = W.recover (Ds.load_image ~dir ~parts) in
        if not (W.recovered_equal r1 r2) then
          failwith "recovery is not idempotent";
        if r1.W.r_damaged <> [] then
          failwith "clean crash image reports damaged pages";
        let tag = r1.W.r_tag in
        if tag < -1 || tag > op then
          Format.kasprintf failwith "recovered tag %d out of range [-1, %d]"
            tag op;
        let expected = snaps.(tag + 1) in
        let probe t =
          B.check_invariants t;
          let got = List.sort compare (B.to_list t) in
          if got <> expected then
            Format.kasprintf failwith
              "recovered to tag %d but the tree holds %d entries where the \
               committed prefix holds %d"
              tag (List.length got) (List.length expected);
          let want = List.filter (fun (k, _) -> 16 <= k && k <= 48) expected in
          if List.sort compare (B.range t ~lo:16 ~hi:48) <> want then
            Format.kasprintf failwith
              "recovered to tag %d but a range query diverges from the \
               committed prefix"
              tag
        in
        (* Real reattachment: redo is rewritten onto the device and a
           fresh superblock stamped ... *)
        let t = B.recover_file ~dir ~b () in
        Fun.protect ~finally:(fun () -> B.close t) (fun () -> probe t);
        (* ... after which the directory is a clean image: recovering it
           again must land on the same state. *)
        let t = B.recover_file ~dir ~b () in
        Fun.protect ~finally:(fun () -> B.close t) (fun () -> probe t)
      with
      | () -> None
      | exception Failure m ->
          Some { f_op = op; f_cut = cut; f_torn = torn; f_reason = m }
      | exception e ->
          Some
            {
              f_op = op;
              f_cut = cut;
              f_torn = torn;
              f_reason = Printexc.to_string e;
            }
    in
    rm_rf dir;
    outcome
  in
  let failures = ref [] in
  let points = ref 0 in
  let record = function
    | None -> ()
    | Some f -> failures := f :: !failures
  in
  for i = 0 to n - 1 do
    let base = dirs.(i) and full = dirs.(i + 1) in
    let blen = String.length base.s_wal in
    let flen = String.length full.s_wal in
    if blen <= flen && String.sub full.s_wal 0 blen = base.s_wal then
      List.iter
        (fun cut ->
          incr points;
          record
            (verify ~op:i ~cut ~torn:false ~pages:base.s_pages
               ~super:base.s_super
               ~wal_bytes:(String.sub full.s_wal 0 cut));
          if cut < flen then begin
            (* the frame at [cut] reaches the file half-written; at the
               last boundary this is the torn final sector *)
            let half = cut + max 1 (frame_len full.s_wal cut / 2) in
            incr points;
            record
              (verify ~op:i ~cut:half ~torn:true ~pages:base.s_pages
                 ~super:base.s_super
                 ~wal_bytes:(String.sub full.s_wal 0 half))
          end)
        (boundaries full.s_wal blen)
    else begin
      (* a checkpoint truncated the journal mid-operation: the prefix
         relation is gone, so sweep the durable endpoint instead *)
      incr points;
      record
        (verify ~op:i ~cut:flen ~torn:false ~pages:full.s_pages
           ~super:full.s_super ~wal_bytes:full.s_wal)
    end
  done;
  (* a crash at quiescence: the final directory as-is *)
  let last = dirs.(n) in
  incr points;
  record
    (verify ~op:(n - 1) ~cut:(String.length last.s_wal) ~torn:false
       ~pages:last.s_pages ~super:last.s_super ~wal_bytes:last.s_wal);
  rm_rf root;
  { r_points = !points; r_failures = List.rev !failures }
