(** The file-backed block device: pages of a regular Unix file.

    Reads are [pread]-style (seek + full read of one page), writes
    [pwrite]-style; {!Block_device.t.flush} is an [fsync], so a flushed
    write is durable in the crash model the WAL assumes.

    Torn writes: {!Block_device.t.write_sectors} transfers a whole
    number of [sector_bytes] units and leaves the rest of the page as it
    was — exactly the partial-transfer state a power failure leaves on a
    real disk. *)

(** [create ?sector_bytes ~path ~page_bytes ()] opens (or creates)
    [path]. Raises {!Block_device.Device_error} on OS failures. *)
val create :
  ?sector_bytes:int ->
  path:string ->
  page_bytes:int ->
  unit ->
  Block_device.t
