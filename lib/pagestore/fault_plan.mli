(** Injectable fault plans for the simulated block device.

    The paper's model assumes a disk that always answers; real disks
    fail. A fault plan scripts a hostile device so the differential
    model-checking harness (lib/check) can assert the repository-wide
    contract: under any injected fault a structure either raises a typed
    {!Pager} error ({!Pager.Io_fault}, {!Pager.Torn_write}) or keeps
    returning oracle-correct answers — it never silently answers wrong.

    A plan is installed on a pager with {!Pager.set_fault_plan} (or
    ambiently for all subsequently created pagers with
    {!Pager.set_ambient_fault_plan}) and consulted at every device
    transfer: read misses, write charges and page allocations. Accesses
    absorbed by the buffer pool are not device transfers and never
    fault. Every injected fault is traced through {!Pc_obs.Obs} as a
    [Fault] event, so a trace shows exactly where the fault landed.

    Plans are deliberately deterministic: the same plan over the same
    access sequence injects the same faults, which is what lets the
    harness shrink failing workloads to byte-stable repro files. *)

(** The three fault shapes of the harness's fault suite. *)
type kind =
  | Fail_stop of { at : int }
      (** The device dies at its [at]-th armed access (1-based) and
          every access after it: the classic fail-stop disk. Surfaces as
          {!Pager.Io_fault}. *)
  | Transient of { every : int; fails : int; retries : int }
      (** Every [every]-th armed {e read} suffers [fails] consecutive
          device errors. The pager retries up to [retries] times, each
          failed attempt costing one read I/O and one [Fault] trace
          event; if [fails <= retries] the read eventually succeeds,
          otherwise {!Pager.Io_fault} is raised. *)
  | Torn_write of { at : int }
      (** The [at]-th armed write transfers only a prefix of the page
          (the torn half remains on disk for later reads to see) and
          raises {!Pager.Torn_write}. Fires once. *)

val pp_kind : Format.formatter -> kind -> unit
val kind_to_string : kind -> string

(** [kind_of_string s] parses {!kind_to_string} output, e.g.
    ["fail_stop@3"], ["transient e=5 f=2 r=3"], ["torn_write@4"]. *)
val kind_of_string : string -> kind option

type t

(** [make kind] builds an armed plan with fresh counters. Raises
    [Invalid_argument] on non-positive parameters. *)
val make : kind -> t

val kind : t -> kind

(** Arming: a disarmed plan counts nothing and injects nothing. The
    harness disarms a plan while building a structure and arms it before
    replaying the workload, so faults land on the operations under
    test. *)
val arm : t -> unit

val disarm : t -> unit

(** [injected t] is the number of device errors injected so far. *)
val injected : t -> int

(** {1 Pager-facing decision point} *)

type decision =
  | Proceed  (** the transfer succeeds *)
  | Deny  (** the device refuses: raise {!Pager.Io_fault} *)
  | Transient_burst of { retries : int; strike : page:int -> unit }
      (** this read's first [fails] attempts error out, and the pager may
          reissue it up to [retries] times. The pager calls [strike]
          before each attempt; while the burst lasts it counts one
          injected error and raises a [Transient]
          {!Pc_blockdev.Block_device.Device_error}, which the pager's
          retry loop absorbs like a real device's. *)
  | Tear  (** write a torn prefix and raise {!Pager.Torn_write} *)

(** [decide t ~write] records one device transfer and says what happens
    to it. Pagers call this at every charged transfer; user code should
    not. *)
val decide : t -> write:bool -> decision
