(** The chaos sweep: end-to-end fault tolerance under a deterministic
    adversary (DESIGN.md §15).

    Each {e cell} runs one failure mode through the whole stack — a
    seeded {!Pc_blockdev.Flaky_dev} under a real B-tree (mem or file
    backend) with a {!Pc_pagestore.Retry_policy} installed, or a
    scripted journal failure under a {!Pc_conc.Shared_store} guarded by
    a {!Pc_conc.Breaker} — and checks the safety and availability
    properties the design claims:

    - {b transient / torn / stalled} faults are absorbed: every answer
      equals the in-memory oracle's, with the retries visible in the
      pager's accounting;
    - {b latent sectors} degrade, never lie: quarantined pages make
      results partial (a subset of the oracle), never wrong;
    - {b give-ups} are denials, not corruption: when the policy budget
      is smaller than the burst, the operation fails typed ([Io_fault])
      and full service resumes once the faults clear; on a journaled
      tree a give-up past the commit point never surfaces, so exactly
      the operations that returned are durable;
    - {b durable committed prefix}: a file-backed tree mutated under
      device faults recovers from its directory alone to exactly the
      state the oracle committed;
    - {b breaker}: journal failures trip the store into degraded
      read-only (mutations fail fast, reads keep serving the last
      snapshot), and a half-open probe restores full service after the
      fault clears.

    Everything is a pure function of [(b, seed)] (plus a scratch
    directory for the file cells): a failing cell replays exactly. *)

type report = {
  c_name : string;  (** cell name, e.g. ["transient-mem"] *)
  c_ops : int;  (** operations attempted *)
  c_ok : int;  (** operations that completed with the right answer *)
  c_denied : int;
      (** operations refused typed — [Io_fault] give-ups or [Degraded] *)
  c_injected : Pc_blockdev.Flaky_dev.counts;  (** faults the device raised *)
  c_retries : int;  (** reissues the pager absorbed ([Io_stats.retries]) *)
  c_give_ups : int;  (** transfers abandoned at the retry policy *)
  c_quarantined : int;  (** pages quarantined at the end of the cell *)
  c_trips : int;  (** breaker trips (breaker cell only) *)
  c_violations : string list;
      (** hard failures: wrong answer, lost committed state, breaker
          stuck — empty iff the cell passed *)
}

val passed : report -> bool

(** [ok / (ok + denied)]; [1.0] for an empty cell. *)
val availability : report -> float

val pp_report : Format.formatter -> report -> unit

(** {1 Storage cells — B-tree over a flaky device vs the oracle} *)

(** Transient read/write errors (burst 2) under the default retry
    policy: every answer exact, retries absorbed. *)
val transient_mem : ?ops:int -> b:int -> seed:int -> unit -> report

(** Torn page writes: the reissue rewrites every sector; answers
    exact. *)
val torn_mem : ?ops:int -> b:int -> seed:int -> unit -> report

(** Stalls past the watchdog timeout ([cls = Stalled]): retried like
    transients; answers exact. *)
val stall_mem : ?ops:int -> b:int -> seed:int -> unit -> report

(** Latent-bad pages read under quarantine-and-degrade: results are
    subsets of the oracle, never wrong. *)
val latent_mem : ?ops:int -> b:int -> seed:int -> unit -> report

(** Bursts longer than the policy budget: reads fail typed with
    [Io_fault], and after the faults clear every answer is exact
    again. *)
val giveup_mem : ?ops:int -> b:int -> seed:int -> unit -> report

(** A file-backed durable tree mutated through transient and torn
    device faults, then closed and recovered from the directory alone:
    the recovered tree equals the oracle's committed state. [root] is a
    scratch directory (recreated). *)
val durable_file : ?ops:int -> b:int -> seed:int -> root:string -> unit -> report

(** A file-backed durable tree mutated by inserts through bursts longer
    than a small retry budget, striking reads, in-place applies and
    checkpoint fsyncs: an insert that raised [Io_fault] is in neither
    the live nor the recovered tree, one that returned is in both, and
    after the faults clear the invariants hold and answers are exact.
    [root] is a scratch directory (recreated). *)
val giveup_file : ?ops:int -> b:int -> seed:int -> root:string -> unit -> report

(** {1 The store cell — breaker under journal failure} *)

(** Scripted journal-fsync failures against a {!Pc_conc.Shared_store}:
    the breaker trips, mutations fail fast with [Degraded], reads keep
    serving the last published snapshot exactly, and once the fault
    clears a half-open probe restores full service. *)
val breaker_store : ?ops:int -> b:int -> seed:int -> unit -> report

(** All eight cells at [(b, seed)]; [root] hosts the file cells'
    scratch directory. *)
val run_all : ?ops:int -> b:int -> seed:int -> root:string -> unit -> report list
