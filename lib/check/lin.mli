(** Linearizability checking for concurrent runs — the differential
    harness's concurrent mode (DESIGN.md §14).

    {!run} spawns N domains, each executing a deterministic generated
    program of inserts/deletes/key-ranges/3-sided queries against one
    shared {!Pc_conc.Shared_store}; every operation records invocation
    and response stamps drawn from one shared atomic clock, plus its
    observed answer. {!check} then decides whether the recorded history
    is {e linearizable}: some total order of the operations, consistent
    with real time (an operation that completed before another was
    invoked must precede it), under which every observed answer equals
    the in-memory oracle's.

    The decision procedure is Wing & Gong's greedy search, with two
    structural accelerations: each domain runs sequentially, bounding
    the frontier by N; and insert ids are globally unique per domain
    ([id_stride] apart), so oracle state is a function of {e which}
    operations linearized, never their order — making failure
    memoization per progress-vector sound and complete. Searches that
    exceed the step budget return {!Inconclusive} rather than lying
    either way. Violations are shrunk (delta debugging over the
    recorded calls; per-domain order and stamps preserved) and can be
    saved as replayable [.repro] files. *)

type outcome =
  | O_ok  (** insert *)
  | O_bool of bool  (** delete: was the id present? *)
  | O_pairs of (int * int) list  (** krange answer, sorted *)
  | O_ids of int list  (** 3-sided answer ids, sorted *)

type call = {
  dom : int;
  idx : int;
  op : Dsl.op;
  inv : int;
  res : int;
  out : outcome;
}

type history = { domains : int; calls : call array }

type verdict =
  | Linearizable
  | Violation of history  (** shrunk to a minimal violating sub-history *)
  | Inconclusive of string

(** Insert-id partition width per domain (ids are globally unique). *)
val id_stride : int

(** [run ~domains ~per_domain ~seed ()] executes the generated programs
    concurrently against a fresh store and returns it with the recorded
    history. Deterministic programs; nondeterministic interleaving. The
    store's [checkpoint_every] defaults to 32, so a run of a few hundred
    operations rebuilds several times and its readers race the rebuild
    and publish. *)
val run :
  ?b:int ->
  ?checkpoint_every:int ->
  ?universe:int ->
  domains:int ->
  per_domain:int ->
  seed:int ->
  unit ->
  Pc_conc.Shared_store.t * history

(** [check h] decides linearizability. [budget] caps search steps
    (default 2M). *)
val check : ?budget:int -> history -> verdict

(** [decide calls] is the raw decision on a call array; raises
    {!Exhausted} past the budget. *)
val decide : ?budget:int -> call array -> bool

exception Exhausted

(** {1 History files} — the concurrent [.repro] format *)

val to_string : history -> string
val of_string : string -> (history, string) result
val save : history -> string -> unit
val load : string -> (history, string) result

(** [is_history_file path] sniffs the magic line. *)
val is_history_file : string -> bool

val pp_call : Format.formatter -> call -> unit
val pp_history : Format.formatter -> history -> unit
