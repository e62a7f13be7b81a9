(** Pluggable page-replacement policies for the shared buffer pool.

    A policy tracks a set of integer frame keys and decides which resident
    frame to evict when the pool is full. Policies never hold page data —
    the pool and its clients own the frames; a policy is pure replacement
    bookkeeping, so implementations stay small and deterministic.

    Keys are opaque ints ({!Buffer_pool} packs an owner id and a page id
    into one). All operations are O(1) amortized except CLOCK's [victim],
    which may sweep past referenced frames. *)

(** The policy interface. The pool keeps one [t] and routes every
    residency change through it. Invariants the pool
    maintains: [insert] is only called for absent keys, [touch] and
    [remove] only for present keys; [victim] must remove the key it
    returns. *)
module type S = sig
  type t

  val name : string

  (** [create ~capacity] makes an empty policy sized for [capacity]
      frames. *)
  val create : capacity:int -> t

  val length : t -> int
  val mem : t -> int -> bool

  (** [insert t k] records [k] as resident. *)
  val insert : t -> int -> unit

  (** [touch t k] records a hit on resident key [k]. *)
  val touch : t -> int -> unit

  (** [remove t k] forgets [k] (page freed or dropped), with no eviction
      semantics. *)
  val remove : t -> int -> unit

  (** [victim t] selects, removes and returns the next victim; [None]
      when no key is resident. *)
  val victim : t -> int option

  val clear : t -> unit
end

(** Classic least-recently-used; exactly reproduces the eviction order
    of the pagers' original built-in LRU cache, preserving the
    repository's deterministic I/O counts. *)
module Lru_policy : S

(** First-in first-out; hits do not promote. *)
module Fifo_policy : S

(** One-bit second-chance approximation of LRU. *)
module Clock_policy : S

(** Scan-resistant simplified 2Q (Johnson & Shasha, VLDB'94): a short
    probationary FIFO [A1in], a ghost queue [A1out] of recently evicted
    keys, and a protected LRU [Am]; only keys re-referenced after
    probation reach [Am], so a sequential flood cannot displace the hot
    set. *)
module Two_q_policy : S

(** The built-in policies. *)
type policy = Lru | Fifo | Clock | Two_q

val all : policy list
val name : policy -> string
val of_string : string -> policy option
val pp : Format.formatter -> policy -> unit

(** Policy state as stored by the pool. Each constructor holds pure
    data. *)
type state =
  | Lru_st of Lru_policy.t
  | Fifo_st of Fifo_policy.t
  | Clock_st of Clock_policy.t
  | Two_q_st of Two_q_policy.t

val make : policy -> capacity:int -> state
val s_name : state -> string
val s_insert : state -> int -> unit
val s_touch : state -> int -> unit
val s_remove : state -> int -> unit
val s_victim : state -> int option
