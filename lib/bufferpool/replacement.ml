type hint = [ `Hot | `Cold ]

module type S = sig
  type t

  val name : string
  val create : capacity:int -> t
  val length : t -> int
  val mem : t -> int -> bool
  val insert : t -> hint:hint -> int -> unit
  val touch : t -> int -> unit
  val remove : t -> int -> unit
  val victim : t -> evictable:(int -> bool) -> int option
  val clear : t -> unit
end

(* Intrusive doubly-linked recency list with a hashtable index; the
   backbone of the LRU, FIFO and 2Q policies. Head is the hot end, tail
   the eviction end. *)
module Dlist = struct
  type node = {
    key : int;
    mutable prev : node option;
    mutable next : node option;
  }

  type t = {
    tbl : (int, node) Hashtbl.t;
    mutable head : node option;
    mutable tail : node option;
  }

  let create () = { tbl = Hashtbl.create 64; head = None; tail = None }
  let length t = Hashtbl.length t.tbl
  let mem t k = Hashtbl.mem t.tbl k

  let unlink t node =
    (match node.prev with
    | Some p -> p.next <- node.next
    | None -> t.head <- node.next);
    (match node.next with
    | Some n -> n.prev <- node.prev
    | None -> t.tail <- node.prev);
    node.prev <- None;
    node.next <- None

  let push_front t node =
    node.next <- t.head;
    node.prev <- None;
    (match t.head with
    | Some h -> h.prev <- Some node
    | None -> t.tail <- Some node);
    t.head <- Some node

  let push_back t node =
    node.prev <- t.tail;
    node.next <- None;
    (match t.tail with
    | Some tl -> tl.next <- Some node
    | None -> t.head <- Some node);
    t.tail <- Some node

  let insert t ~at_front k =
    let node = { key = k; prev = None; next = None } in
    Hashtbl.replace t.tbl k node;
    if at_front then push_front t node else push_back t node

  let move_front t k =
    match Hashtbl.find_opt t.tbl k with
    | None -> ()
    | Some node ->
        unlink t node;
        push_front t node

  let remove t k =
    match Hashtbl.find_opt t.tbl k with
    | None -> ()
    | Some node ->
        unlink t node;
        Hashtbl.remove t.tbl k

  (* First evictable key from the tail; removed on return. *)
  let pop_back_filtered t ~ok =
    let rec go = function
      | None -> None
      | Some node ->
          if ok node.key then begin
            unlink t node;
            Hashtbl.remove t.tbl node.key;
            Some node.key
          end
          else go node.prev
    in
    go t.tail

  let clear t =
    Hashtbl.reset t.tbl;
    t.head <- None;
    t.tail <- None
end

module Lru_policy = struct
  type t = Dlist.t

  let name = "lru"
  let create ~capacity:_ = Dlist.create ()
  let length = Dlist.length
  let mem = Dlist.mem
  let insert t ~hint k = Dlist.insert t ~at_front:(hint = `Hot) k
  let touch t k = Dlist.move_front t k
  let remove = Dlist.remove
  let victim t ~evictable = Dlist.pop_back_filtered t ~ok:evictable
  let clear = Dlist.clear
end

module Fifo_policy = struct
  type t = Dlist.t

  let name = "fifo"
  let create ~capacity:_ = Dlist.create ()
  let length = Dlist.length
  let mem = Dlist.mem
  let insert t ~hint k = Dlist.insert t ~at_front:(hint = `Hot) k
  let touch _ _ = ()
  let remove = Dlist.remove
  let victim t ~evictable = Dlist.pop_back_filtered t ~ok:evictable
  let clear = Dlist.clear
end

module Clock_policy = struct
  type t = {
    mutable keys : int array; (* -1 = empty slot *)
    mutable refs : bool array;
    mutable hand : int;
    tbl : (int, int) Hashtbl.t; (* key -> slot *)
    mutable free : int list;
    mutable n : int;
  }

  let name = "clock"

  let create ~capacity =
    let size = max 1 capacity in
    {
      keys = Array.make size (-1);
      refs = Array.make size false;
      hand = 0;
      tbl = Hashtbl.create (max 16 capacity);
      free = List.init size (fun i -> i);
      n = 0;
    }

  let length t = t.n
  let mem t k = Hashtbl.mem t.tbl k

  let grow t =
    let old = Array.length t.keys in
    let keys = Array.make (old * 2) (-1) in
    let refs = Array.make (old * 2) false in
    Array.blit t.keys 0 keys 0 old;
    Array.blit t.refs 0 refs 0 old;
    t.keys <- keys;
    t.refs <- refs;
    t.free <- List.init old (fun i -> old + i) @ t.free

  (* The hint is ignored: a one-bit clock earns its second chance only
     from a genuine re-reference, so new frames start with the bit
     clear. *)
  let insert t ~hint:_ k =
    (match t.free with [] -> grow t | _ -> ());
    match t.free with
    | [] -> assert false
    | slot :: rest ->
        t.free <- rest;
        t.keys.(slot) <- k;
        t.refs.(slot) <- false;
        Hashtbl.replace t.tbl k slot;
        t.n <- t.n + 1

  let touch t k =
    match Hashtbl.find_opt t.tbl k with
    | Some slot -> t.refs.(slot) <- true
    | None -> ()

  let evict_slot t slot =
    let k = t.keys.(slot) in
    t.keys.(slot) <- -1;
    t.refs.(slot) <- false;
    Hashtbl.remove t.tbl k;
    t.free <- slot :: t.free;
    t.n <- t.n - 1;
    k

  let remove t k =
    match Hashtbl.find_opt t.tbl k with
    | Some slot -> ignore (evict_slot t slot)
    | None -> ()

  (* Sweep the hand: referenced frames get a second chance, pinned frames
     are skipped without losing their bit. Two full sweeps guarantee
     termination (the first clears bits, the second evicts). *)
  let victim t ~evictable =
    if t.n = 0 then None
    else begin
      let size = Array.length t.keys in
      let budget = ref (2 * size) in
      let result = ref None in
      while !result = None && !budget > 0 do
        decr budget;
        let slot = t.hand in
        t.hand <- (t.hand + 1) mod size;
        let k = t.keys.(slot) in
        if k >= 0 && evictable k then
          if t.refs.(slot) then t.refs.(slot) <- false
          else result := Some (evict_slot t slot)
      done;
      !result
    end

  let clear t =
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    Array.fill t.refs 0 (Array.length t.refs) false;
    Hashtbl.reset t.tbl;
    t.free <- List.init (Array.length t.keys) (fun i -> i);
    t.hand <- 0;
    t.n <- 0
end

module Two_q_policy = struct
  (* Simplified 2Q [Johnson & Shasha, VLDB'94]. New frames enter the
     probationary FIFO [a1in]; frames evicted from it leave a ghost key in
     [a1out]. Only a miss on a ghosted key admits a frame to the protected
     LRU [am] — a one-pass sequential flood churns through [a1in] and
     never displaces the hot set in [am]. *)
  type t = {
    kin : int; (* target |a1in| *)
    kout : int; (* target |a1out| *)
    a1in : Dlist.t;
    am : Dlist.t;
    ghosts : (int, unit) Hashtbl.t;
    ghost_fifo : int Queue.t; (* may hold stale keys; checked vs [ghosts] *)
  }

  let name = "2q"

  let create ~capacity =
    {
      kin = max 1 (capacity / 4);
      kout = max 2 (capacity / 2);
      a1in = Dlist.create ();
      am = Dlist.create ();
      ghosts = Hashtbl.create 64;
      ghost_fifo = Queue.create ();
    }

  let length t = Dlist.length t.a1in + Dlist.length t.am
  let mem t k = Dlist.mem t.a1in k || Dlist.mem t.am k

  let ghost_add t k =
    if not (Hashtbl.mem t.ghosts k) then begin
      Hashtbl.replace t.ghosts k ();
      Queue.push k t.ghost_fifo;
      while Hashtbl.length t.ghosts > t.kout do
        let old = Queue.pop t.ghost_fifo in
        (* stale entries (re-admitted then re-ghosted) are skipped *)
        if Hashtbl.mem t.ghosts old then Hashtbl.remove t.ghosts old
      done
    end

  let insert t ~hint k =
    if hint = `Hot && Hashtbl.mem t.ghosts k then begin
      Hashtbl.remove t.ghosts k;
      Dlist.insert t.am ~at_front:true k
    end
    else Dlist.insert t.a1in ~at_front:true k

  let touch t k =
    (* classic 2Q: hits inside a1in do not promote; hits in am refresh *)
    if Dlist.mem t.am k then Dlist.move_front t.am k

  let remove t k =
    Dlist.remove t.a1in k;
    Dlist.remove t.am k;
    Hashtbl.remove t.ghosts k

  let victim t ~evictable =
    let from_a1in () =
      match Dlist.pop_back_filtered t.a1in ~ok:evictable with
      | Some k ->
          ghost_add t k;
          Some k
      | None -> None
    in
    let from_am () = Dlist.pop_back_filtered t.am ~ok:evictable in
    if Dlist.length t.a1in > t.kin || Dlist.length t.am = 0 then
      match from_a1in () with Some k -> Some k | None -> from_am ()
    else
      match from_am () with Some k -> Some k | None -> from_a1in ()

  let clear t =
    Dlist.clear t.a1in;
    Dlist.clear t.am;
    Hashtbl.reset t.ghosts;
    Queue.clear t.ghost_fifo
end

type policy = Lru | Fifo | Clock | Two_q

let all = [ Lru; Fifo; Clock; Two_q ]

let name = function
  | Lru -> "lru"
  | Fifo -> "fifo"
  | Clock -> "clock"
  | Two_q -> "2q"

let of_string = function
  | "lru" -> Some Lru
  | "fifo" -> Some Fifo
  | "clock" -> Some Clock
  | "2q" | "two_q" | "twoq" -> Some Two_q
  | _ -> None

let pp ppf p = Format.pp_print_string ppf (name p)

(* Policy state is a concrete variant rather than a first-class module
   so that a pool (and the pagers embedding one) stays free of closures
   and remains Marshal-able by {!Pc_pagestore.Persist}. *)
type state =
  | Lru_st of Lru_policy.t
  | Fifo_st of Fifo_policy.t
  | Clock_st of Clock_policy.t
  | Two_q_st of Two_q_policy.t

let make policy ~capacity =
  match policy with
  | Lru -> Lru_st (Lru_policy.create ~capacity)
  | Fifo -> Fifo_st (Fifo_policy.create ~capacity)
  | Clock -> Clock_st (Clock_policy.create ~capacity)
  | Two_q -> Two_q_st (Two_q_policy.create ~capacity)

let s_name = function
  | Lru_st _ -> Lru_policy.name
  | Fifo_st _ -> Fifo_policy.name
  | Clock_st _ -> Clock_policy.name
  | Two_q_st _ -> Two_q_policy.name

let s_insert st ~hint k =
  match st with
  | Lru_st s -> Lru_policy.insert s ~hint k
  | Fifo_st s -> Fifo_policy.insert s ~hint k
  | Clock_st s -> Clock_policy.insert s ~hint k
  | Two_q_st s -> Two_q_policy.insert s ~hint k

let s_touch st k =
  match st with
  | Lru_st s -> Lru_policy.touch s k
  | Fifo_st s -> Fifo_policy.touch s k
  | Clock_st s -> Clock_policy.touch s k
  | Two_q_st s -> Two_q_policy.touch s k

let s_remove st k =
  match st with
  | Lru_st s -> Lru_policy.remove s k
  | Fifo_st s -> Fifo_policy.remove s k
  | Clock_st s -> Clock_policy.remove s k
  | Two_q_st s -> Two_q_policy.remove s k

let s_victim st ~evictable =
  match st with
  | Lru_st s -> Lru_policy.victim s ~evictable
  | Fifo_st s -> Fifo_policy.victim s ~evictable
  | Clock_st s -> Clock_policy.victim s ~evictable
  | Two_q_st s -> Two_q_policy.victim s ~evictable
