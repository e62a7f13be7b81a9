(** An immutable list persisted as a chain of pages ("stored in a blocked
    fashion", §2 of the paper).

    Cover-lists, A-lists, S-lists and X/Y-lists are all blocked lists: the
    elements are laid out in a fixed order, [B] per page, and queries scan
    them page by page from the front, stopping at the first page that
    contains an element outside the query. When the element order makes the
    query result a prefix of the list, this scan performs at most one
    wasteful I/O — the mechanism behind every path-caching bound. *)

type 'a t

(** [store pager xs] persists [xs] (in order) into fresh pages of
    [pager]. *)
val store : 'a Pager.t -> 'a list -> 'a t

(** [store_array pager arr] is {!store} for arrays. *)
val store_array : 'a Pager.t -> 'a array -> 'a t

val length : 'a t -> int

(** [num_blocks t] is the number of pages occupied. *)
val num_blocks : 'a t -> int

val is_empty : 'a t -> bool

(** [read_all pager t] reads every page and returns the elements in order.
    Costs [num_blocks t] I/Os (modulo buffer pool). *)
val read_all : 'a Pager.t -> 'a t -> 'a list

(** [scan_prefix pager t ~keep] implements the paper's blocked prefix
    scan: pages are read front to back; elements satisfying [keep] are
    collected; the scan stops after the first page containing an element
    that fails [keep]. Returns the collected elements (in order) and the
    number of pages read. When the list order makes the true result a
    prefix, the result is exact and at most one read is wasteful. *)
val scan_prefix : 'a Pager.t -> 'a t -> keep:('a -> bool) -> 'a list * int

(** [scan_prefix_from pager t ~from ~keep] is {!scan_prefix} starting at
    page index [from] (skipping earlier pages without reading them); used
    to continue into an X/Y-list whose first page was already consumed
    from a cache (§4.1). [from] past the last page reads nothing. *)
val scan_prefix_from :
  'a Pager.t -> 'a t -> from:int -> keep:('a -> bool) -> 'a list * int

(** [iter_prefix_from pager t ~from ~keep f] reads the pages that
    {!scan_prefix_from} reads and hands each kept element to [f], in
    order, instead of collecting them; it returns the pages read. *)
val iter_prefix_from :
  'a Pager.t -> 'a t -> from:int -> keep:('a -> bool) -> ('a -> unit) -> int

(** [free pager t] releases all pages of the list. *)
val free : 'a Pager.t -> 'a t -> unit

(** {1 Serialization view}

    A blocked list is nothing but page ids plus a length; these two
    functions expose that flat shape so page codecs can write a list
    embedded in a cell to disk and read it back. *)

val to_ids : 'a t -> int array * int
val of_ids : int array * int -> 'a t
