(** Allocation-free binary min-heap over (int priority, int value) pairs.

    Backs the tile's completion and deferred-LSQ-release queues (keyed by
    cycle, valued by instruction sequence number), the interleaver's
    arrival hints and lazily-expired structures like the cache MSHR table.
    Equal priorities pop in push order (FIFO), so draining a heap is
    deterministic. *)

type t

val create : ?initial_capacity:int -> unit -> t
val length : t -> int
val is_empty : t -> bool
val push : t -> prio:int -> int -> unit

(** Smallest priority / its value. Raise [Invalid_argument] when empty;
    guard with {!is_empty} on hot paths. *)
val min_prio : t -> int

val min_value : t -> int
val drop_min : t -> unit
val clear : t -> unit

(** {1 Snapshots} — live slots and the FIFO stamp counter verbatim; the
    restored heap behaves identically, ties included (heap order does not
    depend on spare capacity). *)

type dump

val dump : t -> dump
val of_dump : dump -> t
val restore : t -> dump -> unit
