(** Bounded FIFO queue of unboxed ints (circular buffer).

    The interleaver's per-channel message buffers store arrival cycles
    here, replacing a generic queue of heap-allocated records. Pushing
    never allocates once the ring has grown to its working size. *)

type t

(** [create ~capacity] bounds occupancy at [capacity] (> 0); the backing
    array starts small and grows geometrically up to the bound. *)
val create : capacity:int -> t

val length : t -> int
val is_empty : t -> bool
val is_full : t -> bool
val capacity : t -> int

(** [push q x] is [false] when the ring is at capacity. *)
val push : t -> int -> bool

(** Oldest element; raise [Invalid_argument] when empty — guard with
    {!is_empty}. *)
val peek_exn : t -> int

val pop_exn : t -> int
val clear : t -> unit

(** [peek_at_exn q i] is the [i]-th oldest element ([i = 0] is the head);
    raises [Invalid_argument] out of range. *)
val peek_at_exn : t -> int -> int
