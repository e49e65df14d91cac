(** Fenwick (binary indexed) tree over integer counts.

    Backs the O(n log n) LRU stack-distance algorithm in trace analysis:
    point updates and prefix sums over access positions. *)

type t

(** [create n] covers indices [0 .. n-1], all zero. *)
val create : int -> t

(** [add t i delta]; raises [Invalid_argument] out of bounds. *)
val add : t -> int -> int -> unit

(** Sum of entries [0 .. i] ([i = -1] gives 0). *)
val prefix_sum : t -> int -> int

(** Sum over the inclusive range. *)
val range_sum : t -> lo:int -> hi:int -> int

val size : t -> int
