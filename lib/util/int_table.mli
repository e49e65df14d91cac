(** Open-addressing int-to-int hash table for the simulator's hot paths.

    Monomorphic and allocation-free on every operation except growth and
    the first squeeze at a capacity:
    lookups return a caller-supplied default instead of allocating an
    option, [add] performs read-modify-write in a single probe, and
    [iter]/[fold] walk the backing arrays without building lists.

    Keys must not be [min_int] or [min_int + 1] (reserved slot markers);
    all operations raise [Invalid_argument] on them. *)

type t

val create : ?initial_capacity:int -> unit -> t

(** Number of live entries. *)
val length : t -> int

(** Number of slots. Doubles only when live entries fill more than a
    quarter of it at a rehash, so insert/remove churn over a bounded live
    set leaves it bounded. *)
val capacity : t -> int

val mem : t -> int -> bool

(** [find t k ~default] is [k]'s value, or [default] when absent. *)
val find : t -> int -> default:int -> int

(** Insert or replace, in a single probe sequence. *)
val set : t -> int -> int -> unit

(** [add t k delta] adds [delta] to [k]'s value (absent keys count as 0),
    stores the sum and returns it. A single probe. *)
val add : t -> int -> int -> int

(** Remove [k] if present (may leave a tombstone, reclaimed at the next
    rehash). *)
val remove : t -> int -> unit

(** {1 Slot-level access}

    For call sites that must branch on presence and then update without a
    second probe: [probe] returns the slot index of a present key (or -1),
    and [value_at]/[set_at] read and write that slot. Slots are invalidated
    by any insertion or removal. *)

val probe : t -> int -> int
val value_at : t -> int -> int
val set_at : t -> int -> int -> unit

(** Iterate over live entries in unspecified order, without allocating. *)
val iter : (int -> int -> unit) -> t -> unit

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val clear : t -> unit
