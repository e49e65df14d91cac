(** Memory Address Orderer (§II-A) — the structure that enforces true memory
    dependencies, instantiable as a traditional LSQ (§III-A).

    Entries are inserted in program order at node creation. Before a store
    issues it must see no incomplete older memory access with a matching or
    unresolved address; a load only checks older stores. With perfect
    address-alias speculation (§III-C) all addresses are resolved up front
    from the trace, so only true (same-address) conflicts stall.

    Capacity models the LSQ: an operation may issue only while it sits
    within the [capacity] oldest in-flight entries. *)

type kind = K_load | K_store

type t

val create : capacity:int -> perfect_alias:bool -> t

(** [insert t ~seq ~kind ~addr ~size] adds the entry for node [seq]
    (program order; [seq]s must be strictly increasing). With perfect alias
    speculation the entry starts resolved. *)
val insert : t -> seq:int -> kind:kind -> addr:int -> size:int -> unit

(** Mark the node's address as resolved (its operands completed). *)
val resolve : t -> seq:int -> unit

(** Whether the memory node [seq] may issue now: inside the capacity window
    and no conflicting older entry. Raises [Invalid_argument] for an
    unknown [seq]. *)
val can_issue : t -> seq:int -> bool

(** Remove the entry once the access completes. *)
val complete : t -> seq:int -> unit

(** In-flight (incomplete) entries. *)
val occupancy : t -> int

(** Number of issue rejections due to ordering or capacity (for stats). *)
val stalls : t -> int
