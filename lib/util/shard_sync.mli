(** Ordering kernel for sharded (multi-domain) simulation.

    Shards sweep disjoint, contiguous, ascending tile ranges in cycle
    lockstep. Tile-private work runs in parallel; operations on shared
    simulator state are serialized in exactly the order the serial
    scheduler would execute them, identified by a *point*
    [(seq, tile)] — [seq] the visited-cycle index, [tile] the acting
    tile. Each shard publishes a monotonically increasing atomic
    {e horizon} ("all my shared ops below this point are done; my next
    is at or above it"); an op at point [p] proceeds once every other
    shard's horizon exceeds [p]. Waits only target shards owning lower
    tile ids, so the wait graph is acyclic and deadlock-free, and at
    most one shared op runs at any instant. Ordering needs no lock;
    waiters spin briefly, then park on a condition variable that every
    horizon, barrier or failure update signals when someone is parked.

    Any failure (in a shard body or a barrier reduction) aborts all
    shards promptly: waiters poll a global flag and unwind with
    {!Aborted}; {!run} re-raises the original exception (lowest failing
    shard) after every domain joins. *)

type t

exception Aborted

(** [create ~nshards ()] makes a coordinator for [nshards] workers.
    [timed] additionally accounts per-shard wall-clock spent waiting
    (spinning or parked) in {!wait_order}/{!barrier} (clock reads happen
    only on actual waits, so the no-contention fast path is one extra
    branch). *)
val create : ?timed:bool -> nshards:int -> unit -> t

val nshards : t -> int

(** Pack a global-order point. [tile] must fit in 20 bits. *)
val point : seq:int -> tile:int -> int

(** Advance the calling shard's horizon (must be monotone). *)
val publish : t -> shard:int -> point:int -> unit

(** Block until every other shard's horizon is strictly above [point].
    On return the caller holds the exclusive right to perform shared
    operations at [point] until it next advances its horizon.
    @raise Aborted if another shard failed. *)
val wait_order : t -> shard:int -> point:int -> unit

(** Combined barrier: blocks until all shards arrive; the last arriver
    runs [reduce] before anyone is released. The reducer has a
    happens-before edge over all pre-barrier writes, so it may read any
    shard's plain state. @raise Aborted if any shard or [reduce]
    failed. *)
val barrier : t -> shard:int -> reduce:(unit -> unit) -> unit

(** [run t body] runs [body shard] for shards [0 .. nshards-1], shard 0
    on the calling domain, the rest on fresh domains; joins them all and
    re-raises the first recorded failure, if any. *)
val run : t -> (int -> unit) -> unit

(** Seconds shard [k] has spent waiting, parked time included (always
    [0.] unless created with [~timed:true]). Read after {!run} returns —
    slots are plain fields owned by their shard while running. *)
val wait_seconds : t -> int -> float
