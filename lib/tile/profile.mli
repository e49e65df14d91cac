(** Per-tile cycle-accounting store for the stall profiler.

    [Core_tile.step] attributes every simulated tile-cycle to exactly one
    {!Mosaic_obs.Stall.cause} (see DESIGN.md for the priority order) and
    records it here, allocation-free, with per-basic-block and per-static-
    instruction roll-ups. A disabled profile ({!null}) makes every
    operation a no-op so the unprofiled path keeps its speed.

    Invariant (tested, and enforced in CI): after a run,
    [total p = Soc result cycles] for every tile, with and without cycle
    skipping — the scheduler replays the frozen attribution over
    fast-forwarded quiescent stretches via {!book_repeat}. *)

module Stall = Mosaic_obs.Stall

type t = {
  enabled : bool;
  label : string;  (** kernel name, for hot-spot reports *)
  causes : int array;  (** cycles per cause, length [Stall.ncauses] *)
  by_bb : int array;  (** [nblocks * ncauses] roll-up *)
  by_instr : int array;  (** [ninstrs * ncauses] roll-up *)
  nblocks : int;
  ninstrs : int;
  mutable fail_cause : int;  (** first blocked candidate this cycle; -1 none *)
  mutable fail_iid : int;
  mutable fail_bid : int;
  mutable last_cause : int;  (** frozen attribution for replay *)
  mutable last_iid : int;
  mutable last_bid : int;
}
(** Exposed for the tile's hot path ([enabled]/[fail_cause] field loads);
    treat as read-only outside [lib/tile] and [lib/core]. *)

val null : t
(** Shared disabled profile: never records. *)

val create : label:string -> nblocks:int -> ninstrs:int -> t

val enabled : t -> bool
val label : t -> string

(** {1 Recording} (driven by [Core_tile.step]) *)

val reset_scan : t -> unit
(** Clear the per-cycle first-blocked-candidate note. *)

val note_fail : t -> cause:Stall.cause -> iid:int -> bid:int -> unit
(** Record an issue-scan failure; the first note per cycle wins (the scan
    visits candidates in seq order, so that is the oldest blocked
    instruction). *)

val book : t -> cause:Stall.cause -> iid:int -> bid:int -> unit
(** Attribute one cycle; [iid]/[bid] may be [-1] (totals only, no
    roll-up row). Also freezes the attribution for {!book_repeat}. *)

val book_cause : t -> Stall.cause -> unit
(** [book] with no culprit. *)

val book_fail : t -> bool
(** Book the noted scan failure if any; false when none was recorded. *)

val book_repeat : t -> int -> unit
(** Replay the frozen attribution for [n] more cycles (fast-forwarded
    quiescent stretches). *)

val book_last : t -> unit
(** [book_repeat t 1]: sub-clock-edge cycles of divided tiles. *)

(** {1 Read-out} *)

val count : t -> Stall.cause -> int
val counts : t -> int array
(** Fresh copy, length [Stall.ncauses], zeros when disabled. *)

val total : t -> int
(** Sum over causes = attributed cycles. *)

val bb_count : t -> bid:int -> Stall.cause -> int
val instr_count : t -> iid:int -> Stall.cause -> int
val nblocks : t -> int
val ninstrs : t -> int
