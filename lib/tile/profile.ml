(* Per-tile cycle-accounting store for the stall profiler.

   Dense int-array counters (same idiom as the tile's per-class cost
   tables): one slot per Stall cause, plus per-basic-block and
   per-static-instruction roll-up matrices indexed [bid * ncauses + cause]
   / [iid * ncauses + cause]. All recording is allocation-free; the
   disabled [null] profile shares empty arrays and every operation guards
   on [enabled], so the unprofiled hot path pays one load+branch per
   tile-cycle.

   Scratch protocol (driven by Core_tile.step): [reset_scan] clears the
   per-cycle "first blocked candidate" note; [note_fail] records the first
   issue-scan failure of the cycle; the end-of-cycle classifier books
   exactly one cause per tile-cycle via [book]/[book_cause]. [book_last]
   re-books the previous attribution (sub-clock-edge cycles and
   fast-forwarded quiescent stretches replay the frozen cause — see
   DESIGN.md "Cycle accounting"). *)

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

let null =
  {
    enabled = false;
    label = "";
    causes = [||];
    by_bb = [||];
    by_instr = [||];
    nblocks = 0;
    ninstrs = 0;
    fail_cause = -1;
    fail_iid = -1;
    fail_bid = -1;
    last_cause = Stall.index Stall.Idle;
    last_iid = -1;
    last_bid = -1;
  }

let create ~label ~nblocks ~ninstrs =
  {
    enabled = true;
    label;
    causes = Array.make Stall.ncauses 0;
    by_bb = Array.make (Stdlib.max 1 nblocks * Stall.ncauses) 0;
    by_instr = Array.make (Stdlib.max 1 ninstrs * Stall.ncauses) 0;
    nblocks;
    ninstrs;
    fail_cause = -1;
    fail_iid = -1;
    fail_bid = -1;
    last_cause = Stall.index Stall.Idle;
    last_iid = -1;
    last_bid = -1;
  }

let enabled t = t.enabled
let label t = t.label

let reset_scan t = if t.enabled then t.fail_cause <- -1

(* First failure of the cycle wins: the issue scan visits candidates in
   seq order, and the oldest blocked instruction is the one actually
   holding the window back. *)
let note_fail t ~cause ~iid ~bid =
  if t.enabled && t.fail_cause < 0 then begin
    t.fail_cause <- Stall.index cause;
    t.fail_iid <- iid;
    t.fail_bid <- bid
  end

(* Attribute one cycle. [iid]/[bid] may be -1 (no culprit: the cycle
   lands in the per-tile totals but no roll-up row). *)
let book_idx t ~cause ~iid ~bid =
  if t.enabled then begin
    t.causes.(cause) <- t.causes.(cause) + 1;
    if bid >= 0 then begin
      let o = (bid * Stall.ncauses) + cause in
      t.by_bb.(o) <- t.by_bb.(o) + 1
    end;
    if iid >= 0 then begin
      let o = (iid * Stall.ncauses) + cause in
      t.by_instr.(o) <- t.by_instr.(o) + 1
    end;
    t.last_cause <- cause;
    t.last_iid <- iid;
    t.last_bid <- bid
  end

let book t ~cause ~iid ~bid = book_idx t ~cause:(Stall.index cause) ~iid ~bid
let book_cause t cause = book t ~cause ~iid:(-1) ~bid:(-1)

(* Book the noted scan failure, if any; returns false when none was
   recorded this cycle. *)
let book_fail t =
  if t.enabled && t.fail_cause >= 0 then begin
    book_idx t ~cause:t.fail_cause ~iid:t.fail_iid ~bid:t.fail_bid;
    true
  end
  else false

(* Replay the frozen attribution for [n] more cycles: sub-edge cycles of
   divided clocks (n = 1) and fast-forwarded quiescent stretches. The
   scheduler only skips cycles where tile state is provably frozen, so
   this books exactly what a cycle-by-cycle sweep would. *)
let book_repeat t n =
  if t.enabled && n > 0 then begin
    let cause = t.last_cause in
    t.causes.(cause) <- t.causes.(cause) + n;
    if t.last_bid >= 0 then begin
      let o = (t.last_bid * Stall.ncauses) + cause in
      t.by_bb.(o) <- t.by_bb.(o) + n
    end;
    if t.last_iid >= 0 then begin
      let o = (t.last_iid * Stall.ncauses) + cause in
      t.by_instr.(o) <- t.by_instr.(o) + n
    end
  end

let book_last t = book_repeat t 1

(* --- Read-out --- *)

let count t cause = if t.enabled then t.causes.(Stall.index cause) else 0
let counts t = if t.enabled then Array.copy t.causes else Array.make Stall.ncauses 0
let total t = Array.fold_left ( + ) 0 t.causes

let bb_count t ~bid cause =
  if t.enabled && bid >= 0 && bid < t.nblocks then
    t.by_bb.((bid * Stall.ncauses) + Stall.index cause)
  else 0

let instr_count t ~iid cause =
  if t.enabled && iid >= 0 && iid < t.ninstrs then
    t.by_instr.((iid * Stall.ncauses) + Stall.index cause)
  else 0

let nblocks t = t.nblocks
let ninstrs t = t.ninstrs
