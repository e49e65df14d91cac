(** Dynamic branch predictors — the paper's stated future work ("future
    work will support more realistic dynamic branch predictors"), provided
    here as additional speculation policies.

    Trace-driven operation: at each DBB launch the tile asks for a
    prediction for the previous terminator and immediately trains the
    predictor with the actual next block from the trace. Two families:

    - [Two_bit]: per-branch 2-bit saturating counters (taken/not-taken),
      indexed by instruction id.
    - [Gshare]: global-history XOR branch-id indexed 2-bit counters. *)

type kind = Two_bit | Gshare of { history_bits : int }

type t

val create : ?table_bits:int -> kind -> t

(** [predict t ~branch_id term] is the predicted successor block id, or
    [None] for returns. Unconditional branches predict their target. *)
val predict : t -> branch_id:int -> Mosaic_ir.Instr.t -> int option

(** [train t ~branch_id term ~actual] updates counters and history with the
    resolved outcome. *)
val train : t -> branch_id:int -> Mosaic_ir.Instr.t -> actual:int -> unit

(** Accuracy so far: (predictions, mispredictions). *)
val stats : t -> int * int

(** [observe t ~branch_id term ~actual] trains counters/history on a
    fast-forwarded branch without counting it as a prediction. *)
val observe : t -> branch_id:int -> Mosaic_ir.Instr.t -> actual:int -> unit
