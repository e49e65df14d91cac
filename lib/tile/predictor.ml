open Mosaic_ir

type kind = Two_bit | Gshare of { history_bits : int }

type t = {
  kind : kind;
  counters : int array;  (** 2-bit saturating: 0,1 not-taken; 2,3 taken *)
  mask : int;
  mutable history : int;
  mutable predictions : int;
  mutable mispredictions : int;
}

let create ?(table_bits = 10) kind =
  if table_bits <= 0 || table_bits > 20 then
    invalid_arg "Predictor.create: table_bits out of range";
  let size = 1 lsl table_bits in
  {
    kind;
    counters = Array.make size 2 (* weakly taken *);
    mask = size - 1;
    history = 0;
    predictions = 0;
    mispredictions = 0;
  }

let index t ~branch_id =
  match t.kind with
  | Two_bit -> branch_id land t.mask
  | Gshare { history_bits } ->
      let hist_mask = (1 lsl history_bits) - 1 in
      (branch_id lxor (t.history land hist_mask)) land t.mask

let predict t ~branch_id (term : Instr.t) =
  match term.Instr.op with
  | Op.Br target -> Some target
  | Op.Cond_br (taken, not_taken) ->
      let c = t.counters.(index t ~branch_id) in
      Some (if c >= 2 then taken else not_taken)
  | _ -> None

let train t ~branch_id (term : Instr.t) ~actual =
  match term.Instr.op with
  | Op.Cond_br (taken, _) ->
      t.predictions <- t.predictions + 1;
      let idx = index t ~branch_id in
      let was_taken = actual = taken in
      let c = t.counters.(idx) in
      let predicted_taken = c >= 2 in
      if predicted_taken <> was_taken then
        t.mispredictions <- t.mispredictions + 1;
      t.counters.(idx) <-
        (if was_taken then Stdlib.min 3 (c + 1) else Stdlib.max 0 (c - 1));
      (match t.kind with
      | Gshare _ ->
          t.history <- (t.history lsl 1) lor (if was_taken then 1 else 0)
      | Two_bit -> ())
  | Op.Br _ ->
      (* Unconditional: always right, still counted for accuracy. *)
      t.predictions <- t.predictions + 1
  | _ -> ()

let stats t = (t.predictions, t.mispredictions)

(* Functional training for the fast-forward path: observe the outcome of
   [term] at [branch_id] going to [actual], updating counters/history but
   not the accuracy counts (fast-forwarded branches are not predictions —
   they keep the tables warm for the next detailed interval). *)
let observe t ~branch_id (term : Instr.t) ~actual =
  match term.Instr.op with
  | Op.Cond_br (taken, _) -> (
      let idx = index t ~branch_id in
      let was_taken = actual = taken in
      let c = t.counters.(idx) in
      t.counters.(idx) <-
        (if was_taken then Stdlib.min 3 (c + 1) else Stdlib.max 0 (c - 1));
      match t.kind with
      | Gshare _ ->
          t.history <- (t.history lsl 1) lor (if was_taken then 1 else 0)
      | Two_bit -> ())
  | _ -> ()
