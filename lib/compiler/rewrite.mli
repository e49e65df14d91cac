(** Function-rebuilding helpers for the DAE slicer ({!Dae}).

    The slicer manipulates instruction lists per block and then calls
    [renumber] to restore the invariant that instruction ids are
    contiguous and ordered block-by-block. *)

(** [renumber ~name ~nparams ~nregs blocks] rebuilds a function from blocks
    whose instructions may carry stale ids; fresh ids are assigned in block
    order. Block ids must already equal their indices. *)
val renumber :
  name:string ->
  nparams:int ->
  nregs:int ->
  Mosaic_ir.Instr.t list array ->
  Mosaic_ir.Func.t

(** [map_operands f instr] rewrites each operand through [f]. *)
val map_operands :
  (Mosaic_ir.Instr.operand -> Mosaic_ir.Instr.operand) ->
  Mosaic_ir.Instr.t ->
  Mosaic_ir.Instr.t

(** Number of static definitions of each register in a function. *)
val def_counts : Mosaic_ir.Func.t -> int array

(** Number of static reads of each register in a function. *)
val use_counts : Mosaic_ir.Func.t -> int array
