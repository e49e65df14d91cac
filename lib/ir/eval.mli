(** Pure evaluation of IR operators: the semantics the trace interpreter
    compiles its instructions from.

    The value-level entry points ([math], [rmw], [cast]) are defined in
    terms of the scalar ones below them, which take and return unboxed
    [int64]/[float] so that a caller specialised to one opcode allocates
    nothing. *)

val ibinop : Op.ibinop -> int64 -> int64 -> int64
val fbinop : Op.fbinop -> float -> float -> float
val pred_int : Op.pred -> int64 -> int64 -> bool
val pred_float : Op.pred -> float -> float -> bool

(** [math m args]; raises [Invalid_argument] on arity mismatch. *)
val math : Op.math -> float array -> float

(** [math] on one and on two arguments; each raises [Invalid_argument]
    when [m] takes the other arity. *)
val math1 : Op.math -> float -> float

val math2 : Op.math -> float -> float -> float

(** [gep scale base idx] is the byte address [base + idx * scale]. *)
val gep : int -> int -> int -> int

(** [rmw r old v] is the new memory value of an atomic read-modify-write:
    [Rmw_xchg] stores [v] as it is; otherwise a float-typed [old] gets
    {!rmw_float} and an int-typed one {!rmw_int}, with [v] converted to
    [old]'s kind. *)
val rmw : Op.rmw -> Value.t -> Value.t -> Value.t

val rmw_int : Op.rmw -> int64 -> int64 -> int64
val rmw_float : Op.rmw -> float -> float -> float

(** [Sitofp] converts its operand to float; [Fptosi] applies {!fptosi} to
    it as a float, [Zext] returns it as an int64 and [Trunc] applies
    {!trunc} to that. *)
val cast : Op.cast -> Value.t -> Value.t

val fptosi : float -> int64

(** Sign-extension of the low 32 bits. *)
val trunc : int64 -> int64
