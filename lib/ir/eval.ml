(* Every function the interpreter's compiled instructions call is
   [@inline]: with cross-module inlining on, it is inlined into the
   instruction's closure, and the [int64]/[float] operands and results stay
   unboxed. *)

let[@inline] ibinop op x y =
  let open Int64 in
  match op with
  | Op.Add -> add x y
  | Op.Sub -> sub x y
  | Op.Mul -> mul x y
  | Op.Sdiv -> if y = 0L then 0L else div x y
  | Op.Srem -> if y = 0L then 0L else rem x y
  | Op.And -> logand x y
  | Op.Or -> logor x y
  | Op.Xor -> logxor x y
  | Op.Shl -> shift_left x (to_int y land 63)
  | Op.Lshr -> shift_right_logical x (to_int y land 63)
  | Op.Ashr -> shift_right x (to_int y land 63)

let[@inline] fbinop op x y =
  match op with
  | Op.Fadd -> x +. y
  | Op.Fsub -> x -. y
  | Op.Fmul -> x *. y
  | Op.Fdiv -> x /. y

let[@inline] pred_int pred x y =
  match pred with
  | Op.Eq -> Int64.equal x y
  | Op.Ne -> not (Int64.equal x y)
  | Op.Lt -> Int64.compare x y < 0
  | Op.Le -> Int64.compare x y <= 0
  | Op.Gt -> Int64.compare x y > 0
  | Op.Ge -> Int64.compare x y >= 0

let[@inline] pred_float pred (x : float) (y : float) =
  match pred with
  | Op.Eq -> x = y
  | Op.Ne -> x <> y
  | Op.Lt -> x < y
  | Op.Le -> x <= y
  | Op.Gt -> x > y
  | Op.Ge -> x >= y

let arity_mismatch () = invalid_arg "Eval.math: arity mismatch"

let[@inline] math1 m x =
  match m with
  | Op.Sqrt -> sqrt x
  | Op.Sin -> sin x
  | Op.Cos -> cos x
  | Op.Exp -> exp x
  | Op.Log -> log x
  | Op.Fabs -> Float.abs x
  | Op.Floor -> Float.floor x
  | Op.Pow | Op.Atan2 -> arity_mismatch ()

let[@inline] math2 m x y =
  match m with
  | Op.Pow -> Float.pow x y
  | Op.Atan2 -> Float.atan2 x y
  | Op.Sqrt | Op.Sin | Op.Cos | Op.Exp | Op.Log | Op.Fabs | Op.Floor ->
      arity_mismatch ()

let math m args =
  match args with
  | [| x |] -> math1 m x
  | [| x; y |] -> math2 m x y
  | _ -> arity_mismatch ()

let[@inline] gep scale base idx = base + (idx * scale)

let[@inline] rmw_int r a b =
  match r with
  | Op.Rmw_add -> Int64.add a b
  | Op.Rmw_min -> if Int64.compare a b <= 0 then a else b
  | Op.Rmw_max -> if Int64.compare a b >= 0 then a else b
  | Op.Rmw_xchg -> b

let[@inline] rmw_float r a b =
  match r with
  | Op.Rmw_add -> a +. b
  | Op.Rmw_min -> Float.min a b
  | Op.Rmw_max -> Float.max a b
  | Op.Rmw_xchg -> b

let rmw r old v =
  match (r, old) with
  | Op.Rmw_xchg, _ -> v
  | _, Value.Float a -> Value.Float (rmw_float r a (Value.to_float v))
  | _, Value.Int a -> Value.Int (rmw_int r a (Value.to_int64 v))

let[@inline] fptosi x = Int64.of_float x

let[@inline] trunc x = Int64.of_int32 (Int64.to_int32 x)

let cast c v =
  match c with
  | Op.Sitofp -> Value.Float (Value.to_float v)
  | Op.Fptosi -> Value.Int (fptosi (Value.to_float v))
  | Op.Zext -> Value.Int (Value.to_int64 v)
  | Op.Trunc -> Value.Int (trunc (Value.to_int64 v))
