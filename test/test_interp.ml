(* Tests for the trace-generating interpreter. *)

open Mosaic_ir
module B = Builder
module Interp = Mosaic_trace.Interp
module Trace = Mosaic_trace.Trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let single_tile prog kernel args =
  Interp.create prog ~kernel ~ntiles:1 ~args

(* --- arithmetic semantics --- *)

let test_arith_result () =
  let p = Program.create () in
  let out = Program.alloc p "out" ~elems:1 ~elem_size:8 in
  let _ =
    B.define p "k" ~nparams:2 (fun b ->
        let x = B.param b 0 and y = B.param b 1 in
        let v = B.add b (B.mul b x y) (B.imm 5) in
        B.store b ~addr:(B.elem b out (B.imm 0)) v;
        B.ret b ())
  in
  let it = single_tile p "k" [ Value.of_int 6; Value.of_int 7 ] in
  let _ = Interp.run it in
  checki "6*7+5" 47 (Value.to_int (Interp.peek_global it out 0))

let test_float_math () =
  let p = Program.create () in
  let out = Program.alloc p "out" ~elems:2 ~elem_size:8 in
  let _ =
    B.define p "k" ~nparams:1 (fun b ->
        let x = B.param b 0 in
        B.store b ~addr:(B.elem b out (B.imm 0)) (B.math1 b Op.Sqrt x);
        B.store b ~addr:(B.elem b out (B.imm 1))
          (B.fdiv b x (B.fimm 4.0));
        B.ret b ())
  in
  let it = single_tile p "k" [ Value.of_float 16.0 ] in
  let _ = Interp.run it in
  checkf "sqrt" 4.0 (Value.to_float (Interp.peek_global it out 0));
  checkf "fdiv" 4.0 (Value.to_float (Interp.peek_global it out 1))

let test_select_and_casts () =
  let p = Program.create () in
  let out = Program.alloc p "out" ~elems:3 ~elem_size:8 in
  let _ =
    B.define p "k" ~nparams:0 (fun b ->
        B.store b ~addr:(B.elem b out (B.imm 0))
          (B.select b (B.icmp b Op.Lt (B.imm 1) (B.imm 2)) (B.imm 10) (B.imm 20));
        B.store b ~addr:(B.elem b out (B.imm 1)) (B.sitofp b (B.imm 3));
        B.store b ~addr:(B.elem b out (B.imm 2)) (B.fptosi b (B.fimm 9.9));
        B.ret b ())
  in
  let it = single_tile p "k" [] in
  let _ = Interp.run it in
  checki "select" 10 (Value.to_int (Interp.peek_global it out 0));
  checkf "sitofp" 3.0 (Value.to_float (Interp.peek_global it out 1));
  checki "fptosi" 9 (Value.to_int (Interp.peek_global it out 2))

(* --- control flow + traces --- *)

let loop_prog n =
  let p = Program.create () in
  let out = Program.alloc p "out" ~elems:1 ~elem_size:8 in
  let _ =
    B.define p "sum" ~nparams:1 (fun b ->
        let acc = B.var b (B.imm 0) in
        B.for_ b ~from:(B.imm 0) ~to_:(B.param b 0) (fun i ->
            B.assign b ~var:acc (B.add b acc i));
        B.store b ~addr:(B.elem b out (B.imm 0)) acc;
        B.ret b ())
  in
  (p, out, [ Value.of_int n ])

let test_loop_sum () =
  let p, out, args = loop_prog 10 in
  let it = single_tile p "sum" args in
  let _ = Interp.run it in
  checki "sum 0..9" 45 (Value.to_int (Interp.peek_global it out 0))

let test_control_trace_shape () =
  let p, _, args = loop_prog 3 in
  let it = single_tile p "sum" args in
  let trace = Interp.run it in
  let tt = trace.Trace.tiles.(0) in
  (* entry, then header/body alternation 3 times, then header + exit *)
  checki "first block is entry" 0 tt.Trace.bb_path.(0);
  checkb "path length sane" true (Array.length tt.Trace.bb_path >= 8);
  checki "dyn instrs recorded" tt.Trace.dyn_instrs
    (Array.fold_left
       (fun acc bid ->
         let f = Program.func_exn p "sum" in
         acc + Array.length (Func.block f bid).Func.instrs)
       0 tt.Trace.bb_path)

let test_mem_trace_addresses () =
  let p = Program.create () in
  let arr = Program.alloc p "arr" ~elems:8 ~elem_size:4 in
  let f =
    B.define p "touch" ~nparams:0 (fun b ->
        B.for_ b ~from:(B.imm 0) ~to_:(B.imm 8) (fun i ->
            B.store b ~size:4 ~addr:(B.elem b arr i) i);
        B.ret b ())
  in
  let it = single_tile p "touch" [] in
  let trace = Interp.run it in
  let tt = trace.Trace.tiles.(0) in
  (* find the store instruction's address stream *)
  let store_id =
    let found = ref (-1) in
    Array.iter
      (fun (blk : Func.block) ->
        Array.iter
          (fun (i : Instr.t) ->
            match i.Instr.op with Op.Store _ -> found := i.Instr.id | _ -> ())
          blk.Func.instrs)
      f.Func.blocks;
    !found
  in
  let addrs = tt.Trace.mem_addrs.(store_id) in
  checki "eight stores" 8 (Array.length addrs);
  Array.iteri
    (fun k a -> checki "sequential addresses" (arr.Program.base + (4 * k)) a)
    addrs

(* --- SPMD --- *)

let test_spmd_tid_ntiles () =
  let p = Program.create () in
  let out = Program.alloc p "out" ~elems:4 ~elem_size:8 in
  let _ =
    B.define p "who" ~nparams:0 (fun b ->
        B.store b ~addr:(B.elem b out B.tid) (B.mul b B.tid B.ntiles);
        B.ret b ())
  in
  let it = Interp.create p ~kernel:"who" ~ntiles:4 ~args:[] in
  let _ = Interp.run it in
  for tid = 0 to 3 do
    checki "tid*ntiles" (tid * 4) (Value.to_int (Interp.peek_global it out tid))
  done

let test_atomics_across_tiles () =
  let p = Program.create () in
  let counter = Program.alloc p "counter" ~elems:1 ~elem_size:8 in
  let _ =
    B.define p "count" ~nparams:1 (fun b ->
        B.for_ b ~from:(B.imm 0) ~to_:(B.param b 0) (fun _ ->
            ignore
              (B.atomic b Op.Rmw_add ~addr:(B.elem b counter (B.imm 0)) (B.imm 1)));
        B.ret b ())
  in
  let it = Interp.create p ~kernel:"count" ~ntiles:3 ~args:[ Value.of_int 100 ] in
  let _ = Interp.run it in
  checki "300 increments" 300 (Value.to_int (Interp.peek_global it counter 0))

(* --- channels --- *)

let test_send_recv_pipeline () =
  let p = Program.create () in
  let out = Program.alloc p "out" ~elems:1 ~elem_size:8 in
  let _ =
    B.define p "pipe" ~nparams:0 (fun b ->
        B.if_else b
          (B.icmp b Op.Eq B.tid (B.imm 0))
          (fun () ->
            B.for_ b ~from:(B.imm 0) ~to_:(B.imm 10) (fun i ->
                B.send b ~chan:0 ~dst:(B.imm 1) i))
          (fun () ->
            let acc = B.var b (B.imm 0) in
            B.for_ b ~from:(B.imm 0) ~to_:(B.imm 10) (fun _ ->
                B.assign b ~var:acc (B.add b acc (B.recv b ~chan:0)));
            B.store b ~addr:(B.elem b out (B.imm 0)) acc);
        B.ret b ())
  in
  let it = Interp.create p ~kernel:"pipe" ~ntiles:2 ~args:[] in
  let trace = Interp.run it in
  checki "sum received" 45 (Value.to_int (Interp.peek_global it out 0));
  (* send destinations recorded in the trace *)
  let sends =
    Array.fold_left
      (fun acc d -> acc + Array.length d)
      0 trace.Trace.tiles.(0).Trace.send_dsts
  in
  checki "ten sends traced" 10 sends

let test_load_send_store_recv () =
  let p = Program.create () in
  let src = Program.alloc p "src" ~elems:4 ~elem_size:8 in
  let dst = Program.alloc p "dst" ~elems:4 ~elem_size:8 in
  let _ =
    B.define p "dae" ~nparams:0 (fun b ->
        B.if_else b
          (B.icmp b Op.Eq B.tid (B.imm 0))
          (fun () ->
            (* access tile: push loads to tile 1, stores come back *)
            B.for_ b ~from:(B.imm 0) ~to_:(B.imm 4) (fun i ->
                B.load_send b ~chan:0 ~dst:(B.imm 1) (B.elem b src i);
                B.store_recv b ~chan:1 ~addr:(B.elem b dst i) ()))
          (fun () ->
            B.for_ b ~from:(B.imm 0) ~to_:(B.imm 4) (fun _ ->
                let v = B.recv b ~chan:0 in
                B.send b ~chan:1 ~dst:(B.imm 0) (B.add b v (B.imm 100))));
        B.ret b ())
  in
  let it = Interp.create p ~kernel:"dae" ~ntiles:2 ~args:[] in
  for i = 0 to 3 do
    Interp.poke_global it src i (Value.of_int (i * 11))
  done;
  let _ = Interp.run it in
  for i = 0 to 3 do
    checki "value round-trip" ((i * 11) + 100)
      (Value.to_int (Interp.peek_global it dst i))
  done

let test_atomic_store_recv () =
  let p = Program.create () in
  let acc = Program.alloc p "acc" ~elems:1 ~elem_size:8 in
  let _ =
    B.define p "k" ~nparams:0 (fun b ->
        B.if_else b
          (B.icmp b Op.Eq B.tid (B.imm 0))
          (fun () ->
            B.for_ b ~from:(B.imm 0) ~to_:(B.imm 5) (fun _ ->
                B.store_recv b ~chan:0 ~rmw:Op.Rmw_add
                  ~addr:(B.elem b acc (B.imm 0)) ()))
          (fun () ->
            B.for_ b ~from:(B.imm 0) ~to_:(B.imm 5) (fun i ->
                B.send b ~chan:0 ~dst:(B.imm 0) i));
        B.ret b ())
  in
  let it = Interp.create p ~kernel:"k" ~ntiles:2 ~args:[] in
  let _ = Interp.run it in
  checki "accumulated" 10 (Value.to_int (Interp.peek_global it acc 0))

(* --- failure modes --- *)

let test_deadlock_detection () =
  let p = Program.create () in
  let _ =
    B.define p "stuck" ~nparams:0 (fun b ->
        ignore (B.recv b ~chan:9);
        B.ret b ())
  in
  let it = Interp.create p ~kernel:"stuck" ~ntiles:1 ~args:[] in
  checkb "deadlock raised" true
    (try
       ignore (Interp.run it);
       false
     with Interp.Deadlock _ -> true)

let test_step_limit () =
  let p = Program.create () in
  let _ =
    B.define p "forever" ~nparams:0 (fun b ->
        B.while_ b ~cond:(fun () -> B.tru) (fun () -> ());
        B.ret b ())
  in
  let it = Interp.create p ~kernel:"forever" ~ntiles:1 ~args:[] in
  checkb "limit raised" true
    (try
       ignore (Interp.run ~max_steps:10_000 it);
       false
     with Interp.Step_limit _ -> true)

let test_bad_args () =
  let p, _, _ = loop_prog 3 in
  Alcotest.check_raises "arg count"
    (Invalid_argument "Interp: sum expects 1 args, got 0") (fun () ->
      ignore (Interp.create p ~kernel:"sum" ~ntiles:1 ~args:[]))

let test_run_once () =
  let p, _, args = loop_prog 3 in
  let it = single_tile p "sum" args in
  let _ = Interp.run it in
  Alcotest.check_raises "second run rejected"
    (Invalid_argument "Interp.run: handle already consumed") (fun () ->
      ignore (Interp.run it))

let test_hetero_kernels () =
  let p = Program.create () in
  let out = Program.alloc p "out" ~elems:2 ~elem_size:8 in
  let _ =
    B.define p "a" ~nparams:0 (fun b ->
        B.store b ~addr:(B.elem b out (B.imm 0)) (B.imm 1);
        B.ret b ())
  in
  let _ =
    B.define p "b" ~nparams:0 (fun b ->
        B.store b ~addr:(B.elem b out (B.imm 1)) (B.imm 2);
        B.ret b ())
  in
  let it = Interp.create_hetero p ~label:"mix" ~tiles:[| ("a", []); ("b", []) |] in
  let trace = Interp.run it in
  checki "tile0 ran a" 1 (Value.to_int (Interp.peek_global it out 0));
  checki "tile1 ran b" 2 (Value.to_int (Interp.peek_global it out 1));
  Alcotest.(check string) "trace kernel names" "a"
    trace.Trace.tiles.(0).Trace.kernel

(* Values compared bit for bit: a NaN payload or the sign of a zero is part
   of what the trace digest sees. *)
let same_value a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> Int64.equal x y
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Int _, Value.Float _ | Value.Float _, Value.Int _ -> false

(* Property: straight-line programs over every value-producing opcode agree
   with a reference evaluator written here on [Value] and [Eval]. Registers
   start as two ints, two floats and four unset ones; operands are
   registers or immediates of either kind, and a destination may be one of
   its own operands. Atomics work on a small memory array whose cells
   start int-tagged, float-tagged or unset. Every register and cell is
   compared bit for bit at the end. *)

let nregs = 8

let ncells = 5

type straight = {
  params : Value.t list;
  cells : Value.t option array;
  body : (Op.t * Instr.operand array * int) list;
}

let int_gen =
  QCheck.Gen.(
    oneof
      [
        int_range (-4) 4;
        int_range (-100_000) 100_000;
        oneofl [ 0; 63; 64; 65; -1; max_int; min_int ];
        int;
      ])

let float_gen =
  QCheck.Gen.(
    oneof
      [
        map float_of_int (int_range (-8) 8);
        float_range (-1e3) 1e3;
        oneofl
          [ 0.0; -0.0; 0.5; Float.nan; Float.infinity; Float.neg_infinity; 1e300 ];
      ])

let value_of_kind_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int (Int64.of_int i)) int_gen;
        map (fun f -> Value.Float f) float_gen;
      ])

let all_of l = QCheck.Gen.oneofl l

let ibinops =
  Op.[ Add; Sub; Mul; Sdiv; Srem; And; Or; Xor; Shl; Lshr; Ashr ]

let fbinops = Op.[ Fadd; Fsub; Fmul; Fdiv ]
let preds = Op.[ Eq; Ne; Lt; Le; Gt; Ge ]
let casts = Op.[ Sitofp; Fptosi; Zext; Trunc ]
let maths1 = Op.[ Sqrt; Sin; Cos; Exp; Log; Fabs; Floor ]
let maths2 = Op.[ Pow; Atan2 ]
let rmws = Op.[ Rmw_add; Rmw_min; Rmw_max; Rmw_xchg ]

(* [cell_base] is where the memory array will be allocated. *)
let instr_gen ~cell_base =
  let open QCheck.Gen in
  let operand =
    frequency
      [
        (3, map (fun r -> Instr.Reg r) (int_bound (nregs - 1)));
        (1, map (fun v -> Instr.Imm v) value_of_kind_gen);
      ]
  in
  let ops n = array_repeat n operand in
  let op_gen =
    frequency
      [
        (4, map (fun o -> (Op.Binop o, 2)) (all_of ibinops));
        (2, map (fun o -> (Op.Fbinop o, 2)) (all_of fbinops));
        (1, map (fun p -> (Op.Icmp p, 2)) (all_of preds));
        (1, map (fun p -> (Op.Fcmp p, 2)) (all_of preds));
        (1, return (Op.Select, 3));
        (2, map (fun c -> (Op.Cast c, 1)) (all_of casts));
        (1, map (fun m -> (Op.Math m, 1)) (all_of maths1));
        (1, map (fun m -> (Op.Math m, 2)) (all_of maths2));
        (1, map (fun s -> (Op.Gep s, 2)) (all_of [ 1; 4; 8; -3 ]));
      ]
  in
  let plain =
    op_gen >>= fun (op, n) ->
    map2 (fun args dst -> (op, args, dst)) (ops n) (int_bound (nregs - 1))
  in
  let atomic =
    map3
      (fun r (cell, v) dst ->
        ( Op.Atomic_rmw (r, 8),
          [| Instr.Imm (Value.of_int (cell_base + (8 * cell))); v |],
          dst ))
      (all_of rmws)
      (pair (int_bound (ncells - 1)) operand)
      (int_bound (nregs - 1))
  in
  frequency [ (5, plain); (1, atomic) ]

let straight_gen ~cell_base =
  QCheck.Gen.(
    map3
      (fun (i0, i1) (f0, f1) (cells, body) ->
        {
          params =
            [
              Value.Int (Int64.of_int i0); Value.Int (Int64.of_int i1);
              Value.Float f0; Value.Float f1;
            ];
          cells;
          body;
        })
      (pair int_gen int_gen) (pair float_gen float_gen)
      (pair
         (array_repeat ncells (opt value_of_kind_gen))
         (list_size (1 -- 30) (instr_gen ~cell_base))))

let print_straight s =
  String.concat "\n"
    (List.map
       (fun (op, args, dst) ->
         Format.asprintf "%a" Instr.pp
           (Instr.make ~id:0 ~op ~args ~dst:(Some dst)))
       s.body)

(* The reference: [Value] conversions and [Eval] operators, one
   instruction at a time. *)
let reference ~cell_base s =
  let regs = Array.make nregs Value.zero in
  List.iteri (fun i v -> regs.(i) <- v) s.params;
  let cells = Array.map (Option.value ~default:Value.zero) s.cells in
  List.iter
    (fun (op, args, dst) ->
      let v k =
        match args.(k) with
        | Instr.Reg r -> regs.(r)
        | Instr.Imm v -> v
        | _ -> assert false
      in
      let f k = Value.to_float (v k) and i k = Value.to_int64 (v k) in
      let result =
        match op with
        | Op.Binop o -> Value.Int (Eval.ibinop o (i 0) (i 1))
        | Op.Fbinop o -> Value.Float (Eval.fbinop o (f 0) (f 1))
        | Op.Icmp p -> Value.of_bool (Eval.pred_int p (i 0) (i 1))
        | Op.Fcmp p -> Value.of_bool (Eval.pred_float p (f 0) (f 1))
        | Op.Select -> if Value.to_bool (v 0) then v 1 else v 2
        | Op.Cast c -> Eval.cast c (v 0)
        | Op.Math m ->
            Value.Float (Eval.math m (Array.init (Array.length args) f))
        | Op.Gep scale ->
            Value.of_int (Value.to_int (v 0) + (Value.to_int (v 1) * scale))
        | Op.Atomic_rmw (r, _) ->
            let c = (Value.to_int (v 0) - cell_base) / 8 in
            let old = cells.(c) in
            cells.(c) <- Eval.rmw r old (v 1);
            old
        | _ -> assert false
      in
      regs.(dst) <- result)
    s.body;
  (regs, cells)

let prop_expr_agrees =
  let cell_base, _ =
    (* Only the layout matters here: the same allocations in a fresh
       program land at the same addresses. *)
    let p = Program.create () in
    let _ = Program.alloc p "out" ~elems:nregs ~elem_size:8 in
    let cells = Program.alloc p "cells" ~elems:ncells ~elem_size:8 in
    (cells.Program.base, p)
  in
  QCheck.Test.make
    ~name:"interp agrees with OCaml and Eval on every opcode" ~count:300
    (QCheck.make ~print:print_straight (straight_gen ~cell_base))
    (fun s ->
      let p = Program.create () in
      let out = Program.alloc p "out" ~elems:nregs ~elem_size:8 in
      let cells = Program.alloc p "cells" ~elems:ncells ~elem_size:8 in
      assert (cells.Program.base = cell_base);
      let body =
        List.mapi
          (fun id (op, args, dst) -> Instr.make ~id ~op ~args ~dst:(Some dst))
          s.body
      in
      let n = List.length body in
      let stores =
        List.init nregs (fun r ->
            Instr.make ~id:(n + r) ~op:(Op.Store 8)
              ~args:
                [|
                  Instr.Imm (Value.of_int (out.Program.base + (8 * r)));
                  Instr.Reg r;
                |]
              ~dst:None)
      in
      let ret = Instr.make ~id:(n + nregs) ~op:Op.Ret ~args:[||] ~dst:None in
      let instrs = Array.of_list (body @ stores @ [ ret ]) in
      Program.add_func p
        (Func.make ~name:"k" ~nparams:4 ~nregs
           ~blocks:[| { Func.bid = 0; instrs } |]);
      let it = single_tile p "k" s.params in
      Array.iteri
        (fun c v -> Option.iter (Interp.poke_global it cells c) v)
        s.cells;
      let _ = Interp.run it in
      let regs, expected_cells = reference ~cell_base s in
      Array.iteri
        (fun r v ->
          if not (same_value v (Interp.peek_global it out r)) then
            QCheck.Test.fail_reportf "r%d: expected %s, got %s" r
              (Value.to_string v)
              (Value.to_string (Interp.peek_global it out r)))
        regs;
      Array.iteri
        (fun c v ->
          if not (same_value v (Interp.peek_global it cells c)) then
            QCheck.Test.fail_reportf "cell %d: expected %s, got %s" c
              (Value.to_string v)
              (Value.to_string (Interp.peek_global it cells c)))
        expected_cells;
      true)

(* An operand naming no global compiles; it fails when, and only when, its
   instruction executes, after the instructions before it have. *)
let test_unresolved_glob () =
  let p = Program.create () in
  let out = Program.alloc p "out" ~elems:1 ~elem_size:8 in
  let _ =
    B.define p "k" ~nparams:1 (fun b ->
        B.store b ~addr:(B.elem b out (B.imm 0)) (B.imm 7);
        B.if_ b (B.param b 0) (fun () ->
            B.store b ~addr:(Instr.Glob "nosuch") (B.imm 1));
        B.ret b ())
  in
  let dead = single_tile p "k" [ Value.of_int 0 ] in
  let _ = Interp.run dead in
  checki "dead reference never fails" 7
    (Value.to_int (Interp.peek_global dead out 0));
  let live = single_tile p "k" [ Value.of_int 1 ] in
  Alcotest.check_raises "live reference fails"
    (Invalid_argument "Program.global_exn: no global nosuch") (fun () ->
      ignore (Interp.run live));
  checki "earlier store landed" 7 (Value.to_int (Interp.peek_global live out 0))

(* Tile 1 stores, then blocks on a recv in the middle of its only block
   while tile 0 spins through more than a quantum before sending. It
   resumes at the recv: the store before it ran once. *)
let test_recv_resumes_mid_block () =
  let p = Program.create () in
  let out = Program.alloc p "out" ~elems:2 ~elem_size:8 in
  let _ =
    B.define p "k" ~nparams:0 (fun b ->
        B.if_else b
          (B.icmp b Op.Eq B.tid (B.imm 0))
          (fun () ->
            B.for_ b ~from:(B.imm 0) ~to_:(B.imm 5_000) (fun _ -> ());
            B.send b ~chan:0 ~dst:(B.imm 1) (B.imm 42))
          (fun () ->
            B.store b ~addr:(B.elem b out (B.imm 0)) (B.imm 1);
            let v = B.recv b ~chan:0 in
            B.store b ~addr:(B.elem b out (B.imm 1)) v);
        B.ret b ())
  in
  let f = Program.func_exn p "k" in
  let it = Interp.create p ~kernel:"k" ~ntiles:2 ~args:[] in
  let trace = Interp.run it in
  checki "value received" 42 (Value.to_int (Interp.peek_global it out 1));
  let tt = trace.Trace.tiles.(1) in
  let stores =
    Array.to_list f.Func.index
    |> List.filter_map (fun ((i : Instr.t), _) ->
           match i.Instr.op with Op.Store _ -> Some i.Instr.id | _ -> None)
  in
  List.iter
    (fun id ->
      checki "each store ran once" 1 (Array.length tt.Trace.mem_addrs.(id)))
    stores;
  checki "dyn instrs are the blocks' lengths" tt.Trace.dyn_instrs
    (Array.fold_left
       (fun acc bid -> acc + Array.length (Func.block f bid).Func.instrs)
       0 tt.Trace.bb_path)

(* The budget runs out in the middle of a block, on one tile and across
   the quanta of two. *)
let test_step_limit_mid_block () =
  let p = Program.create () in
  let out = Program.alloc p "out" ~elems:1 ~elem_size:8 in
  let _ =
    B.define p "forever" ~nparams:0 (fun b ->
        let acc = B.var b (B.imm 0) in
        B.while_ b ~cond:(fun () -> B.tru) (fun () ->
            for _ = 1 to 6 do
              B.assign b ~var:acc (B.add b acc (B.imm 1))
            done;
            B.store b ~addr:(B.elem b out (B.imm 0)) acc);
        B.ret b ())
  in
  List.iter
    (fun (ntiles, max_steps) ->
      let it = Interp.create p ~kernel:"forever" ~ntiles ~args:[] in
      match Interp.run ~max_steps it with
      | _ -> Alcotest.fail "ran past the limit"
      | exception Interp.Step_limit n ->
          checki "raised at the limit" max_steps n;
          checki "steps counted to the limit" max_steps (Interp.steps it))
    [ (1, 1_003); (1, 10_001); (2, 25_003) ]

(* The committed CLI fixture for run errors really deadlocks. *)
let test_deadlock_fixture () =
  let inst =
    Mosaic_workloads.Mir_workload.load_file "golden/run_errors/deadlock.mir"
  in
  match Mosaic_workloads.Runner.trace inst ~ntiles:1 with
  | _ -> Alcotest.fail "fixture ran to completion"
  | exception Interp.Deadlock msg ->
      let needle = "blocked on recv" in
      let n = String.length needle in
      let rec has i =
        i + n <= String.length msg && (String.sub msg i n = needle || has (i + 1))
      in
      checkb "message names the recv" true (has 0)

(* --- memory image --- *)

let same_contents expected actual =
  List.length expected = Array.length actual
  && List.for_all2
       (fun (a, v) (b, w) -> a = b && same_value v w)
       expected (Array.to_list actual)

module Int_map = Map.Make (Int)

(* The first global spans several image pages, so the model test crosses
   page boundaries; a byte-sized tail ends the span one byte past a
   16 KB page boundary, so the last aligned word opens a page of its own. *)
let image_prog () =
  let p = Program.create () in
  let big = Program.alloc p "big" ~elems:3000 ~elem_size:8 in
  let small = Program.alloc p "small" ~elems:37 ~elem_size:4 in
  let tail_base = (Program.heap_end p + 63) / 64 * 64 in
  let span = (2 * 4 * 4096) + 1 in
  let _ =
    Program.alloc p "tail" ~elem_size:1
      ~elems:(big.Program.base + span - tail_base)
  in
  let _ = B.define p "k" ~nparams:0 (fun b -> B.ret b ()) in
  (p, big, small)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int (Int64.of_int i)) int;
        oneofl
          [
            Value.Int Int64.min_int; Value.Int Int64.max_int; Value.Int 0L;
            Value.Float 0.0; Value.Float (-0.0); Value.Float Float.nan;
            Value.Float (Int64.float_of_bits 0x7ff0_0000_0000_0001L);
            Value.Float (Int64.float_of_bits 0xfff8_dead_beef_0001L);
            Value.Float Float.neg_infinity;
          ];
        map (fun f -> Value.Float f) float;
      ])

let addr_gen ~lo ~hi =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> lo + (4 * i)) (int_bound ((hi - lo) / 4));
        map (fun i -> lo + i) (int_bound (hi - lo));
        map (fun i -> -1 - i) (int_bound 4096);
        map (fun i -> hi + i) (int_bound 4096);
        oneofl
          [ lo; lo + 4; hi - 4; (hi - 1) land lnot 3; hi - 1; hi; 0; min_int;
            max_int ];
      ])

type mem_op = Poke of int * Value.t | Peek of int

let prop_memory_model =
  let p, _, _ = image_prog () in
  let lo = (List.hd (Program.globals p)).Program.base
  and hi = Program.heap_end p in
  let op_gen =
    QCheck.Gen.(
      let addr = addr_gen ~lo ~hi in
      frequency
        [
          (3, map2 (fun a v -> Poke (a, v)) addr value_gen);
          (2, map (fun a -> Peek a) addr);
        ])
  in
  let print_op = function
    | Poke (a, v) -> Printf.sprintf "poke %d %s" a (Value.to_string v)
    | Peek a -> Printf.sprintf "peek %d" a
  in
  QCheck.Test.make ~name:"memory image agrees with a map model" ~count:200
    QCheck.(
      make ~print:Print.(list print_op) ~shrink:Shrink.list
        Gen.(list_size (0 -- 300) op_gen))
    (fun ops ->
      let it = single_tile p "k" [] in
      let model =
        List.fold_left
          (fun model op ->
            match op with
            | Poke (a, v) ->
                Interp.poke it a v;
                Int_map.add a v model
            | Peek a ->
                let expected =
                  Option.value ~default:Value.zero (Int_map.find_opt a model)
                in
                if not (same_value expected (Interp.peek it a)) then
                  QCheck.Test.fail_reportf "peek %d disagrees" a;
                model)
          Int_map.empty ops
      in
      same_contents (Int_map.bindings model) (Interp.memory_contents it))

let test_late_global () =
  let p, big, _ = image_prog () in
  let it = single_tile p "k" [] in
  let late = Program.alloc p "late" ~elems:4 ~elem_size:8 in
  Interp.poke_global it late 3 (Value.of_int 7);
  Interp.poke_global it big 1 (Value.of_float 2.5);
  Interp.poke_global it late 0 (Value.of_float (-1.0));
  checki "late read back" 7 (Value.to_int (Interp.peek_global it late 3));
  checkf "late float read back" (-1.0)
    (Value.to_float (Interp.peek_global it late 0));
  checki "late unset is zero" 0 (Value.to_int (Interp.peek_global it late 1));
  let addr g i = g.Program.base + (i * g.Program.elem_size) in
  checkb "contents in address order" true
    (same_contents
       [
         (addr big 1, Value.of_float 2.5);
         (addr late 0, Value.of_float (-1.0));
         (addr late 3, Value.of_int 7);
       ]
       (Interp.memory_contents it))

let test_poked_zero_is_bound () =
  let p, big, small = image_prog () in
  let it = single_tile p "k" [] in
  checki "fresh memory is empty" 0 (Array.length (Interp.memory_contents it));
  Interp.poke_global it small 2 Value.zero;
  Interp.poke_global it big 0 (Value.of_float 0.0);
  checkb "zeros are bindings" true
    (same_contents
       [
         (big.Program.base, Value.of_float 0.0);
         (small.Program.base + 8, Value.zero);
       ]
       (Interp.memory_contents it))

(* A 2^40-byte global: the image must not be built eagerly, and its span
   is capped, so the far end lands in the fallback table. *)
let test_huge_global () =
  let p = Program.create () in
  let elems = 1 lsl 37 in
  let huge = Program.alloc p "huge" ~elems ~elem_size:8 in
  let _ = B.define p "k" ~nparams:0 (fun b -> B.ret b ()) in
  let t0 = Sys.time () in
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  let it = single_tile p "k" [] in
  Interp.poke_global it huge 0 (Value.of_int 1);
  Interp.poke_global it huge (elems - 1) (Value.of_float 2.0);
  checki "first element" 1 (Value.to_int (Interp.peek_global it huge 0));
  checkf "last element" 2.0
    (Value.to_float (Interp.peek_global it huge (elems - 1)));
  checki "middle unset" 0 (Value.to_int (Interp.peek_global it huge (elems / 2)));
  checki "two bindings" 2 (Array.length (Interp.memory_contents it));
  let grown = (Gc.quick_stat ()).Gc.heap_words - heap0 in
  let elapsed = Sys.time () -. t0 in
  checkb (Printf.sprintf "heap grew by %d words" grown) true (grown < 1 lsl 20);
  checkb (Printf.sprintf "took %.3f s" elapsed) true (elapsed < 0.5)

let suite =
  [
    ( "interp.semantics",
      [
        Alcotest.test_case "integer arithmetic" `Quick test_arith_result;
        Alcotest.test_case "float math" `Quick test_float_math;
        Alcotest.test_case "select and casts" `Quick test_select_and_casts;
        Alcotest.test_case "loop sum" `Quick test_loop_sum;
        QCheck_alcotest.to_alcotest prop_expr_agrees;
      ] );
    ( "interp.traces",
      [
        Alcotest.test_case "control trace shape" `Quick test_control_trace_shape;
        Alcotest.test_case "memory trace addresses" `Quick test_mem_trace_addresses;
      ] );
    ( "interp.spmd",
      [
        Alcotest.test_case "tid and ntiles" `Quick test_spmd_tid_ntiles;
        Alcotest.test_case "atomics across tiles" `Quick test_atomics_across_tiles;
        Alcotest.test_case "heterogeneous kernels" `Quick test_hetero_kernels;
      ] );
    ( "interp.channels",
      [
        Alcotest.test_case "send/recv pipeline" `Quick test_send_recv_pipeline;
        Alcotest.test_case "load_send + store_recv" `Quick test_load_send_store_recv;
        Alcotest.test_case "atomic store_recv" `Quick test_atomic_store_recv;
        Alcotest.test_case "recv resumes mid-block" `Quick
          test_recv_resumes_mid_block;
      ] );
    ( "interp.failures",
      [
        Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        Alcotest.test_case "step limit" `Quick test_step_limit;
        Alcotest.test_case "step limit mid-block" `Quick
          test_step_limit_mid_block;
        Alcotest.test_case "unresolved global fails when executed" `Quick
          test_unresolved_glob;
        Alcotest.test_case "bad arg count" `Quick test_bad_args;
        Alcotest.test_case "single run" `Quick test_run_once;
        Alcotest.test_case "deadlock fixture" `Quick test_deadlock_fixture;
      ] );
    ( "interp.memory",
      [
        QCheck_alcotest.to_alcotest prop_memory_model;
        Alcotest.test_case "global allocated after create" `Quick
          test_late_global;
        Alcotest.test_case "poked zero is a binding" `Quick
          test_poked_zero_is_bound;
        Alcotest.test_case "2^40-byte global" `Quick test_huge_global;
      ] );
  ]
