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

(* Property: random arithmetic expressions agree with OCaml evaluation. *)
let arb_expr =
  let open QCheck.Gen in
  let leaf = map (fun n -> `Imm n) (int_range (-100) 100) in
  let node self n =
    if n <= 0 then leaf
    else
      frequency
        [
          (1, leaf);
          (2, map2 (fun a b -> `Add (a, b)) (self (n / 2)) (self (n / 2)));
          (2, map2 (fun a b -> `Sub (a, b)) (self (n / 2)) (self (n / 2)));
          (2, map2 (fun a b -> `Mul (a, b)) (self (n / 2)) (self (n / 2)));
          (1, map2 (fun a b -> `Min (a, b)) (self (n / 2)) (self (n / 2)));
        ]
  in
  QCheck.make (sized (fix node))

(* Reference semantics in Int64, matching the IR's integer width. *)
let rec eval_expr = function
  | `Imm n -> Int64.of_int n
  | `Add (a, b) -> Int64.add (eval_expr a) (eval_expr b)
  | `Sub (a, b) -> Int64.sub (eval_expr a) (eval_expr b)
  | `Mul (a, b) -> Int64.mul (eval_expr a) (eval_expr b)
  | `Min (a, b) -> Stdlib.min (eval_expr a) (eval_expr b)

let rec build_expr b = function
  | `Imm n -> B.imm n
  | `Add (x, y) -> B.add b (build_expr b x) (build_expr b y)
  | `Sub (x, y) -> B.sub b (build_expr b x) (build_expr b y)
  | `Mul (x, y) -> B.mul b (build_expr b x) (build_expr b y)
  | `Min (x, y) ->
      let xv = build_expr b x and yv = build_expr b y in
      B.select b (B.icmp b Op.Lt xv yv) xv yv

let prop_expr_agrees =
  QCheck.Test.make ~name:"interp agrees with OCaml on random expressions"
    ~count:60 arb_expr (fun e ->
      let p = Program.create () in
      let out = Program.alloc p "out" ~elems:1 ~elem_size:8 in
      let _ =
        B.define p "e" ~nparams:0 (fun b ->
            B.store b ~addr:(B.elem b out (B.imm 0)) (build_expr b e);
            B.ret b ())
      in
      let it = single_tile p "e" [] in
      let _ = Interp.run it in
      Value.to_int64 (Interp.peek_global it out 0) = eval_expr e)

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

(* Values compared bit for bit: a NaN payload or the sign of a zero is part
   of what the trace digest sees. *)
let same_value a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> Int64.equal x y
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Int _, Value.Float _ | Value.Float _, Value.Int _ -> false

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
      ] );
    ( "interp.failures",
      [
        Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        Alcotest.test_case "step limit" `Quick test_step_limit;
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
