(* Tests for the compiler: DDG, rewrite helpers, DAE slicing. *)

open Mosaic_ir
module B = Builder
module Ddg = Mosaic_compiler.Ddg
module Dae = Mosaic_compiler.Dae
module Rewrite = Mosaic_compiler.Rewrite
module Interp = Mosaic_trace.Interp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- DDG --- *)

let test_ddg_intra_edges () =
  let p = Program.create () in
  let f =
    B.define p "chain" ~nparams:1 (fun b ->
        let x = B.param b 0 in
        let a = B.add b x (B.imm 1) in
        let c = B.mul b a a in
        let _ = B.sub b c x in
        B.ret b ())
  in
  let ddg = Ddg.build f in
  (* instr 0 = add (param use only), 1 = mul (uses add), 2 = sub (uses mul),
     3 = ret *)
  checki "add has no intra parents" 0 (Array.length ddg.Ddg.deps.(0).Ddg.intra);
  Alcotest.(check (array int)) "mul depends on add" [| 0 |] ddg.Ddg.deps.(1).Ddg.intra;
  Alcotest.(check (array int)) "sub depends on mul" [| 1 |] ddg.Ddg.deps.(2).Ddg.intra;
  checki "edge count" 2 (Ddg.edge_count ddg)

let test_ddg_extern_regs () =
  let p = Program.create () in
  let f =
    B.define p "crossbb" ~nparams:0 (fun b ->
        let v = B.var b (B.imm 3) in
        B.if_ b (B.icmp b Op.Ge v (B.imm 0)) (fun () ->
            (* reads v, defined in the previous block *)
            B.assign b ~var:v (B.add b v (B.imm 1)));
        B.ret b ())
  in
  let ddg = Ddg.build f in
  (* find the add in the then-block: it reads v externally *)
  let found = ref false in
  Array.iter
    (fun (blk : Func.block) ->
      Array.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Op.Binop Op.Add
            when Array.length ddg.Ddg.deps.(i.Instr.id).Ddg.extern_regs > 0 ->
              found := true
          | _ -> ())
        blk.Func.instrs)
    f.Func.blocks;
  checkb "cross-block dependence is extern" true !found

let test_ddg_params_not_extern () =
  let p = Program.create () in
  let f =
    B.define p "params" ~nparams:2 (fun b ->
        let _ = B.add b (B.param b 0) (B.param b 1) in
        B.ret b ())
  in
  let ddg = Ddg.build f in
  checki "params are always available" 0
    (Array.length ddg.Ddg.deps.(0).Ddg.extern_regs)

let test_ddg_class_histogram () =
  let p = Program.create () in
  let g = Program.alloc p "g" ~elems:4 ~elem_size:4 in
  let f =
    B.define p "histo" ~nparams:0 (fun b ->
        let v = B.load b ~size:4 (B.elem b g (B.imm 0)) in
        B.store b ~size:4 ~addr:(B.elem b g (B.imm 1)) v;
        B.ret b ())
  in
  let h = Ddg.class_histogram (Ddg.build f) in
  checki "one load" 1 (List.assoc Op.C_load h);
  checki "one store" 1 (List.assoc Op.C_store h);
  checki "two geps" 2 (List.assoc Op.C_agu h)

(* --- Rewrite helpers --- *)

let test_def_use_counts () =
  let p = Program.create () in
  let f =
    B.define p "counts" ~nparams:1 (fun b ->
        let x = B.param b 0 in
        let a = B.add b x x in
        let _ = B.mul b a (B.imm 2) in
        B.ret b ())
  in
  let defs = Rewrite.def_counts f and uses = Rewrite.use_counts f in
  checki "param used twice" 2 uses.(0);
  checki "a defined once" 1 defs.(1);
  checki "a used once" 1 uses.(1)

(* --- DAE slicing --- *)

let count_class f cls =
  Array.fold_left
    (fun acc (b : Func.block) ->
      Array.fold_left
        (fun acc (i : Instr.t) ->
          if Op.classify i.Instr.op = cls then acc + 1 else acc)
        acc b.Func.instrs)
    0 f.Func.blocks

let daeable_kernel () =
  let p = Program.create () in
  let xs = Program.alloc p "xs" ~elems:32 ~elem_size:4 in
  let ys = Program.alloc p "ys" ~elems:32 ~elem_size:4 in
  let f =
    B.define p "axpy" ~nparams:1 (fun b ->
        let n = B.param b 0 in
        B.for_ b ~from:(B.imm 0) ~to_:n (fun i ->
            let x = B.load b ~size:4 (B.elem b xs i) in
            let v = B.fmul b x (B.fimm 2.0) in
            B.store b ~size:4 ~addr:(B.elem b ys i) v);
        B.ret b ())
  in
  (p, xs, ys, f)

let test_dae_structure () =
  let _, _, _, f = daeable_kernel () in
  let info = Dae.slice f in
  checki "one terminal load" 1 info.Dae.sent_loads;
  checki "one routed store" 1 info.Dae.routed_stores;
  (* the access slice carries no FP compute; the execute slice no loads *)
  checki "no fmul on access side" 0 (count_class info.Dae.access Op.C_fmul);
  checki "no plain loads on execute side" 0 (count_class info.Dae.execute Op.C_load);
  checki "execute has no stores" 0 (count_class info.Dae.execute Op.C_store);
  (* both slices keep the control skeleton *)
  checki "same block count (access)"
    (Array.length f.Func.blocks)
    (Array.length info.Dae.access.Func.blocks);
  checki "same block count (execute)"
    (Array.length f.Func.blocks)
    (Array.length info.Dae.execute.Func.blocks)

let test_dae_functional_equivalence () =
  let p, xs, ys, f = daeable_kernel () in
  let info = Dae.slice f in
  Program.add_func p info.Dae.access;
  Program.add_func p info.Dae.execute;
  Validate.check_exn p;
  let args = [ Value.of_int 32 ] in
  let it =
    Interp.create_hetero p ~label:"axpy-dae"
      ~tiles:[| ("axpy_access", args); ("axpy_execute", args) |]
  in
  for i = 0 to 31 do
    Interp.poke_global it xs i (Value.of_float (float_of_int i))
  done;
  let _ = Interp.run it in
  for i = 0 to 31 do
    Alcotest.(check (float 1e-9))
      "sliced result matches"
      (2.0 *. float_of_int i)
      (Value.to_float (Interp.peek_global it ys i))
  done

let test_dae_multi_pair () =
  (* Two DAE pairs: tid remapping must route each access tile to its own
     partner. *)
  let p, xs, ys, f = daeable_kernel () in
  let info = Dae.slice f in
  Program.add_func p info.Dae.access;
  Program.add_func p info.Dae.execute;
  let args = [ Value.of_int 32 ] in
  let it =
    Interp.create_hetero p ~label:"axpy-dae2"
      ~tiles:
        [|
          ("axpy_access", args);
          ("axpy_access", args);
          ("axpy_execute", args);
          ("axpy_execute", args);
        |]
  in
  for i = 0 to 31 do
    Interp.poke_global it xs i (Value.of_float (float_of_int i))
  done;
  let _ = Interp.run it in
  let ok = ref true in
  for i = 0 to 31 do
    if
      Float.abs
        (Value.to_float (Interp.peek_global it ys i) -. (2.0 *. float_of_int i))
      > 1e-9
    then ok := false
  done;
  checkb "both pairs computed their halves" true !ok

let test_dae_rejects_communicating_kernels () =
  let p = Program.create () in
  let f =
    B.define p "comm" ~nparams:0 (fun b ->
        B.send b ~chan:0 ~dst:(B.imm 0) (B.imm 1);
        B.ret b ())
  in
  checkb "rejected" true
    (try
       ignore (Dae.slice f);
       false
     with Invalid_argument _ -> true)

let test_dae_atomic_routing () =
  (* Computed atomic values route through the store channel. *)
  let p = Program.create () in
  let w = Program.alloc p "w" ~elems:8 ~elem_size:4 in
  let acc = Program.alloc p "acc" ~elems:1 ~elem_size:4 in
  let f =
    B.define p "gather" ~nparams:1 (fun b ->
        B.for_ b ~from:(B.imm 0) ~to_:(B.param b 0) (fun i ->
            let x = B.load b ~size:4 (B.elem b w i) in
            let v = B.fmul b x x in
            ignore (B.atomic b Op.Rmw_add ~size:4 ~addr:(B.elem b acc (B.imm 0)) v));
        B.ret b ())
  in
  let info = Dae.slice f in
  checki "atomic routed" 1 info.Dae.routed_stores;
  Program.add_func p info.Dae.access;
  Program.add_func p info.Dae.execute;
  let args = [ Value.of_int 8 ] in
  let it =
    Interp.create_hetero p ~label:"gather-dae"
      ~tiles:[| ("gather_access", args); ("gather_execute", args) |]
  in
  for i = 0 to 7 do
    Interp.poke_global it w i (Value.of_float 1.0)
  done;
  Interp.poke_global it acc 0 (Value.of_float 0.0);
  let _ = Interp.run it in
  Alcotest.(check (float 1e-9)) "sum of squares" 8.0
    (Value.to_float (Interp.peek_global it acc 0))

let suite =
  [
    ( "compiler.ddg",
      [
        Alcotest.test_case "intra-block edges" `Quick test_ddg_intra_edges;
        Alcotest.test_case "extern registers" `Quick test_ddg_extern_regs;
        Alcotest.test_case "params not extern" `Quick test_ddg_params_not_extern;
        Alcotest.test_case "class histogram" `Quick test_ddg_class_histogram;
      ] );
    ("compiler.rewrite", [ Alcotest.test_case "def/use counts" `Quick test_def_use_counts ]);
    ( "compiler.dae",
      [
        Alcotest.test_case "slice structure" `Quick test_dae_structure;
        Alcotest.test_case "functional equivalence" `Quick test_dae_functional_equivalence;
        Alcotest.test_case "multiple pairs" `Quick test_dae_multi_pair;
        Alcotest.test_case "rejects communicating kernels" `Quick
          test_dae_rejects_communicating_kernels;
        Alcotest.test_case "atomic value routing" `Quick test_dae_atomic_routing;
      ] );
  ]
