(* System-level behaviour tests for the graph-based tile model, driven
   through Soc.run on purpose-built micro-kernels. *)

open Mosaic_ir
module B = Builder
module Interp = Mosaic_trace.Interp
module Soc = Mosaic.Soc
module TC = Mosaic_tile.Tile_config
module Branch = Mosaic_tile.Branch

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* A serial dependence chain: n back-to-back integer adds. *)
let chain_kernel n =
  let p = Program.create () in
  let out = Program.alloc p "out" ~elems:1 ~elem_size:8 in
  let _ =
    B.define p "chain" ~nparams:0 (fun b ->
        let v = ref (B.imm 1) in
        for _ = 1 to n do
          v := B.add b !v (B.imm 1)
        done;
        B.store b ~addr:(B.elem b out (B.imm 0)) !v;
        B.ret b ())
  in
  p

(* Two independent n/2 chains joined at the end: same instruction count as
   [chain_kernel n] but half the critical path. *)
let parallel_kernel n =
  let p = Program.create () in
  let out = Program.alloc p "out" ~elems:1 ~elem_size:8 in
  let _ =
    B.define p "par" ~nparams:0 (fun b ->
        let x = ref (B.imm 1) and y = ref (B.imm 2) in
        for _ = 1 to (n / 2) - 1 do
          x := B.add b !x (B.imm 1);
          y := B.add b !y (B.imm 1)
        done;
        B.store b ~addr:(B.elem b out (B.imm 0)) (B.add b !x !y);
        B.ret b ())
  in
  p

let run_kernel ?(cfg = Mosaic.Presets.dae_soc) p kernel core =
  let it = Interp.create p ~kernel ~ntiles:1 ~args:[] in
  let trace = Interp.run it in
  Soc.run_homogeneous cfg ~program:p ~trace ~tile_config:core

let test_chain_serializes () =
  let p = chain_kernel 64 in
  let r = run_kernel p "chain" TC.out_of_order in
  (* 64 dependent 1-cycle adds cannot finish faster than 64 cycles. *)
  checkb "chain lower bound" true (r.Soc.cycles >= 64)

let test_parallelism_beats_chain () =
  let chain = run_kernel (chain_kernel 64) "chain" TC.out_of_order in
  let par = run_kernel (parallel_kernel 64) "par" TC.out_of_order in
  checkb "independent work faster than chain" true (par.Soc.cycles < chain.Soc.cycles)

let test_issue_width_matters () =
  let p = parallel_kernel 128 in
  let narrow = { TC.out_of_order with TC.issue_width = 1; name = "w1" } in
  let r1 = run_kernel p "par" narrow in
  let r4 = run_kernel (parallel_kernel 128) "par" TC.out_of_order in
  checkb "4-wide beats 1-wide" true (r4.Soc.cycles < r1.Soc.cycles)

let test_window_limits_mlp () =
  (* Many independent loads over a large array: a bigger window overlaps
     more misses. *)
  let mk () =
    let p = Program.create () in
    let arr = Program.alloc p "arr" ~elems:8192 ~elem_size:8 in
    let _ =
      B.define p "loads" ~nparams:0 (fun b ->
          B.for_ b ~from:(B.imm 0) ~to_:(B.imm 1024) (fun i ->
              ignore (B.load b (B.elem b arr (B.mul b i (B.imm 8)))));
          B.ret b ())
    in
    p
  in
  let small = { TC.out_of_order with TC.window_size = 8; name = "small" } in
  let big = { TC.out_of_order with TC.window_size = 256; name = "big" } in
  let r_small = run_kernel (mk ()) "loads" small in
  let r_big = run_kernel (mk ()) "loads" big in
  checkb "bigger window overlaps more misses" true
    (r_big.Soc.cycles * 2 < r_small.Soc.cycles)

let test_in_order_slower_than_ooo () =
  let inst = Mosaic_workloads.Registry.instance "stencil" in
  let trace = Mosaic_workloads.Runner.trace inst ~ntiles:1 in
  let run core =
    Soc.run_homogeneous Mosaic.Presets.dae_soc
      ~program:inst.Mosaic_workloads.Runner.program ~trace ~tile_config:core
  in
  let ooo = run TC.out_of_order and ino = run TC.in_order in
  checkb "OoO faster" true (ooo.Soc.cycles < ino.Soc.cycles);
  checkb "InO IPC <= 1" true
    (float_of_int ino.Soc.instrs /. float_of_int ino.Soc.cycles <= 1.0 +. 1e-9)

let test_branch_policies_ordering () =
  (* A loop-heavy kernel: perfect prediction <= static <= no speculation. *)
  let mk () =
    let p = Program.create () in
    let out = Program.alloc p "out" ~elems:1 ~elem_size:8 in
    let _ =
      B.define p "loops" ~nparams:0 (fun b ->
          let acc = B.var b (B.imm 0) in
          B.for_ b ~from:(B.imm 0) ~to_:(B.imm 500) (fun i ->
              B.assign b ~var:acc (B.add b acc i));
          B.store b ~addr:(B.elem b out (B.imm 0)) acc;
          B.ret b ())
    in
    p
  in
  let with_policy policy name =
    run_kernel (mk ()) "loops" { TC.out_of_order with TC.branch = policy; name }
  in
  let perfect = with_policy Branch.Perfect "perfect" in
  let static_ = with_policy (Branch.Static { penalty = 12 }) "static" in
  let none = with_policy Branch.No_speculation "none" in
  checkb "perfect <= static" true (perfect.Soc.cycles <= static_.Soc.cycles);
  checkb "static < no speculation" true (static_.Soc.cycles < none.Soc.cycles)

let test_branch_stats_recorded () =
  let p = chain_kernel 4 in
  let r = run_kernel p "chain" TC.out_of_order in
  let bs = r.Soc.tile_stats.(0).Mosaic_tile.Core_tile.branch in
  checkb "predictions tracked" true (bs.Branch.predictions >= 0);
  checki "instrs all completed" r.Soc.instrs
    r.Soc.tile_stats.(0).Mosaic_tile.Core_tile.completed_instrs

let test_live_dbb_limit_throttles () =
  let mk () =
    let p = Program.create () in
    let out = Program.alloc p "out" ~elems:64 ~elem_size:8 in
    let _ =
      B.define p "unroll" ~nparams:0 (fun b ->
          B.for_ b ~from:(B.imm 0) ~to_:(B.imm 64) (fun i ->
              B.store b ~addr:(B.elem b out i) (B.mul b i i));
          B.ret b ())
    in
    p
  in
  let base = TC.pre_rtl_accelerator () in
  let wide = { base with TC.live_dbb_limit = Some 8; name = "wide" } in
  let narrow =
    { base with TC.live_dbb_limit = Some 1; max_live_dbbs = 2; name = "narrow" }
  in
  let r_wide = run_kernel (mk ()) "unroll" wide in
  let r_narrow = run_kernel (mk ()) "unroll" narrow in
  checkb "loop replication speeds the accelerator" true
    (r_wide.Soc.cycles < r_narrow.Soc.cycles)

let test_perfect_alias_helps_stores () =
  (* Interleaved stores and loads at distinct addresses: without alias
     speculation younger ops wait on unresolved older addresses. *)
  let mk () =
    let p = Program.create () in
    let a = Program.alloc p "a" ~elems:512 ~elem_size:8 in
    let bglob = Program.alloc p "b" ~elems:512 ~elem_size:8 in
    let _ =
      B.define p "mix" ~nparams:0 (fun b ->
          B.for_ b ~from:(B.imm 0) ~to_:(B.imm 256) (fun i ->
              let v = B.load b (B.elem b a i) in
              B.store b ~addr:(B.elem b bglob i) v);
          B.ret b ())
    in
    p
  in
  let speculative = { TC.out_of_order with TC.perfect_alias = true; name = "pa" } in
  let r_spec = run_kernel (mk ()) "mix" speculative in
  let r_base = run_kernel (mk ()) "mix" TC.out_of_order in
  checkb "perfect alias at least as fast" true (r_spec.Soc.cycles <= r_base.Soc.cycles)

let test_clock_divider_scales () =
  (* Long chain so the fixed cold-miss cost of the final store does not
     dilute the ratio. *)
  let p = chain_kernel 400 in
  let slow = { TC.out_of_order with TC.clock_divider = 2; name = "slow" } in
  let r_fast = run_kernel (chain_kernel 400) "chain" TC.out_of_order in
  let r_slow = run_kernel p "chain" slow in
  checkb "half-clock tile roughly doubles cycles" true
    (r_slow.Soc.cycles > (3 * r_fast.Soc.cycles) / 2)

let test_send_recv_timing () =
  (* Producer/consumer across two tiles through the Interleaver. *)
  let p = Program.create () in
  let out = Program.alloc p "out" ~elems:1 ~elem_size:8 in
  let _ =
    B.define p "pc" ~nparams:0 (fun b ->
        B.if_else b
          (B.icmp b Op.Eq B.tid (B.imm 0))
          (fun () ->
            B.for_ b ~from:(B.imm 0) ~to_:(B.imm 50) (fun i ->
                B.send b ~chan:0 ~dst:(B.imm 1) i))
          (fun () ->
            let acc = B.var b (B.imm 0) in
            B.for_ b ~from:(B.imm 0) ~to_:(B.imm 50) (fun _ ->
                B.assign b ~var:acc (B.add b acc (B.recv b ~chan:0)));
            B.store b ~addr:(B.elem b out (B.imm 0)) acc);
        B.ret b ())
  in
  let it = Interp.create p ~kernel:"pc" ~ntiles:2 ~args:[] in
  let trace = Interp.run it in
  let r =
    Soc.run_homogeneous Mosaic.Presets.dae_soc ~program:p ~trace
      ~tile_config:TC.out_of_order
  in
  checki "all messages delivered" 50 r.Soc.interleaver.Mosaic.Interleaver.sends;
  checki "all received" 50 r.Soc.interleaver.Mosaic.Interleaver.recvs

let test_small_buffer_backpressure () =
  let p = Program.create () in
  let _ =
    B.define p "burst" ~nparams:0 (fun b ->
        B.if_else b
          (B.icmp b Op.Eq B.tid (B.imm 0))
          (fun () ->
            B.for_ b ~from:(B.imm 0) ~to_:(B.imm 100) (fun i ->
                B.send b ~chan:0 ~dst:(B.imm 1) i))
          (fun () ->
            (* slow consumer: long dependent chain between receives *)
            B.for_ b ~from:(B.imm 0) ~to_:(B.imm 100) (fun _ ->
                let v = B.recv b ~chan:0 in
                let s = ref v in
                for _ = 1 to 8 do
                  s := B.mul b !s !s
                done));
        B.ret b ())
  in
  let it = Interp.create p ~kernel:"burst" ~ntiles:2 ~args:[] in
  let trace = Interp.run it in
  let cfg = { Mosaic.Presets.dae_soc with Soc.buffer_capacity = 4 } in
  let r = Soc.run_homogeneous cfg ~program:p ~trace ~tile_config:TC.out_of_order in
  checkb "sender stalled on full buffer" true
    (r.Soc.interleaver.Mosaic.Interleaver.send_stalls > 0)

(* Minor-heap words allocated per simulated instruction by [Soc.run], on
   one out-of-order and one in-order run of the same SPMV. The in-flight
   pipeline state lives in preallocated rings, so what remains is per-run
   set-up and per-block work; a per-instruction record or list cell would
   push this well past the bound. *)
let alloc_bound_words_per_instr = 6.0

let minor_words_per_instr tile_config =
  let inst =
    Mosaic_workloads.Spmv.instance ~seed:7 ~rows:512 ~cols:512 ~per_row:8 ()
  in
  let trace = Mosaic_workloads.Runner.trace inst ~ntiles:1 in
  let before = Gc.minor_words () in
  let r =
    Soc.run_homogeneous Mosaic.Presets.xeon_soc
      ~program:inst.Mosaic_workloads.Runner.program ~trace ~tile_config
  in
  (Gc.minor_words () -. before) /. float_of_int r.Soc.instrs

let test_alloc_per_instr () =
  List.iter
    (fun (name, tc) ->
      let w = minor_words_per_instr tc in
      Printf.printf "%s: %.2f minor words per instruction\n" name w;
      if w > alloc_bound_words_per_instr then
        Alcotest.failf "%s: %.2f minor words per instruction (bound %.1f)"
          name w alloc_bound_words_per_instr)
    [ ("ooo", TC.out_of_order); ("ino", TC.in_order) ]

let suite =
  [
    ( "tile.execution",
      [
        Alcotest.test_case "dependence chains serialize" `Quick test_chain_serializes;
        Alcotest.test_case "parallel work overlaps" `Quick test_parallelism_beats_chain;
        Alcotest.test_case "issue width" `Quick test_issue_width_matters;
        Alcotest.test_case "window bounds MLP" `Quick test_window_limits_mlp;
        Alcotest.test_case "in-order vs OoO" `Quick test_in_order_slower_than_ooo;
        Alcotest.test_case "clock divider" `Quick test_clock_divider_scales;
        Alcotest.test_case "minor words per instruction" `Quick
          test_alloc_per_instr;
      ] );
    ( "tile.speculation",
      [
        Alcotest.test_case "branch policy ordering" `Quick test_branch_policies_ordering;
        Alcotest.test_case "branch stats" `Quick test_branch_stats_recorded;
        Alcotest.test_case "perfect alias speculation" `Quick test_perfect_alias_helps_stores;
      ] );
    ( "tile.accelerator-knobs",
      [ Alcotest.test_case "live DBB limit" `Quick test_live_dbb_limit_throttles ] );
    ( "tile.communication",
      [
        Alcotest.test_case "send/recv delivery" `Quick test_send_recv_timing;
        Alcotest.test_case "buffer backpressure" `Quick test_small_buffer_backpressure;
      ] );
  ]
