(* Differential tests for event-driven cycle skipping: runs with skipping
   on and off must agree on every simulated observable — cycle counts,
   instruction counts, per-tile stats, memory totals, DRAM traffic,
   interleaver handoffs, even the emitted event stream. Only host-time
   numbers and the retry-sampled diagnostic counters (soc.mao_stalls,
   inter.send_stalls) may differ, because skipping removes the no-op retry
   cycles that incremented them. *)

module Soc = Mosaic.Soc
module Interleaver = Mosaic.Interleaver
module TC = Mosaic_tile.Tile_config
module Core_tile = Mosaic_tile.Core_tile
module Hierarchy = Mosaic_memory.Hierarchy
module Dram = Mosaic_memory.Dram
module Branch = Mosaic_tile.Branch
module Sink = Mosaic_obs.Sink
module W = Mosaic_workloads

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let no_skip cfg = { cfg with Soc.cycle_skip = false }

(* Every simulated observable of the two runs, compared field by field. *)
let assert_equivalent name (skip : Soc.result) (naive : Soc.result) =
  let ck what = checki (Printf.sprintf "%s: %s" name what) in
  ck "cycles" naive.Soc.cycles skip.Soc.cycles;
  ck "instrs" naive.Soc.instrs skip.Soc.instrs;
  ck "accel invocations" naive.Soc.accel_invocations
    skip.Soc.accel_invocations;
  ck "tile count"
    (Array.length naive.Soc.tile_stats)
    (Array.length skip.Soc.tile_stats);
  Array.iteri
    (fun i (n : Core_tile.stats) ->
      let s = skip.Soc.tile_stats.(i) in
      let ckt what = ck (Printf.sprintf "tile %d %s" i what) in
      ckt "instrs" n.Core_tile.completed_instrs s.Core_tile.completed_instrs;
      ckt "finish cycle" n.Core_tile.finish_cycle s.Core_tile.finish_cycle;
      ckt "dbbs" n.Core_tile.dbbs_launched s.Core_tile.dbbs_launched;
      ckt "mem accesses" n.Core_tile.mem_accesses s.Core_tile.mem_accesses;
      ckt "branch predictions" n.Core_tile.branch.Branch.predictions
        s.Core_tile.branch.Branch.predictions;
      ckt "branch mispredictions" n.Core_tile.branch.Branch.mispredictions
        s.Core_tile.branch.Branch.mispredictions;
      Array.iteri
        (fun cls count ->
          ck
            (Printf.sprintf "tile %d class %d" i cls)
            count
            s.Core_tile.issued_by_class.(cls))
        n.Core_tile.issued_by_class;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: tile %d energy" name i)
        n.Core_tile.energy_pj s.Core_tile.energy_pj)
    naive.Soc.tile_stats;
  ck "l1 accesses" naive.Soc.mem_totals.Hierarchy.l1_accesses
    skip.Soc.mem_totals.Hierarchy.l1_accesses;
  ck "l2 accesses" naive.Soc.mem_totals.Hierarchy.l2_accesses
    skip.Soc.mem_totals.Hierarchy.l2_accesses;
  ck "llc accesses" naive.Soc.mem_totals.Hierarchy.llc_accesses
    skip.Soc.mem_totals.Hierarchy.llc_accesses;
  ck "dram lines" naive.Soc.mem_totals.Hierarchy.dram_lines
    skip.Soc.mem_totals.Hierarchy.dram_lines;
  ck "dram reads" naive.Soc.dram.Dram.reads skip.Soc.dram.Dram.reads;
  ck "dram writes" naive.Soc.dram.Dram.writes skip.Soc.dram.Dram.writes;
  ck "interleaver sends" naive.Soc.interleaver.Interleaver.sends
    skip.Soc.interleaver.Interleaver.sends;
  ck "interleaver recvs" naive.Soc.interleaver.Interleaver.recvs
    skip.Soc.interleaver.Interleaver.recvs;
  ck "interleaver max occupancy"
    naive.Soc.interleaver.Interleaver.max_occupancy
    skip.Soc.interleaver.Interleaver.max_occupancy;
  Alcotest.(check (float 0.0))
    (name ^ ": energy") naive.Soc.energy_j skip.Soc.energy_j

(* Run the same workload under [cfg] with skipping on and off and demand
   equivalence; returns the pair for extra assertions. *)
let differential name cfg ~tile_config inst ~ntiles =
  let run cfg =
    let trace = W.Runner.trace inst ~ntiles in
    Soc.run_homogeneous cfg ~program:inst.W.Runner.program ~trace ~tile_config
  in
  let skip = run { cfg with Soc.cycle_skip = true } in
  let naive = run (no_skip cfg) in
  assert_equivalent name skip naive;
  (skip, naive)

let test_micro_workloads () =
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun (cname, tc) ->
          ignore
            (differential
               (Printf.sprintf "%s/%s" name cname)
               Mosaic.Presets.dae_soc ~tile_config:tc inst ~ntiles:1))
        [ ("ooo", TC.out_of_order); ("ino", TC.in_order) ])
    [
      ("pointer_chase", W.Micro.pointer_chase ~seed:3 ~nodes:128 ~steps:512 ());
      ("stream", W.Micro.stream ~seed:5 ~elems:2048 ());
      ("random_access", W.Micro.random_access ~seed:9 ~elems:1024 ~accesses:512 ());
    ]

(* Skipping must also hold on the denser xeon preset (different hierarchy,
   branch predictor, FU mix). *)
let test_xeon_preset () =
  ignore
    (differential "spmv/xeon" Mosaic.Presets.xeon_soc
       ~tile_config:TC.out_of_order
       (W.Spmv.instance ~seed:17 ~rows:96 ~cols:96 ~per_row:5 ())
       ~ntiles:2)

(* Randomized micro workloads: any parameter point must be equivalent. *)
let prop_random_micro =
  let arb =
    QCheck.make
      QCheck.Gen.(
        quad (int_range 0 1000) (int_range 2 200) (int_range 1 600) bool)
  in
  QCheck.Test.make ~name:"cycle skipping invariant on random micro" ~count:25
    arb
    (fun (seed, nodes, steps, in_order) ->
      let inst =
        if seed mod 2 = 0 then W.Micro.pointer_chase ~seed ~nodes ~steps ()
        else
          W.Micro.random_access ~seed ~elems:(nodes * 4)
            ~accesses:(Stdlib.max 1 (steps / 2))
            ()
      in
      let tc = if in_order then TC.in_order else TC.out_of_order in
      ignore
        (differential "random micro" Mosaic.Presets.dae_soc ~tile_config:tc
           inst ~ntiles:1);
      true)

(* Multi-tile DAE pipeline: decoupled access/execute pairs block on
   inter-tile channels, the regime where skipping has to respect
   progress-driven wake-ups. *)
let test_dae_pipeline () =
  let inst, _info =
    W.Projection.dae_instance ~seed:13 ~n_left:64 ~n_right:128 ~degree:4 ()
  in
  let pairs = 2 in
  let access = inst.W.Runner.kernel ^ "_access"
  and execute = inst.W.Runner.kernel ^ "_execute" in
  let spec =
    Array.init (2 * pairs) (fun i ->
        ((if i < pairs then access else execute), inst.W.Runner.args))
  in
  let trace = W.Runner.trace_hetero inst ~tiles:spec in
  let tiles =
    Array.init (2 * pairs) (fun i ->
        {
          Soc.kernel = (if i < pairs then access else execute);
          tile_config = TC.in_order;
        })
  in
  let run cfg = Soc.run cfg ~program:inst.W.Runner.program ~trace ~tiles in
  let skip = run Mosaic.Presets.dae_soc in
  let naive = run (no_skip Mosaic.Presets.dae_soc) in
  assert_equivalent "projection-dae" skip naive

(* Accelerator tile: invocation finish times are SoC-level events. *)
let test_accelerator () =
  ignore
    (differential "sgemm-accel" Mosaic.Presets.dae_soc
       ~tile_config:TC.out_of_order
       (W.Sgemm.instance ~accel:true ~m:32 ~n:32 ~k:32 ())
       ~ntiles:1)

(* Heterogeneous clock dividers: a slow tile only launches/issues on its
   own edges, so wake-ups must round up to edge alignment. *)
let test_clock_dividers () =
  let inst = W.Sgemm.instance ~m:24 ~n:24 ~k:24 () in
  let trace = W.Runner.trace inst ~ntiles:2 in
  let tiles =
    [|
      { Soc.kernel = "sgemm"; tile_config = TC.out_of_order };
      {
        Soc.kernel = "sgemm";
        tile_config = { TC.in_order with TC.clock_divider = 3 };
      };
    |]
  in
  let run cfg = Soc.run cfg ~program:inst.W.Runner.program ~trace ~tiles in
  let skip = run Mosaic.Presets.dae_soc in
  let naive = run (no_skip Mosaic.Presets.dae_soc) in
  assert_equivalent "mixed dividers" skip naive

(* The observability event stream is part of the contract: skipped cycles
   were no-ops, so the two runs must emit byte-identical event sequences. *)
let test_event_stream () =
  let run cfg =
    let inst = W.Micro.pointer_chase ~seed:3 ~nodes:64 ~steps:256 () in
    let trace = W.Runner.trace inst ~ntiles:1 in
    let sink = Sink.create () in
    ignore
      (Soc.run_homogeneous ~sink cfg ~program:inst.W.Runner.program ~trace
         ~tile_config:TC.out_of_order);
    Sink.to_list sink
  in
  let skip = run Mosaic.Presets.dae_soc in
  let naive = run (no_skip Mosaic.Presets.dae_soc) in
  checki "same event count" (List.length naive) (List.length skip);
  checkb "identical event stream" true (skip = naive)

(* And skipping must actually skip: a dependent-load chain stalls the core
   for the DRAM round-trip of every hop, so most cycles are quiescent. *)
let test_skipping_happens () =
  let inst = W.Micro.pointer_chase ~seed:3 ~nodes:4096 ~steps:4096 () in
  let trace = W.Runner.trace inst ~ntiles:1 in
  let run cfg =
    Soc.run_homogeneous cfg ~program:inst.W.Runner.program ~trace
      ~tile_config:TC.out_of_order
  in
  let skip = run Mosaic.Presets.dae_soc in
  let naive = run (no_skip Mosaic.Presets.dae_soc) in
  checki "naive steps every cycle" naive.Soc.cycles naive.Soc.stepped_cycles;
  checkb "skip steps fewer than half the cycles" true
    (2 * skip.Soc.stepped_cycles < skip.Soc.cycles);
  checki "same simulated cycles" naive.Soc.cycles skip.Soc.cycles

let suite =
  [
    ( "soc.cycle-skip",
      [
        Alcotest.test_case "micro workloads" `Quick test_micro_workloads;
        Alcotest.test_case "xeon preset" `Quick test_xeon_preset;
        QCheck_alcotest.to_alcotest prop_random_micro;
        Alcotest.test_case "DAE pipeline" `Quick test_dae_pipeline;
        Alcotest.test_case "accelerator" `Quick test_accelerator;
        Alcotest.test_case "mixed clock dividers" `Quick test_clock_dividers;
        Alcotest.test_case "event stream identical" `Quick test_event_stream;
        Alcotest.test_case "skipping happens" `Quick test_skipping_happens;
      ] );
  ]
