(* Tests for the SoC driver, Interleaver and accelerator integration. *)

module Soc = Mosaic.Soc
module Sample = Mosaic.Sample
module Interleaver = Mosaic.Interleaver
module TC = Mosaic_tile.Tile_config
module W = Mosaic_workloads
module Trace = Mosaic_trace.Trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let sgemm_run ?(ntiles = 2) () =
  let inst = W.Sgemm.instance ~m:16 ~n:16 ~k:16 () in
  let trace = W.Runner.trace inst ~ntiles in
  ( inst,
    trace,
    Soc.run_homogeneous Mosaic.Presets.dae_soc
      ~program:inst.W.Runner.program ~trace ~tile_config:TC.out_of_order )

let test_result_consistency () =
  let _, trace, r = sgemm_run () in
  checki "all dynamic instructions completed" (Trace.total_dyn_instrs trace)
    r.Soc.instrs;
  checkb "cycles positive" true (r.Soc.cycles > 0);
  checkb "ipc positive" true (r.Soc.ipc > 0.0);
  checkb "energy positive" true (r.Soc.energy_j > 0.0);
  checkb "edp consistent" true
    (Float.abs (r.Soc.edp -. (r.Soc.energy_j *. r.Soc.seconds)) < 1e-18);
  checkb "mem accesses counted" true
    (r.Soc.mem_totals.Mosaic_memory.Hierarchy.l1_accesses > 0)

let test_determinism () =
  let _, _, r1 = sgemm_run () in
  let _, _, r2 = sgemm_run () in
  checki "same cycles" r1.Soc.cycles r2.Soc.cycles;
  checki "same instrs" r1.Soc.instrs r2.Soc.instrs

let test_tile_trace_mismatch_errors () =
  let inst, trace, _ = sgemm_run () in
  checkb "tile count mismatch rejected" true
    (try
       ignore
         (Soc.run Mosaic.Presets.dae_soc ~program:inst.W.Runner.program ~trace
            ~tiles:[| { Soc.kernel = "sgemm"; tile_config = TC.out_of_order } |]);
       false
     with Invalid_argument _ -> true);
  checkb "kernel mismatch rejected" true
    (try
       ignore
         (Soc.run Mosaic.Presets.dae_soc ~program:inst.W.Runner.program ~trace
            ~tiles:
              (Array.make 2 { Soc.kernel = "nope"; tile_config = TC.out_of_order }));
       false
     with Invalid_argument _ -> true)

let test_more_tiles_scale () =
  let inst1 = W.Sgemm.instance ~m:32 ~n:32 ~k:32 () in
  let t1 = W.Runner.trace inst1 ~ntiles:1 in
  let r1 =
    Soc.run_homogeneous Mosaic.Presets.dae_soc ~program:inst1.W.Runner.program
      ~trace:t1 ~tile_config:TC.out_of_order
  in
  let inst4 = W.Sgemm.instance ~m:32 ~n:32 ~k:32 () in
  let t4 = W.Runner.trace inst4 ~ntiles:4 in
  let r4 =
    Soc.run_homogeneous Mosaic.Presets.dae_soc ~program:inst4.W.Runner.program
      ~trace:t4 ~tile_config:TC.out_of_order
  in
  checkb "4 tiles at least 2x faster" true (r4.Soc.cycles * 2 < r1.Soc.cycles)

let test_accelerator_invocation () =
  let inst = W.Sgemm.instance ~accel:true ~m:32 ~n:32 ~k:32 () in
  let trace = W.Runner.trace inst ~ntiles:1 in
  let r =
    Soc.run_homogeneous Mosaic.Presets.dae_soc ~program:inst.W.Runner.program
      ~trace ~tile_config:TC.out_of_order
  in
  checki "one invocation" 1 r.Soc.accel_invocations;
  (* accelerated run beats the software run *)
  let sw = W.Sgemm.instance ~m:32 ~n:32 ~k:32 () in
  let sw_trace = W.Runner.trace sw ~ntiles:1 in
  let r_sw =
    Soc.run_homogeneous Mosaic.Presets.dae_soc ~program:sw.W.Runner.program
      ~trace:sw_trace ~tile_config:TC.out_of_order
  in
  checkb "accelerator speeds up gemm" true (r.Soc.cycles < r_sw.Soc.cycles);
  checkb "accelerator DMA hits DRAM" true
    ((r.Soc.dram.Mosaic_memory.Dram.reads : int) > 0)

let test_interleaver_direct () =
  let il = Interleaver.create ~buffer_capacity:2 ~wire_latency:3 () in
  checkb "send ok" true (Interleaver.send il ~src:0 ~dst:1 ~chan:0 ~cycle:10 ~available:10);
  checkb "send ok" true (Interleaver.send il ~src:0 ~dst:1 ~chan:0 ~cycle:11 ~available:11);
  checkb "full" false (Interleaver.send il ~src:0 ~dst:1 ~chan:0 ~cycle:12 ~available:12);
  (* arrival respects wire latency *)
  checki "arrival = available + wire" 13
    (Interleaver.try_recv il ~tile:1 ~chan:0 ~cycle:10);
  (* late consumer gets it immediately *)
  checki "immediate when late" 101
    (Interleaver.try_recv il ~tile:1 ~chan:0 ~cycle:100);
  checki "drained" (-1) (Interleaver.try_recv il ~tile:1 ~chan:0 ~cycle:0)

let test_interleaver_take_or_owe () =
  let il = Interleaver.create ~buffer_capacity:2 ~wire_latency:1 () in
  (* debt first, send later: the send is absorbed *)
  checkb "owe ok" true (Interleaver.take_or_owe il ~tile:0 ~chan:1);
  checkb "send absorbed" true (Interleaver.send il ~src:1 ~dst:0 ~chan:1 ~cycle:5 ~available:5);
  checki "nothing buffered" (-1)
    (Interleaver.try_recv il ~tile:0 ~chan:1 ~cycle:50);
  (* debt ceiling *)
  checkb "owe 1" true (Interleaver.take_or_owe il ~tile:0 ~chan:1);
  checkb "owe 2" true (Interleaver.take_or_owe il ~tile:0 ~chan:1);
  checkb "ceiling" false (Interleaver.take_or_owe il ~tile:0 ~chan:1)

let test_interleaver_stats () =
  let il = Interleaver.create () in
  ignore (Interleaver.send il ~src:0 ~dst:1 ~chan:0 ~cycle:0 ~available:0);
  ignore (Interleaver.try_recv il ~tile:1 ~chan:0 ~cycle:5);
  let s = Interleaver.stats il in
  checki "sends" 1 s.Interleaver.sends;
  checki "recvs" 1 s.Interleaver.recvs;
  checki "occupancy back to zero" 0 (Interleaver.occupancy il)

let test_dram_model_choice () =
  (* The same workload on SimpleDRAM vs the detailed model: both finish,
     detailed sees row hits. *)
  let inst = W.Registry.instance "stencil" in
  let trace = W.Runner.trace inst ~ntiles:1 in
  let detailed_cfg =
    Soc.with_hierarchy Mosaic.Presets.dae_soc
      {
        Mosaic.Presets.dae_hierarchy with
        Mosaic_memory.Hierarchy.dram =
          Mosaic_memory.Hierarchy.Detailed Mosaic_memory.Dram.default_detailed;
      }
  in
  let r =
    Soc.run_homogeneous detailed_cfg ~program:inst.W.Runner.program ~trace
      ~tile_config:TC.out_of_order
  in
  checkb "finished on detailed DRAM" true (r.Soc.cycles > 0);
  checkb "row locality observed" true (r.Soc.dram.Mosaic_memory.Dram.row_hits > 0)

let test_report_renders () =
  let _, _, r = sgemm_run () in
  let out = Mosaic.Report.full r in
  List.iter
    (fun fragment ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        m = 0 || go 0
      in
      checkb (Printf.sprintf "report mentions %s" fragment) true
        (contains out fragment))
    [ "summary"; "per tile"; "instruction mix"; "memory system"; "IPC"; "falu" ]

let test_simple_models_bracket () =
  (* 1-IPC ignores memory; the interval model stalls on misses; both must
     bracket sensibly against MosaicSim on a memory-bound kernel. *)
  let inst = W.Registry.instance "spmv" in
  let trace = W.Runner.trace inst ~ntiles:1 in
  let ipc1 =
    (Mosaic_baseline.Simple_models.one_ipc ~trace)
      .Mosaic_baseline.Simple_models.cycles
  in
  checki "1-IPC = dynamic instruction count" (Trace.total_dyn_instrs trace) ipc1;
  let interval =
    (Mosaic_baseline.Simple_models.interval ~program:inst.W.Runner.program
       ~trace ~hierarchy:Mosaic.Presets.xeon_hierarchy ())
      .Mosaic_baseline.Simple_models.cycles
  in
  checkb "interval sees memory stalls" true (interval > ipc1)

(* Interval sampling sanity: the sampled run completes every instruction,
   reports a plausible estimate (deterministically), and rejects malformed
   specs. Accuracy at scale is measured in the bench suite against the
   exact oracle (speed.sample.* in BENCH_speed.json, bounded by
   bench/speed.rules). *)
let test_sampling () =
  (* Large enough that the cold-start transient is a small fraction of the
     run — sampling is an asymptotic technique; tiny runs are all
     transient. *)
  let inst = W.Spmv.instance ~seed:17 ~rows:512 ~cols:512 ~per_row:8 () in
  let trace = W.Runner.trace inst ~ntiles:1 in
  let exact =
    Soc.run_homogeneous Mosaic.Presets.xeon_soc ~program:inst.W.Runner.program
      ~trace ~tile_config:TC.out_of_order
  in
  let total = Mosaic_trace.Trace.total_dyn_instrs trace in
  let spec = Sample.auto ~total_instrs:total in
  let sampled =
    Soc.run_homogeneous ~sample:spec Mosaic.Presets.xeon_soc
      ~program:inst.W.Runner.program ~trace ~tile_config:TC.out_of_order
  in
  checki "sampled run commits every instruction" exact.Soc.instrs
    sampled.Soc.instrs;
  let rep =
    match sampled.Soc.sample with
    | Some r -> r
    | None -> Alcotest.fail "sampled run carries no report"
  in
  checkb "estimate is positive" true (rep.Sample.est_cycles > 0);
  let err =
    Float.abs (float_of_int (rep.Sample.est_cycles - exact.Soc.cycles))
    /. float_of_int exact.Soc.cycles
  in
  checkb
    (Printf.sprintf "estimate within 25%% of exact (est %d, exact %d)"
       rep.Sample.est_cycles exact.Soc.cycles)
    true (err <= 0.25);
  checkb "detailed portion is a strict subset" true
    (rep.Sample.detailed_instrs < total && rep.Sample.ff_instrs > 0);
  let expect_invalid spec =
    match Sample.validate_spec spec with
    | () -> Alcotest.fail "bad spec accepted"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid { Sample.period = 0; interval = 0; warmup = 0 };
  expect_invalid { Sample.period = 100; interval = 100; warmup = 0 };
  expect_invalid { Sample.period = 100; interval = 0; warmup = 10 };
  expect_invalid { Sample.period = 100; interval = 50; warmup = -1 }

(* [--sample]'s parser: every spec it accepts is complete and valid, so
   a bad one is a usage error before any simulation starts. *)
let test_sample_spec_parsing () =
  let spec = Alcotest.testable (fun ppf -> function
      | None -> Format.pp_print_string ppf "auto"
      | Some (s : Sample.spec) ->
          Format.fprintf ppf "%d:%d:%d" s.Sample.period s.Sample.interval
            s.Sample.warmup) ( = )
  in
  let ok str expected =
    match Sample.parse_spec str with
    | Ok got -> Alcotest.check spec str expected got
    | Error msg -> Alcotest.failf "%S rejected: %s" str msg
  in
  ok "auto" None;
  ok "800" (Some { Sample.period = 800; interval = 100; warmup = 20 });
  ok "800:50" (Some { Sample.period = 800; interval = 50; warmup = 20 });
  ok "800:50:0" (Some { Sample.period = 800; interval = 50; warmup = 0 });
  ok "10" (Some { Sample.period = 10; interval = 1; warmup = 1 });
  List.iter
    (fun str ->
      match Sample.parse_spec str with
      | Ok _ -> Alcotest.failf "%S accepted" str
      | Error msg ->
          let prefix = Printf.sprintf "bad sample spec %S: " str in
          checkb (Printf.sprintf "%S: message names the spec" str) true
            (String.starts_with ~prefix msg))
    [ "abc"; ""; "0"; "0:0"; "5:4:4"; "100:100"; "100:0:10"; "100:50:-1";
      "1"; "8:x"; "1:2:3:4"; "Auto" ]

let suite =
  [
    ( "soc.run",
      [
        Alcotest.test_case "result consistency" `Quick test_result_consistency;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "tile/trace mismatches" `Quick test_tile_trace_mismatch_errors;
        Alcotest.test_case "multi-tile scaling" `Quick test_more_tiles_scale;
        Alcotest.test_case "accelerator invocation" `Quick test_accelerator_invocation;
        Alcotest.test_case "dram model choice" `Quick test_dram_model_choice;
        Alcotest.test_case "interval sampling sanity" `Quick test_sampling;
        Alcotest.test_case "sample spec parsing" `Quick
          test_sample_spec_parsing;
      ] );
    ( "soc.interleaver",
      [
        Alcotest.test_case "send/recv timing" `Quick test_interleaver_direct;
        Alcotest.test_case "take_or_owe" `Quick test_interleaver_take_or_owe;
        Alcotest.test_case "stats" `Quick test_interleaver_stats;
      ] );
    ( "soc.reporting",
      [
        Alcotest.test_case "report renders" `Quick test_report_renders;
        Alcotest.test_case "simple models" `Quick test_simple_models_bracket;
      ] );
  ]
