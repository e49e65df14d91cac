(* Snapshot/resume differential tests: checkpointing a run at some cycle
   and resuming a fresh run from the snapshot must reproduce the straight
   run bit-for-bit — cycles, stepped cycles, instrs, per-tile stats, stall
   attribution, memory totals. The matrix covers cycle skipping on/off,
   profiled/plain, serial and sharded capture, and both system presets;
   the container tests check that corrupt, truncated or mislabeled
   snapshot files fail loudly instead of resuming garbage. *)

module Soc = Mosaic.Soc
module Snapshot = Mosaic.Snapshot
module Sample = Mosaic.Sample
module Interleaver = Mosaic.Interleaver
module Profile = Mosaic_tile.Profile
module Core_tile = Mosaic_tile.Core_tile
module Hierarchy = Mosaic_memory.Hierarchy
module Dram = Mosaic_memory.Dram
module Branch = Mosaic_tile.Branch
module TC = Mosaic_tile.Tile_config
module W = Mosaic_workloads

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let assert_same name (a : Soc.result) (b : Soc.result) =
  let ck what = checki (Printf.sprintf "%s: %s" name what) in
  ck "cycles" a.Soc.cycles b.Soc.cycles;
  ck "stepped cycles" a.Soc.stepped_cycles b.Soc.stepped_cycles;
  ck "instrs" a.Soc.instrs b.Soc.instrs;
  ck "accel invocations" a.Soc.accel_invocations b.Soc.accel_invocations;
  Array.iteri
    (fun i (x : Core_tile.stats) ->
      let y = b.Soc.tile_stats.(i) in
      let ckt what = ck (Printf.sprintf "tile %d %s" i what) in
      ckt "instrs" x.Core_tile.completed_instrs y.Core_tile.completed_instrs;
      ckt "finish cycle" x.Core_tile.finish_cycle y.Core_tile.finish_cycle;
      ckt "dbbs" x.Core_tile.dbbs_launched y.Core_tile.dbbs_launched;
      ckt "mem accesses" x.Core_tile.mem_accesses y.Core_tile.mem_accesses;
      ckt "predictions" x.Core_tile.branch.Branch.predictions
        y.Core_tile.branch.Branch.predictions;
      ckt "mispredictions" x.Core_tile.branch.Branch.mispredictions
        y.Core_tile.branch.Branch.mispredictions;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: tile %d energy" name i)
        x.Core_tile.energy_pj y.Core_tile.energy_pj)
    a.Soc.tile_stats;
  ck "l1 accesses" a.Soc.mem_totals.Hierarchy.l1_accesses
    b.Soc.mem_totals.Hierarchy.l1_accesses;
  ck "llc accesses" a.Soc.mem_totals.Hierarchy.llc_accesses
    b.Soc.mem_totals.Hierarchy.llc_accesses;
  ck "dram lines" a.Soc.mem_totals.Hierarchy.dram_lines
    b.Soc.mem_totals.Hierarchy.dram_lines;
  ck "dram reads" a.Soc.dram.Dram.reads b.Soc.dram.Dram.reads;
  ck "dram writes" a.Soc.dram.Dram.writes b.Soc.dram.Dram.writes;
  ck "sends" a.Soc.interleaver.Interleaver.sends
    b.Soc.interleaver.Interleaver.sends;
  ck "recvs" a.Soc.interleaver.Interleaver.recvs
    b.Soc.interleaver.Interleaver.recvs;
  Array.iteri
    (fun t p ->
      Array.iter
        (fun cause ->
          ck
            (Printf.sprintf "tile %d stall %s" t (Mosaic_obs.Stall.name cause))
            (Profile.count p cause)
            (Profile.count b.Soc.profiles.(t) cause))
        Mosaic_obs.Stall.all)
    a.Soc.profiles

(* Straight run, checkpointing run (same observables), resumed run (same
   observables again), capture at [frac] of the straight run's cycles. *)
let round_trip ?(shards = 1) ?(cycle_skip = true) ?(profile = false)
    ?(marshal = false) ~cfg ~tile_config name inst ~ntiles ~frac =
  let trace = W.Runner.trace inst ~ntiles in
  let cfg = { cfg with Soc.cycle_skip; shards } in
  let run ?checkpoint_at ?on_checkpoint ?resume () =
    Soc.run_homogeneous ~profile ?checkpoint_at ?on_checkpoint ?resume cfg
      ~program:inst.W.Runner.program ~trace ~tile_config
  in
  let straight = run () in
  let at = int_of_float (frac *. float_of_int straight.Soc.cycles) in
  let snap = ref None in
  let capturing =
    run ~checkpoint_at:at ~on_checkpoint:(fun s -> snap := Some s) ()
  in
  assert_same (name ^ " capturing") straight capturing;
  let s =
    match !snap with
    | Some s -> s
    | None -> Alcotest.failf "%s: no snapshot captured at cycle %d" name at
  in
  checkb (name ^ ": captured at or after request") true (Snapshot.cycle s >= at);
  let s = if marshal then Snapshot.of_bytes (Snapshot.to_bytes s) else s in
  let resumed = run ~resume:s () in
  assert_same (name ^ " resumed") straight resumed

let spmv () = W.Spmv.instance ~seed:17 ~rows:96 ~cols:96 ~per_row:5 ()

(* skip/no-skip x profiled/plain on the xeon preset, serial capture. *)
let test_matrix_serial () =
  List.iter
    (fun (cycle_skip, profile) ->
      round_trip ~cycle_skip ~profile ~cfg:Mosaic.Presets.xeon_soc
        ~tile_config:TC.out_of_order
        (Printf.sprintf "spmv/xeon skip:%b profile:%b" cycle_skip profile)
        (spmv ()) ~ntiles:2 ~frac:0.5)
    [ (true, true); (true, false); (false, true); (false, false) ]

(* Sharded capture at every tenth of the run: the snapshot taken under
   shards:2 resumes to the same end state, the stall attribution of a
   skipped stretch just before the capture cycle included. *)
let test_matrix_sharded () =
  List.iter
    (fun (shards, profile, frac) ->
      round_trip ~shards ~profile ~cfg:Mosaic.Presets.xeon_soc
        ~tile_config:TC.out_of_order
        (Printf.sprintf "spmv/xeon shards:%d profile:%b frac:%.1f" shards
           profile frac)
        (spmv ()) ~ntiles:2 ~frac)
    (List.concat_map
       (fun frac -> [ (2, false, frac); (2, true, frac) ])
       [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ])

(* DAE preset, accelerator tile in flight, marshal round trip included. *)
let test_dae_preset () =
  round_trip ~profile:true ~marshal:true ~cfg:Mosaic.Presets.dae_soc
    ~tile_config:TC.out_of_order "sgemm-accel/dae"
    (W.Sgemm.instance ~accel:true ~m:24 ~n:24 ~k:24 ())
    ~ntiles:1 ~frac:0.6;
  round_trip ~cfg:Mosaic.Presets.dae_soc ~tile_config:TC.in_order
    "pointer_chase/dae"
    (W.Micro.pointer_chase ~seed:3 ~nodes:128 ~steps:512 ())
    ~ntiles:1 ~frac:0.3

(* A checkpoint requested past the end of the run captures the final
   state; resuming it (serially or sharded) adds zero stepped cycles. *)
let test_checkpoint_past_end () =
  let inst = spmv () in
  let trace = W.Runner.trace inst ~ntiles:2 in
  let run ?checkpoint_at ?on_checkpoint ?resume ?(shards = 1) () =
    Soc.run_homogeneous ?checkpoint_at ?on_checkpoint ?resume
      { Mosaic.Presets.xeon_soc with Soc.shards }
      ~program:inst.W.Runner.program ~trace ~tile_config:TC.out_of_order
  in
  let straight = run () in
  let snap = ref None in
  let _ =
    run
      ~checkpoint_at:(straight.Soc.cycles + 1000)
      ~on_checkpoint:(fun s -> snap := Some s)
      ()
  in
  let s = Option.get !snap in
  checki "end snapshot cycle" straight.Soc.cycles (Snapshot.cycle s);
  List.iter
    (fun shards ->
      let resumed = run ~resume:s ~shards () in
      assert_same
        (Printf.sprintf "resume at end shards:%d" shards)
        straight resumed)
    [ 1; 2 ]

(* Resume validation: a snapshot only resumes into the workload, trace and
   profiling mode it was captured from. *)
let test_resume_validation () =
  let inst = spmv () in
  let trace = W.Runner.trace inst ~ntiles:2 in
  let run ?resume ?(profile = false) ?(trace = trace) () =
    Soc.run_homogeneous ~profile ?resume Mosaic.Presets.xeon_soc
      ~program:inst.W.Runner.program ~trace ~tile_config:TC.out_of_order
  in
  let snap = ref None in
  let straight = run () in
  let _ =
    run () |> ignore;
    Soc.run_homogeneous
      ~checkpoint_at:(straight.Soc.cycles / 2)
      ~on_checkpoint:(fun s -> snap := Some s)
      Mosaic.Presets.xeon_soc ~program:inst.W.Runner.program ~trace
      ~tile_config:TC.out_of_order
  in
  let s = Option.get !snap in
  let expect_invalid what f =
    match f () with
    | (_ : Soc.result) -> Alcotest.failf "%s: resume was accepted" what
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "profiling mode mismatch" (fun () ->
      run ~resume:s ~profile:true ());
  expect_invalid "different trace" (fun () ->
      let other =
        W.Runner.trace (W.Spmv.instance ~seed:17 ~rows:96 ~cols:96 ~per_row:4 ()) ~ntiles:2
      in
      run ~resume:s ~trace:other ());
  expect_invalid "tile count mismatch" (fun () ->
      let one = W.Runner.trace inst ~ntiles:1 in
      run ~resume:s ~trace:one ())

(* The disk container: save/load round trip, and loud rejection of
   truncation, payload corruption, and a bad magic. *)
let test_container () =
  let inst = W.Micro.stream ~seed:5 ~elems:512 () in
  let trace = W.Runner.trace inst ~ntiles:1 in
  let snap = ref None in
  let straight =
    Soc.run_homogeneous ~checkpoint_at:50
      ~on_checkpoint:(fun s -> snap := Some s)
      Mosaic.Presets.dae_soc ~program:inst.W.Runner.program ~trace
      ~tile_config:TC.in_order
  in
  let s = Option.get !snap in
  let file = Filename.temp_file "mosaic-snap" ".msnp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Snapshot.save s file;
      let reloaded = Snapshot.load file in
      checki "reloaded cycle" (Snapshot.cycle s) (Snapshot.cycle reloaded);
      let resumed =
        Soc.run_homogeneous ~resume:reloaded Mosaic.Presets.dae_soc
          ~program:inst.W.Runner.program ~trace ~tile_config:TC.in_order
      in
      assert_same "disk round trip" straight resumed;
      let bytes =
        In_channel.with_open_bin file (fun ic ->
            Bytes.of_string (In_channel.input_all ic))
      in
      let expect_format what b =
        match Snapshot.of_bytes b with
        | (_ : Snapshot.t) -> Alcotest.failf "%s: accepted" what
        | exception Snapshot.Format_error _ -> ()
      in
      expect_format "truncated" (Bytes.sub bytes 0 (Bytes.length bytes / 2));
      expect_format "empty" Bytes.empty;
      let corrupt = Bytes.copy bytes in
      let mid = (Bytes.length corrupt / 2) + 3 in
      Bytes.set corrupt mid
        (Char.chr (Char.code (Bytes.get corrupt mid) lxor 0x5a));
      expect_format "corrupted payload" corrupt;
      let bad_magic = Bytes.copy bytes in
      Bytes.set bad_magic 0 'X';
      expect_format "bad magic" bad_magic;
      let bad_version = Bytes.copy bytes in
      Bytes.set bad_version 4 '\xff';
      expect_format "unsupported version" bad_version)

(* A container written under the previous layout (version byte 1, before
   the tile state moved to a slot ring) is refused with a message naming
   both versions, never handed to Marshal. *)
let test_container_refuses_v1 () =
  checki "current layout" 2 Snapshot.format_version;
  let inst = W.Micro.stream ~seed:5 ~elems:64 () in
  let trace = W.Runner.trace inst ~ntiles:1 in
  let snap = ref None in
  ignore
    (Soc.run_homogeneous ~checkpoint_at:20
       ~on_checkpoint:(fun s -> snap := Some s)
       Mosaic.Presets.dae_soc ~program:inst.W.Runner.program ~trace
       ~tile_config:TC.out_of_order);
  let bytes = Snapshot.to_bytes (Option.get !snap) in
  Bytes.set bytes (String.length Snapshot.magic) (Char.chr 1);
  match Snapshot.of_bytes bytes with
  | (_ : Snapshot.t) -> Alcotest.fail "version 1 container accepted"
  | exception Snapshot.Format_error msg ->
      let has needle =
        let n = String.length needle and m = String.length msg in
        let rec go i =
          i + n <= m && (String.sub msg i n = needle || go (i + 1))
        in
        go 0
      in
      if not (has "version 1" && has "version 2") then
        Alcotest.failf "message does not name both versions: %s" msg

(* Interval sampling sanity: the sampled run completes every instruction,
   reports a plausible estimate (deterministically), and rejects malformed
   specs. Accuracy at scale is measured in the bench suite against the
   exact oracle (speed.sample.* in BENCH_speed.json, guarded by
   tools/check_sample). *)
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
  expect_invalid { Sample.period = 100; interval = 50; warmup = -1 };
  match
    Soc.run_homogeneous ~sample:spec ~checkpoint_at:10 Mosaic.Presets.xeon_soc
      ~program:inst.W.Runner.program ~trace ~tile_config:TC.out_of_order
  with
  | (_ : Soc.result) -> Alcotest.fail "sampling combined with checkpoints"
  | exception Invalid_argument _ -> ()

let suite =
  [
    ( "snapshot",
      [
        Alcotest.test_case "round trip: skip x profile matrix (serial)" `Quick
          test_matrix_serial;
        Alcotest.test_case "round trip: sharded capture" `Quick
          test_matrix_sharded;
        Alcotest.test_case "round trip: dae preset + accel + marshal" `Quick
          test_dae_preset;
        Alcotest.test_case "checkpoint past end of run" `Quick
          test_checkpoint_past_end;
        Alcotest.test_case "resume validation rejects mismatches" `Quick
          test_resume_validation;
        Alcotest.test_case "container rejects corrupt/truncated" `Quick
          test_container;
        Alcotest.test_case "container refuses format version 1" `Quick
          test_container_refuses_v1;
        Alcotest.test_case "interval sampling sanity" `Quick test_sampling;
      ] );
  ]
