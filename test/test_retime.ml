(* Re-timing engine invariants.

   The engine's contract has an exact core and a bounded halo; the exact
   core is testable without tolerances and is what these tests pin down:

   1. Identity — re-timing a trace at the config that produced its
      profiled base run reproduces the base cycles and instruction count
      bit-exactly (every scaling ratio is computed from identical inputs,
      so each is exactly 1.0 in IEEE arithmetic). Checked as a qcheck
      property over generated programs, mixing in-order and out-of-order
      tiles, like the fuzzer's oracle 4 but in-tree.
   2. Path invariance — sweeping an axis that changes no timing input
      (clock frequency) re-times every point to the base cycle count.
   3. Determinism — a sweep distributed over 4 domains returns the same
      points in the same order as the serial run ([Retime.run] is pure
      and [Domain_pool.map] is input-order preserving).
   4. Skeleton accounting — per-tile opcode-class counts sum to that
      tile's dynamic instruction count, and the skeleton's total matches
      the trace's.
   5. Axis ranges — [Sweep.axis_of_spec] rejects unknown axes and values
      outside an axis's range with [Failure], before anything runs. *)

module Soc = Mosaic.Soc
module Retime = Mosaic.Retime
module Sweep = Mosaic.Sweep
module Presets = Mosaic.Presets
module TC = Mosaic_tile.Tile_config
module Ir = Mosaic_ir
module Interp = Mosaic_trace.Interp
module Trace = Mosaic_trace.Trace
module Analysis = Mosaic_trace.Analysis

let checki = Alcotest.(check int)

let case_of_seed seed =
  let case = Ir.Gen.generate ~seed ~size:40 () in
  let trace =
    Interp.run
      (Interp.create case.Ir.Gen.program ~kernel:case.Ir.Gen.kernel
         ~ntiles:case.Ir.Gen.ntiles ~args:case.Ir.Gen.args)
  in
  (case, trace)

let prop_identity =
  QCheck.Test.make ~name:"retime at generating config is bit-exact" ~count:30
    (QCheck.make QCheck.Gen.(int_range 0 100_000))
    (fun seed ->
      let case, trace = case_of_seed seed in
      let tile_config =
        if seed mod 2 = 0 then TC.out_of_order else TC.in_order
      in
      let cfg = Soc.default_config in
      let base =
        Soc.run_homogeneous ~profile:true cfg ~program:case.Ir.Gen.program
          ~trace ~tile_config
      in
      let tiles =
        Array.map
          (fun (tt : Trace.tile_trace) ->
            { Soc.kernel = tt.Trace.kernel; Soc.tile_config })
          trace.Trace.tiles
      in
      let skel = Analysis.skeleton case.Ir.Gen.program trace in
      let prep = Retime.of_result ~cfg ~tiles skel base in
      let rt = Retime.run prep cfg tiles in
      rt.Retime.cycles = base.Soc.cycles && rt.Retime.instrs = base.Soc.instrs)

(* A small fixed workload for the sweep-level tests: fast to simulate,
   still multi-tile when the generator says so. *)
let sweep_fixture =
  lazy
    (let case, trace = case_of_seed 42 in
     (case.Ir.Gen.program, trace))

let sweep_points = [ "l1=8,16,32,64"; "l2=256,512,1024,2048" ]

let run_sweep ?(jobs = 1) axes =
  let program, trace = Lazy.force sweep_fixture in
  Sweep.run ~jobs Presets.xeon_soc ~tile_config:TC.out_of_order ~program
    ~trace
    (Sweep.grid (List.map Sweep.axis_of_spec axes))

let test_freq_invariance () =
  let s = run_sweep [ "freq=1,2,3.2,4" ] in
  Array.iter
    (fun (p : Sweep.point) ->
      checki
        (Printf.sprintf "%s retimes to base cycles" p.Sweep.label)
        s.Sweep.base.Soc.cycles p.Sweep.retimed.Retime.cycles)
    s.Sweep.points

let test_parallel_determinism () =
  let serial = run_sweep sweep_points in
  let par = run_sweep ~jobs:4 sweep_points in
  checki "point count" (Array.length serial.Sweep.points)
    (Array.length par.Sweep.points);
  Array.iteri
    (fun i (sp : Sweep.point) ->
      let pp = par.Sweep.points.(i) in
      Alcotest.(check string)
        (Printf.sprintf "point %d label" i)
        sp.Sweep.label pp.Sweep.label;
      checki
        (Printf.sprintf "point %d cycles (jobs:4 vs serial)" i)
        sp.Sweep.retimed.Retime.cycles pp.Sweep.retimed.Retime.cycles)
    serial.Sweep.points

let test_skeleton_accounting () =
  let program, trace = Lazy.force sweep_fixture in
  let skel = Analysis.skeleton program trace in
  checki "skeleton total matches trace" (Trace.total_dyn_instrs trace)
    skel.Analysis.total_dyn_instrs;
  checki "one tile skeleton per tile trace"
    (Array.length trace.Trace.tiles)
    (Array.length skel.Analysis.tiles);
  Array.iteri
    (fun i (ts : Analysis.tile_skeleton) ->
      let tt = trace.Trace.tiles.(i) in
      checki
        (Printf.sprintf "tile %d class counts sum to dyn instrs" i)
        tt.Trace.dyn_instrs
        (Array.fold_left ( + ) 0 ts.Analysis.class_counts))
    skel.Analysis.tiles

let test_axis_ranges () =
  let labels spec =
    List.map fst (Sweep.axis_of_spec spec).Sweep.points
  in
  Alcotest.(check (list string))
    "valid points keep their labels" [ "l1=8"; "l1=16" ] (labels "l1=8,16");
  Alcotest.(check (list string)) "zero-cycle wire" [ "wire=0" ] (labels "wire=0");
  Alcotest.(check (list string))
    "fractional GHz" [ "freq=0.5"; "freq=3.2" ] (labels "freq=0.5,3.2");
  List.iter
    (fun spec ->
      match Sweep.axis_of_spec spec with
      | (_ : Sweep.axis) -> Alcotest.failf "%s accepted" spec
      | exception Failure _ -> ())
    [ "foo=1"; "l1"; "l1="; "l1=abc"; "l1=8.5"; "l1=0"; "l1=-4"; "l2=0";
      "llc=0"; "dramlat=-5"; "dramlat=0"; "wire=-1"; "plm=0"; "lanes=0";
      "width=0"; "width=-1"; "window=0"; "lsq=0"; "div=0"; "freq=0";
      "freq=-1"; "freq=nan"; "freq=inf"; "l1=8,0,16" ];
  (* Geometry depends on the edited level, so it is checked when the edit
     is applied: 1 KB cannot hold the LLC's sets. *)
  let edit = snd (List.hd (Sweep.axis_of_spec "llc=1").Sweep.points) in
  match edit (Presets.xeon_soc, TC.out_of_order) with
  | _ -> Alcotest.fail "llc=1 applied"
  | exception Failure _ -> ()

let suite =
  [
    ( "retime",
      [
        QCheck_alcotest.to_alcotest prop_identity;
        Alcotest.test_case "freq axis is timing-invariant" `Quick
          test_freq_invariance;
        Alcotest.test_case "sweep jobs:4 matches serial" `Quick
          test_parallel_determinism;
        Alcotest.test_case "skeleton accounting" `Quick
          test_skeleton_accounting;
        Alcotest.test_case "sweep axis ranges" `Quick test_axis_ranges;
      ] );
  ]
