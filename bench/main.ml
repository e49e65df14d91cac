(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for the
   paper-vs-measured record).

   Usage: dune exec bench/main.exe [-- SECTION ...] [--metrics-out=FILE]
                                   [--jobs=N] [--trace-cache=DIR|off]
   Sections: table1 table2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
             fig14 speed storage bechamel (default: all).

   --jobs=N runs the independent simulations of the shared Parboil batch
   (and the cycle-skip pair) across N domains. Simulated results are
   bit-identical at any job count; only host-time readings (MIPS,
   host_seconds) wobble under contention, so commit baselines from a
   serial run.

   Traces flow through the trace store (lib/trace/store.ml): every section
   asks for its workload via Runner.trace_cached, so one invocation
   interprets each (workload, tile spec) exactly once no matter how many
   sections or --jobs workers want it, and warm re-invocations load traces
   from the on-disk cache instead of interpreting at all. --trace-cache=DIR
   points the disk cache somewhere explicit (off/none disables it;
   MOSAICSIM_TRACE_CACHE is the environment equivalent). Cached traces are
   bit-identical to fresh ones, so simulated cycles never depend on cache
   state — the speed section's trace_gen_seconds gauges do.

   Each section's host time is published as a "bench.SECTION.host_seconds"
   gauge in a metrics registry; a per-phase summary is printed at the end
   and --metrics-out=FILE dumps the registry (CSV, or JSON for .json). *)

module W = Mosaic_workloads
module Soc = Mosaic.Soc
module Presets = Mosaic.Presets
module TC = Mosaic_tile.Tile_config
module X86 = Mosaic_baseline.X86_model
module Trace = Mosaic_trace.Trace
module Table = Mosaic_util.Table
module Stats = Mosaic_util.Stats
module Dse = Mosaic_accel.Dse

let fcell = Table.fcell
let icell = Table.icell

(* ------------------------------------------------------------------ *)
(* Shared Parboil runs (Figs 5, 6 and the speed/storage tables)        *)
(* ------------------------------------------------------------------ *)

type parboil_result = {
  pname : string;
  mosaic_cycles : int;
  x86_cycles : int;
  ipc : float;
  dyn : int;
  mem_accesses : int;
  control_bytes : int;
  memory_bytes : int;
  comp_control : int;
  comp_memory : int;
  mips : float;
  host_seconds : float;
  trace_gen_seconds : float;
  trace_source : Mosaic_trace.Store.source;
}

let run_parboil name =
  let inst = W.Registry.instance name in
  let trace, cache = W.Runner.trace_cached_full inst ~ntiles:1 in
  let comp_control, comp_memory = Trace.compressed_bytes trace in
  let r =
    Soc.run_homogeneous Presets.xeon_soc ~program:inst.W.Runner.program ~trace
      ~tile_config:TC.out_of_order
  in
  let x =
    X86.run ~program:inst.W.Runner.program ~trace
      ~hierarchy:Presets.xeon_hierarchy ()
  in
  let control_bytes, memory_bytes = Trace.storage_bytes trace in
  {
    pname = name;
    mosaic_cycles = r.Soc.cycles;
    x86_cycles = x.X86.cycles;
    ipc = r.Soc.ipc;
    dyn = Trace.total_dyn_instrs trace;
    mem_accesses = Trace.total_mem_accesses trace;
    control_bytes;
    memory_bytes;
    comp_control;
    comp_memory;
    mips = r.Soc.mips;
    host_seconds = r.Soc.host_seconds;
    trace_gen_seconds = cache.Mosaic_trace.Store.gen_seconds;
    trace_source = cache.Mosaic_trace.Store.source;
  }

(* Set from --jobs=N before any section runs. *)
let jobs = ref 1

(* Set from --shards=N: shard count for the intra-run parallelism section
   of the speed suite; 0 means auto (2). Explicitly requesting both
   --jobs > 1 and --shards > 1 is refused — a batch of sharded runs would
   spawn jobs*shards domains and oversubscribe. *)
let shards = ref 0

let parboil_results =
  lazy
    (W.Runner.run_batch ~jobs:!jobs
       (List.map (fun name () -> run_parboil name) W.Registry.parboil_names))

(* ------------------------------------------------------------------ *)
(* Tables I and II                                                     *)
(* ------------------------------------------------------------------ *)

let table1 () =
  Table.print ~title:"Table I: evaluation system (Intel Xeon E5-2667 v3)"
    ~columns:
      [ Table.column ~align:Table.Left "parameter"; Table.column ~align:Table.Left "value" ]
    (List.map (fun (k, v) -> [ k; v ]) Presets.table1_rows)

let table2 () =
  Table.print ~title:"Table II: DAE case-study parameters"
    ~columns:
      [ Table.column ~align:Table.Left "parameter"; Table.column ~align:Table.Left "value" ]
    (List.map (fun (k, v) -> [ k; v ]) Presets.table2_rows)

(* ------------------------------------------------------------------ *)
(* Fig 5: runtime accuracy; Fig 6: IPC characterization                *)
(* ------------------------------------------------------------------ *)

let paper_fig5 =
  [
    ("bfs", 0.97); ("cutcp", 0.72); ("histo", 2.21); ("lbm", 0.88);
    ("mri-gridding", 1.53); ("mri-q", 0.16); ("sad", 1.11); ("sgemm", 1.65);
    ("spmv", 1.37); ("stencil", 1.03); ("tpacf", 3.29);
  ]

let paper_fig6 =
  [
    ("bfs", 0.84); ("tpacf", 1.36); ("histo", 1.4); ("stencil", 1.65);
    ("lbm", 1.95); ("spmv", 2.06); ("mri-gridding", 2.35); ("mri-q", 2.42);
    ("cutcp", 2.48); ("sgemm", 3.05); ("sad", 3.7);
  ]

let fig5 () =
  let rs = Lazy.force parboil_results in
  Table.print
    ~title:"Fig 5: runtime accuracy factor (MosaicSim cycles / x86 cycles)"
    ~columns:
      [
        Table.column ~align:Table.Left "benchmark";
        Table.column "mosaic cyc";
        Table.column "x86 cyc";
        Table.column "factor";
        Table.column "paper";
      ]
    (List.map
       (fun r ->
         [
           r.pname;
           icell r.mosaic_cycles;
           icell r.x86_cycles;
           fcell (float_of_int r.mosaic_cycles /. float_of_int r.x86_cycles);
           fcell (List.assoc r.pname paper_fig5);
         ])
       rs);
  let factors =
    List.map
      (fun r -> float_of_int r.mosaic_cycles /. float_of_int r.x86_cycles)
      rs
  in
  Printf.printf "geomean accuracy factor: %.3f (paper: 1.099)\n\n"
    (Stats.geomean factors)

let fig6 () =
  let rs = Lazy.force parboil_results in
  let sorted = List.sort (fun a b -> compare a.ipc b.ipc) rs in
  Table.print
    ~title:"Fig 6: IPC characterization (low = memory-bound, high = compute-bound)"
    ~columns:
      [
        Table.column ~align:Table.Left "benchmark";
        Table.column "IPC";
        Table.column "paper IPC";
      ]
    (List.map
       (fun r -> [ r.pname; fcell r.ipc; fcell (List.assoc r.pname paper_fig6) ])
       sorted)

(* ------------------------------------------------------------------ *)
(* Figs 7-9: scaling trends                                            *)
(* ------------------------------------------------------------------ *)

let scaling_fig ~title make =
  let cfg = Soc.with_hierarchy Presets.xeon_soc Presets.xeon_scaled_hierarchy in
  let runs =
    List.map
      (fun nt ->
        let inst = make () in
        let trace = W.Runner.trace_cached inst ~ntiles:nt in
        let r =
          Soc.run_homogeneous cfg ~program:inst.W.Runner.program ~trace
            ~tile_config:TC.out_of_order
        in
        let x =
          X86.run ~program:inst.W.Runner.program ~trace
            ~hierarchy:Presets.xeon_scaled_hierarchy ()
        in
        (nt, r.Soc.cycles, x.X86.cycles))
      [ 1; 2; 4; 8 ]
  in
  let _, m1, x1 = List.hd runs in
  Table.print ~title
    ~columns:
      [
        Table.column "threads";
        Table.column "mosaic speedup";
        Table.column "x86 speedup";
      ]
    (List.map
       (fun (nt, m, x) ->
         [
           icell nt;
           fcell (float_of_int m1 /. float_of_int m);
           fcell (float_of_int x1 /. float_of_int x);
         ])
       runs)

let fig7 () =
  scaling_fig
    ~title:"Fig 7: BFS scaling (latency-bound; atomics diverge the models)"
    (fun () -> W.Bfs.instance ~n:8192 ~degree:8 ())

let fig8 () =
  scaling_fig ~title:"Fig 8: SGEMM scaling (compute-bound; both near-linear)"
    (fun () -> W.Sgemm.instance ~m:48 ~n:48 ~k:48 ())

let fig9 () =
  scaling_fig ~title:"Fig 9: SPMV scaling (bandwidth-bound; sublinear)"
    (fun () -> W.Spmv.instance ~rows:8192 ~cols:8192 ~per_row:16 ())

(* ------------------------------------------------------------------ *)
(* Fig 10: accelerator design-space exploration                        *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  let sys = Mosaic_accel.Accel_model.default_sys in
  List.iter
    (fun kind ->
      let pts =
        Dse.sweep ~kind ~plm_sizes:Dse.paper_plm_sizes
          ~workload_bytes:Dse.paper_workload_bytes sys
      in
      Table.print
        ~title:(Printf.sprintf "Fig 10: DSE for the %s accelerator" kind)
        ~columns:
          [
            Table.column "PLM";
            Table.column "workload";
            Table.column "model cyc";
            Table.column "rtl cyc";
            Table.column "fpga cyc";
            Table.column "area um2";
          ]
        (List.map
           (fun (p : Dse.point) ->
             [
               Printf.sprintf "%dKB" (p.Dse.plm_bytes / 1024);
               Printf.sprintf "%dKB" (p.Dse.workload_bytes / 1024);
               icell p.Dse.model_cycles;
               icell p.Dse.rtl_cycles;
               icell p.Dse.fpga_cycles;
               fcell ~decimals:0 p.Dse.area_um2;
             ])
           pts))
    [ "gemm"; "histo"; "elementwise" ];
  Table.print
    ~title:
      "Fig 10d: model accuracy vs goldens (paper: 97-100% vs RTL, 89-93% vs FPGA)"
    ~columns:
      [
        Table.column ~align:Table.Left "accelerator";
        Table.column "vs RTL sim";
        Table.column "vs FPGA";
      ]
    (List.map
       (fun kind ->
         let pts =
           Dse.sweep ~kind ~plm_sizes:Dse.paper_plm_sizes
             ~workload_bytes:Dse.paper_workload_bytes sys
         in
         let rtl, fpga = Dse.mean_accuracy pts in
         [
           kind;
           Printf.sprintf "%.0f%%" (100.0 *. rtl);
           Printf.sprintf "%.0f%%" (100.0 *. fpga);
         ])
       [ "gemm"; "histo"; "elementwise" ])

(* ------------------------------------------------------------------ *)
(* Fig 11: DAE case study on graph projection                          *)
(* ------------------------------------------------------------------ *)

let proj_params = (512, 1024, 8)

let run_projection_homog core nt =
  let n_left, n_right, degree = proj_params in
  let inst = W.Projection.instance ~n_left ~n_right ~degree () in
  let trace = W.Runner.trace_cached inst ~ntiles:nt in
  (Soc.run_homogeneous Presets.dae_soc ~program:inst.W.Runner.program ~trace
     ~tile_config:core)
    .Soc.cycles

let run_dae inst ~access ~execute ~pairs ~core =
  let spec =
    Array.init (2 * pairs) (fun i ->
        ((if i < pairs then access else execute), inst.W.Runner.args))
  in
  let trace = W.Runner.trace_hetero_cached inst ~tiles:spec in
  let tiles =
    Array.init (2 * pairs) (fun i ->
        {
          Soc.kernel = (if i < pairs then access else execute);
          tile_config = core;
        })
  in
  (Soc.run Presets.dae_soc ~program:inst.W.Runner.program ~trace ~tiles)
    .Soc.cycles

let run_projection_dae pairs =
  let n_left, n_right, degree = proj_params in
  let inst, _ = W.Projection.dae_instance ~n_left ~n_right ~degree () in
  run_dae inst ~access:"projection_access" ~execute:"projection_execute" ~pairs
    ~core:TC.in_order

let fig11 () =
  let ino1 = run_projection_homog TC.in_order 1 in
  let rows =
    [
      ("1 InO (baseline)", ino1);
      ("1 OoO", run_projection_homog TC.out_of_order 1);
      ("2 InO (homogeneous)", run_projection_homog TC.in_order 2);
      ("1 DAE pair (2 InO tiles)", run_projection_dae 1);
      ("8 InO (homogeneous)", run_projection_homog TC.in_order 8);
      ("4 DAE pairs (8 InO tiles)", run_projection_dae 4);
    ]
  in
  Table.print
    ~title:
      "Fig 11: graph-projection speedups (DAE heterogeneity wins the \
       area-equivalent comparison)"
    ~columns:
      [
        Table.column ~align:Table.Left "system";
        Table.column "cycles";
        Table.column "speedup";
      ]
    (List.map
       (fun (name, c) ->
         [ name; icell c; fcell (float_of_int ino1 /. float_of_int c) ])
       rows)

(* ------------------------------------------------------------------ *)
(* Fig 12: EWSD and SGEMM optimized independently; Fig 13: combined    *)
(* ------------------------------------------------------------------ *)

let ewsd_params = (2048, 2048, 16)
let gemm_dim = 48

let run_ewsd_homog core nt =
  let rows, cols, per_row = ewsd_params in
  let inst = W.Ewsd.instance ~rows ~cols ~per_row () in
  let trace = W.Runner.trace_cached inst ~ntiles:nt in
  (Soc.run_homogeneous Presets.dae_soc ~program:inst.W.Runner.program ~trace
     ~tile_config:core)
    .Soc.cycles

let run_ewsd_dae pairs =
  let rows, cols, per_row = ewsd_params in
  let inst, _ = W.Ewsd.dae_instance ~rows ~cols ~per_row () in
  run_dae inst ~access:"ewsd_access" ~execute:"ewsd_execute" ~pairs
    ~core:TC.in_order

let run_gemm_homog core nt =
  let inst = W.Sgemm.instance ~m:gemm_dim ~n:gemm_dim ~k:gemm_dim () in
  let trace = W.Runner.trace_cached inst ~ntiles:nt in
  (Soc.run_homogeneous Presets.dae_soc ~program:inst.W.Runner.program ~trace
     ~tile_config:core)
    .Soc.cycles

let run_gemm_dae pairs =
  let inst, _ = W.Sgemm.dae_instance ~m:gemm_dim ~n:gemm_dim ~k:gemm_dim () in
  run_dae inst ~access:"sgemm_access" ~execute:"sgemm_execute" ~pairs
    ~core:TC.in_order

let run_gemm_accel () =
  let inst = W.Sgemm.instance ~accel:true ~m:gemm_dim ~n:gemm_dim ~k:gemm_dim () in
  let trace = W.Runner.trace_cached inst ~ntiles:1 in
  (Soc.run_homogeneous Presets.dae_soc ~program:inst.W.Runner.program ~trace
     ~tile_config:TC.out_of_order)
    .Soc.cycles

let phase_results : (string * (int * int)) list ref = ref []

let compute_phases () =
  if !phase_results = [] then begin
    let systems =
      [
        ( "1 InO",
          (fun () -> run_gemm_homog TC.in_order 1),
          fun () -> run_ewsd_homog TC.in_order 1 );
        ( "4 InO",
          (fun () -> run_gemm_homog TC.in_order 4),
          fun () -> run_ewsd_homog TC.in_order 4 );
        ( "8 InO",
          (fun () -> run_gemm_homog TC.in_order 8),
          fun () -> run_ewsd_homog TC.in_order 8 );
        ( "1 OoO",
          (fun () -> run_gemm_homog TC.out_of_order 1),
          fun () -> run_ewsd_homog TC.out_of_order 1 );
        ("4+4 InO DAE", (fun () -> run_gemm_dae 4), fun () -> run_ewsd_dae 4);
        ("DAE w/ accel", run_gemm_accel, fun () -> run_ewsd_dae 4);
      ]
    in
    phase_results := List.map (fun (name, g, e) -> (name, (g (), e ()))) systems
  end;
  !phase_results

let fig12 () =
  let phases = compute_phases () in
  let _, (g_base, e_base) = List.hd phases in
  Table.print
    ~title:
      "Fig 12: EWSD and SGEMM optimized independently (speedups over 1 InO; \
       'DAE w/ accel' = gemm accelerator + DAE pairs for EWSD)"
    ~columns:
      [
        Table.column ~align:Table.Left "system";
        Table.column "sgemm cyc";
        Table.column "sgemm speedup";
        Table.column "ewsd cyc";
        Table.column "ewsd speedup";
      ]
    (List.map
       (fun (name, (g, e)) ->
         [
           name;
           icell g;
           fcell (float_of_int g_base /. float_of_int g);
           icell e;
           fcell (float_of_int e_base /. float_of_int e);
         ])
       phases)

(* The combined kernel runs SGEMM then EWSD serially; a mix where the
   baseline spends fraction p of its time in the dense phase is realized by
   repeating each phase (cycles are linear in repetitions), the counterpart
   of the paper's dataset-size variation. *)
let fig13 () =
  let phases = compute_phases () in
  let _, (g_base, e_base) = List.hd phases in
  let mixes =
    [
      ("dense-heavy", 0.75);
      ("equal", 0.5);
      ("sparse-heavy", 0.25);
    ]
  in
  let columns =
    Table.column ~align:Table.Left "system"
    :: List.map (fun (m, _) -> Table.column m) mixes
  in
  let rows =
    List.map
      (fun (name, (g, e)) ->
        name
        :: List.map
             (fun (_, p) ->
               let total_base = float_of_int (g_base + e_base) in
               let kg = p *. total_base /. float_of_int g_base in
               let ke = (1.0 -. p) *. total_base /. float_of_int e_base in
               let total_sys = (kg *. float_of_int g) +. (ke *. float_of_int e) in
               fcell (total_base /. total_sys))
             mixes)
      phases
  in
  Table.print
    ~title:
      "Fig 13: combined sparse+dense kernel, speedup over 1 InO per workload \
       mix (dense-heavy = 75% sgemm baseline time)"
    ~columns rows

(* ------------------------------------------------------------------ *)
(* Fig 14: Keras TensorFlow energy-delay improvements                  *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  let paper = [ ("convnet", 7.22); ("graphsage", 38.0); ("recsys", 282.24) ] in
  let rows =
    List.map
      (fun model ->
        let run ~accel =
          let inst = W.Dnn.instance model ~accel in
          let trace = W.Runner.trace_cached inst ~ntiles:1 in
          Soc.run_homogeneous Presets.dae_soc ~program:inst.W.Runner.program
            ~trace ~tile_config:TC.out_of_order
        in
        let cpu = run ~accel:false and soc = run ~accel:true in
        [
          W.Dnn.name model;
          icell cpu.Soc.cycles;
          icell soc.Soc.cycles;
          fcell (cpu.Soc.edp /. soc.Soc.edp);
          fcell (List.assoc (W.Dnn.name model) paper);
        ])
      W.Dnn.all
  in
  Table.print
    ~title:"Fig 14: energy-delay improvement of the accelerator SoC over OoO"
    ~columns:
      [
        Table.column ~align:Table.Left "model";
        Table.column "OoO cycles";
        Table.column "SoC cycles";
        Table.column "EDP improvement";
        Table.column "paper";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Motivation: 1-IPC and interval models vs MosaicSim (Section I)      *)
(* ------------------------------------------------------------------ *)

let motivation () =
  let rows =
    List.map
      (fun name ->
        let inst = W.Registry.instance name in
        let trace = W.Runner.trace_cached inst ~ntiles:1 in
        let reference =
          (X86.run ~program:inst.W.Runner.program ~trace
             ~hierarchy:Presets.xeon_hierarchy ())
            .X86.cycles
        in
        let mosaic =
          (Soc.run_homogeneous Presets.xeon_soc ~program:inst.W.Runner.program
             ~trace ~tile_config:TC.out_of_order)
            .Soc.cycles
        in
        let ipc1 = (Mosaic_baseline.Simple_models.one_ipc ~trace).Mosaic_baseline.Simple_models.cycles in
        let interval =
          (Mosaic_baseline.Simple_models.interval
             ~program:inst.W.Runner.program ~trace
             ~hierarchy:Presets.xeon_hierarchy ())
            .Mosaic_baseline.Simple_models.cycles
        in
        let err est =
          let a = float_of_int est and b = float_of_int reference in
          Float.max a b /. Float.min a b
        in
        [
          name;
          icell reference;
          Printf.sprintf "%d (%.1fx)" ipc1 (err ipc1);
          Printf.sprintf "%d (%.1fx)" interval (err interval);
          Printf.sprintf "%d (%.2fx)" mosaic (err mosaic);
        ])
      [ "bfs"; "spmv"; "stencil"; "sgemm"; "mri-gridding" ]
  in
  Table.print
    ~title:
      "Motivation (Section I): high-level models vs MosaicSim, cycles and        error factor vs the x86 reference"
    ~columns:
      [
        Table.column ~align:Table.Left "benchmark";
        Table.column "x86 reference";
        Table.column "1-IPC";
        Table.column "interval";
        Table.column "MosaicSim";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Section VI-B: simulation speed and trace storage                    *)
(* ------------------------------------------------------------------ *)

(* Stall-heavy workloads where the event-driven scheduler's cycle skipping
   pays off: a dependent-load chain (the core idles for a DRAM round trip
   per hop) and an accelerator offload (the host tile idles for the whole
   invocation). Sized to run in seconds while still being skip-dominated. *)
let skip_workloads =
  [
    ( "pointer_chase",
      (* 8 MB of chain spills past the LLC, so every hop is a DRAM round
         trip the core can do nothing during. *)
      fun () -> W.Micro.pointer_chase ~seed:3 ~nodes:(1 lsl 20) ~steps:16384 ()
    );
    ("sgemm-accel", fun () -> W.Sgemm.instance ~accel:true ~m:64 ~n:64 ~k:64 ());
  ]

let speed_json_file = "BENCH_speed.json"

(* Filled by [speed] so a --manifest=FILE request at the end of the run
   can snapshot the speed registry (the richest one) rather than only the
   per-section phase timings. *)
let last_speed_reg : Mosaic_obs.Metrics.t option ref = ref None

let speed () =
  let rs = Lazy.force parboil_results in
  let source_label = function
    | Mosaic_trace.Store.Interpreted -> "interpreted"
    | Mosaic_trace.Store.Memo_hit -> "memo hit"
    | Mosaic_trace.Store.Disk_hit -> "disk hit"
  in
  (* trace_gen_seconds is the wall time spent obtaining the trace (full
     interpretation on a cache miss, ~ms of decode on a hit); sim_seconds
     is the timing model alone. MIPS is computed from sim time only, so it
     measures simulation, not interpretation. *)
  Table.print ~title:"Section VI-B: simulation speed (paper: up to 0.47 MIPS)"
    ~columns:
      [
        Table.column ~align:Table.Left "benchmark";
        Table.column "MIPS";
        Table.column "trace gen s";
        Table.column "sim s";
        Table.column ~align:Table.Left "trace source";
      ]
    (List.map
       (fun r ->
         [
           r.pname;
           fcell r.mips;
           fcell ~decimals:3 r.trace_gen_seconds;
           fcell ~decimals:3 r.host_seconds;
           source_label r.trace_source;
         ])
       rs);
  Printf.printf "mean simulation speed: %.2f MIPS\n\n"
    (Stats.mean (List.map (fun r -> r.mips) rs));
  (* Cycle-skipping speedup, measured as host time with the event-driven
     scheduler on vs the naive per-cycle sweep on the same run. *)
  let reg = Mosaic_obs.Metrics.create () in
  let gauge name v =
    Mosaic_obs.Metrics.set (Mosaic_obs.Metrics.gauge reg name) v
  in
  List.iter
    (fun r ->
      let p suffix = Printf.sprintf "speed.%s.%s" r.pname suffix in
      (* host_seconds is end-to-end (trace acquisition + timing model);
         sim_seconds is the timing model alone. See EXPERIMENTS.md. *)
      gauge (p "host_seconds") (r.trace_gen_seconds +. r.host_seconds);
      gauge (p "sim_seconds") r.host_seconds;
      gauge (p "trace_gen_seconds") r.trace_gen_seconds;
      gauge (p "mips") r.mips;
      gauge (p "cycles") (float_of_int r.mosaic_cycles))
    rs;
  let skip_rows =
    W.Runner.run_batch ~jobs:!jobs
    @@ List.map
      (fun (name, make) () ->
        let inst = make () in
        let trace = W.Runner.trace_cached inst ~ntiles:1 in
        let run cfg =
          Soc.run_homogeneous cfg ~program:inst.W.Runner.program ~trace
            ~tile_config:TC.out_of_order
        in
        let skip = run Presets.dae_soc in
        let naive = run { Presets.dae_soc with Soc.cycle_skip = false } in
        assert (skip.Soc.cycles = naive.Soc.cycles);
        let speedup =
          if skip.Soc.host_seconds > 0.0 then
            naive.Soc.host_seconds /. skip.Soc.host_seconds
          else Float.infinity
        in
        (name, skip, naive, speedup))
      skip_workloads
  in
  (* Gauges land in the shared registry from the driver domain only; the
     parallel tasks above just return their results. *)
  List.iter
    (fun (name, (skip : Soc.result), (naive : Soc.result), speedup) ->
      let p suffix = Printf.sprintf "speed.skip.%s.%s" name suffix in
      gauge (p "host_seconds") skip.Soc.host_seconds;
      gauge (p "noskip_host_seconds") naive.Soc.host_seconds;
      gauge (p "mips") skip.Soc.mips;
      gauge (p "cycles") (float_of_int skip.Soc.cycles);
      gauge (p "stepped_cycles") (float_of_int skip.Soc.stepped_cycles);
      gauge (p "speedup") speedup)
    skip_rows;
  Table.print
    ~title:
      "Event-driven cycle skipping: host time, skip on (default) vs off \
       (--no-skip), identical simulated cycles"
    ~columns:
      [
        Table.column ~align:Table.Left "workload";
        Table.column "cycles";
        Table.column "stepped";
        Table.column "skip s";
        Table.column "sweep s";
        Table.column "speedup";
      ]
    (List.map
       (fun (name, skip, naive, speedup) ->
         [
           name;
           icell skip.Soc.cycles;
           icell skip.Soc.stepped_cycles;
           fcell ~decimals:3 skip.Soc.host_seconds;
           fcell ~decimals:3 naive.Soc.host_seconds;
           fcell speedup;
         ])
       skip_rows);
  (* Sampled simulation: the same Parboil runs under interval sampling
     (detailed measurement alternating with functional fast-forward,
     Sample.auto spec), with the full simulator's cycles — already
     measured above — as the exact oracle. est_cycles and err_pct are
     deterministic (simulated quantities); the speedup column is host
     time and wobbles. *)
  let sample_rows =
    W.Runner.run_batch ~jobs:!jobs
    @@ List.map
         (fun r () ->
           let inst = W.Registry.instance r.pname in
           let trace = W.Runner.trace_cached inst ~ntiles:1 in
           let spec =
             Mosaic.Sample.auto
               ~total_instrs:(Trace.total_dyn_instrs trace)
           in
           let s =
             Soc.run_homogeneous ~sample:spec Presets.xeon_soc
               ~program:inst.W.Runner.program ~trace
               ~tile_config:TC.out_of_order
           in
           (r, s))
         rs
  in
  List.iter
    (fun (r, (s : Soc.result)) ->
      let rep = Option.get s.Soc.sample in
      let p suffix = Printf.sprintf "speed.sample.%s.%s" r.pname suffix in
      let err_pct =
        100.0
        *. Float.abs
             (float_of_int (rep.Mosaic.Sample.est_cycles - r.mosaic_cycles))
        /. float_of_int r.mosaic_cycles
      in
      let speedup =
        if s.Soc.host_seconds > 0.0 then r.host_seconds /. s.Soc.host_seconds
        else Float.infinity
      in
      gauge (p "est_cycles") (float_of_int rep.Mosaic.Sample.est_cycles);
      gauge (p "err_pct") err_pct;
      gauge (p "detailed_instrs")
        (float_of_int rep.Mosaic.Sample.detailed_instrs);
      gauge (p "periods") (float_of_int rep.Mosaic.Sample.periods);
      gauge (p "degraded") (float_of_int rep.Mosaic.Sample.degraded);
      gauge (p "exact_seconds") r.host_seconds;
      gauge (p "sampled_seconds") s.Soc.host_seconds;
      gauge (p "speedup") speedup)
    sample_rows;
  let sample_geomean =
    exp
      (Stats.mean
         (List.map
            (fun (r, (s : Soc.result)) ->
              log
                (Stdlib.max 1e-9
                   (if s.Soc.host_seconds > 0.0 then
                      r.host_seconds /. s.Soc.host_seconds
                    else 1e9)))
            sample_rows))
  in
  let sample_max_err =
    List.fold_left
      (fun acc (r, (s : Soc.result)) ->
        let rep = Option.get s.Soc.sample in
        Float.max acc
          (100.0
          *. Float.abs
               (float_of_int (rep.Mosaic.Sample.est_cycles - r.mosaic_cycles))
          /. float_of_int r.mosaic_cycles))
      0.0 sample_rows
  in
  gauge "speed.sample.geomean_speedup" sample_geomean;
  gauge "speed.sample.max_err_pct" sample_max_err;
  Table.print
    ~title:
      "Sampled simulation: interval sampling (auto spec) vs the full \
       simulator (exact oracle)"
    ~columns:
      [
        Table.column ~align:Table.Left "workload";
        Table.column "exact cyc";
        Table.column "sampled est";
        Table.column "err %";
        Table.column "periods";
        Table.column "exact s";
        Table.column "sampled s";
        Table.column "speedup";
      ]
    (List.map
       (fun (r, (s : Soc.result)) ->
         let rep = Option.get s.Soc.sample in
         [
           r.pname;
           icell r.mosaic_cycles;
           icell rep.Mosaic.Sample.est_cycles;
           fcell ~decimals:2
             (100.0
             *. Float.abs
                  (float_of_int
                     (rep.Mosaic.Sample.est_cycles - r.mosaic_cycles))
             /. float_of_int r.mosaic_cycles);
           icell rep.Mosaic.Sample.periods;
           fcell ~decimals:3 r.host_seconds;
           fcell ~decimals:3 s.Soc.host_seconds;
           fcell
             (if s.Soc.host_seconds > 0.0 then
                r.host_seconds /. s.Soc.host_seconds
              else Float.infinity);
         ])
       sample_rows);
  Printf.printf "sampled geomean speedup: %.2fx; max cycle error %.2f%%\n\n"
    sample_geomean sample_max_err;
  (* Intra-run parallelism: the same multi-tile SoC simulated serially and
     sharded across domains. Cycles (and every counter) must be
     bit-identical — the speedup column is the only thing allowed to
     move, and only on hosts with free cores. *)
  let nshards = if !shards >= 1 then !shards else 2 in
  let cores_avail = Mosaic_util.Domain_pool.available_cores () in
  gauge "speed.shard.shards" (float_of_int nshards);
  gauge "speed.shard.available_cores" (float_of_int cores_avail);
  if cores_avail < 2 then
    (* The "host" member written alongside the metrics records the core
       count, so readers of the baseline file can tell determinism checks
       from performance data without an ad-hoc marker gauge. *)
    Printf.printf
      "note: host reports %d available core(s); sharded runs verify \
       determinism here but cannot speed up — shard speedups below are \
       expected to be < 1 (the host.cores member in %s records this).\n"
      cores_avail speed_json_file;
  let shard_rows =
    List.map
      (fun (e : Mosaic_suite.Shard_suite.entry) ->
        let serial = e.run ~shards:1 in
        let sharded = e.run ~shards:nshards in
        if serial.Soc.cycles <> sharded.Soc.cycles then
          failwith
            (Printf.sprintf
               "shard determinism violated on %s: serial %d cycles, \
                shards:%d %d cycles"
               e.name serial.Soc.cycles nshards sharded.Soc.cycles);
        let speedup =
          if sharded.Soc.host_seconds > 0.0 then
            serial.Soc.host_seconds /. sharded.Soc.host_seconds
          else Float.infinity
        in
        (e, serial, sharded, speedup))
      Mosaic_suite.Shard_suite.entries
  in
  List.iter
    (fun ((e : Mosaic_suite.Shard_suite.entry), (serial : Soc.result),
          (sharded : Soc.result), speedup) ->
      let p suffix = Printf.sprintf "speed.shard.%s.%s" e.name suffix in
      gauge (p "serial_seconds") serial.Soc.host_seconds;
      gauge (p "sharded_seconds") sharded.Soc.host_seconds;
      gauge (p "speedup") speedup;
      gauge (p "cycles") (float_of_int sharded.Soc.cycles))
    shard_rows;
  let shard_geomean =
    exp
      (Stats.mean
         (List.map (fun (_, _, _, s) -> log (Stdlib.max s 1e-9)) shard_rows))
  in
  gauge "speed.shard.speedup" shard_geomean;
  Table.print
    ~title:
      (Printf.sprintf
         "Intra-run sharding: one SoC across %d domains (%d host cores), \
          bit-identical cycles"
         nshards cores_avail)
    ~columns:
      [
        Table.column ~align:Table.Left "workload";
        Table.column "tiles";
        Table.column "cycles";
        Table.column "serial s";
        Table.column "sharded s";
        Table.column "speedup";
      ]
    (List.map
       (fun ((e : Mosaic_suite.Shard_suite.entry), serial, sharded, speedup) ->
         ignore (serial : Soc.result);
         [
           e.name;
           icell e.ntiles;
           icell (sharded : Soc.result).Soc.cycles;
           fcell ~decimals:3 serial.Soc.host_seconds;
           fcell ~decimals:3 sharded.Soc.host_seconds;
           fcell speedup;
         ])
       shard_rows);
  Printf.printf "shard geomean speedup: %.2fx (%d shards, %d cores)\n\n"
    shard_geomean nshards cores_avail;
  (* Profiler overhead: the same run with cycle accounting on vs off.
     Simulated cycles must be bit-identical (the profiler only observes);
     the ratio records how much host time the attribution costs. *)
  let inst = W.Registry.instance "spmv" in
  let trace = W.Runner.trace_cached inst ~ntiles:1 in
  let run ~profile =
    Soc.run_homogeneous ~profile Presets.xeon_soc
      ~program:inst.W.Runner.program ~trace ~tile_config:TC.out_of_order
  in
  let plain = run ~profile:false and prof = run ~profile:true in
  assert (plain.Soc.cycles = prof.Soc.cycles);
  let overhead =
    if prof.Soc.mips > 0.0 then plain.Soc.mips /. prof.Soc.mips
    else Float.infinity
  in
  gauge "speed.profile.spmv.cycles" (float_of_int prof.Soc.cycles);
  gauge "speed.profile.spmv.mips" prof.Soc.mips;
  gauge "speed.profile.spmv.plain_mips" plain.Soc.mips;
  gauge "speed.profile_overhead_ratio" overhead;
  Table.print
    ~title:
      "Cycle-accounting profiler overhead (spmv, 1 OoO; identical simulated \
       cycles)"
    ~columns:
      [
        Table.column ~align:Table.Left "mode";
        Table.column "cycles";
        Table.column "MIPS";
        Table.column "overhead";
      ]
    [
      [ "unprofiled"; icell plain.Soc.cycles; fcell plain.Soc.mips; "-" ];
      [ "profiled"; icell prof.Soc.cycles; fcell prof.Soc.mips; fcell overhead ];
    ];
  (* One-trace-many-configs incremental DSE: the 16-point default L1 x L2
     grid, re-timed from a single profiled simulation, with every point
     also fully simulated so the speedup and error figures below are
     measured against the exact oracle, never assumed. Sim-dominated
     workloads, so the one-off profiling + skeleton cost amortizes. *)
  let sweep_workloads = [ "cutcp"; "histo"; "spmv" ] in
  let sweep_grid =
    Mosaic.Sweep.grid
      (List.map Mosaic.Sweep.axis_of_spec Mosaic.Sweep.default_axes)
  in
  let sweep_rows =
    W.Runner.run_batch ~jobs:!jobs
    @@ List.map
         (fun name () ->
           let inst = W.Registry.instance name in
           let trace = W.Runner.trace_cached inst ~ntiles:1 in
           let s =
             Mosaic.Sweep.run ~exact:true Presets.xeon_soc
               ~tile_config:TC.out_of_order ~program:inst.W.Runner.program
               ~trace sweep_grid
           in
           (name, s))
         sweep_workloads
  in
  List.iter
    (fun (name, (s : Mosaic.Sweep.t)) ->
      let p suffix = Printf.sprintf "speed.sweep.%s.%s" name suffix in
      gauge (p "points") (float_of_int (Array.length s.Mosaic.Sweep.points));
      gauge (p "full_seconds") s.Mosaic.Sweep.exact_seconds;
      gauge (p "incremental_seconds") (Mosaic.Sweep.incremental_seconds s);
      gauge (p "speedup") (Option.value ~default:0.0 (Mosaic.Sweep.speedup s));
      gauge (p "max_err_pct") (Mosaic.Sweep.max_err_pct s);
      gauge (p "cycles") (float_of_int s.Mosaic.Sweep.base.Soc.cycles))
    sweep_rows;
  let sweep_geomean =
    exp
      (Stats.mean
         (List.map
            (fun (_, s) ->
              log (Option.value ~default:1.0 (Mosaic.Sweep.speedup s)))
            sweep_rows))
  in
  gauge "speed.sweep.geomean_speedup" sweep_geomean;
  Table.print
    ~title:
      "Incremental DSE: 16-point L1 x L2 sweep, one profiled sim + re-timing \
       vs full per-point simulation (exact oracle)"
    ~columns:
      [
        Table.column ~align:Table.Left "workload";
        Table.column "points";
        Table.column "full s";
        Table.column "incr s";
        Table.column "speedup";
        Table.column "max err %";
      ]
    (List.map
       (fun (name, (s : Mosaic.Sweep.t)) ->
         [
           name;
           icell (Array.length s.Mosaic.Sweep.points);
           fcell ~decimals:3 s.Mosaic.Sweep.exact_seconds;
           fcell ~decimals:3 (Mosaic.Sweep.incremental_seconds s);
           fcell (Option.value ~default:0.0 (Mosaic.Sweep.speedup s));
           fcell ~decimals:2 (Mosaic.Sweep.max_err_pct s);
         ])
       sweep_rows);
  Printf.printf "sweep geomean speedup: %.1fx\n\n" sweep_geomean;
  (* Provenance rides along with the numbers: available cores, OCaml
     version, timestamp, and git rev as a "host" member of the same
     object. Comparison tools key on speed.* and ignore it. *)
  let host_member =
    Mosaic_obs.Json.Obj
      (Mosaic_obs.Manifest.host_info ()
      @ [ ("timestamp", Mosaic_obs.Json.String (Mosaic_obs.Manifest.timestamp ())) ])
  in
  let doc =
    match Mosaic_obs.Metrics.to_json reg with
    | Mosaic_obs.Json.Obj kvs ->
        Mosaic_obs.Json.Obj (kvs @ [ ("host", host_member) ])
    | j -> j
  in
  Out_channel.with_open_text speed_json_file (fun oc ->
      Out_channel.output_string oc (Mosaic_obs.Json.to_string doc));
  Printf.printf "speed metrics: %s\n\n" speed_json_file;
  last_speed_reg := Some reg

let storage () =
  let rs = Lazy.force parboil_results in
  Table.print
    ~title:
      "Section VI-B: trace storage (control + memory traces, paper-style \
       encoding)"
    ~columns:
      [
        Table.column ~align:Table.Left "benchmark";
        Table.column "dyn instrs";
        Table.column "mem accesses";
        Table.column "control KB";
        Table.column "memory KB";
        Table.column "packed ctl KB";
        Table.column "packed mem KB";
      ]
    (List.map
       (fun r ->
         [
           r.pname;
           icell r.dyn;
           icell r.mem_accesses;
           icell (r.control_bytes / 1024);
           icell (r.memory_bytes / 1024);
           icell (r.comp_control / 1024);
           icell (r.comp_memory / 1024);
         ])
       rs)

(* ------------------------------------------------------------------ *)
(* Trace-based locality characterization (extends Fig 6's story)       *)
(* ------------------------------------------------------------------ *)

let characterize () =
  let rows =
    List.map
      (fun name ->
        let inst = W.Registry.instance name in
        let trace = W.Runner.trace_cached inst ~ntiles:1 in
        let a = Mosaic_trace.Analysis.whole inst.W.Runner.program trace in
        let hit kb =
          Printf.sprintf "%.0f%%"
            (100.0
            *. Mosaic_trace.Analysis.capacity_hit_rate a ~lines:(kb * 1024 / 64))
        in
        [
          name;
          fcell ~decimals:3 a.Mosaic_trace.Analysis.mem_ratio;
          icell (a.Mosaic_trace.Analysis.footprint_lines * 64 / 1024);
          Printf.sprintf "%.0f%%" (100.0 *. a.Mosaic_trace.Analysis.stride_regular);
          hit 32;
          hit 2048;
        ])
      W.Registry.parboil_names
  in
  Table.print
    ~title:
      "Characterization: memory intensity, footprint, stride regularity and        LRU capacity hit rates (from traces alone)"
    ~columns:
      [
        Table.column ~align:Table.Left "benchmark";
        Table.column "mem ratio";
        Table.column "footprint KB";
        Table.column "regular strides";
        Table.column "hit@32KB";
        Table.column "hit@2MB";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let bechamel_section () =
  let open Bechamel in
  let mk_soc_bench () =
    let inst = W.Sgemm.instance ~m:12 ~n:12 ~k:12 () in
    let trace = W.Runner.trace_cached inst ~ntiles:1 in
    fun () ->
      ignore
        (Soc.run_homogeneous Presets.dae_soc ~program:inst.W.Runner.program
           ~trace ~tile_config:TC.out_of_order)
  in
  (* Deliberately uncached: this one measures the interpreter itself. *)
  let mk_interp_bench () =
    let inst = W.Sgemm.instance ~m:12 ~n:12 ~k:12 () in
    fun () -> ignore (W.Runner.trace inst ~ntiles:1)
  in
  let mk_hierarchy_bench () =
    let h = Mosaic_memory.Hierarchy.create ~ntiles:1 Presets.dae_hierarchy in
    let cycle = ref 0 in
    fun () ->
      for i = 0 to 99 do
        cycle :=
          Mosaic_memory.Hierarchy.access h ~tile:0 ~cycle:!cycle
            ~addr:(i * 64 mod 65536) ~is_write:false
      done
  in
  let mk_int_heap_bench () =
    let h = Mosaic_util.Int_heap.create () in
    fun () ->
      for i = 0 to 99 do
        Mosaic_util.Int_heap.push h ~prio:(i * 37 mod 100) i
      done;
      while not (Mosaic_util.Int_heap.is_empty h) do
        Mosaic_util.Int_heap.drop_min h
      done
  in
  let tests =
    [
      Test.make ~name:"soc.run sgemm-12" (Staged.stage (mk_soc_bench ()));
      Test.make ~name:"interp.trace sgemm-12" (Staged.stage (mk_interp_bench ()));
      Test.make ~name:"hierarchy.access x100" (Staged.stage (mk_hierarchy_bench ()));
      Test.make ~name:"int_heap push/pop x100" (Staged.stage (mk_int_heap_bench ()));
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let raw = Benchmark.all cfg instances test in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    Hashtbl.fold
      (fun name ols_result acc ->
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> (name, est) :: acc
        | _ -> acc)
      results []
  in
  let rows =
    List.concat_map
      (fun t ->
        List.map (fun (name, ns) -> [ name; fcell (ns /. 1e6) ]) (benchmark t))
      tests
  in
  Table.print ~title:"Bechamel microbenchmarks (host time per run)"
    ~columns:[ Table.column ~align:Table.Left "benchmark"; Table.column "ms/run" ]
    rows

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                 *)
(* ------------------------------------------------------------------ *)

let run_with ?(bench = "spmv") ?hier core =
  let inst = W.Registry.instance bench in
  let trace = W.Runner.trace_cached inst ~ntiles:1 in
  let cfg =
    match hier with
    | Some h -> Soc.with_hierarchy Presets.dae_soc h
    | None -> Presets.dae_soc
  in
  (Soc.run_homogeneous cfg ~program:inst.W.Runner.program ~trace
     ~tile_config:core)
    .Soc.cycles

let ablation () =
  (* Branch policies on a loop+branch heavy kernel. *)
  let policies =
    [
      ("no speculation", Mosaic_tile.Branch.No_speculation);
      ("static", Mosaic_tile.Branch.Static { penalty = 12 });
      ( "gshare",
        Mosaic_tile.Branch.Dynamic
          { kind = Mosaic_tile.Predictor.Gshare { history_bits = 8 }; penalty = 12 } );
      ("perfect", Mosaic_tile.Branch.Perfect);
    ]
  in
  Table.print ~title:"Ablation: branch speculation policy (cutcp, 1 OoO)"
    ~columns:[ Table.column ~align:Table.Left "policy"; Table.column "cycles" ]
    (List.map
       (fun (name, policy) ->
         [
           name;
           icell
             (run_with ~bench:"cutcp"
                { TC.out_of_order with TC.branch = policy; name });
         ])
       policies);
  (* Instruction window. *)
  Table.print ~title:"Ablation: instruction window (spmv, 1 OoO)"
    ~columns:[ Table.column "window"; Table.column "cycles" ]
    (List.map
       (fun w ->
         [
           icell w;
           icell
             (run_with
                { TC.out_of_order with TC.window_size = w; name = "w" });
         ])
       [ 16; 32; 64; 128; 256 ]);
  (* MSHR size. *)
  let with_mshr m =
    let h = Presets.dae_hierarchy in
    {
      h with
      Mosaic_memory.Hierarchy.l1 =
        { h.Mosaic_memory.Hierarchy.l1 with Mosaic_memory.Cache.mshr_size = m };
    }
  in
  Table.print ~title:"Ablation: L1 MSHR entries (spmv, 1 OoO)"
    ~columns:[ Table.column "mshr"; Table.column "cycles" ]
    (List.map
       (fun m -> [ icell m; icell (run_with ~hier:(with_mshr m) TC.out_of_order) ])
       [ 2; 4; 8; 16; 32 ]);
  (* Prefetcher. *)
  let with_pf pf =
    let h = Presets.dae_hierarchy in
    {
      h with
      Mosaic_memory.Hierarchy.l1 =
        { h.Mosaic_memory.Hierarchy.l1 with Mosaic_memory.Cache.prefetch = pf };
    }
  in
  Table.print ~title:"Ablation: L1 stream prefetcher (stencil, 1 OoO)"
    ~columns:[ Table.column ~align:Table.Left "prefetcher"; Table.column "cycles" ]
    [
      [ "off"; icell (run_with ~bench:"stencil" ~hier:(with_pf None) TC.out_of_order) ];
      [
        "on";
        icell
          (run_with ~bench:"stencil"
             ~hier:(with_pf (Some Mosaic_memory.Prefetcher.default_config))
             TC.out_of_order);
      ];
    ];
  (* Perfect memory-alias speculation. *)
  Table.print ~title:"Ablation: perfect alias speculation (projection, 1 OoO)"
    ~columns:[ Table.column ~align:Table.Left "alias model"; Table.column "cycles" ]
    [
      [ "MAO (no speculation)"; icell (run_with ~bench:"projection" TC.out_of_order) ];
      [
        "perfect alias";
        icell
          (run_with ~bench:"projection"
             { TC.out_of_order with TC.perfect_alias = true; name = "pa" });
      ];
    ];
  (* Directory coherence (extension; off in the paper). *)
  let run_bfs4 coherence =
    let inst = W.Bfs.instance ~n:4096 ~degree:8 () in
    let trace = W.Runner.trace_cached inst ~ntiles:4 in
    let hier = { Presets.dae_hierarchy with Mosaic_memory.Hierarchy.coherence } in
    (Soc.run_homogeneous
       (Soc.with_hierarchy Presets.dae_soc hier)
       ~program:inst.W.Runner.program ~trace ~tile_config:TC.out_of_order)
      .Soc.cycles
  in
  Table.print
    ~title:"Ablation: directory coherence extension (bfs, 4 OoO tiles)"
    ~columns:[ Table.column ~align:Table.Left "coherence"; Table.column "cycles" ]
    [
      [ "off (paper default)"; icell (run_bfs4 None) ];
      [
        "directory, 20-cycle latency";
        icell
          (run_bfs4 (Some { Mosaic_memory.Hierarchy.directory_latency = 20 }));
      ];
    ];
  (* DRAM models. *)
  let with_dram d =
    { Presets.dae_hierarchy with Mosaic_memory.Hierarchy.dram = d }
  in
  Table.print ~title:"Ablation: DRAM model (spmv, 1 OoO)"
    ~columns:[ Table.column ~align:Table.Left "model"; Table.column "cycles" ]
    [
      [
        "SimpleDRAM";
        icell
          (run_with
             ~hier:(with_dram (Mosaic_memory.Hierarchy.Simple Mosaic_memory.Dram.default_simple))
             TC.out_of_order);
      ];
      [
        "detailed (banks/rows)";
        icell
          (run_with
             ~hier:
               (with_dram
                  (Mosaic_memory.Hierarchy.Detailed Mosaic_memory.Dram.default_detailed))
             TC.out_of_order);
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("motivation", motivation);
    ("characterize", characterize);
    ("speed", speed);
    ("storage", storage);
    ("ablation", ablation);
    ("bechamel", bechamel_section);
  ]

module Metrics = Mosaic_obs.Metrics

let bench_metrics = Metrics.create ()

(* Tolerates a section being requested twice (gauges register once). *)
let record_phase name seconds =
  let mname = Printf.sprintf "bench.%s.host_seconds" name in
  let g =
    match Metrics.find bench_metrics mname with
    | Some (Metrics.Gauge g) -> g
    | Some _ -> assert false
    | None -> Metrics.gauge bench_metrics mname
  in
  Metrics.set g seconds

let phase_summary () =
  let rows = Metrics.rows bench_metrics in
  if rows <> [] then
    Table.print ~title:"per-phase host time (from the metrics registry)"
      ~columns:
        [ Table.column ~align:Table.Left "phase"; Table.column "seconds" ]
      (List.map (fun (n, _, v) -> [ n; fcell ~decimals:2 v ]) rows)

let manifest_file : string option ref = ref None

(* Self-describing record of this bench invocation: host info, format
   versions, every gauge of the speed registry (or the phase registry if
   the speed section did not run), and the host-side spans. *)
let write_bench_manifest file requested =
  let metrics =
    match !last_speed_reg with Some reg -> reg | None -> bench_metrics
  in
  let m =
    Mosaic.Telemetry.manifest ~kind:"bench"
      ~name:(String.concat "," requested)
      ~metrics ()
  in
  Mosaic_obs.Manifest.write file m;
  Printf.printf "manifest: %s\n" file

let dump_metrics file =
  let data =
    if Filename.check_suffix file ".json" then
      Mosaic_obs.Json.to_string (Metrics.to_json bench_metrics)
    else Metrics.to_csv bench_metrics
  in
  Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc data);
  Printf.printf "metrics: %s\n" file

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if String.starts_with ~prefix:"--jobs=" a then begin
          (match int_of_string_opt (String.sub a 7 (String.length a - 7)) with
          | Some n when n >= 1 -> jobs := n
          | _ -> failwith (Printf.sprintf "bad --jobs value: %s" a));
          false
        end
        else if String.starts_with ~prefix:"--shards=" a then begin
          (match int_of_string_opt (String.sub a 9 (String.length a - 9)) with
          | Some n when n >= 1 -> shards := n
          | _ -> failwith (Printf.sprintf "bad --shards value: %s" a));
          false
        end
        else if String.starts_with ~prefix:"--manifest=" a then begin
          (match String.sub a 11 (String.length a - 11) with
          | "" -> failwith "bad --manifest value: empty path"
          | f ->
              manifest_file := Some f;
              (* Spans must be recording before any section runs. *)
              Mosaic_obs.Span.set_enabled true);
          false
        end
        else if String.starts_with ~prefix:"--trace-cache=" a then begin
          (match String.sub a 14 (String.length a - 14) with
          | "" | "off" | "none" ->
              Mosaic_trace.Store.set_cache_dir `Disabled
          | dir -> Mosaic_trace.Store.set_cache_dir (`Dir dir));
          false
        end
        else true)
      args
  in
  let outs, names =
    List.partition_map
      (fun a ->
        if String.starts_with ~prefix:"--metrics-out=" a then
          Either.Left (String.sub a 14 (String.length a - 14))
        else Either.Right a)
      args
  in
  if !jobs > 1 && !shards > 1 then
    failwith
      (Printf.sprintf
         "--jobs=%d and --shards=%d both parallelize (jobs*shards domains \
          would oversubscribe the host); pass --shards=1 to keep the batch \
          pool, or --jobs=1 to measure intra-run sharding"
         !jobs !shards);
  let requested =
    match names with [] -> List.map fst sections | ns -> ns
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f ->
          Printf.printf ">> %s\n%!" name;
          let t0 = Sys.time () in
          f ();
          let dt = Sys.time () -. t0 in
          record_phase name dt;
          Printf.printf "[%s took %.1fs host time]\n\n%!" name dt
      | None ->
          Printf.eprintf "unknown section %s; available: %s\n" name
            (String.concat " " (List.map fst sections)))
    requested;
  phase_summary ();
  List.iter dump_metrics outs;
  Option.iter (fun f -> write_bench_manifest f requested) !manifest_file
