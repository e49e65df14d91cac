(* Shared harness for the golden-trace tests and the regeneration tool:
   the pinned workloads, the headline metrics extracted from a run, and
   the JSON encoding of the golden files.

   Workload sizes are deliberately tiny (a run is a few milliseconds) and
   every dataset generator is seeded, so the headline numbers are exact
   and stable across runs and machines. *)

module W = Mosaic_workloads
module Soc = Mosaic.Soc
module Metrics = Mosaic_obs.Metrics
module Json = Mosaic_obs.Json

(* The three pinned workloads: a dependent-load microbenchmark, a small
   SPMV and a tiny BFS. [seed] perturbs the dataset generator where the
   workload exposes one (the micro chain ignores structure-free seeds
   identically). *)
let workloads =
  [
    ( "micro",
      fun ?(seed = 53) () -> W.Micro.pointer_chase ~seed ~nodes:64 ~steps:256 ()
    );
    ( "spmv",
      fun ?(seed = 7) () ->
        W.Spmv.instance ~seed ~rows:128 ~cols:128 ~per_row:4 () );
    ("bfs", fun ?(seed = 11) () -> W.Bfs.instance ~seed ~n:256 ~degree:4 ());
  ]

let names = List.map fst workloads

(* Traces come through the trace store: repeated golden runs of one
   workload interpret it once per process (and once per cache directory),
   and a cached trace is bit-identical to a fresh one, so the pinned
   headline numbers cannot depend on cache state. *)
let run ?sink ?seed name =
  let make = List.assoc name workloads in
  let inst = make ?seed () in
  let trace = W.Runner.trace_cached inst ~ntiles:1 in
  Soc.run_homogeneous ?sink Mosaic.Presets.dae_soc
    ~program:inst.W.Runner.program ~trace
    ~tile_config:Mosaic_tile.Tile_config.out_of_order

(* Headline metrics pinned by the golden files, read from the registry the
   run published into. Counters are exact; hit rates are quotients of
   counters and therefore bit-stable too. *)
let headline (r : Soc.result) =
  let m = r.Soc.metrics in
  let c name = float_of_int (Metrics.get_counter m name) in
  [
    ("cycles", c "sim.cycles");
    ("instructions", c "sim.instrs");
    ("l1_hit_rate", Metrics.get_gauge m "mem.l1_hit_rate");
    ("llc_hit_rate", Metrics.get_gauge m "mem.llc_hit_rate");
    ("dram_reads", c "dram.reads");
    ("dram_writes", c "dram.writes");
  ]

let to_json pairs =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) pairs)

let of_json json =
  match json with
  | Json.Obj kvs -> List.map (fun (k, v) -> (k, Json.to_number_exn v)) kvs
  | _ -> raise (Json.Parse_error "golden file is not an object")

let golden_file name = name ^ ".json"

(* --- Pipeline stress pins ---

   The tile pipeline's timing on every corpus kernel under four tile
   shapes: the out-of-order, in-order and pre-RTL accelerator presets, and
   a stress core whose window (8) is shorter than most blocks, so the
   in-flight ring wraps inside a block, with a 2-entry LSQ, issue width 2,
   fetch 1 and a dynamic predictor. Each line pins cycles, stepped cycles,
   MAO stalls and the per-cause stall totals of the profiled run (profiling
   never moves cycles). One extra line pins the MD5 of the issue/retire
   event stream of one kernel, whose intra-cycle order a trace export
   shows. *)

module TC = Mosaic_tile.Tile_config
module Profile = Mosaic_tile.Profile
module Stall = Mosaic_obs.Stall
module Event = Mosaic_obs.Event

let stress_ooo =
  {
    TC.out_of_order with
    TC.name = "stress";
    window_size = 8;
    lsq_size = 2;
    issue_width = 2;
    fetch_per_cycle = 1;
    branch =
      Mosaic_tile.Branch.Dynamic
        {
          kind = Mosaic_tile.Predictor.Gshare { history_bits = 6 };
          penalty = 7;
        };
  }

let stress_configs =
  [
    ("ooo", TC.out_of_order);
    ("ino", TC.in_order);
    ("accel", TC.pre_rtl_accelerator ());
    ("stress", stress_ooo);
  ]

let stress_file = "pipeline_stress.txt"

let corpus_instance name =
  let inst = W.Mir_workload.load_corpus name in
  (inst, W.Runner.trace_cached inst ~ntiles:1)

let stress_line (name, (inst, trace)) (cname, tile_config) =
  let r =
    Soc.run_homogeneous ~profile:true Mosaic.Presets.dae_soc
      ~program:inst.W.Runner.program ~trace ~tile_config
  in
  let causes = Profile.counts r.Soc.profiles.(0) in
  Printf.sprintf "%s %s cycles=%d stepped=%d mao_stalls=%d%s" name cname
    r.Soc.cycles r.Soc.stepped_cycles r.Soc.mao_stalls
    (String.concat ""
       (Array.to_list
          (Array.mapi (fun i n -> Printf.sprintf " %s=%d" n causes.(i))
             Stall.names)))

(* The kernel whose issue/retire stream is digested: small enough that
   the sink keeps every event. *)
let stream_kernel = "sad"

let stream_digest_line (inst, trace) =
  let sink = Mosaic_obs.Sink.create ~capacity:(1 lsl 22) () in
  ignore
    (Soc.run_homogeneous ~sink Mosaic.Presets.dae_soc
       ~program:inst.W.Runner.program ~trace ~tile_config:TC.out_of_order);
  if Mosaic_obs.Sink.dropped sink > 0 then
    failwith "stream digest: sink dropped events";
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.payload with
      | Event.Instr_issue { seq; cls; _ } ->
          Printf.bprintf buf "%d i %d %s\n" e.Event.cycle seq cls
      | Event.Instr_retire { seq; _ } ->
          Printf.bprintf buf "%d r %d\n" e.Event.cycle seq
      | _ -> ())
    (Mosaic_obs.Sink.to_list sink);
  Printf.sprintf "%s ooo stream_md5=%s" stream_kernel
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let stress_lines () =
  let kernels =
    List.map (fun name -> (name, corpus_instance name))
      (W.Mir_workload.corpus_names ())
  in
  List.concat_map
    (fun k -> List.map (stress_line k) stress_configs)
    kernels
  @ [ stream_digest_line (List.assoc stream_kernel kernels) ]
