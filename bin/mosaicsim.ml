(* MosaicSim command-line driver: run benchmarks on configurable systems,
   inspect IR and traces, and sweep accelerator design spaces. *)

open Cmdliner
module W = Mosaic_workloads
module Soc = Mosaic.Soc
module Presets = Mosaic.Presets
module Tile_config = Mosaic_tile.Tile_config
module Table = Mosaic_util.Table

let benchmark_arg =
  let doc =
    "Benchmark name (see the list command), or a path to a $(b,.mir) \
     workload file (see corpus/ and the fmt command)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

(* BENCH is either a registry name or a `.mir` workload file. Parse
   failures print located caret diagnostics, not a backtrace. *)
let resolve_instance bench =
  if Filename.check_suffix bench ".mir" then (
    try W.Mir_workload.load_file bench
    with Failure msg ->
      prerr_string msg;
      if msg <> "" && msg.[String.length msg - 1] <> '\n' then
        prerr_newline ();
      exit 1)
  else W.Registry.instance bench

(* A kernel that deadlocks or outruns the step budget is bad input, not a
   crash: [obtain bench f] reports either as one "BENCH: error: ..." line
   and exits 1, the code .mir parse errors use. *)
let obtain bench f =
  let fail msg =
    Printf.eprintf "%s: error: %s\n%!" bench msg;
    exit 1
  in
  try f () with
  | Mosaic_trace.Interp.Deadlock msg -> fail msg
  | Mosaic_trace.Interp.Step_limit n ->
      fail (Printf.sprintf "step limit of %d dynamic instructions reached" n)

let tiles_arg =
  let doc = "Number of SPMD tiles." in
  Arg.(value & opt int 1 & info [ "tiles"; "t" ] ~docv:"N" ~doc)

let core_arg =
  let doc = "Core model: ooo or ino." in
  Arg.(value & opt string "ooo" & info [ "core"; "c" ] ~docv:"CORE" ~doc)

let system_arg =
  let doc = "System preset: xeon (Table I) or dae (Table II)." in
  Arg.(value & opt string "xeon" & info [ "system"; "s" ] ~docv:"SYS" ~doc)

let core_of_string = function
  | "ooo" -> Tile_config.out_of_order
  | "ino" -> Tile_config.in_order
  | s -> failwith (Printf.sprintf "unknown core model %s (ooo|ino)" s)

let system_of_string = function
  | "xeon" -> Presets.xeon_soc
  | "dae" -> Presets.dae_soc
  | s -> failwith (Printf.sprintf "unknown system preset %s (xeon|dae)" s)

let jobs_arg =
  let doc =
    "Run independent simulations across $(docv) domains. Simulated results \
     (cycles, IPC, every counter) are identical at any job count; only \
     host-time readings wobble under contention."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Simulate one SoC across $(docv) domains: tiles are partitioned into \
     contiguous shards swept in cycle lockstep, with cross-shard traffic \
     re-serialized in exact program order. Every result and counter is \
     bit-identical to --shards 1; speedup needs free host cores and more \
     than one tile."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

(* More shards than cores still gives bit-identical results, but waiting
   shards then park instead of spinning and every handoff goes through the
   OS scheduler; say so once, on stderr, without failing the run. *)
let apply_shards shards cfg =
  let cores = Mosaic_util.Domain_pool.available_cores () in
  if shards > cores then
    Printf.eprintf
      "warning: --shards %d exceeds the %d available core(s); results are \
       unchanged, but shards will contend for cores\n%!"
      shards cores;
  if shards <> 1 then { cfg with Soc.shards } else cfg

let no_skip_arg =
  let doc =
    "Disable event-driven cycle skipping and sweep every simulated cycle. \
     Results are identical either way; this is an escape hatch for \
     debugging the scheduler."
  in
  Arg.(value & flag & info [ "no-skip" ] ~doc)

let trace_cache_arg =
  let doc =
    "Trace-cache directory (default: \\$MOSAICSIM_TRACE_CACHE, else \
     ~/.cache/mosaicsim). Dynamic traces are generated once per workload \
     and reused from here on later runs; cached traces are bit-identical \
     to fresh interpretation. Pass $(b,off) or $(b,none) to disable the \
     disk cache."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-cache" ] ~docv:"DIR" ~doc)

let apply_trace_cache = function
  | None -> ()
  | Some "off" | Some "none" -> Mosaic_trace.Store.set_cache_dir `Disabled
  | Some dir -> Mosaic_trace.Store.set_cache_dir (`Dir dir)

let apply_no_skip no_skip cfg =
  if no_skip then { cfg with Soc.cycle_skip = false } else cfg

let profile_arg =
  let doc =
    "Enable the cycle-accounting profiler: attribute every tile-cycle to a \
     stall cause and report per-tile attribution, per-basic-block hot spots \
     and memory-latency quantiles. Simulated cycles are identical with or \
     without profiling."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

(* Dominant cause across tiles, as "cause share%" — the one-cell profile
   summary the bench table shows per benchmark. *)
let top_stall (r : Soc.result) =
  let module Stall = Mosaic_obs.Stall in
  let module Profile = Mosaic_tile.Profile in
  let totals = Array.make Stall.ncauses 0 in
  Array.iter
    (fun p ->
      Array.iter
        (fun cause ->
          let i = Stall.index cause in
          totals.(i) <- totals.(i) + Profile.count p cause)
        Stall.all)
    r.Soc.profiles;
  let all = Array.fold_left ( + ) 0 totals in
  if all = 0 then "-"
  else begin
    let best = ref 0 in
    Array.iteri (fun i n -> if n > totals.(!best) then best := i) totals;
    Printf.sprintf "%s %.0f%%"
      (Stall.name (Stall.of_index !best))
      (100.0 *. float_of_int totals.(!best) /. float_of_int all)
  end

let list_cmd =
  let run () =
    print_endline "Benchmarks:";
    List.iter (fun n -> Printf.printf "  %s\n" n) W.Registry.all_names;
    print_endline "DNN case studies (use dnn command):";
    List.iter (fun m -> Printf.printf "  %s\n" (W.Dnn.name m)) W.Dnn.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available benchmarks")
    Term.(const run $ const ())

let print_result name (r : Soc.result) =
  Printf.printf "results: %s\n%s\n" name (Mosaic.Report.full r)

let trace_out_arg =
  let doc =
    "Write a Chrome trace_event JSON of the run to $(docv); load it in \
     Perfetto (ui.perfetto.dev) or chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "Dump the metrics registry to $(docv): CSV by default, JSON when the \
     file ends in .json."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* Event collection is enabled only when a trace file was requested, so
   plain runs keep the zero-cost null sink. *)
let sink_for trace_out =
  match trace_out with
  | None -> Mosaic_obs.Sink.null
  | Some _ -> Mosaic_obs.Sink.create ()

let write_observability ~trace_out ~metrics_out ~sink (r : Soc.result) =
  Option.iter
    (fun file ->
      (* When host telemetry is on (--manifest), the simulator's own spans
         ride along on a separate Chrome process track. *)
      let host_spans =
        if Mosaic_obs.Span.enabled () then Mosaic_obs.Span.spans () else []
      in
      Mosaic_obs.Trace_export.write_file ~host_spans file
        (Mosaic_obs.Sink.to_list sink);
      Printf.printf "trace: %s (%d events, %d dropped)\n" file
        (Mosaic_obs.Sink.length sink)
        (Mosaic_obs.Sink.dropped sink))
    trace_out;
  Option.iter
    (fun file ->
      let data =
        if Filename.check_suffix file ".json" then
          Mosaic_obs.Json.to_string (Mosaic_obs.Metrics.to_json r.Soc.metrics)
        else Mosaic_obs.Metrics.to_csv r.Soc.metrics
      in
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc data);
      Printf.printf "metrics: %s\n" file)
    metrics_out

(* "auto", "PERIOD", "PERIOD:INTERVAL" or "PERIOD:INTERVAL:WARMUP", all in
   instructions across tiles; unspecified fields follow [Sample.auto]'s
   proportions. *)
let sample_spec_of_string ~trace s =
  if s = "auto" then
    Mosaic.Sample.auto
      ~total_instrs:(Mosaic_trace.Trace.total_dyn_instrs trace)
  else
    let fields =
      try List.map int_of_string (String.split_on_char ':' s)
      with Failure _ ->
        failwith
          (Printf.sprintf
             "bad --sample spec %S (auto | PERIOD[:INTERVAL[:WARMUP]])" s)
    in
    let spec =
      match fields with
      | [ period ] ->
          {
            Mosaic.Sample.period;
            interval = Stdlib.max 1 (period / 8);
            warmup = Stdlib.max 1 (period / 40);
          }
      | [ period; interval ] ->
          {
            Mosaic.Sample.period;
            interval;
            warmup = Stdlib.max 1 (period / 40);
          }
      | [ period; interval; warmup ] ->
          { Mosaic.Sample.period; interval; warmup }
      | _ ->
          failwith
            (Printf.sprintf
               "bad --sample spec %S (auto | PERIOD[:INTERVAL[:WARMUP]])" s)
    in
    Mosaic.Sample.validate_spec spec;
    spec

let print_sample_report (r : Soc.result) =
  Option.iter
    (fun (s : Mosaic.Sample.report) ->
      Printf.printf
        "sampled: %d cycles estimated (%d measured in detail over %d \
         instrs; %d instrs fast-forwarded across %d periods%s)\n"
        s.Mosaic.Sample.est_cycles s.Mosaic.Sample.detailed_cycles
        s.Mosaic.Sample.detailed_instrs s.Mosaic.Sample.ff_instrs
        s.Mosaic.Sample.periods
        (if s.Mosaic.Sample.degraded > 0 then
           Printf.sprintf "; %d drains degraded to exact"
             s.Mosaic.Sample.degraded
         else ""))
    r.Soc.sample

let sample_arg =
  let doc =
    "Interval sampling: alternate detailed measurement with functional \
     fast-forward and report extrapolated cycles. $(docv) is $(b,auto) or \
     $(b,PERIOD[:INTERVAL[:WARMUP]]) in instructions. Without this flag \
     the full (exact) simulator runs every cycle."
  in
  Arg.(value & opt (some string) None & info [ "sample" ] ~docv:"SPEC" ~doc)

let checkpoint_arg =
  let doc = "Write a snapshot of the full timing state to $(docv)." in
  Arg.(
    value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let checkpoint_at_arg =
  let doc =
    "Cycle to capture the --checkpoint snapshot at (first visited cycle >= \
     $(docv); default 0)."
  in
  Arg.(value & opt int 0 & info [ "checkpoint-at" ] ~docv:"CYCLE" ~doc)

let resume_arg =
  let doc =
    "Resume from a snapshot file instead of cycle 0; the remainder of the \
     run is bit-identical to the straight run."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let manifest_arg =
  let doc =
    "Write a self-describing run manifest to $(docv): config/trace digests, \
     host info, format versions, every registry metric and the host-side \
     span trace. Enables host telemetry (spans) for the run. Compare \
     manifests with the diff command."
  in
  Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Report live progress on stderr (cycle, instructions retired, MIPS, \
     ETA), at most one line per second. Simulated results are unchanged."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

(* --manifest turns the span tracer on for the whole invocation; do it
   before any trace generation so trace_gen spans are captured too. *)
let apply_manifest manifest =
  if manifest <> None then Mosaic_obs.Span.set_enabled true

let progress_for ~enabled ~label ~trace =
  if not enabled then None
  else
    Some
      (Mosaic_obs.Progress.create ~label
         ~total_instrs:(Some (Mosaic_trace.Trace.total_dyn_instrs trace))
         ())

let write_manifest ~kind ~name ?digests ~metrics = function
  | None -> ()
  | Some file ->
      let m = Mosaic.Telemetry.manifest ~kind ~name ?digests ~metrics () in
      Mosaic_obs.Manifest.write file m;
      Printf.printf "manifest: %s\n" file

let run_cmd =
  let run bench tiles core system no_skip shards profile trace_out metrics_out
      cache sample checkpoint checkpoint_at resume manifest progress =
    apply_manifest manifest;
    apply_trace_cache cache;
    let inst = resolve_instance bench in
    let trace, tinfo =
      obtain bench (fun () -> W.Runner.trace_cached_full inst ~ntiles:tiles)
    in
    let cfg =
      apply_shards shards (apply_no_skip no_skip (system_of_string system))
    in
    let sink = sink_for trace_out in
    let sample = Option.map (sample_spec_of_string ~trace) sample in
    let progress = progress_for ~enabled:progress ~label:bench ~trace in
    let checkpoint_at, on_checkpoint =
      match checkpoint with
      | None -> (None, None)
      | Some file ->
          ( Some checkpoint_at,
            Some
              (fun s ->
                Mosaic.Snapshot.save s file;
                Printf.printf "checkpoint: %s (cycle %d)\n" file
                  (Mosaic.Snapshot.cycle s)) )
    in
    let resume =
      Option.map
        (fun file ->
          try Mosaic.Snapshot.load file
          with Mosaic.Snapshot.Format_error msg ->
            failwith (Printf.sprintf "%s: %s" file msg))
        resume
    in
    let r =
      Soc.run_homogeneous ~sink ~profile ?checkpoint_at ?on_checkpoint
        ?resume ?sample ?progress cfg ~program:inst.W.Runner.program ~trace
        ~tile_config:(core_of_string core)
    in
    print_result bench r;
    print_sample_report r;
    write_observability ~trace_out ~metrics_out ~sink r;
    let digests =
      let tiles =
        Array.map
          (fun (tt : Mosaic_trace.Trace.tile_trace) ->
            {
              Soc.kernel = tt.Mosaic_trace.Trace.kernel;
              tile_config = core_of_string core;
            })
          trace.Mosaic_trace.Trace.tiles
      in
      [
        ("config", Mosaic.Telemetry.config_digest cfg ~tiles);
        ("trace", tinfo.Mosaic_trace.Store.digest);
      ]
    in
    write_manifest ~kind:"run" ~name:bench ~digests ~metrics:r.Soc.metrics
      manifest
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a benchmark on a simulated system")
    Term.(
      const run $ benchmark_arg $ tiles_arg $ core_arg $ system_arg
      $ no_skip_arg $ shards_arg $ profile_arg $ trace_out_arg
      $ metrics_out_arg $ trace_cache_arg $ sample_arg $ checkpoint_arg
      $ checkpoint_at_arg $ resume_arg $ manifest_arg $ progress_arg)

let bench_cmd =
  let benches_arg =
    let doc = "Benchmarks to run (default: the Parboil suite)." in
    Arg.(value & pos_all string [] & info [] ~docv:"BENCH" ~doc)
  in
  let run benches tiles core system no_skip shards profile jobs cache manifest
      =
    apply_manifest manifest;
    apply_trace_cache cache;
    (* Nested domain pools oversubscribe: a batch of sharded runs would
       spawn jobs*shards domains. Pick one axis of parallelism. *)
    if jobs > 1 && shards > 1 then
      failwith
        (Printf.sprintf
           "--jobs %d and --shards %d both parallelize; use --jobs to run \
            workloads concurrently or --shards to parallelize within one \
            SoC, not both"
           jobs shards);
    let names =
      match benches with [] -> W.Registry.parboil_names | ns -> ns
    in
    let cfg =
      apply_shards shards (apply_no_skip no_skip (system_of_string system))
    in
    let tc = core_of_string core in
    let results =
      W.Runner.run_batch ~jobs
        (List.map
           (fun name () ->
             let inst = resolve_instance name in
             let trace =
               obtain name (fun () -> W.Runner.trace_cached inst ~ntiles:tiles)
             in
             let r =
               Soc.run_homogeneous ~profile cfg ~program:inst.W.Runner.program
                 ~trace ~tile_config:tc
             in
             (name, r))
           names)
    in
    Table.print
      ~title:(Printf.sprintf "bench: %s, %s (%d jobs)" system core jobs)
      ~columns:
        ([
           Table.column ~align:Table.Left "benchmark";
           Table.column "cycles";
           Table.column "IPC";
           Table.column "MIPS";
           Table.column "host s";
         ]
        @ if profile then [ Table.column ~align:Table.Left "top stall" ] else [])
      (List.map
         (fun (name, (r : Soc.result)) ->
           [
             name;
             Table.icell r.Soc.cycles;
             Printf.sprintf "%.2f" r.Soc.ipc;
             Printf.sprintf "%.2f" r.Soc.mips;
             Printf.sprintf "%.2f" r.Soc.host_seconds;
           ]
           @ if profile then [ top_stall r ] else [])
         results);
    match manifest with
    | None -> ()
    | Some _ ->
        let reg = Mosaic_obs.Metrics.create () in
        List.iter
          (fun (name, (r : Soc.result)) ->
            let g k v =
              Mosaic_obs.Span.gauge_set reg
                (Printf.sprintf "bench.%s.%s" name k)
                v
            in
            g "cycles" (float_of_int r.Soc.cycles);
            g "instrs" (float_of_int r.Soc.instrs);
            g "ipc" r.Soc.ipc;
            g "mips" r.Soc.mips;
            g "host_seconds" r.Soc.host_seconds)
          results;
        write_manifest ~kind:"bench"
          ~name:(String.concat "," names)
          ~metrics:reg manifest
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run a batch of benchmarks, optionally across parallel domains \
          (--jobs)")
    Term.(
      const run $ benches_arg $ tiles_arg $ core_arg $ system_arg
      $ no_skip_arg $ shards_arg $ profile_arg $ jobs_arg $ trace_cache_arg
      $ manifest_arg)

(* Cycle-accounting profiler front-end: run one workload with attribution
   on and print where the cycles went — per-tile stacked stall shares, the
   ranked per-basic-block hot-spot table, and memory-latency quantiles. *)
let profile_cmd =
  let top_arg =
    let doc = "Rows in the hot-spot ranking." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc =
      "Export stall-attribution samples to $(docv): CSV by default \
       (cycle,tile,cause,cycles with cumulative counts), JSON when the file \
       ends in .json. With --trace-out the export carries the periodic \
       samples of the run; otherwise a single end-of-run snapshot."
    in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run bench tiles core system no_skip shards top out trace_out metrics_out
      cache =
    apply_trace_cache cache;
    let inst = resolve_instance bench in
    let trace =
      obtain bench (fun () -> W.Runner.trace_cached inst ~ntiles:tiles)
    in
    let cfg =
      apply_shards shards (apply_no_skip no_skip (system_of_string system))
    in
    let sink = sink_for trace_out in
    let r =
      Soc.run_homogeneous ~sink ~profile:true cfg
        ~program:inst.W.Runner.program ~trace
        ~tile_config:(core_of_string core)
    in
    Printf.printf "profile: %s\n== summary ==\n%s\n%s\n" bench
      (Mosaic.Report.summary r)
      (Mosaic.Report.profile ~top r);
    Option.iter
      (fun file ->
        let events =
          if Mosaic_obs.Sink.enabled sink then Mosaic_obs.Sink.to_list sink
          else
            Array.to_list
              (Array.mapi
                 (fun i p ->
                   {
                     Mosaic_obs.Event.cycle = r.Soc.cycles;
                     payload =
                       Mosaic_obs.Event.Stall_sample
                         { tile = i; counts = Mosaic_tile.Profile.counts p };
                   })
                 r.Soc.profiles)
        in
        let data =
          if Filename.check_suffix file ".json" then
            Mosaic_obs.Json.to_string
              (Mosaic_obs.Trace_export.stalls_to_json events)
          else Mosaic_obs.Trace_export.stalls_to_csv events
        in
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc data);
        Printf.printf "stalls: %s\n" file)
      out;
    write_observability ~trace_out ~metrics_out ~sink r
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a benchmark with cycle accounting and print the stall \
          attribution, hot-spot ranking and memory-latency histogram")
    Term.(
      const run $ benchmark_arg $ tiles_arg $ core_arg $ system_arg
      $ no_skip_arg $ shards_arg $ top_arg $ out_arg $ trace_out_arg
      $ metrics_out_arg $ trace_cache_arg)

let dump_cmd =
  let run bench =
    let inst = resolve_instance bench in
    Format.printf "%a@." Mosaic_ir.Pretty.pp_program inst.W.Runner.program
  in
  Cmd.v (Cmd.info "dump" ~doc:"Dump a benchmark's IR")
    Term.(const run $ benchmark_arg)

(* Pre-warm or inspect the trace cache for one workload: where the trace
   came from (fresh interpretation, in-process memo, disk), its cache key
   and file, and the §VI-B storage story (raw vs encoded footprint). *)
let trace_cmd =
  let bench_opt_arg =
    let doc =
      "Benchmark name or $(b,.mir) file (optional with $(b,--gc))."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let gc_arg =
    let doc =
      "Garbage-collect the trace cache: report entry count and total size, \
       and with $(b,--max-bytes) prune least-recently-used entries (by \
       mtime) until the rest fit. Evicted traces are regenerated on next \
       use."
    in
    Arg.(value & flag & info [ "gc" ] ~doc)
  in
  let max_bytes_arg =
    let doc = "Size cap for $(b,--gc), in bytes." in
    Arg.(
      value & opt (some int) None & info [ "max-bytes" ] ~docv:"BYTES" ~doc)
  in
  let run_gc max_bytes =
    match Mosaic_trace.Store.gc ?max_bytes () with
    | None -> print_endline "trace cache: disabled; nothing to collect"
    | Some g ->
        let dir =
          Option.value ~default:"?" (Mosaic_trace.Store.cache_dir ())
        in
        let mb n = Printf.sprintf "%.2f" (float_of_int n /. 1048576.0) in
        Table.print ~title:(Printf.sprintf "trace cache gc: %s" dir)
          ~columns:
            [ Table.column ~align:Table.Left "metric"; Table.column "value" ]
          [
            [ "entries scanned"; Table.icell g.Mosaic_trace.Store.scanned ];
            [ "size MB"; mb g.Mosaic_trace.Store.scanned_bytes ];
            [ "entries deleted"; Table.icell g.Mosaic_trace.Store.deleted ];
            [ "deleted MB"; mb g.Mosaic_trace.Store.deleted_bytes ];
            [
              "size after MB";
              mb
                (g.Mosaic_trace.Store.scanned_bytes
                - g.Mosaic_trace.Store.deleted_bytes);
            ];
          ]
  in
  let run_trace_inspect bench tiles =
    let inst = resolve_instance bench in
    let trace, info =
      obtain bench (fun () -> W.Runner.trace_cached_full inst ~ntiles:tiles)
    in
    let control, memory = Mosaic_trace.Trace.storage_bytes trace in
    let comp_control, comp_memory = Mosaic_trace.Trace.compressed_bytes trace in
    let status =
      match info.Mosaic_trace.Store.source with
      | Mosaic_trace.Store.Interpreted -> "miss (interpreted and cached)"
      | Mosaic_trace.Store.Memo_hit -> "hit (in-process memo)"
      | Mosaic_trace.Store.Disk_hit -> "hit (disk cache)"
    in
    let kb n = Printf.sprintf "%.1f" (float_of_int n /. 1024.0) in
    Table.print ~title:(Printf.sprintf "trace: %s (%d tiles)" bench tiles)
      ~columns:[ Table.column ~align:Table.Left "metric"; Table.column ~align:Table.Left "value" ]
      [
        [ "workload digest"; info.Mosaic_trace.Store.digest ];
        [ "cache status"; status ];
        [
          "cache file";
          (match info.Mosaic_trace.Store.cache_file with
          | Some path -> path
          | None -> "(disk cache disabled)");
        ];
        [
          "trace obtained in";
          Printf.sprintf "%.3f s" info.Mosaic_trace.Store.gen_seconds;
        ];
        [ "dynamic instructions"; Table.icell (Mosaic_trace.Trace.total_dyn_instrs trace) ];
        [ "memory accesses"; Table.icell (Mosaic_trace.Trace.total_mem_accesses trace) ];
        [ "control trace raw KB"; kb control ];
        [ "control trace packed KB"; kb comp_control ];
        [ "memory trace raw KB"; kb memory ];
        [ "memory trace packed KB"; kb comp_memory ];
      ]
  in
  let run bench tiles cache gc max_bytes =
    apply_trace_cache cache;
    if gc then run_gc max_bytes
    else begin
      let bench =
        match bench with
        | Some b -> b
        | None -> failwith "BENCH is required unless --gc is given"
      in
      run_trace_inspect bench tiles
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Generate a benchmark's trace (or fetch it from the trace cache) \
          and report footprint and cache status; --gc prunes the cache")
    Term.(
      const run $ bench_opt_arg $ tiles_arg $ trace_cache_arg $ gc_arg
      $ max_bytes_arg)

let trace_stats_cmd =
  let run bench tiles =
    let inst = resolve_instance bench in
    let trace =
      obtain bench (fun () -> W.Runner.trace_cached inst ~ntiles:tiles)
    in
    let control, memory = Mosaic_trace.Trace.storage_bytes trace in
    Table.print ~title:(Printf.sprintf "trace: %s" bench)
      ~columns:[ Table.column ~align:Table.Left "metric"; Table.column "value" ]
      [
        [ "dynamic instructions"; Table.icell (Mosaic_trace.Trace.total_dyn_instrs trace) ];
        [ "memory accesses"; Table.icell (Mosaic_trace.Trace.total_mem_accesses trace) ];
        [ "control trace (bytes)"; Table.icell control ];
        [ "memory trace (bytes)"; Table.icell memory ];
      ]
  in
  Cmd.v
    (Cmd.info "trace-stats" ~doc:"Generate and measure a benchmark's traces")
    Term.(const run $ benchmark_arg $ tiles_arg)

let dse_cmd =
  let kind_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KIND" ~doc:"Accelerator kind: gemm, histo, elementwise")
  in
  let bench_arg =
    let doc =
      "Also sweep the PLM axis at SoC level for this workload (e.g. \
       $(b,sgemm-accel)) with the incremental re-timer: one profiled \
       simulation, every paper PLM size re-timed, the full simulator as \
       the per-point oracle."
    in
    Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"BENCH" ~doc)
  in
  let soc_plm_sweep bench jobs =
    let inst = resolve_instance bench in
    let trace = obtain bench (fun () -> W.Runner.trace_cached inst ~ntiles:1) in
    let spec =
      "plm="
      ^ String.concat ","
          (List.map
             (fun b -> string_of_int (b / 1024))
             Mosaic_accel.Dse.paper_plm_sizes)
    in
    let points = Mosaic.Sweep.grid [ Mosaic.Sweep.axis_of_spec spec ] in
    let o =
      Mosaic.Sweep.run ~jobs ~exact:true Presets.dae_soc
        ~tile_config:Tile_config.out_of_order ~program:inst.W.Runner.program
        ~trace points
    in
    Table.print
      ~title:
        (Printf.sprintf "SoC-level PLM sweep: %s (retimed vs exact)" bench)
      ~columns:
        [
          Table.column ~align:Table.Left "point";
          Table.column "retimed cycles";
          Table.column "exact cycles";
          Table.column "err %";
        ]
      (Array.to_list
         (Array.map
            (fun (p : Mosaic.Sweep.point) ->
              [
                p.Mosaic.Sweep.label;
                Table.icell p.Mosaic.Sweep.retimed.Mosaic.Retime.cycles;
                (match p.Mosaic.Sweep.exact_cycles with
                | Some e -> Table.icell e
                | None -> "-");
                (match p.Mosaic.Sweep.err_pct with
                | Some e -> Printf.sprintf "%.2f" e
                | None -> "-");
              ])
            o.Mosaic.Sweep.points));
    Printf.printf
      "incremental: %.3f s vs %.3f s exact (%.1fx); max err %.2f%%\n"
      (Mosaic.Sweep.incremental_seconds o)
      o.Mosaic.Sweep.exact_seconds
      (Option.value ~default:0.0 (Mosaic.Sweep.speedup o))
      (Mosaic.Sweep.max_err_pct o)
  in
  let run kind jobs bench =
    let points =
      Mosaic_accel.Dse.sweep ~jobs ~kind
        ~plm_sizes:Mosaic_accel.Dse.paper_plm_sizes
        ~workload_bytes:Mosaic_accel.Dse.paper_workload_bytes
        Mosaic_accel.Accel_model.default_sys
    in
    let rows =
      List.map
        (fun (p : Mosaic_accel.Dse.point) ->
          [
            Printf.sprintf "%dKB" (p.Mosaic_accel.Dse.plm_bytes / 1024);
            Printf.sprintf "%dKB" (p.Mosaic_accel.Dse.workload_bytes / 1024);
            Table.icell p.Mosaic_accel.Dse.model_cycles;
            Table.icell p.Mosaic_accel.Dse.rtl_cycles;
            Table.icell p.Mosaic_accel.Dse.fpga_cycles;
            Printf.sprintf "%.0f" p.Mosaic_accel.Dse.area_um2;
          ])
        points
    in
    Table.print ~title:(Printf.sprintf "DSE: %s" kind)
      ~columns:
        [
          Table.column "PLM";
          Table.column "workload";
          Table.column "model cyc";
          Table.column "rtl cyc";
          Table.column "fpga cyc";
          Table.column "area um2";
        ]
      rows;
    Option.iter (fun b -> soc_plm_sweep b jobs) bench
  in
  Cmd.v
    (Cmd.info "dse" ~doc:"Accelerator design-space exploration sweep")
    Term.(const run $ kind_arg $ jobs_arg $ bench_arg)

(* Incremental design-space sweep: one exact profiled simulation + N cheap
   re-timings, full simulator as the per-point oracle behind --exact. *)
let sweep_cmd =
  let axis_arg =
    let doc =
      "Sweep axis as $(b,name=v1,v2,...) (repeatable; axes cross into a \
       grid). Axes: l1/l2/llc (cache KB), dramlat (cycles), wire (cycles), \
       plm (accelerator PLM KB), lanes, width, window, lsq, div, freq \
       (GHz). Default: l1=8,16,32,64 crossed with l2=256,512,1024,2048 \
       (16 points)."
    in
    Arg.(value & opt_all string [] & info [ "axis"; "a" ] ~docv:"SPEC" ~doc)
  in
  let exact_arg =
    let doc =
      "Also run the full simulator at every point (the exact oracle) and \
       report the re-timer's measured cycle error per point."
    in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  let run bench tiles core system axes exact jobs no_skip shards cache
      manifest =
    apply_manifest manifest;
    apply_trace_cache cache;
    if jobs > 1 && shards > 1 then
      failwith
        (Printf.sprintf
           "--jobs %d and --shards %d both parallelize; pick one" jobs shards);
    let inst = resolve_instance bench in
    let trace =
      obtain bench (fun () -> W.Runner.trace_cached inst ~ntiles:tiles)
    in
    let cfg =
      apply_shards shards (apply_no_skip no_skip (system_of_string system))
    in
    let specs = match axes with [] -> Mosaic.Sweep.default_axes | a -> a in
    let points =
      Mosaic.Sweep.grid (List.map Mosaic.Sweep.axis_of_spec specs)
    in
    let o =
      Mosaic.Sweep.run ~jobs ~exact cfg ~tile_config:(core_of_string core)
        ~program:inst.W.Runner.program ~trace points
    in
    Table.print
      ~title:
        (Printf.sprintf "sweep: %s, %d points (%s)" bench
           (Array.length o.Mosaic.Sweep.points)
           (String.concat " x " specs))
      ~columns:
        ([
           Table.column ~align:Table.Left "point";
           Table.column "retimed cycles";
           Table.column "IPC";
         ]
        @
        if exact then [ Table.column "exact cycles"; Table.column "err %" ]
        else [])
      (Array.to_list
         (Array.map
            (fun (p : Mosaic.Sweep.point) ->
              [
                p.Mosaic.Sweep.label;
                Table.icell p.Mosaic.Sweep.retimed.Mosaic.Retime.cycles;
                Printf.sprintf "%.2f" p.Mosaic.Sweep.retimed.Mosaic.Retime.ipc;
              ]
              @
              match (p.Mosaic.Sweep.exact_cycles, p.Mosaic.Sweep.err_pct) with
              | Some e, Some err ->
                  [ Table.icell e; Printf.sprintf "%.2f" err ]
              | _ -> [])
            o.Mosaic.Sweep.points));
    let npoints = Array.length o.Mosaic.Sweep.points in
    Printf.printf
      "base: %d cycles; profiled sim %.3f s + analysis %.3f s + %d \
       re-timings %.4f s (%.1f us/point)\n"
      o.Mosaic.Sweep.base.Soc.cycles o.Mosaic.Sweep.base_seconds
      o.Mosaic.Sweep.analyze_seconds npoints o.Mosaic.Sweep.retime_seconds
      (1e6 *. o.Mosaic.Sweep.retime_seconds /. float_of_int (max npoints 1));
    if exact then
      Printf.printf
        "exact oracle: %.3f s for %d full simulations; incremental sweep \
         %.1fx faster; max cycle error %.2f%%\n"
        o.Mosaic.Sweep.exact_seconds npoints
        (Option.value ~default:0.0 (Mosaic.Sweep.speedup o))
        (Mosaic.Sweep.max_err_pct o);
    match manifest with
    | None -> ()
    | Some _ ->
        let reg = Mosaic_obs.Metrics.create () in
        let g k v = Mosaic_obs.Span.gauge_set reg k v in
        g "sweep.base.cycles" (float_of_int o.Mosaic.Sweep.base.Soc.cycles);
        g "sweep.points" (float_of_int npoints);
        g "sweep.base_seconds" o.Mosaic.Sweep.base_seconds;
        g "sweep.analyze_seconds" o.Mosaic.Sweep.analyze_seconds;
        g "sweep.retime_seconds" o.Mosaic.Sweep.retime_seconds;
        g "sweep.exact_seconds" o.Mosaic.Sweep.exact_seconds;
        Array.iter
          (fun (p : Mosaic.Sweep.point) ->
            g
              (Printf.sprintf "sweep.%s.retimed_cycles" p.Mosaic.Sweep.label)
              (float_of_int p.Mosaic.Sweep.retimed.Mosaic.Retime.cycles);
            Option.iter
              (fun e ->
                g
                  (Printf.sprintf "sweep.%s.exact_cycles" p.Mosaic.Sweep.label)
                  (float_of_int e))
              p.Mosaic.Sweep.exact_cycles)
          o.Mosaic.Sweep.points;
        write_manifest ~kind:"sweep" ~name:bench ~metrics:reg manifest
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Incremental design-space sweep: analyze the trace once, re-time \
          every design point (LightningSim-style); --exact keeps the full \
          simulator as the oracle")
    Term.(
      const run $ benchmark_arg $ tiles_arg $ core_arg $ system_arg
      $ axis_arg $ exact_arg $ jobs_arg $ no_skip_arg $ shards_arg
      $ trace_cache_arg $ manifest_arg)

let dnn_cmd =
  let model_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MODEL" ~doc:"DNN model: convnet, graphsage, recsys")
  in
  let accel_arg =
    Arg.(value & flag & info [ "accel" ] ~doc:"Use the accelerator SoC")
  in
  let run model accel =
    let m =
      match model with
      | "convnet" -> W.Dnn.Convnet
      | "graphsage" -> W.Dnn.Graphsage
      | "recsys" -> W.Dnn.Recsys
      | s -> failwith (Printf.sprintf "unknown model %s" s)
    in
    let inst = W.Dnn.instance m ~accel in
    let trace = obtain model (fun () -> W.Runner.trace_cached inst ~ntiles:1) in
    let r =
      Soc.run_homogeneous Presets.dae_soc ~program:inst.W.Runner.program ~trace
        ~tile_config:Tile_config.out_of_order
    in
    print_result inst.W.Runner.name r
  in
  Cmd.v
    (Cmd.info "dnn" ~doc:"Run a Keras TensorFlow case-study model")
    Term.(const run $ model_arg $ accel_arg)

let characterize_cmd =
  let run bench tiles =
    let inst = resolve_instance bench in
    let trace =
      obtain bench (fun () -> W.Runner.trace_cached inst ~ntiles:tiles)
    in
    let a = Mosaic_trace.Analysis.whole inst.W.Runner.program trace in
    Format.printf "characterization: %s@.%a@." bench Mosaic_trace.Analysis.pp a;
    List.iter
      (fun kb ->
        Printf.printf "LRU hit rate at %4d KB: %.1f%%\n" kb
          (100.0
          *. Mosaic_trace.Analysis.capacity_hit_rate a ~lines:(kb * 1024 / 64)))
      [ 16; 32; 256; 2048; 20480 ];
    (* The re-timer's view of the same trace: instruction mix, critical
       dependence chain, communication and accelerator events. *)
    let sk = Mosaic_trace.Analysis.skeleton inst.W.Runner.program trace in
    Format.printf "@.%a@." Mosaic_trace.Analysis.pp_skeleton sk
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Locality and instruction-mix characterization from traces")
    Term.(const run $ benchmark_arg $ tiles_arg)

let cc_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"MiniC source file (see lib/frontend)")
  in
  let kernel_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "kernel"; "k" ] ~docv:"NAME" ~doc:"Kernel to run (default: first)")
  in
  let args_arg =
    Arg.(
      value
      & opt (list int) []
      & info [ "args" ] ~docv:"N,N,..." ~doc:"Integer kernel arguments")
  in
  let run file kernel kargs tiles core system no_skip =
    let prog = Mosaic_frontend.Minic.compile_file file in
    let kernel =
      match kernel with
      | Some k -> k
      | None -> (
          match Mosaic_ir.Program.funcs prog with
          | f :: _ -> f.Mosaic_ir.Func.name
          | [] -> failwith "no kernel in file")
    in
    let args = List.map Mosaic_ir.Value.of_int kargs in
    let it = Mosaic_trace.Interp.create prog ~kernel ~ntiles:tiles ~args in
    let trace = obtain file (fun () -> Mosaic_trace.Interp.run it) in
    let r =
      Soc.run_homogeneous
        (apply_no_skip no_skip (system_of_string system))
        ~program:prog ~trace ~tile_config:(core_of_string core)
    in
    print_result (Filename.basename file) r
  in
  Cmd.v
    (Cmd.info "cc"
       ~doc:"Compile a MiniC source file and simulate its kernel")
    Term.(
      const run $ file_arg $ kernel_arg $ args_arg $ tiles_arg $ core_arg
      $ system_arg $ no_skip_arg)

let dae_cmd =
  let run bench pairs no_skip shards profile =
    let inst, info =
      match bench with
      | "ewsd" -> W.Ewsd.dae_instance ~rows:2048 ~cols:2048 ~per_row:16 ()
      | "projection" ->
          W.Projection.dae_instance ~n_left:512 ~n_right:1024 ~degree:8 ()
      | "sgemm" -> W.Sgemm.dae_instance ~m:48 ~n:48 ~k:48 ()
      | s -> failwith (Printf.sprintf "no DAE variant for %s" s)
    in
    Printf.printf
      "slicing: %d terminal loads, %d routed stores, %d duplicated\n"
      info.Mosaic_compiler.Dae.sent_loads info.Mosaic_compiler.Dae.routed_stores
      info.Mosaic_compiler.Dae.duplicated;
    let access = inst.W.Runner.kernel ^ "_access"
    and execute = inst.W.Runner.kernel ^ "_execute" in
    let spec =
      Array.init (2 * pairs) (fun i ->
          ((if i < pairs then access else execute), inst.W.Runner.args))
    in
    let trace =
      obtain bench (fun () -> W.Runner.trace_hetero_cached inst ~tiles:spec)
    in
    let tiles =
      Array.init (2 * pairs) (fun i ->
          {
            Soc.kernel = (if i < pairs then access else execute);
            tile_config = Tile_config.in_order;
          })
    in
    let r =
      Soc.run ~profile
        (apply_shards shards (apply_no_skip no_skip Presets.dae_soc))
        ~program:inst.W.Runner.program ~trace ~tiles
    in
    print_result (bench ^ "-dae") r
  in
  let pairs_arg =
    Arg.(value & opt int 1 & info [ "pairs"; "p" ] ~docv:"N" ~doc:"DAE pairs")
  in
  Cmd.v
    (Cmd.info "dae" ~doc:"Slice a kernel into DAE halves and simulate pairs")
    Term.(
      const run $ benchmark_arg $ pairs_arg $ no_skip_arg $ shards_arg
      $ profile_arg)

(* Parse -> pretty-print round trip: the canonical form preserves
   semantics exactly (explicit instruction ids, bit-exact float literals,
   metadata directives), so formatting never changes a trace digest. *)
let fmt_cmd =
  let files_arg =
    let doc = "The $(b,.mir) files to format." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let in_place_arg =
    Arg.(value & flag & info [ "i"; "in-place" ] ~doc:"Rewrite files in place.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Don't write anything; exit non-zero if any file is not already \
             in canonical form (use in CI).")
  in
  let run files in_place check =
    let dirty = ref false in
    List.iter
      (fun file ->
        let text = In_channel.with_open_text file In_channel.input_all in
        match Mosaic_ir.Parse.mir ~path:file text with
        | Error diags ->
            dirty := true;
            prerr_string (Mosaic_ir.Parse.render ~path:file ~source:text diags)
        | Ok mir ->
            let canonical = Mosaic_ir.Mir.to_string mir in
            if check then begin
              if canonical <> text then begin
                dirty := true;
                Printf.eprintf "%s: not in canonical form (run mosaicsim fmt)\n"
                  file
              end
            end
            else if in_place then begin
              if canonical <> text then begin
                Out_channel.with_open_bin file (fun oc ->
                    Out_channel.output_string oc canonical);
                Printf.printf "reformatted %s\n" file
              end
            end
            else print_string canonical)
      files;
    if !dirty then exit 1
  in
  Cmd.v
    (Cmd.info "fmt"
       ~doc:
         "Validate and canonically format .mir workload files (parse, \
          re-print; semantics and trace digests are unchanged)")
    Term.(const run $ files_arg $ in_place_arg $ check_arg)

let version_cmd =
  let run () =
    Printf.printf "mosaicsim 0.1.0\n";
    List.iter
      (fun (k, v) -> Printf.printf "%-18s %s\n" (k ^ ":") v)
      (Mosaic.Telemetry.versions ());
    Printf.printf "%-18s %s\n" "git_rev:"
      (match Mosaic_obs.Manifest.git_rev () with
      | Some r -> r
      | None -> "unknown")
  in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print the build's semantics, trace-format and snapshot-format \
          versions, and the git revision when available")
    Term.(const run $ const ())

let diff_cmd =
  let baseline_arg =
    let doc = "Baseline artifact: a manifest or a metrics JSON dump." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE" ~doc)
  in
  let candidate_arg =
    let doc = "Candidate artifact to compare against the baseline." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CANDIDATE" ~doc)
  in
  let threshold_arg =
    let doc =
      "Relative tolerance for non-cycle numeric keys (host seconds, MIPS \
       and the like wobble run to run). Keys ending in $(b,cycles) are \
       always compared exactly."
    in
    Arg.(value & opt float 0.05 & info [ "threshold" ] ~docv:"REL" ~doc)
  in
  let all_arg =
    let doc = "Also list identical and within-threshold keys." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let run baseline candidate threshold all =
    let module Diff = Mosaic_obs.Diff in
    let entries =
      Diff.compare ~threshold
        (Diff.flatten_file baseline)
        (Diff.flatten_file candidate)
    in
    print_string (Diff.render ~show_identical:all entries);
    let drift = Diff.cycle_drift entries in
    if drift <> [] then begin
      Printf.printf "cycle drift: %d key%s differ\n" (List.length drift)
        (if List.length drift = 1 then "" else "s");
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two run artifacts (manifests or metrics JSON) key by key; \
          exits non-zero on any cycle-count drift")
    Term.(
      const run $ baseline_arg $ candidate_arg $ threshold_arg $ all_arg)

let main =
  let doc = "MosaicSim: lightweight modular simulation of heterogeneous systems" in
  Cmd.group (Cmd.info "mosaicsim" ~version:"0.1.0" ~doc)
    [
      list_cmd; run_cmd; bench_cmd; sweep_cmd; profile_cmd; dump_cmd;
      trace_cmd; trace_stats_cmd; dse_cmd; dnn_cmd; cc_cmd; dae_cmd;
      characterize_cmd; fmt_cmd; version_cmd; diff_cmd;
    ]

let () = exit (Cmd.eval main)
