(* What one simulation shows the outside world, pinned in
   test/golden/run_streams.txt: the exported event stream, the progress
   heartbeat's line count and the metrics registry, for a small
   accelerator kernel on one tile and the projection DAE pairs on four,
   each run four ways (profiled with a sink, sampled and profiled with a
   sink, with a zero-interval progress heartbeat, sharded). The cycle
   pins elsewhere leave the periodic Stall_sample events and the registry
   of a sampled run open; these lines close that gap, so moving code
   inside Soc.run cannot silently change what it emits. *)

module W = Mosaic_workloads
module Soc = Mosaic.Soc
module Presets = Mosaic.Presets
module TC = Mosaic_tile.Tile_config
module Metrics = Mosaic_obs.Metrics
module Sink = Mosaic_obs.Sink
module Progress = Mosaic_obs.Progress

let md5 s = Digest.to_hex (Digest.string s)

(* Registry contents minus host-time gauges, sorted by name; floats in
   hex so equal lines mean bit-equal values. *)
let metrics_md5 reg =
  let host name =
    name = "sim.host_seconds" || name = "sim.mips"
    || String.starts_with ~prefix:"host." name
  in
  Metrics.to_list reg
  |> List.filter (fun (name, _) -> not (host name))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.concat_map (fun (name, m) ->
         match m with
         | Metrics.Counter c ->
             [ Printf.sprintf "%s=%d" name (Metrics.counter_value c) ]
         | Metrics.Gauge g ->
             [ Printf.sprintf "%s=%h" name (Metrics.gauge_value g) ]
         | Metrics.Histogram h ->
             List.map
               (fun (n, _, v) -> Printf.sprintf "%s=%h" n v)
               (Metrics.hist_rows name h))
  |> String.concat "\n" |> md5

let workloads () =
  let sinkhorn =
    let inst =
      W.Sinkhorn.instance ~accel:true ~dim:8 ~rows:32 ~cols:32 ~per_row:4
        ~reps:6 ()
    in
    let trace = W.Runner.trace inst ~ntiles:1 in
    let tiles =
      [| { Soc.kernel = inst.W.Runner.kernel; tile_config = TC.out_of_order } |]
    in
    ("sinkhorn-accel-1tile", inst, trace, tiles)
  in
  let dae =
    let inst, _ =
      W.Projection.dae_instance ~n_left:32 ~n_right:64 ~degree:4 ()
    in
    let access = inst.W.Runner.kernel ^ "_access"
    and execute = inst.W.Runner.kernel ^ "_execute" in
    let kernel i = if i < 2 then access else execute in
    let trace =
      W.Runner.trace_hetero inst
        ~tiles:(Array.init 4 (fun i -> (kernel i, inst.W.Runner.args)))
    in
    let tiles =
      Array.init 4 (fun i ->
          { Soc.kernel = kernel i; tile_config = TC.in_order })
    in
    ("projection-dae-pairs2", inst, trace, tiles)
  in
  [ sinkhorn; dae ]

let modes = [ "profile+sink"; "sample+profile+sink"; "progress"; "shards2" ]

let stream_line (label, inst, trace, tiles) mode =
  let sink =
    if String.ends_with ~suffix:"sink" mode then
      Sink.create ~capacity:(1 lsl 22) ()
    else Sink.null
  in
  let profile = mode <> "progress" && mode <> "shards2" in
  let sample =
    if mode = "sample+profile+sink" then
      Some
        (Mosaic.Sample.auto
           ~total_instrs:(Mosaic_trace.Trace.total_dyn_instrs trace))
    else None
  in
  let progress =
    if mode = "progress" then
      Some
        (Progress.create ~interval_s:0.0
           ~print:(fun _ -> ())
           ~label
           ~total_instrs:
             (Some (Mosaic_trace.Trace.total_dyn_instrs trace))
           ())
    else None
  in
  let shards = if mode = "shards2" then 2 else 1 in
  let r =
    Soc.run ~sink ~profile ?sample ?progress
      { Presets.dae_soc with Soc.shards }
      ~program:inst.W.Runner.program ~trace ~tiles
  in
  if Sink.dropped sink > 0 then
    Alcotest.failf "%s %s: sink dropped %d events" label mode
      (Sink.dropped sink);
  Printf.sprintf "%s %s %s %s %s" label mode
    (md5 (Mosaic_obs.Trace_export.to_string (Sink.to_list sink)))
    (match progress with
    | Some p -> string_of_int (Progress.lines_printed p)
    | None -> "-")
    (metrics_md5 r.Soc.metrics)

let test_run_streams_pinned () =
  Test_trace_store.check_pinned ~path:"golden/run_streams.txt"
    ~what:"event streams, progress lines or registry contents"
    ~advice:
      "which changes what a run reports. If the change is deliberate, say \
       so"
    (List.concat_map
       (fun w -> List.map (stream_line w) modes)
       (workloads ()))

let suite =
  [
    ( "run_stream",
      [
        Alcotest.test_case "streams, progress and registry pinned" `Quick
          test_run_streams_pinned;
      ] );
  ]
