(* Differential coverage for the domain-sharded scheduler.

   The sharded scheduler's contract is total: not just cycles, but every
   deterministic output — stepped cycles, instruction counts, stall
   attribution, and the whole metrics registry (caches, DRAM,
   interleaver, per-tile counters) — must be bit-identical to the serial
   sweep for any program, any shard count, with and without cycle
   skipping, profiled or plain. Comparisons reuse
   [Test_batch.fingerprint], which serializes the registry minus
   host-time rows, so a divergence anywhere in shared state fails loudly
   rather than hiding behind a matching cycle count.

   The [Shard_sync] kernel is also tested directly: global ordering of
   cross-shard operations (also with more shards than cores, so waiters
   park), prompt failure propagation to parked shards, and wait-time
   accounting. *)

module Ir = Mosaic_ir
module W = Mosaic_workloads
module Soc = Mosaic.Soc
module Presets = Mosaic.Presets
module TC = Mosaic_tile.Tile_config
module Sync = Mosaic_util.Shard_sync

let fingerprint = Test_batch.fingerprint

(* --- Shard_sync kernel ------------------------------------------------ *)

(* Each shard owns two "tiles" and performs an ordered op per tile per
   sweep, mimicking the scheduler's publish discipline. The ops append
   their points to a plain shared list — safe exactly because wait_order
   serializes them — and the trace must come out globally ascending. *)
let sync_global_order ~nshards () =
  let tiles_per = 2 and sweeps = 25 in
  let sync = Sync.create ~nshards () in
  let log = ref [] in
  Sync.run sync (fun k ->
      let lo = k * tiles_per in
      for seq = 0 to sweeps - 1 do
        for t = lo to lo + tiles_per - 1 do
          Sync.publish sync ~shard:k ~point:(Sync.point ~seq ~tile:t);
          let point = Sync.point ~seq ~tile:t in
          Sync.wait_order sync ~shard:k ~point;
          log := point :: !log
        done;
        Sync.publish sync ~shard:k ~point:(Sync.point ~seq:(seq + 1) ~tile:lo);
        Sync.barrier sync ~shard:k ~reduce:(fun () -> ())
      done);
  let trace = List.rev !log in
  Alcotest.(check int) "every op ran" (nshards * tiles_per * sweeps)
    (List.length trace);
  Alcotest.(check bool) "globally ascending" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < List.length trace - 1) trace)
       (List.tl trace))

(* A shard that spends [park_delay] before acting outlasts every peer's
   spin budget, so the peers are parked when it acts. *)
let park_delay = 0.05

(* Shard 0 waits at the barrier for shard 1's [park_delay]; the time it
   spends parked must be counted. Half the delay allows for shard 1
   starting its sleep before shard 0 starts waiting. *)
let test_sync_timed_counts_parked () =
  let sync = Sync.create ~timed:true ~nshards:2 () in
  Sync.run sync (fun k ->
      if k = 1 then Unix.sleepf park_delay;
      Sync.publish sync ~shard:k ~point:(Sync.point ~seq:1 ~tile:k);
      Sync.barrier sync ~shard:k ~reduce:(fun () -> ()));
  Alcotest.(check bool) "parked time counted" true
    (Sync.wait_seconds sync 0 >= park_delay /. 2.)

(* [run sync body] must re-raise [body]'s [Failure] and return promptly;
   a lost wake-up of a parked peer would hang instead. *)
let check_fails_promptly ~expect sync body =
  let t0 = Unix.gettimeofday () in
  let raised =
    try
      Sync.run sync body;
      "no exception"
    with Failure msg -> msg
  in
  Alcotest.(check string) "original failure re-raised" expect raised;
  Alcotest.(check bool) "peers released promptly" true
    (Unix.gettimeofday () -. t0 < 5.0)

(* With [delay = park_delay] the failing shard's peers are parked at the
   barrier when it raises. *)
let sync_failure_propagates ~delay () =
  let sync = Sync.create ~nshards:3 () in
  check_fails_promptly ~expect:"boom" sync (fun k ->
      for seq = 0 to 999 do
        if k = 1 && seq = 3 then begin
          Unix.sleepf delay;
          failwith "boom"
        end;
        Sync.publish sync ~shard:k
          ~point:(Sync.point ~seq:(seq + 1) ~tile:(k * 2));
        Sync.barrier sync ~shard:k ~reduce:(fun () -> ())
      done)

let sync_reduce_failure ~delay () =
  let sync = Sync.create ~nshards:2 () in
  check_fails_promptly ~expect:"reduce boom" sync (fun k ->
      for seq = 0 to 999 do
        Sync.publish sync ~shard:k ~point:(Sync.point ~seq:(seq + 1) ~tile:k);
        Sync.barrier sync ~shard:k ~reduce:(fun () ->
            if seq = 5 then begin
              Unix.sleepf delay;
              failwith "reduce boom"
            end)
      done)

(* --- Sharded SoC vs serial ------------------------------------------- *)

let run_gen_case ~shards ~cycle_skip ~profile (case : Ir.Gen.case) trace =
  Soc.run_homogeneous ~profile
    { Soc.default_config with Soc.cycle_skip; shards }
    ~program:case.program ~trace
    ~tile_config:(if case.seed mod 2 = 0 then TC.out_of_order else TC.in_order)

(* shards:{1,2,ntiles} x skip/no-skip x profiled/plain over generated
   programs: full registry fingerprints identical within each
   (skip, profile) mode. *)
let prop_gen_differential =
  QCheck.Test.make ~name:"sharded fingerprints identical on generated programs"
    ~count:10
    (QCheck.make QCheck.Gen.(int_range 0 100_000))
    (fun seed ->
      let case = Ir.Gen.generate ~seed ~size:30 () in
      let trace =
        Mosaic_trace.Interp.run
          (Mosaic_trace.Interp.create case.program ~kernel:case.kernel
             ~ntiles:case.ntiles ~args:case.args)
      in
      let shard_counts =
        List.sort_uniq compare [ 2; case.ntiles ]
        |> List.filter (fun s -> s > 1)
      in
      List.iter
        (fun (cycle_skip, profile) ->
          let reference =
            fingerprint
              (run_gen_case ~shards:1 ~cycle_skip ~profile case trace)
          in
          List.iter
            (fun shards ->
              let got =
                fingerprint
                  (run_gen_case ~shards ~cycle_skip ~profile case trace)
              in
              if got <> reference then
                QCheck.Test.fail_reportf
                  "seed %d: shards:%d diverges (skip=%b profile=%b)" seed
                  shards cycle_skip profile)
            shard_counts)
        [ (true, true); (true, false); (false, true) ];
      true)

(* Heterogeneous DAE pairs: cross-shard interleaver traffic (terminal
   loads, store drains) under every shard count that divides the system
   differently, profiled so attribution is covered too. *)
let test_dae_sharded () =
  let inst, _ = W.Projection.dae_instance ~n_left:64 ~n_right:128 ~degree:4 () in
  let access = inst.W.Runner.kernel ^ "_access"
  and execute = inst.W.Runner.kernel ^ "_execute" in
  let pairs = 2 in
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
  let run shards =
    fingerprint
      (Soc.run ~profile:true
         { Presets.dae_soc with Soc.shards }
         ~program:inst.W.Runner.program ~trace ~tiles)
  in
  let reference = run 1 in
  List.iter
    (fun shards ->
      Alcotest.(check string)
        (Printf.sprintf "dae shards:%d" shards)
        reference (run shards))
    [ 2; 3; 4; 8 (* clamps to ntiles *) ]

(* A multi-tile homogeneous run on the xeon preset: L1 prefetchers force
   every access onto the ordered path. *)
let test_prefetch_config_sharded () =
  let inst = W.Micro.stream ~seed:11 ~elems:2048 () in
  let trace = W.Runner.trace inst ~ntiles:3 in
  let run shards =
    fingerprint
      (Soc.run_homogeneous
         { Presets.xeon_soc with Soc.shards }
         ~program:inst.W.Runner.program ~trace ~tile_config:TC.out_of_order)
  in
  Alcotest.(check string) "xeon 3 tiles shards:3" (run 1) (run 3)

(* An enabled event sink forces the serial scheduler; results must be
   untouched and the event stream still deterministic. *)
let test_sink_forces_serial () =
  let inst = W.Micro.stream ~seed:7 ~elems:512 () in
  let trace = W.Runner.trace inst ~ntiles:2 in
  let run ~shards ~sink =
    Soc.run_homogeneous ~sink
      { Presets.dae_soc with Soc.shards }
      ~program:inst.W.Runner.program ~trace ~tile_config:TC.in_order
  in
  let serial = run ~shards:1 ~sink:Mosaic_obs.Sink.null in
  let sink = Mosaic_obs.Sink.create () in
  let sharded_sink = run ~shards:4 ~sink in
  Alcotest.(check int) "cycles with sink" serial.Soc.cycles
    sharded_sink.Soc.cycles;
  Alcotest.(check bool) "events collected" true
    (Mosaic_obs.Sink.length sink > 0)

let suite =
  [
    ( "shard",
      [
        Alcotest.test_case "sync: global op order" `Quick
          (sync_global_order ~nshards:3);
        Alcotest.test_case "sync: global op order, oversubscribed" `Quick
          (sync_global_order
             ~nshards:(Mosaic_util.Domain_pool.available_cores () + 2));
        Alcotest.test_case "sync: shard failure propagates" `Quick
          (sync_failure_propagates ~delay:0.);
        Alcotest.test_case "sync: reduce failure propagates" `Quick
          (sync_reduce_failure ~delay:0.);
        Alcotest.test_case "sync: failure wakes parked shards" `Quick
          (sync_failure_propagates ~delay:park_delay);
        Alcotest.test_case "sync: reduce failure wakes parked shards" `Quick
          (sync_reduce_failure ~delay:park_delay);
        Alcotest.test_case "sync: timed waits include parked time" `Quick
          test_sync_timed_counts_parked;
        QCheck_alcotest.to_alcotest prop_gen_differential;
        Alcotest.test_case "dae pairs sharded = serial" `Quick
          test_dae_sharded;
        Alcotest.test_case "prefetching hierarchy sharded = serial" `Quick
          test_prefetch_config_sharded;
        Alcotest.test_case "enabled sink forces serial" `Quick
          test_sink_forces_serial;
      ] );
  ]
