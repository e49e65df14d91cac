(* Differential fuzzer over generated IR programs.

   Each case is a random, validated, terminating program from
   [Mosaic_ir.Gen]. Its trace is fed through five differential oracles
   that the simulator promises hold for *every* program, not just the
   curated workloads:

   1. skip-vs-noskip  — cycle skipping is an optimization, not a model
      change: cycles, instrs and memory-system counters bit-identical.
   2. profiled-vs-plain — the profiler only observes: cycles identical,
      and every tile's stall attribution sums exactly to the cycle count
      under both schedulers.
   3. cached-vs-uncached — a trace-store round trip (save, decode) is
      exact: the reloaded trace is structurally equal and simulates to
      the same cycle count.
   4. retimed-vs-simulated — re-timing the profiled run at its own
      config (Retime, the incremental-DSE engine) reproduces the exact
      simulator's cycle and instruction counts bit-for-bit: every
      scaling ratio must collapse to exactly 1.0.
   5. sharded-vs-serial — the domain-sharded scheduler (shards:2 and
      shards:ntiles, profiled) is conservative parallel simulation, not
      an approximation: cycles, stepped cycles, instrs and every tile's
      per-cause stall attribution bit-identical to the serial sweep.
   Any divergence prints the case's seed (which fully determines it) and
   exits non-zero.

   Usage: fuzz_differential [--seed N] [--count N] [--size N] [--quiet] *)

module Ir = Mosaic_ir
module Interp = Mosaic_trace.Interp
module Trace = Mosaic_trace.Trace
module Store = Mosaic_trace.Store
module Soc = Mosaic.Soc
module TC = Mosaic_tile.Tile_config
module Profile = Mosaic_tile.Profile

let fail case fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "FAIL seed %d: %s\n%!" case.Ir.Gen.seed msg;
      exit 1)
    fmt

let check case what expected got =
  if expected <> got then
    fail case "%s differs: expected %d, got %d" what expected got

let tile_config_for i = if i mod 2 = 0 then TC.out_of_order else TC.in_order

let run_case ~quiet ~size i base_seed =
  let seed = base_seed + i in
  let case = Ir.Gen.generate ~seed ~size () in
  let trace =
    Interp.run
      (Interp.create case.program ~kernel:case.kernel ~ntiles:case.ntiles
         ~args:case.args)
  in
  let tile_config = tile_config_for i in
  let run ?(profile = false) cycle_skip =
    Soc.run_homogeneous ~profile
      { Soc.default_config with Soc.cycle_skip }
      ~program:case.program ~trace ~tile_config
  in
  (* Oracle 1+2: skip/noskip x profiled/plain. *)
  let skip_prof = run ~profile:true true in
  let naive_prof = run ~profile:true false in
  let plain = run true in
  check case "cycles (skip vs noskip, profiled)" naive_prof.Soc.cycles
    skip_prof.Soc.cycles;
  check case "cycles (profiled vs plain)" plain.Soc.cycles
    skip_prof.Soc.cycles;
  check case "instrs (skip vs noskip)" naive_prof.Soc.instrs
    skip_prof.Soc.instrs;
  Array.iteri
    (fun t p ->
      check case
        (Printf.sprintf "tile %d attribution total (skip)" t)
        skip_prof.Soc.cycles (Profile.total p))
    skip_prof.Soc.profiles;
  Array.iteri
    (fun t p ->
      check case
        (Printf.sprintf "tile %d attribution total (noskip)" t)
        naive_prof.Soc.cycles (Profile.total p))
    naive_prof.Soc.profiles;
  (* Oracle 5: the sharded scheduler is bit-identical to the serial one,
     including the profiler's attribution and the visited-cycle count. *)
  List.iter
    (fun shards ->
      let sharded =
        Soc.run_homogeneous ~profile:true
          { Soc.default_config with Soc.shards }
          ~program:case.program ~trace ~tile_config
      in
      let tag = Printf.sprintf "shards:%d vs serial" shards in
      check case (Printf.sprintf "cycles (%s)" tag) skip_prof.Soc.cycles
        sharded.Soc.cycles;
      check case
        (Printf.sprintf "stepped cycles (%s)" tag)
        skip_prof.Soc.stepped_cycles sharded.Soc.stepped_cycles;
      check case (Printf.sprintf "instrs (%s)" tag) skip_prof.Soc.instrs
        sharded.Soc.instrs;
      Array.iteri
        (fun t p ->
          Array.iter
            (fun cause ->
              check case
                (Printf.sprintf "tile %d stall %s (%s)" t
                   (Mosaic_obs.Stall.name cause)
                   tag)
                (Profile.count skip_prof.Soc.profiles.(t) cause)
                (Profile.count p cause))
            Mosaic_obs.Stall.all)
        sharded.Soc.profiles)
    (if case.ntiles > 2 then [ 2; case.ntiles ] else [ 2 ]);
  (* Oracle 3: a store round trip reproduces the trace exactly. *)
  let tiles = Array.make case.ntiles (case.kernel, case.args) in
  let digest =
    Store.workload_digest ~program:case.program ~label:case.kernel ~tiles
      ~mem:[||]
  in
  let stored, info = Store.fetch ~digest ~generate:(fun () -> trace) in
  Store.reset ();
  let reloaded, info2 = Store.fetch ~digest ~generate:(fun () -> trace) in
  if not (Trace.equal trace stored) then
    fail case "stored trace differs from generated trace";
  if not (Trace.equal trace reloaded) then
    fail case "reloaded trace differs from generated trace (%s -> %s)"
      (match info.Store.source with
      | Store.Interpreted -> "interpreted"
      | Store.Memo_hit -> "memo"
      | Store.Disk_hit -> "disk")
      (match info2.Store.source with
      | Store.Interpreted -> "interpreted"
      | Store.Memo_hit -> "memo"
      | Store.Disk_hit -> "disk");
  let from_cache =
    Soc.run_homogeneous Soc.default_config ~program:case.program
      ~trace:reloaded ~tile_config
  in
  check case "cycles (cached vs uncached)" skip_prof.Soc.cycles
    from_cache.Soc.cycles;
  (* Oracle 4: re-timing at the generating config is exact. *)
  let skel = Mosaic_trace.Analysis.skeleton case.program trace in
  let soc_tiles =
    Array.map
      (fun (tt : Trace.tile_trace) ->
        { Soc.kernel = tt.Mosaic_trace.Trace.kernel; Soc.tile_config })
      trace.Mosaic_trace.Trace.tiles
  in
  let base_cfg = { Soc.default_config with Soc.cycle_skip = true } in
  let prep = Mosaic.Retime.of_result ~cfg:base_cfg ~tiles:soc_tiles skel skip_prof in
  let rt = Mosaic.Retime.run prep base_cfg soc_tiles in
  check case "cycles (retimed at base vs simulated)" skip_prof.Soc.cycles
    rt.Mosaic.Retime.cycles;
  check case "instrs (retimed at base vs simulated)" skip_prof.Soc.instrs
    rt.Mosaic.Retime.instrs;
  if not quiet then
    Printf.printf "seed %d: ok (%d tiles, %d cycles, %d instrs)\n%!" seed
      case.ntiles skip_prof.Soc.cycles skip_prof.Soc.instrs

let () =
  let seed = ref 1 and count = ref 100 and size = ref 40 and quiet = ref false in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--count" :: v :: rest ->
        count := int_of_string v;
        parse rest
    | "--size" :: v :: rest ->
        size := int_of_string v;
        parse rest
    | "--quiet" :: rest ->
        quiet := true;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %s\n\
           usage: fuzz_differential [--seed N] [--count N] [--size N] \
           [--quiet]\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* The store oracle must exercise the disk layer without touching the
     user's real cache. *)
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mosaicsim-fuzz-%d" (Unix.getpid ()))
  in
  Store.set_cache_dir (`Dir tmp);
  for i = 0 to !count - 1 do
    Store.reset ();
    run_case ~quiet:!quiet ~size:!size i !seed
  done;
  Printf.printf "fuzz_differential: %d cases, 5 oracles each, 0 divergences\n"
    !count
