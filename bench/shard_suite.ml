(* The multi-tile workloads that the sharded scheduler is measured and
   guarded on. The speed section simulates each serially and sharded,
   fails on any cycle mismatch, and publishes [speed.shard.*], whose
   cycles `mosaicsim diff` holds to the committed baseline. *)

module W = Mosaic_workloads
module TC = Mosaic_tile.Tile_config
module Soc = Mosaic.Soc
module Presets = Mosaic.Presets

type entry = { name : string; ntiles : int; run : shards:int -> Soc.result }

let with_shards cfg shards = { cfg with Soc.shards }

(* DAE pairs: [pairs] access tiles feeding [pairs] execute tiles over the
   interleaver — the heaviest cross-shard traffic in the repertoire. *)
let dae_run inst ~pairs ~shards =
  let access = inst.W.Runner.kernel ^ "_access"
  and execute = inst.W.Runner.kernel ^ "_execute" in
  let spec =
    Array.init (2 * pairs) (fun i ->
        ((if i < pairs then access else execute), inst.W.Runner.args))
  in
  let trace = W.Runner.trace_hetero_cached inst ~tiles:spec in
  let tiles =
    Array.init (2 * pairs) (fun i ->
        {
          Soc.kernel = (if i < pairs then access else execute);
          tile_config = TC.in_order;
        })
  in
  Soc.run
    (with_shards Presets.dae_soc shards)
    ~program:inst.W.Runner.program ~trace ~tiles

let homog_run inst ~ntiles ~tile_config ~cfg ~shards =
  let trace = W.Runner.trace_cached inst ~ntiles in
  Soc.run_homogeneous (with_shards cfg shards)
    ~program:inst.W.Runner.program ~trace ~tile_config

(* Dataset parameters match the bench suite's figures so warm trace
   caches are shared with it. The mix covers both sharded fast paths:
   the DAE/projection entries run on [dae_soc] (no coherence, no L1
   prefetch — L1 hits parallelize), spmv on [xeon_soc] (L1 prefetcher
   on — every access is globally ordered). *)
let entries =
  [
    {
      name = "projection-dae";
      ntiles = 4;
      run =
        (fun ~shards ->
          let inst, _ =
            W.Projection.dae_instance ~n_left:512 ~n_right:1024 ~degree:8 ()
          in
          dae_run inst ~pairs:2 ~shards);
    };
    {
      name = "ewsd-dae";
      ntiles = 4;
      run =
        (fun ~shards ->
          let inst, _ =
            W.Ewsd.dae_instance ~rows:2048 ~cols:2048 ~per_row:16 ()
          in
          dae_run inst ~pairs:2 ~shards);
    };
    {
      name = "projection-homog";
      ntiles = 4;
      run =
        (fun ~shards ->
          let inst =
            W.Projection.instance ~n_left:512 ~n_right:1024 ~degree:8 ()
          in
          homog_run inst ~ntiles:4 ~tile_config:TC.in_order
            ~cfg:Presets.dae_soc ~shards);
    };
    {
      name = "spmv-xeon";
      ntiles = 2;
      run =
        (fun ~shards ->
          let inst = W.Registry.instance "spmv" in
          homog_run inst ~ntiles:2 ~tile_config:TC.out_of_order
            ~cfg:Presets.xeon_soc ~shards);
    };
  ]
