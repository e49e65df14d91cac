(* Incremental re-timing for one-trace-many-configs DSE.

   A design-space sweep re-simulating every point wastes almost all of its
   work: the dynamic trace — and therefore the instruction mix, dependence
   chains, reuse distances and accelerator invocations — is identical
   across points. Following LightningSim's split, we run the exact
   simulator once with the cycle-accounting profiler on, keep each tile's
   stall-cause decomposition (which sums exactly to its finish cycle), and
   re-time a candidate config by scaling every cause with a ratio derived
   from the config-independent skeleton:

     Busy            x issue-width ratio (and clock divider)
     Dependency      x critical-chain latency ratio (chain composition
                       priced per config; memory nodes via the AMAT below)
     Structural      x FU/window pressure ratio
     Memory          x AMAT ratio, where AMAT comes from the skeleton's
                       LRU reuse histogram and the candidate hierarchy
     Mao             x inverse LSQ-capacity ratio
     Supply          x inter-tile communication latency ratio
     Branch_redirect x misprediction-penalty ratio (when both have one)
     Idle            unscaled
     Finished        dropped (re-derived from the new per-tile times)

   plus an additive accelerator term: the closed-form model priced under
   the candidate PLM/lanes minus the same under the base design. SoC
   cycles are rebuilt as 1 + max over tiles, the same identity the exact
   scheduler satisfies.

   At the base config every ratio is computed from identical inputs on
   both sides, so each is exactly 1.0 and the additive term is exactly
   0.0: re-timing reproduces the exact simulator's cycle count
   bit-for-bit (fuzzed in tools/fuzz_differential, oracle 4). On axes
   that cannot change simulated timing at all (frequency, energy) every
   ratio is likewise exactly 1.0, so those points stay bit-identical too;
   elsewhere the result is an estimate whose error the sweep driver
   measures against the --exact oracle. *)

module Trace = Mosaic_trace.Trace
module Analysis = Mosaic_trace.Analysis
module TC = Mosaic_tile.Tile_config
module Branch = Mosaic_tile.Branch
module Profile = Mosaic_tile.Profile
module Stall = Mosaic_obs.Stall
module Hierarchy = Mosaic_memory.Hierarchy
module Cache = Mosaic_memory.Cache
module Dram = Mosaic_memory.Dram
module Accel_model = Mosaic_accel.Accel_model
module Accel_kinds = Mosaic_accel.Accel_kinds
module Op = Mosaic_ir.Op

type prep = {
  base_cfg : Soc.config;
  base_tiles : Soc.tile_spec array;
  skeleton : Analysis.skeleton;
  stalls : int array array;  (* per tile, per Stall cause *)
  base_cycles : int;
}

type point = {
  cycles : int;
  instrs : int;
  seconds : float;
  ipc : float;
  tile_cycles : float array;  (* per-tile estimates before rounding *)
}

let of_result ~cfg ~(tiles : Soc.tile_spec array) skeleton (r : Soc.result) =
  if
    Array.length r.Soc.profiles = 0
    || not (Array.for_all Profile.enabled r.Soc.profiles)
  then
    invalid_arg "Retime.of_result: base run must be profiled (profile:true)";
  if Array.length tiles <> Array.length skeleton.Analysis.tiles then
    invalid_arg "Retime.of_result: tiles/skeleton mismatch";
  {
    base_cfg = cfg;
    base_tiles = tiles;
    skeleton;
    stalls = Array.map Profile.counts r.Soc.profiles;
    base_cycles = r.Soc.cycles;
  }

(* Average memory access time of the candidate hierarchy under the tile's
   reuse histogram: stack-distance capacity hit rates per level (inclusive
   hierarchy, so the miss stream of level i is the access stream filtered
   by stack distance >= capacity_i). *)
let dram_latency = function
  | Hierarchy.Simple (s : Dram.simple_config) ->
      float_of_int s.Dram.min_latency
  | Hierarchy.Detailed (d : Dram.detailed_config) ->
      float_of_int (d.Dram.base_latency + d.Dram.t_rcd + d.Dram.t_cas)

let amat (h : Hierarchy.config) (loc : Analysis.t) =
  let t = ref 0.0 and miss = ref 1.0 in
  let level (c : Cache.config) =
    t := !t +. (!miss *. float_of_int c.Cache.latency);
    let lines = c.Cache.size_bytes / c.Cache.line_size in
    miss := 1.0 -. Analysis.capacity_hit_rate loc ~lines
  in
  level h.Hierarchy.l1;
  (match h.Hierarchy.l2 with Some c -> level c | None -> ());
  (match h.Hierarchy.llc with Some c -> level c | None -> ());
  !t +. (!miss *. dram_latency h.Hierarchy.dram)

(* Price the skeleton's longest dependence chain under a config: fixed
   per-class latencies for compute nodes, AMAT for memory nodes, the
   atomic surcharge for atomics. Accelerator nodes cost nothing here —
   their time is the additive term below. *)
let chain_latency (cfg : Soc.config) (tc : TC.t) (ts : Analysis.tile_skeleton)
    =
  let lat = ref 0.0 in
  Array.iteri
    (fun i cls ->
      let n = ts.Analysis.cp_classes.(i) in
      if n > 0 then
        let l =
          match cls with
          | Op.C_accel -> 0
          | Op.C_send | Op.C_recv -> tc.TC.comm_latency
          | c -> TC.latency tc c
        in
        lat := !lat +. float_of_int (n * l))
    Analysis.classes;
  !lat
  +. (float_of_int ts.Analysis.cp_mem
     *. amat cfg.Soc.hierarchy ts.Analysis.locality)
  +. float_of_int (ts.Analysis.cp_atomics * tc.TC.atomic_extra_latency)

(* Structural pressure: the most oversubscribed FU class (dynamic count
   over FU count) or the window, whichever binds harder. Only the ratio
   between two configs matters. *)
let pressure (tc : TC.t) (ts : Analysis.tile_skeleton) =
  let p = ref 0.0 in
  Array.iteri
    (fun i cls ->
      let n = ts.Analysis.class_counts.(i) in
      if n > 0 then
        let fu = TC.fu_limit tc cls in
        if fu < max_int && fu > 0 then
          p := Float.max !p (float_of_int n /. float_of_int fu))
    Analysis.classes;
  Float.max !p
    (float_of_int ts.Analysis.locality.Analysis.dyn_instrs
    /. float_of_int (Stdlib.max tc.TC.window_size 1))

let comm_latency (cfg : Soc.config) (tc : TC.t) =
  float_of_int (cfg.Soc.wire_latency + tc.TC.comm_latency)

let accel_cycles (cfg : Soc.config) (ts : Analysis.tile_skeleton) =
  Array.fold_left
    (fun acc (kind, params) ->
      let w = Accel_kinds.workload kind params in
      let est =
        Accel_model.estimate cfg.Soc.accel_sys (Soc.design_of cfg kind) w
      in
      acc +. float_of_int est.Accel_model.cycles)
    0.0 ts.Analysis.accel_calls

(* Equal inputs give bit-equal numerators and denominators, and IEEE
   x /. x = 1.0 exactly for finite nonzero x — that is what makes
   re-timing exact at the base config with no special-casing. *)
let ratio num den = if den <= 0.0 then 1.0 else num /. den

let run prep (cfg : Soc.config) (tiles : Soc.tile_spec array) =
  let n = Array.length prep.base_tiles in
  if Array.length tiles <> n then
    invalid_arg "Retime.run: tile count differs from the base run";
  let tile_cycles = Array.make n 0.0 in
  let worst = ref 0.0 in
  Array.iteri
    (fun t (ts : Analysis.tile_skeleton) ->
      let tc0 = prep.base_tiles.(t).Soc.tile_config
      and tc1 = tiles.(t).Soc.tile_config in
      let counts = prep.stalls.(t) in
      let div =
        ratio
          (float_of_int tc1.TC.clock_divider)
          (float_of_int tc0.TC.clock_divider)
      in
      let scale cause =
        match cause with
        | Stall.Busy ->
            ratio
              (float_of_int tc0.TC.issue_width)
              (float_of_int tc1.TC.issue_width)
            *. div
        | Stall.Dependency ->
            ratio (chain_latency cfg tc1 ts)
              (chain_latency prep.base_cfg tc0 ts)
            *. div
        | Stall.Structural -> ratio (pressure tc1 ts) (pressure tc0 ts) *. div
        | Stall.Memory ->
            ratio
              (amat cfg.Soc.hierarchy ts.Analysis.locality)
              (amat prep.base_cfg.Soc.hierarchy ts.Analysis.locality)
        | Stall.Mao ->
            ratio (float_of_int tc0.TC.lsq_size) (float_of_int tc1.TC.lsq_size)
        | Stall.Supply ->
            ratio (comm_latency cfg tc1) (comm_latency prep.base_cfg tc0)
        | Stall.Branch_redirect ->
            let p0 = Branch.penalty tc0.TC.branch
            and p1 = Branch.penalty tc1.TC.branch in
            (if p0 > 0 && p1 > 0 then ratio (float_of_int p1) (float_of_int p0)
             else 1.0)
            *. div
        | Stall.Idle | Stall.Finished -> 1.0
      in
      let total = ref 0.0 in
      Array.iter
        (fun cause ->
          if cause <> Stall.Finished then
            let c = counts.(Stall.index cause) in
            if c > 0 then total := !total +. (float_of_int c *. scale cause))
        Stall.all;
      let delta = accel_cycles cfg ts -. accel_cycles prep.base_cfg ts in
      let total = Float.max 0.0 (!total +. delta) in
      tile_cycles.(t) <- total;
      if total > !worst then worst := total)
    prep.skeleton.Analysis.tiles;
  let cycles = 1 + int_of_float (Float.round !worst) in
  let instrs = prep.skeleton.Analysis.total_dyn_instrs in
  {
    cycles;
    instrs;
    seconds = float_of_int cycles /. (cfg.Soc.freq_ghz *. 1e9);
    ipc =
      (if cycles = 0 then 0.0
       else float_of_int instrs /. float_of_int cycles);
    tile_cycles;
  }
