open Mosaic_ir
module Hierarchy = Mosaic_memory.Hierarchy
module Cache = Mosaic_memory.Cache
module Dram = Mosaic_memory.Dram
module Tile_config = Mosaic_tile.Tile_config
module Core_tile = Mosaic_tile.Core_tile
module Ddg = Mosaic_compiler.Ddg
module Trace = Mosaic_trace.Trace
module Accel_model = Mosaic_accel.Accel_model
module Accel_kinds = Mosaic_accel.Accel_kinds
module Branch = Mosaic_tile.Branch
module Metrics = Mosaic_obs.Metrics
module Sink = Mosaic_obs.Sink
module Stall = Mosaic_obs.Stall
module Profile = Mosaic_tile.Profile
module Span = Mosaic_obs.Span
module Progress = Mosaic_obs.Progress

type tile_spec = { kernel : string; tile_config : Tile_config.t }

type mem_energy = {
  l1_pj : float;
  l2_pj : float;
  llc_pj : float;
  dram_line_pj : float;
}

type config = {
  hierarchy : Hierarchy.config;
  buffer_capacity : int;
  wire_latency : int;
  noc : Noc.config option;
  accel_sys : Accel_model.sys_params;
  accel_designs : (string * Accel_model.design_point) list;
  freq_ghz : float;
  mem_energy : mem_energy;
  max_cycles : int;
  cycle_skip : bool;
  shards : int;
}

let default_mem_energy =
  { l1_pj = 10.0; l2_pj = 30.0; llc_pj = 100.0; dram_line_pj = 2000.0 }

let default_hierarchy : Hierarchy.config =
  {
    Hierarchy.l1 =
      {
        Cache.size_bytes = 32 * 1024;
        line_size = 64;
        assoc = 8;
        latency = 1;
        mshr_size = 16;
        prefetch = None;
      };
    l2 = None;
    llc =
      Some
        {
          Cache.size_bytes = 2 * 1024 * 1024;
          line_size = 64;
          assoc = 8;
          latency = 6;
          mshr_size = 32;
          prefetch = None;
        };
    dram = Hierarchy.Simple Dram.default_simple;
    coherence = None;
  }

let default_config =
  {
    hierarchy = default_hierarchy;
    buffer_capacity = 512;
    wire_latency = 1;
    noc = None;
    accel_sys = Accel_model.default_sys;
    accel_designs =
      (* Modest design points for the SoC-integrated instances; wider
         configurations are explored in the DSE harness. *)
      List.map
        (fun kind ->
          let par_lanes = if kind = "gemm" then 4 else 8 in
          (kind, { Accel_model.plm_bytes = 64 * 1024; par_lanes }))
        Accel_kinds.known_kinds;
    freq_ghz = 2.0;
    mem_energy = default_mem_energy;
    max_cycles = 2_000_000_000;
    cycle_skip = true;
    shards = 1;
  }

let with_hierarchy cfg hierarchy = { cfg with hierarchy }

type result = {
  cycles : int;
  stepped_cycles : int;
  seconds : float;
  instrs : int;
  ipc : float;
  energy_j : float;
  edp : float;
  host_seconds : float;
  mips : float;
  tile_stats : Core_tile.stats array;
  interleaver : Interleaver.stats;
  mem_totals : Hierarchy.totals;
  dram : Dram.stats;
  mao_stalls : int;
  accel_invocations : int;
  metrics : Metrics.t;
  profiles : Profile.t array;
  sample : Sample.report option;
}

(* Tracks concurrent accelerator invocations so memory bandwidth is divided
   among active instances (§IV-B's parallel-invocation scaling). *)
type accel_manager = {
  mutable active : int list;  (** finish cycles of in-flight invocations *)
  mutable invocations : int;
  mutable energy_pj_total : float;
  busy_by_tile : int array;
      (** cycles each tile spent waiting on its accelerator invocations
          (treated as clock-gated for static power) *)
}

let design_of cfg kind =
  match List.assoc_opt kind cfg.accel_designs with
  | Some d -> d
  | None -> Accel_model.default_design

let accel_invoke mgr cfg hier ~sink ~tile ~kind ~params ~cycle =
  mgr.active <- List.filter (fun f -> f > cycle) mgr.active;
  let concurrent = 1 + List.length mgr.active in
  let sys = cfg.accel_sys in
  let sys =
    {
      sys with
      Accel_model.mem_bw_bytes_per_cycle =
        sys.Accel_model.mem_bw_bytes_per_cycle /. float_of_int concurrent;
    }
  in
  let w = Accel_kinds.workload kind params in
  let est =
    Accel_model.estimate_traced ~sink ~tile ~kind ~cycle sys
      (design_of cfg kind) w
  in
  (* Non-coherent DMA: traffic goes straight to DRAM, contending with the
     cores' misses. Charged at invocation time. *)
  ignore
    (Hierarchy.dram_burst hier ~cycle ~addr:0 ~bytes:est.Accel_model.bytes
       ~is_write:false);
  let finish = cycle + est.Accel_model.cycles in
  mgr.active <- finish :: mgr.active;
  mgr.invocations <- mgr.invocations + 1;
  mgr.busy_by_tile.(tile) <- mgr.busy_by_tile.(tile) + est.Accel_model.cycles;
  let energy_pj = est.Accel_model.energy_j *. 1e12 in
  mgr.energy_pj_total <- mgr.energy_pj_total +. energy_pj;
  { Core_tile.finish_cycle = finish; energy_pj }

(* Register the run-level numbers into the metrics registry. Components
   (hierarchy, interleaver, NoC) publish their own counters separately;
   together these are the registry view that [Report] renders from. *)
let publish_result reg (r : result) =
  let c name v = Metrics.incr ~by:v (Metrics.counter reg name) in
  let g name v = Metrics.set (Metrics.gauge reg name) v in
  c "sim.cycles" r.cycles;
  c "sim.stepped_cycles" r.stepped_cycles;
  c "sim.instrs" r.instrs;
  g "sim.ipc" r.ipc;
  g "sim.seconds" r.seconds;
  g "sim.energy_j" r.energy_j;
  g "sim.edp" r.edp;
  g "sim.host_seconds" r.host_seconds;
  g "sim.mips" r.mips;
  g "soc.tiles" (float_of_int (Array.length r.tile_stats));
  c "soc.accel_invocations" r.accel_invocations;
  c "soc.mao_stalls" r.mao_stalls;
  Array.iteri
    (fun i (s : Core_tile.stats) ->
      let p suffix = Printf.sprintf "tile.%d.%s" i suffix in
      c (p "instrs") s.Core_tile.completed_instrs;
      c (p "finish_cycle") s.Core_tile.finish_cycle;
      c (p "dbbs") s.Core_tile.dbbs_launched;
      c (p "mem_accesses") s.Core_tile.mem_accesses;
      c (p "branch.predictions") s.Core_tile.branch.Branch.predictions;
      c (p "branch.mispredictions") s.Core_tile.branch.Branch.mispredictions;
      g (p "energy_pj") s.Core_tile.energy_pj)
    r.tile_stats;
  Array.iteri
    (fun i prof ->
      if Profile.enabled prof then
        Array.iter
          (fun cause ->
            c
              (Printf.sprintf "tile.%d.stall.%s" i (Stall.name cause))
              (Profile.count prof cause))
          Stall.all)
    r.profiles;
  if Array.exists Profile.enabled r.profiles then
    Array.iter
      (fun cause ->
        let n =
          Array.fold_left
            (fun acc prof -> acc + Profile.count prof cause)
            0 r.profiles
        in
        c ("stall." ^ Stall.name cause) n)
      Stall.all;
  List.iter
    (fun cls ->
      let idx = Tile_config.class_index cls in
      let n =
        Array.fold_left
          (fun acc (s : Core_tile.stats) ->
            acc + s.Core_tile.issued_by_class.(idx))
          0 r.tile_stats
      in
      c ("mix." ^ Op.class_to_string cls) n)
    Op.all_classes

let run ?(sink = Sink.null) ?metrics ?(profile = false) ?checkpoint_at
    ?on_checkpoint ?resume ?sample ?progress cfg ~program ~trace ~tiles =
  let ntiles = Array.length tiles in
  if ntiles = 0 then invalid_arg "Soc.run: no tiles";
  if sample <> None && (checkpoint_at <> None || resume <> None) then
    invalid_arg "Soc.run: sampling cannot be combined with checkpoints";
  if ntiles <> trace.Trace.ntiles then
    invalid_arg
      (Printf.sprintf "Soc.run: %d tiles but trace has %d" ntiles
         trace.Trace.ntiles);
  Array.iteri
    (fun i spec ->
      let traced = trace.Trace.tiles.(i).Trace.kernel in
      if not (String.equal spec.kernel traced) then
        invalid_arg
          (Printf.sprintf "Soc.run: tile %d runs %s but trace has %s" i
             spec.kernel traced))
    tiles;
  let reg =
    match metrics with Some r -> r | None -> Metrics.create ()
  in
  let hier = Hierarchy.create ~sink ~ntiles cfg.hierarchy in
  let noc = Option.map (fun c -> Noc.create ~sink ~ntiles c) cfg.noc in
  let inter =
    Interleaver.create ~buffer_capacity:cfg.buffer_capacity
      ~wire_latency:cfg.wire_latency ?noc ~sink ()
  in
  let mgr =
    {
      active = [];
      invocations = 0;
      energy_pj_total = 0.0;
      busy_by_tile = Array.make ntiles 0;
    }
  in
  let ddg_cache = Hashtbl.create 4 in
  let ddg_of name =
    match Hashtbl.find_opt ddg_cache name with
    | Some d -> d
    | None ->
        let d = Ddg.build (Program.func_exn program name) in
        Hashtbl.replace ddg_cache name d;
        d
  in
  (* Sharded execution: [shards > 1] partitions the tiles into contiguous
     ascending ranges, one OCaml domain each, swept in cycle lockstep.
     Tile-private work (core pipelines, L1 hits under a private-only
     hierarchy) runs in parallel; every operation on shared state — the
     interleaver, shared cache levels, DRAM, the directory, the
     accelerator manager — is funneled through [Shard_sync] at the exact
     point (visited cycle, tile id) a single shard would have executed
     it, so all counters come out bit-identical. Event streams would
     interleave nondeterministically across domains, so an enabled sink
     forces one shard. *)
  let nshards =
    let s = Stdlib.min cfg.shards ntiles in
    (* Sampling drives drains, fast-forwards and phase transitions from
       the loop top; force one shard when sampling. *)
    if s > 1 && (not (Sink.enabled sink)) && sample = None then s else 1
  in
  let sync =
    if nshards > 1 then
      Some (Mosaic_util.Shard_sync.create ~timed:(Span.enabled ()) ~nshards ())
    else None
  in
  let bounds = Array.init (nshards + 1) (fun k -> k * ntiles / nshards) in
  let shard_of = Array.make ntiles 0 in
  for k = 0 to nshards - 1 do
    for t = bounds.(k) to bounds.(k + 1) - 1 do
      shard_of.(t) <- k
    done
  done;
  (* Each slot is written only by its owning domain; comm callbacks read
     the caller's own slot, so there is no cross-domain access. *)
  let cur_seq = Array.make nshards 0 in
  (* Take the acting tile's turn in the global shared-state order:
     returns once every other shard has swept past this point. Serially
     every operation is already in that order. *)
  let order =
    match sync with
    | None -> fun _ -> ()
    | Some sync ->
        let module Sync = Mosaic_util.Shard_sync in
        fun tile ->
          let shard = shard_of.(tile) in
          Sync.wait_order sync ~shard
            ~point:(Sync.point ~seq:cur_seq.(shard) ~tile)
  in
  (* An L1 hit under a private-only hierarchy touches only the tile's own
     cache state and commutes with every shared operation — the common
     case, and the whole source of parallelism on memory-bound workloads. *)
  let fast_private = sync <> None && Hierarchy.private_only_config hier in
  let comm =
    {
      Core_tile.send =
        (fun ~src ~dst ~chan ~cycle ~available ->
          order src;
          Interleaver.send inter ~src ~dst ~chan ~cycle ~available);
      try_recv =
        (fun ~tile ~chan ~cycle ->
          order tile;
          Interleaver.try_recv inter ~tile ~chan ~cycle);
      take_or_owe =
        (fun ~tile ~chan ->
          order tile;
          Interleaver.take_or_owe inter ~tile ~chan);
      accel =
        (fun ~tile ~kind ~params ~cycle ->
          order tile;
          accel_invoke mgr cfg hier ~sink ~tile ~kind ~params ~cycle);
      mem_access =
        (fun ~tile ~cycle ~addr ~is_write ->
          if not (fast_private && Hierarchy.hits_private hier ~tile ~addr)
          then order tile;
          Hierarchy.access hier ~tile ~cycle ~addr ~is_write);
    }
  in
  let profiles =
    Array.map
      (fun spec ->
        if profile then
          let func = Program.func_exn program spec.kernel in
          Profile.create ~label:spec.kernel
            ~nblocks:(Array.length func.Func.blocks)
            ~ninstrs:func.Func.ninstrs
        else Profile.null)
      tiles
  in
  let cores =
    Array.mapi
      (fun i spec ->
        let lat_hist =
          Metrics.histogram reg (Printf.sprintf "tile.%d.load_latency" i)
        in
        Core_tile.create ~sink ~lat_hist ~profile:profiles.(i) ~id:i
          ~config:spec.tile_config
          ~func:(Program.func_exn program spec.kernel)
          ~ddg:(ddg_of spec.kernel) ~tile_trace:trace.Trace.tiles.(i)
          ~hierarchy:hier ~comm ())
      tiles
  in
  (* Wall clock, not [Sys.time]: process CPU time aggregates across all
     domains in OCaml 5, which would misreport per-run speed under the
     domain-parallel batch runner. *)
  let host_start = Unix.gettimeofday () in
  let sim_span = Span.begin_span "sim" in
  (* Progress reads only run state (cycle, per-tile retired counts), so it
     can never perturb simulated cycles; the tick sits behind a stepped-
     counter mask and is rate-limited inside [Progress.tick]. *)
  let progress_instrs () =
    let n = ref 0 in
    for i = 0 to ntiles - 1 do
      n := !n + Core_tile.completed_instrs cores.(i)
    done;
    !n
  in
  let progress_tick stepped cycle =
    match progress with
    | Some p when stepped land 1023 = 0 ->
        Progress.tick p ~cycle ~instrs:(progress_instrs ())
    | _ -> ()
  in
  let cycle = ref 0 in
  let stepped = ref 0 in
  (* Running finished count: each tile transitions to finished exactly
     once, so a per-step O(ntiles) [Array.for_all] rescan is unnecessary. *)
  let finished_count = ref 0 in
  let finished_flags = Array.make ntiles false in
  (* --- Checkpoints --- *)
  let capture () =
    {
      Snapshot.cycle = !cycle;
      stepped = !stepped;
      finished = Array.copy finished_flags;
      kernels = Array.map (fun (s : tile_spec) -> s.kernel) tiles;
      dyn_instrs =
        Array.map (fun (tt : Trace.tile_trace) -> tt.Trace.dyn_instrs)
          trace.Trace.tiles;
      profiled = profile;
      tiles = Array.map Core_tile.dump cores;
      hier = Hierarchy.dump hier;
      inter = Interleaver.dump inter;
      noc = Option.map Noc.dump noc;
      accel_active = Array.of_list mgr.active;
      accel_invocations = mgr.invocations;
      accel_energy_pj = mgr.energy_pj_total;
      accel_busy = Array.copy mgr.busy_by_tile;
    }
  in
  (match resume with
  | None -> ()
  | Some (s : Snapshot.t) ->
      if Array.length s.Snapshot.tiles <> ntiles then
        invalid_arg "Soc.run: snapshot tile count mismatch";
      Array.iteri
        (fun i (spec : tile_spec) ->
          if not (String.equal s.Snapshot.kernels.(i) spec.kernel) then
            invalid_arg "Soc.run: snapshot kernel mismatch")
        tiles;
      Array.iteri
        (fun i (tt : Trace.tile_trace) ->
          if s.Snapshot.dyn_instrs.(i) <> tt.Trace.dyn_instrs then
            invalid_arg "Soc.run: snapshot taken from a different trace")
        trace.Trace.tiles;
      if s.Snapshot.profiled <> profile then
        invalid_arg "Soc.run: snapshot profiling mode mismatch";
      Array.iteri (fun i d -> Core_tile.restore cores.(i) d) s.Snapshot.tiles;
      Hierarchy.restore hier s.Snapshot.hier;
      Interleaver.restore inter s.Snapshot.inter;
      (match (noc, s.Snapshot.noc) with
      | Some n, Some d -> Noc.restore n d
      | None, None -> ()
      | _ -> invalid_arg "Soc.run: snapshot NoC presence mismatch");
      mgr.active <- Array.to_list s.Snapshot.accel_active;
      mgr.invocations <- s.Snapshot.accel_invocations;
      mgr.energy_pj_total <- s.Snapshot.accel_energy_pj;
      Array.blit s.Snapshot.accel_busy 0 mgr.busy_by_tile 0 ntiles;
      Array.blit s.Snapshot.finished 0 finished_flags 0 ntiles;
      finished_count :=
        Array.fold_left (fun n f -> if f then n + 1 else n) 0 finished_flags;
      cycle := s.Snapshot.cycle;
      stepped := s.Snapshot.stepped);
  let snapped = ref false in
  let maybe_checkpoint ?(force = false) () =
    match checkpoint_at with
    | Some at when (not !snapped) && (force || !cycle >= at) ->
        snapped := true;
        (match on_checkpoint with Some f -> f (capture ()) | None -> ())
    | _ -> ()
  in
  (* --- Sampling --- *)
  let sampler =
    Option.map
      (fun spec ->
        let funcs =
          Array.map
            (fun (s : tile_spec) -> Program.func_exn program s.kernel)
            tiles
        in
        let on_accel ~tile:_ ~kind ~params =
          (* Functional invocation: count it and charge its closed-form
             energy, but no DMA burst, busy accounting or bandwidth
             sharing — timing in fast-forwarded stretches is extrapolated,
             not simulated. *)
          let w = Accel_kinds.workload kind params in
          let est = Accel_model.estimate cfg.accel_sys (design_of cfg kind) w in
          mgr.invocations <- mgr.invocations + 1;
          let pj = est.Accel_model.energy_j *. 1e12 in
          mgr.energy_pj_total <- mgr.energy_pj_total +. pj;
          pj
        in
        Sample.make_driver ~spec ~cores ~funcs ~profiles ~inter ~hier
          ~dyn_instrs:
            (Array.map
               (fun (tt : Trace.tile_trace) -> tt.Trace.dyn_instrs)
               trace.Trace.tiles)
          ~on_accel ~profiled:profile)
      sample
  in
  (* Periodic cumulative stall samples for Chrome counter tracks; only
     when both profiling and an enabled sink are wired up. *)
  let sampling = profile && Sink.enabled sink in
  let sample_interval = 1024 in
  let next_sample = ref 0 in
  let emit_samples () =
    for i = 0 to ntiles - 1 do
      Sink.emit sink ~cycle:!cycle
        (Mosaic_obs.Event.Stall_sample
           { tile = i; counts = Profile.counts profiles.(i) })
    done
  in
  (* Minimum next-event view across every component, evaluated at a
     globally quiescent [cycle]; [max_int] means nothing can ever wake (a
     true deadlock). *)
  let min_next_event at =
    let next = ref max_int in
    for i = 0 to ntiles - 1 do
      let c = Core_tile.next_event_cycle cores.(i) ~cycle:at in
      if c > at && c < !next then next := c
    done;
    let c = Interleaver.next_arrival inter ~cycle:at in
    if c > at && c < !next then next := c;
    (* A list walk, not [List.iter]: the closure would allocate on every
       quiescent cycle. *)
    let active = ref mgr.active in
    while
      match !active with
      | [] -> false
      | c :: rest ->
          if c > at && c < !next then next := c;
          active := rest;
          true
    do
      ()
    done;
    !next
  in
  (* Work due before sweeping a visited cycle. *)
  let loop_top () =
    if !cycle >= cfg.max_cycles then
      failwith
        (Printf.sprintf "Soc.run: exceeded max_cycles=%d (deadlock?)"
           cfg.max_cycles);
    maybe_checkpoint ();
    match sampler with Some d -> Sample.tick d ~cycle:!cycle | None -> ()
  in
  (* Per-shard sweep outcomes: each slot is written by its owner before
     the end of the cycle and read by [end_of_cycle]. *)
  let progress_of = Array.make nshards false in
  let newly_finished = Array.make nshards 0 in
  let stop = ref false in
  (* End-of-cycle decision, run once per visited cycle: serially after the
     sweep, sharded by whichever shard reaches the barrier last, when every
     shard is parked and all tiles may be read. The interleaver's
     next-arrival view drains its heap, so only this reducer may
     evaluate it. *)
  let end_of_cycle () =
    incr stepped;
    progress_tick !stepped !cycle;
    let progress = ref false in
    for k = 0 to nshards - 1 do
      if progress_of.(k) then progress := true;
      finished_count := !finished_count + newly_finished.(k)
    done;
    if sampling && !cycle >= !next_sample then begin
      emit_samples ();
      next_sample := !cycle + sample_interval
    end;
    (if !progress || not cfg.cycle_skip then incr cycle
     else begin
       (* Globally quiescent cycle: no tile processed an event, launched,
          issued or retired anything. Whatever each tile is blocked on is
          either a queued future event (reported below) or another
          component's progress — and nothing progressed, so the earliest
          possible state change is the minimum over all next-event views.
          Jump straight there; the intervening cycles are provably
          identical no-ops, so the simulated cycle count is unchanged. *)
       let next = min_next_event !cycle in
       let target =
         if next = max_int then
           (* Jump to the cap so a deadlock surfaces with the same
              max_cycles failure as the naive sweep. *)
           cfg.max_cycles
         else Stdlib.min next cfg.max_cycles
       in
       let target =
         match sampler with
         | Some d -> Stdlib.min target (Sample.skip_cap d ~cycle:!cycle)
         | None -> target
       in
       (* Skipped cycles are provably identical no-ops, so each tile's
          attribution over the stretch is its frozen last-swept-cycle
          cause; booking it keeps per-tile attribution bit-identical with
          and without cycle skipping (and summing to [cycles]). Booked
          before the next visit's checkpoint, so a snapshot carries it. *)
       if profile then begin
         let skipped = target - !cycle - 1 in
         if skipped > 0 then
           for i = 0 to ntiles - 1 do
             Profile.book_repeat profiles.(i) skipped
           done
       end;
       cycle := target
     end);
    if !finished_count >= ntiles then stop := true else loop_top ()
  in
  (* Step tiles [bounds.(k) .. bounds.(k+1)-1] cycle by cycle until the
     reducer stops the run. Serially [k = 0] covers every tile. *)
  let sweep k =
    let module Sync = Mosaic_util.Shard_sync in
    let lo = bounds.(k) and hi = bounds.(k + 1) in
    let seq = ref 0 in
    while not !stop do
      let c = !cycle in
      let prog = ref false in
      let fin = ref 0 in
      for t = lo to hi - 1 do
        (* Announce the turn before stepping: shared ops by tiles above
           [t] (on any shard) now wait for us. *)
        (match sync with
        | Some sync ->
            Sync.publish sync ~shard:k ~point:(Sync.point ~seq:!seq ~tile:t)
        | None -> ());
        let core = cores.(t) in
        if Core_tile.step core ~cycle:c then prog := true;
        if (not finished_flags.(t)) && Core_tile.finished core then begin
          finished_flags.(t) <- true;
          incr fin
        end
      done;
      progress_of.(k) <- !prog;
      newly_finished.(k) <- !fin;
      match sync with
      | None -> end_of_cycle ()
      | Some sync ->
          incr seq;
          cur_seq.(k) <- !seq;
          (* Sweep done: release every tile of this visited cycle. *)
          Sync.publish sync ~shard:k ~point:(Sync.point ~seq:!seq ~tile:lo);
          Sync.barrier sync ~shard:k ~reduce:end_of_cycle
    done
  in
  (* A run resumed from a snapshot taken after every tile finished has no
     cycle left to sweep; sweeping one would book extra stepped cycles the
     straight run never saw. *)
  if !finished_count < ntiles then begin
    loop_top ();
    match sync with
    | None -> sweep 0
    | Some sync -> Mosaic_util.Shard_sync.run sync sweep
  end;
  (* A checkpoint requested at or past the final cycle captures the
     end-of-run state (the loop top is never reached again), even
     when the requested cycle lies beyond the run's last cycle. *)
  maybe_checkpoint ~force:true ();
  if sampling then emit_samples ();
  Span.end_span sim_span;
  (match (sync, Span.enabled ()) with
  | Some sync, true ->
      let module Sync = Mosaic_util.Shard_sync in
      for k = 0 to nshards - 1 do
        Span.gauge_set reg
          (Printf.sprintf "host.shard.%d.barrier_wait_seconds" k)
          (Sync.wait_seconds sync k)
      done
  | _ -> ());
  let host_seconds = Unix.gettimeofday () -. host_start in
  let cycles = !cycle in
  let stepped_cycles = !stepped in
  let tile_stats = Array.map Core_tile.stats cores in
  let instrs =
    Array.fold_left
      (fun acc s -> acc + s.Core_tile.completed_instrs)
      0 tile_stats
  in
  let core_energy_pj =
    Array.fold_left (fun acc s -> acc +. s.Core_tile.energy_pj) 0.0 tile_stats
  in
  let totals = Hierarchy.totals hier in
  let me = cfg.mem_energy in
  let mem_energy_pj =
    (float_of_int totals.Hierarchy.l1_accesses *. me.l1_pj)
    +. (float_of_int totals.Hierarchy.l2_accesses *. me.l2_pj)
    +. (float_of_int totals.Hierarchy.llc_accesses *. me.llc_pj)
    +. (float_of_int totals.Hierarchy.dram_lines *. me.dram_line_pj)
  in
  (* Static (leakage + clock) energy per tile. While a tile waits on an
     accelerator it invoked, clock gating saves ~75% of its power (leakage
     and uncore remain). *)
  let static_j =
    Array.to_list
      (Array.mapi
         (fun i spec ->
           let finish =
             let f = tile_stats.(i).Core_tile.finish_cycle in
             if f >= 0 then f else cycles
           in
           let gated = Stdlib.min finish mgr.busy_by_tile.(i) in
           let powered =
             float_of_int (finish - gated) +. (0.25 *. float_of_int gated)
           in
           spec.tile_config.Tile_config.static_power_w
           *. (powered /. (cfg.freq_ghz *. 1e9)))
         tiles)
    |> List.fold_left ( +. ) 0.0
  in
  let energy_j = ((core_energy_pj +. mem_energy_pj) *. 1e-12) +. static_j in
  let seconds = float_of_int cycles /. (cfg.freq_ghz *. 1e9) in
  let r =
    {
      cycles;
      stepped_cycles;
      seconds;
      instrs;
      ipc =
        (if cycles = 0 then 0.0
         else float_of_int instrs /. float_of_int cycles);
      energy_j;
      edp = energy_j *. seconds;
      host_seconds;
      mips =
        (if host_seconds <= 0.0 then Float.infinity
         else float_of_int instrs /. host_seconds /. 1e6);
      tile_stats;
      interleaver = Interleaver.stats inter;
      mem_totals = totals;
      dram = Hierarchy.dram_stats hier;
      mao_stalls =
        Array.fold_left (fun acc c -> acc + Core_tile.mao_stalls c) 0 cores;
      accel_invocations = mgr.invocations;
      metrics = reg;
      profiles;
      sample = Option.map (fun d -> Sample.finish d ~cycle:cycles) sampler;
    }
  in
  (match progress with
  | Some p -> Progress.finish p ~cycle:cycles ~instrs
  | None -> ());
  publish_result reg r;
  (match r.sample with
  | Some (s : Sample.report) ->
      let c name v = Metrics.incr ~by:v (Metrics.counter reg name) in
      c "sample.est_cycles" s.Sample.est_cycles;
      c "sample.detailed_cycles" s.Sample.detailed_cycles;
      c "sample.detailed_instrs" s.Sample.detailed_instrs;
      c "sample.ff_instrs" s.Sample.ff_instrs;
      c "sample.periods" s.Sample.periods;
      c "sample.degraded" s.Sample.degraded
  | None -> ());
  Hierarchy.publish hier reg;
  Interleaver.publish inter reg;
  r

let run_homogeneous ?sink ?metrics ?profile ?checkpoint_at ?on_checkpoint
    ?resume ?sample ?progress cfg ~program ~trace ~tile_config =
  let tiles =
    Array.map
      (fun (tt : Trace.tile_trace) -> { kernel = tt.Trace.kernel; tile_config })
      trace.Trace.tiles
  in
  run ?sink ?metrics ?profile ?checkpoint_at ?on_checkpoint ?resume ?sample
    ?progress cfg ~program ~trace ~tiles
