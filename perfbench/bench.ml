(* The repository benchmark. One process runs one workload:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   and prints, as the last line of standard output, one JSON object with
   the keys correct / attempted / failed / metrics. README.md in this
   directory explains the workloads, the metrics and the noise they were
   sized against. Every layer is timed from outside, around calls to its
   public functions; nothing inside the simulator is instrumented beyond
   the host span tracer it already has, which only the traced run turns
   on. *)

module W = Mosaic_workloads
module R = W.Runner
module Soc = Mosaic.Soc
module Sweep = Mosaic.Sweep
module Sample = Mosaic.Sample
module Presets = Mosaic.Presets
module Interleaver = Mosaic.Interleaver
module TC = Mosaic_tile.Tile_config
module Mao = Mosaic_tile.Mao
module Trace = Mosaic_trace.Trace
module Interp = Mosaic_trace.Interp
module Store = Mosaic_trace.Store
module Hierarchy = Mosaic_memory.Hierarchy
module Dram = Mosaic_memory.Dram
module Shard_sync = Mosaic_util.Shard_sync
module Json = Mosaic_obs.Json
module Span = Mosaic_obs.Span
module Metrics = Mosaic_obs.Metrics
module Ir = Mosaic_ir

let now = Unix.gettimeofday

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A job's time in a window is the fastest of its runs. The host's
   neighbours only ever slow a run down, in phases from a fraction of a
   second to minutes, so the fastest run is the one closest to the
   program's own cost. Over ten runs of the same code whose slow phases
   were mostly shorter than a window, sums of per-job minima spread 0.16
   where sums of per-job medians spread 0.40 (README.md, Host noise). *)
let best = function [] -> 0.0 | x :: xs -> List.fold_left Float.min x xs

let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let ratio a b = if b > 0.0 then a /. b else 0.0

(* ------------------------------------------------------------------ *)
(* Named time and count accumulators                                   *)
(* ------------------------------------------------------------------ *)

type acc = (string, float) Hashtbl.t

let get (acc : acc) k = Option.value ~default:0.0 (Hashtbl.find_opt acc k)
let add (acc : acc) k v = Hashtbl.replace acc k (get acc k +. v)

let timed acc k f =
  let t0 = now () in
  let r = f () in
  add acc k (now () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Seeds and the committed reference                                   *)
(* ------------------------------------------------------------------ *)

(* Seed 0 is the committed seed: every constructor keeps its own default
   seed, so the datasets are the ones BENCH_speed.json was measured on.
   Any other seed is passed to every constructor's [?seed] unchanged. *)
let committed_seed = 0
let ctor_seed seed = if seed = committed_seed then None else Some seed

(* Expected simulated values, keyed as "cycles.<target>" (exact cycles),
   "est.<target>" (sampled estimate), "exact.<target>.<i>" (exact cycles
   of sweep point i) and "retimed.<target>.<i>" (its re-timed estimate).
   On the committed seed they come from reference.json; otherwise from an
   exact run made outside the timed phase, or from the first observation,
   since the simulator is deterministic. *)
type expect = {
  ints : (string, int) Hashtbl.t;
  max_err : (string, float) Hashtbl.t;
      (** committed [speed.sweep.<target>.max_err_pct] *)
}

(* reference.json holds the committed-seed values: the speed.<k>.cycles,
   speed.shard.<e>.cycles and speed.sample.<k>.est_cycles of
   BENCH_speed.json, the speed.sweep.<k>.max_err_pct they reproduce, and
   values generated once with --regen-reference (per-point exact cycles
   of the default sweep, and the cycles of the shrunk sharded instance). *)
let reference_file = "perfbench/reference.json"

let no_expect () = { ints = Hashtbl.create 64; max_err = Hashtbl.create 4 }

let load_expect seed =
  let e = no_expect () in
  (if seed = committed_seed then
     match
       Json.of_string
         (In_channel.with_open_bin reference_file In_channel.input_all)
     with
     | Json.Obj kvs ->
         List.iter
           (fun (k, v) ->
             let x = Json.to_number_exn v in
             if String.starts_with ~prefix:"maxerr." k then
               Hashtbl.replace e.max_err
                 (String.sub k 7 (String.length k - 7))
                 x
             else Hashtbl.replace e.ints k (int_of_float x))
           kvs
     | _ -> failwith (reference_file ^ ": not a JSON object"));
  e

(* 0 when [v] matches the expectation for [key] (recording it when there
   is none yet), 1 otherwise. *)
let check e key v =
  match Hashtbl.find_opt e.ints key with
  | Some x -> if x = v then 0 else 1
  | None ->
      Hashtbl.replace e.ints key v;
      0

(* ------------------------------------------------------------------ *)
(* Trace acquisition                                                   *)
(* ------------------------------------------------------------------ *)

(* How one simulation target obtains its trace: the instance, and the
   kernel and arguments of every tile. *)
type source = {
  inst : R.t;
  hetero : bool;
  spec : (string * Ir.Value.t list) array;  (** per-tile kernel and args *)
}

let homog inst ~ntiles =
  {
    inst;
    hetero = false;
    spec = Array.make ntiles (inst.R.kernel, inst.R.args);
  }

(* [pairs] access tiles feeding [pairs] execute tiles (the
   Shard_suite DAE layout). *)
let dae_pairs inst ~pairs =
  let k = inst.R.kernel in
  {
    inst;
    hetero = true;
    spec =
      Array.init (2 * pairs) (fun i ->
          ((if i < pairs then k ^ "_access" else k ^ "_execute"), inst.R.args));
  }

(* The program's own cached trace path, as every command of the simulator
   takes it. This is what [setup_s] times. *)
let fetch src =
  let inst = src.inst in
  fst
    (if src.hetero then R.trace_hetero_cached_full inst ~tiles:src.spec
     else R.trace_cached_full inst ~ntiles:(Array.length src.spec))

(* The same steps as [Runner.trace_cached_full] and
   [Runner.trace_hetero_cached_full], in the same order and with the same
   store digest, but one layer call at a time, so that the traced run can
   time each layer. [setup.coverage] compares their sum with a timed call
   of [fetch]: if Runner's path changes and this one does not, coverage
   drops. *)
let acquire acc src =
  let inst = src.inst in
  Ir.Validate.check_exn inst.R.program;
  let it, label =
    if src.hetero then
      ( Interp.create_hetero inst.R.program ~label:inst.R.name ~tiles:src.spec,
        inst.R.name )
    else
      ( Interp.create inst.R.program ~kernel:inst.R.kernel
          ~ntiles:(Array.length src.spec) ~args:inst.R.args,
        inst.R.kernel )
  in
  Mosaic_accel.Accel_kinds.register_functional it;
  timed acc "dataset" (fun () -> inst.R.setup it);
  let mem = timed acc "snapshot" (fun () -> Interp.memory_contents it) in
  add acc "snapshot_words" (float_of_int (Array.length mem));
  let digest =
    timed acc "digest" (fun () ->
        Store.workload_digest ~program:inst.R.program ~label ~tiles:src.spec
          ~mem)
  in
  let generated = ref 0.0 in
  let t0 = now () in
  let trace, info =
    Store.fetch ~digest ~generate:(fun () ->
        let t1 = now () in
        let trace = Interp.run it in
        let t2 = now () in
        let ok = inst.R.check it in
        let t3 = now () in
        add acc "interp" (t2 -. t1);
        add acc "check" (t3 -. t2);
        add acc "steps" (float_of_int (Interp.steps it));
        generated := t3 -. t1;
        if not ok then failwith (inst.R.name ^ ": wrong answer");
        trace)
  in
  add acc "save" (now () -. t0 -. !generated);
  (match info.Store.cache_file with
  | Some f when Sys.file_exists f ->
      add acc "bytes" (float_of_int (Unix.stat f).Unix.st_size)
  | _ -> ());
  trace

(* Each cold set-up gets an empty store directory of its own inside the
   checkout. The previous one is removed first, and the last when the
   process exits. *)
let scratch_root = Printf.sprintf ".perfbench-tmp/%d" (Unix.getpid ())

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let cold_store =
  let n = ref 0 in
  let dir () = Printf.sprintf "%s/store%d" scratch_root !n in
  fun () ->
    rm_rf (dir ());
    incr n;
    Store.reset ();
    Store.set_cache_dir (`Dir (dir ()))

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                     *)
(* ------------------------------------------------------------------ *)

(* The Parboil reference sizes of [Registry.instance], built through each
   constructor so the seed can be passed on. *)
let parboil seed name =
  let seed = ctor_seed seed in
  match name with
  | "bfs" -> W.Bfs.instance ?seed ~n:8192 ~degree:8 ()
  | "cutcp" -> W.Cutcp.instance ?seed ~grid_points:256 ~atoms:256 ~cutoff:0.5 ()
  | "histo" -> W.Histo.instance ?seed ~n:(64 * 1024) ~bins:256 ()
  | "lbm" -> W.Lbm.instance ?seed ~h:64 ~w:64 ()
  | "mri-gridding" ->
      W.Mri_gridding.instance ?seed ~samples:(32 * 1024) ~grid:1024 ()
  | "mri-q" -> W.Mriq.instance ?seed ~voxels:256 ~samples:256 ()
  | "sad" -> W.Sad.instance ?seed ~blocks:256 ~block_size:16 ~offsets:8 ()
  | "sgemm" -> W.Sgemm.instance ?seed ~m:40 ~n:40 ~k:40 ()
  | "spmv" -> W.Spmv.instance ?seed ~rows:4096 ~cols:4096 ~per_row:12 ()
  | "stencil" -> W.Stencil.instance ?seed ~h:128 ~w:128 ()
  | "tpacf" -> W.Tpacf.instance ?seed ~points:192 ~bins:8 ()
  | _ -> invalid_arg name

let parboil_names = W.Registry.parboil_names
let sweep_names = [ "cutcp"; "histo"; "spmv" ]

(* A simulation target: its trace source and the machine it runs on. *)
type target = {
  name : string;
  source : source;
  cfg : Soc.config;
  tile_config : TC.t;
}

let tiles_of t (trace : Trace.t) =
  Array.map
    (fun (tt : Trace.tile_trace) ->
      { Soc.kernel = tt.Trace.kernel; tile_config = t.tile_config })
    trace.Trace.tiles

let parboil_target seed name =
  {
    name;
    source = homog (parboil seed name) ~ntiles:1;
    cfg = Presets.xeon_soc;
    tile_config = TC.out_of_order;
  }

(* projection-dae shrunk until one run under [shards = 2] fits a few
   seconds on a 2-vCPU host, where sharding is roughly 60x slower than
   serial. *)
let sharded_name = "projection-dae-small"
let nshards = 2

let sharded_target seed =
  let inst, _ =
    W.Projection.dae_instance ?seed:(ctor_seed seed) ~n_left:64 ~n_right:128
      ~degree:8 ()
  in
  {
    name = sharded_name;
    source = dae_pairs inst ~pairs:2;
    cfg = Presets.dae_soc;
    tile_config = TC.in_order;
  }

(* ------------------------------------------------------------------ *)
(* Jobs: the timed simulation calls of a workload                      *)
(* ------------------------------------------------------------------ *)

(* What one timed call produced. [instrs] is the simulated dynamic
   instructions it covered: detailed plus fast-forwarded for a sampled
   run, the base run for a sweep (re-timing simulates none). *)
type obs = {
  instrs : int;
  sim_s : float;  (** host seconds inside the timed call *)
  soc_s : float;  (** the part of [sim_s] spent in Soc.run *)
  mismatches : int;  (** simulated values that disagree with [expect] *)
  results : Soc.result list;
  est_err_pct : float;  (** largest estimate error this call showed *)
  minor_words : float;
  promoted_words : float;
  ff_s : float;  (** "sample.ff" span time (traced run only) *)
  sweep_s : float * float * float;
      (** a sweep's base, analysis and re-timing seconds *)
  points : int;  (** re-timed sweep points *)
}

type job = { jname : string; target : string; run : unit -> obs }

(* Time [f] from outside, with Gc.quick_stat deltas around it (the
   calling domain's allocation only) and, when the span tracer is on,
   the functional fast-forward time it recorded. *)
let measure f =
  let ff0 = Span.total_seconds "sample.ff" in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r = f () in
  let sim_s = now () -. t0 in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      instrs = 0;
      sim_s;
      soc_s = sim_s;
      mismatches = 0;
      results = [];
      est_err_pct = 0.0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      ff_s = Span.total_seconds "sample.ff" -. ff0;
      sweep_s = (0.0, 0.0, 0.0);
      points = 0;
    } )

let exact_run t trace ~shards =
  Soc.run { t.cfg with Soc.shards } ~program:t.source.inst.R.program ~trace
    ~tiles:(tiles_of t trace)

let exact_job e t trace ~shards =
  {
    jname = t.name;
    target = t.name;
    run =
      (fun () ->
        let r, o = measure (fun () -> exact_run t trace ~shards) in
        let bad =
          check e ("cycles." ^ t.name) r.Soc.cycles
          + Bool.to_int (r.Soc.instrs <> Trace.total_dyn_instrs trace)
        in
        { o with instrs = r.Soc.instrs; mismatches = bad; results = [ r ] });
  }

let err_pct ~est ~exact = Sweep.err_pct ~retimed:est ~exact

let sample_job e t trace =
  let spec = Sample.auto ~total_instrs:(Trace.total_dyn_instrs trace) in
  {
    jname = "sample." ^ t.name;
    target = t.name;
    run =
      (fun () ->
        let r, o =
          measure (fun () ->
              Soc.run ~sample:spec t.cfg ~program:t.source.inst.R.program
                ~trace ~tiles:(tiles_of t trace))
        in
        let rep = Option.get r.Soc.sample in
        let est = rep.Sample.est_cycles in
        let exact = Hashtbl.find_opt e.ints ("cycles." ^ t.name) in
        {
          o with
          instrs = rep.Sample.detailed_instrs + rep.Sample.ff_instrs;
          mismatches = check e ("est." ^ t.name) est;
          results = [ r ];
          est_err_pct =
            Option.fold ~none:0.0 ~some:(fun exact -> err_pct ~est ~exact) exact;
        });
  }

let sweep_grid =
  lazy (Sweep.grid (List.map Sweep.axis_of_spec Sweep.default_axes))

let point_key kind t i = Printf.sprintf "%s.%s.%d" kind t.name i

let sweep_job e t trace =
  let grid = Lazy.force sweep_grid in
  {
    jname = "sweep." ^ t.name;
    target = t.name;
    run =
      (fun () ->
        let s, o =
          measure (fun () ->
              Sweep.run t.cfg ~tile_config:t.tile_config
                ~program:t.source.inst.R.program ~trace grid)
        in
        let bad = ref (check e ("cycles." ^ t.name) s.Sweep.base.Soc.cycles) in
        let worst = ref 0.0 in
        Array.iteri
          (fun i (p : Sweep.point) ->
            let est = p.Sweep.retimed.Mosaic.Retime.cycles in
            bad := !bad + check e (point_key "retimed" t i) est;
            match Hashtbl.find_opt e.ints (point_key "exact" t i) with
            | Some exact -> worst := Float.max !worst (err_pct ~est ~exact)
            | None -> ())
          s.Sweep.points;
        (match Hashtbl.find_opt e.max_err t.name with
        | Some m when Float.abs (m -. !worst) > 1e-9 *. Float.max 1.0 m ->
            incr bad
        | _ -> ());
        {
          o with
          instrs = s.Sweep.base.Soc.instrs;
          soc_s = s.Sweep.base_seconds;
          mismatches = !bad;
          results = [ s.Sweep.base ];
          points = Array.length s.Sweep.points;
          sweep_s = Sweep.(s.base_seconds, s.analyze_seconds, s.retime_seconds);
          est_err_pct = !worst;
        });
  }

(* Exact cycles of sweep points [points], by full simulation. *)
let sweep_exact e t trace points =
  let grid = Array.of_list (Lazy.force sweep_grid) in
  List.iter
    (fun i ->
      let _, edit = grid.(i) in
      let cfg, tc = edit (t.cfg, t.tile_config) in
      let r =
        Soc.run cfg ~program:t.source.inst.R.program ~trace
          ~tiles:(tiles_of { t with tile_config = tc } trace)
      in
      Hashtbl.replace e.ints (point_key "exact" t i) r.Soc.cycles)
    points

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  wname : string;
  targets : int -> target list;  (** instance construction, part of set-up *)
  prepare : traced:bool -> expect -> (target * Trace.t) list -> unit;
      (** reference runs, outside set-up and the timed phase *)
  jobs : expect -> (target * Trace.t) list -> job list;
}

(* Exact cycles for the targets whose [cycles.<target>] is not known yet
   (on the committed seed, reference.json already holds them). *)
let exact_refs e traced ~shards =
  List.iter
    (fun (t, trace) ->
      let key = "cycles." ^ t.name in
      if not (Hashtbl.mem e.ints key) then
        Hashtbl.replace e.ints key (exact_run t trace ~shards).Soc.cycles)
    traced

let sweep_points = List.init 16 Fun.id

let workloads =
  [
    {
      wname = "dae-sharded";
      targets = (fun seed -> [ sharded_target seed ]);
      (* The serial scheduler is the reference the sharded run must
         match, on every seed. *)
      prepare = (fun ~traced:_ e traced -> exact_refs e traced ~shards:1);
      jobs =
        (fun e traced ->
          List.map (fun (t, trace) -> exact_job e t trace ~shards:nshards) traced);
    };
    {
      wname = "fast-modes";
      targets = (fun seed -> List.map (parboil_target seed) parboil_names);
      (* The exact oracle only feeds est_err_pct, which the traced run
         reports; on the committed seed reference.json holds it. *)
      prepare =
        (fun ~traced:with_oracle e traced ->
          if with_oracle then begin
            exact_refs e traced ~shards:1;
            List.iter
              (fun (t, trace) ->
                if List.mem t.name sweep_names then
                  sweep_exact e t trace
                    (List.filter
                       (fun i -> not (Hashtbl.mem e.ints (point_key "exact" t i)))
                       sweep_points))
              traced
          end);
      jobs =
        (fun e traced ->
          List.map (fun (t, trace) -> sample_job e t trace) traced
          @ List.filter_map
              (fun (t, trace) ->
                if List.mem t.name sweep_names then Some (sweep_job e t trace)
                else None)
              traced);
    };
  ]

(* ------------------------------------------------------------------ *)
(* Set-up, timed phase and failure accounting                          *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

let fail tally what ex =
  tally.failed <- tally.failed + 1;
  Printf.eprintf "perfbench: %s: %s\n%!" what (Printexc.to_string ex)

(* One cold set-up: from workload start (instance construction) to the
   point where the first simulation call could be made, each trace
   obtained with [get] ([fetch], or [acquire] for the per-layer
   breakdown). Each starts from a compacted heap, so that neither its
   time nor the process's peak memory depends on when the previous
   round's garbage is collected. *)
let setup tally w seed get =
  cold_store ();
  Gc.compact ();
  let t0 = now () in
  let targets = w.targets seed in
  let traced =
    List.map
      (fun t ->
        tally.attempted <- tally.attempted + 1;
        (t, get t.source))
      targets
  in
  (now () -. t0, traced)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                  float_of_int kb /. 1024.0)
          | _ -> None)
        (String.split_on_char '\n' status)
      |> Option.value ~default:0.0
  | exception Sys_error _ ->
      (* No procfs: the major heap's peak is the closest in-process proxy. *)
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

(* Round-robin over the jobs until [seconds] have passed, and at least
   one whole pass, calling [between] before every pass but the first.
   Returns per-job wall times and observations, newest first, and the
   peak RSS after the first pass: set-up plus one run of every job, which
   unlike the peak at the end does not depend on how many runs the host's
   speed fitted into the window. *)
let window ?(between = ignore) tally jobs ~seconds =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let walls = Array.make n [] and obs = Array.make n [] in
  let rss = ref 0.0 in
  let t_end = now () +. seconds in
  let rec go i pass =
    if i = n then begin
      if pass = 0 then rss := peak_rss_mb ();
      go 0 (pass + 1)
    end
    else if pass > 0 && now () >= t_end then ()
    else begin
      if i = 0 && pass > 0 then between ();
      tally.attempted <- tally.attempted + 1;
      let t0 = now () in
      (match jobs.(i).run () with
      | o ->
          walls.(i) <- (now () -. t0) :: walls.(i);
          (* Only the newest observation keeps its simulation results:
             retaining every run's would grow the heap, and the GC's
             work with it, over the window. *)
          obs.(i) <-
            (match obs.(i) with
            | prev :: rest -> o :: { prev with results = [] } :: rest
            | [] -> [ o ]);
          if o.mismatches > 0 then
            fail tally jobs.(i).jname
              (Failure
                 (Printf.sprintf "%d simulated value(s) differ from the reference"
                    o.mismatches))
      | exception ex -> fail tally jobs.(i).jname ex);
      go (i + 1) pass
    end
  in
  go 0 0;
  Array.iteri
    (fun i w ->
      Printf.eprintf "perfbench: %-22s runs %2d  best %.3f s  %s\n%!" jobs.(i).jname
        (List.length w) (best w)
        (String.concat " " (List.rev_map (Printf.sprintf "%.3f") w)))
    walls;
  (walls, obs, !rss)

(* One pass of the timed phase, from each job's best run: its wall time, and
   simulated instructions over host seconds inside the simulation calls
   (a ratio of sums, not a mean of per-job rates). *)
let pass_s walls = Array.fold_left (fun a w -> a +. best w) 0.0 walls

let sim_mips obs =
  let instrs =
    Array.fold_left
      (fun a o -> match o with [] -> a | o :: _ -> a +. float_of_int o.instrs)
      0.0 obs
  in
  let secs =
    Array.fold_left (fun a o -> a +. best (List.map (fun o -> o.sim_s) o)) 0.0 obs
  in
  ratio instrs secs /. 1e6

(* ------------------------------------------------------------------ *)
(* Layer replays (traced run only)                                     *)
(* ------------------------------------------------------------------ *)

(* Each replay feeds a fresh instance of one layer, through its public
   functions, with the workload's own operation stream taken from its
   traces, and reports host nanoseconds per operation. Streams are capped
   per tile so that a replay stays well under a second. *)
let replay_cap = 200_000

(* One tile's dynamic memory operations and messages, in program order. *)
type stream = {
  tile : int;
  addrs : int array;
  writes : bool array;
  sizes : int array;
  sends : (int * int) array;  (** (destination tile, channel) *)
}

let stream_of program (tt : Trace.tile_trace) =
  let func = Ir.Program.func_exn program tt.Trace.kernel in
  let mpos = Array.make func.Ir.Func.ninstrs 0 in
  let spos = Array.make func.Ir.Func.ninstrs 0 in
  let mem = ref [] and nmem = ref 0 and sends = ref [] and nsend = ref 0 in
  let pop pos (arr : 'a array array) id =
    let k = pos.(id) in
    if k < Array.length arr.(id) then begin
      pos.(id) <- k + 1;
      Some arr.(id).(k)
    end
    else None
  in
  let mem_op id ~write size =
    if !nmem < replay_cap then
      Option.iter
        (fun a ->
          incr nmem;
          mem := (a, write, size) :: !mem)
        (pop mpos tt.Trace.mem_addrs id)
  in
  let send id chan =
    if !nsend < replay_cap then
      Option.iter
        (fun dst ->
          incr nsend;
          sends := (dst, chan) :: !sends)
        (pop spos tt.Trace.send_dsts id)
  in
  Array.iter
    (fun bid ->
      Array.iter
        (fun (ins : Ir.Instr.t) ->
          let id = ins.Ir.Instr.id in
          match ins.Ir.Instr.op with
          | Ir.Op.Load size -> mem_op id ~write:false size
          | Ir.Op.Store size | Ir.Op.Atomic_rmw (_, size) ->
              mem_op id ~write:true size
          | Ir.Op.Load_send (chan, size) ->
              mem_op id ~write:false size;
              send id chan
          | Ir.Op.Store_recv (_, size, _) -> mem_op id ~write:true size
          | Ir.Op.Send chan -> send id chan
          | _ -> ())
        (Ir.Func.block func bid).Ir.Func.instrs)
    tt.Trace.bb_path;
  let mem = Array.of_list (List.rev !mem) in
  {
    tile = tt.Trace.tile;
    addrs = Array.map (fun (a, _, _) -> a) mem;
    writes = Array.map (fun (_, w, _) -> w) mem;
    sizes = Array.map (fun (_, _, s) -> s) mem;
    sends = Array.of_list (List.rev !sends);
  }

(* Host time and operation count of one replay. *)
type replay = { mutable ops : int; mutable secs : float }

let replay_time r f =
  let t0 = now () in
  r.ops <- r.ops + f ();
  r.secs <- r.secs +. (now () -. t0)

let ns_per_op r = ratio (r.secs *. 1e9) (float_of_int r.ops)

(* Visit the k-th operation of every tile before the (k+1)-th, so that
   cycles presented to shared state never go backwards. *)
let round_robin streams len f =
  let n = Array.fold_left (fun m s -> max m (len s)) 0 streams in
  let ops = ref 0 in
  for k = 0 to n - 1 do
    Array.iter
      (fun s ->
        if k < len s then begin
          f s k;
          incr ops
        end)
      streams
  done;
  !ops

type replays = {
  access : replay;
  warm : replay;
  dram : replay;
  mao : replay;
  msg : replay;
  ordered : replay;
}

let fresh_replays () =
  let z () = { ops = 0; secs = 0.0 } in
  { access = z (); warm = z (); dram = z (); mao = z (); msg = z (); ordered = z () }

let replay_target rp t trace (r : Soc.result) =
  let streams =
    Array.map (stream_of t.source.inst.R.program) trace.Trace.tiles
  in
  let ntiles = trace.Trace.ntiles in
  let hcfg = t.cfg.Soc.hierarchy in
  (* Issue at the workload's own average access rate per tile. *)
  let gap =
    max 1 (r.Soc.cycles * ntiles / max 1 r.Soc.mem_totals.Hierarchy.l1_accesses)
  in
  let naddrs s = Array.length s.addrs in
  replay_time rp.access (fun () ->
      let h = Hierarchy.create ~ntiles hcfg in
      round_robin streams naddrs (fun s k ->
          let rec issue c =
            if Hierarchy.can_accept h ~tile:s.tile ~cycle:c then c
            else
              match Hierarchy.next_accept h ~tile:s.tile ~cycle:c with
              | Some c' when c' > c -> issue c'
              | _ -> issue (c + 1)
          in
          let cycle = issue (k * gap) in
          ignore
            (Hierarchy.access h ~tile:s.tile ~cycle ~addr:s.addrs.(k)
               ~is_write:s.writes.(k))));
  replay_time rp.warm (fun () ->
      let h = Hierarchy.create ~ntiles hcfg in
      round_robin streams naddrs (fun s k ->
          Hierarchy.warm h ~tile:s.tile ~addr:s.addrs.(k) ~is_write:s.writes.(k)));
  (* DRAM sees the lines the workload touches, in first-touch order, at
     the rate the simulation issued DRAM requests. *)
  let lines =
    Array.map
      (fun s ->
        let seen = Hashtbl.create 4096 in
        let keep = ref [] in
        Array.iteri
          (fun k a ->
            let l = a / 64 in
            if not (Hashtbl.mem seen l) then begin
              Hashtbl.replace seen l ();
              keep := (l * 64, s.writes.(k)) :: !keep
            end)
          s.addrs;
        Array.of_list (List.rev !keep))
      streams
  in
  let dram_gap =
    max 1 (r.Soc.cycles / max 1 (r.Soc.dram.Dram.reads + r.Soc.dram.Dram.writes))
  in
  replay_time rp.dram (fun () ->
      let d =
        match hcfg.Hierarchy.dram with
        | Hierarchy.Simple c -> Dram.simple c
        | Hierarchy.Detailed c -> Dram.detailed c
      in
      round_robin lines Array.length (fun l k ->
          let addr, w = l.(k) in
          ignore
            (Dram.access d ~cycle:(k * dram_gap) ~addr
               (if w then Dram.Dram_write else Dram.Dram_read))));
  (* An LSQ-sized window, a block's worth of operations at a time: insert
     and resolve them in program order, ask whether each may issue, and
     retire the oldest entries to keep the window within capacity. *)
  replay_time rp.mao (fun () ->
      let cap = t.tile_config.TC.lsq_size in
      let batch = max 1 (min 8 cap) in
      Array.fold_left
        (fun ops s ->
          let m =
            Mao.create ~capacity:cap ~perfect_alias:t.tile_config.TC.perfect_alias
          in
          let n = naddrs s and oldest = ref 0 and k = ref 0 in
          while !k < n do
            let hi = min n (!k + batch) in
            while hi - !oldest > cap do
              Mao.complete m ~seq:!oldest;
              incr oldest
            done;
            for j = !k to hi - 1 do
              Mao.insert m ~seq:j
                ~kind:(if s.writes.(j) then Mao.K_store else Mao.K_load)
                ~addr:s.addrs.(j) ~size:s.sizes.(j);
              Mao.resolve m ~seq:j
            done;
            for j = !k to hi - 1 do
              ignore (Mao.can_issue m ~seq:j)
            done;
            k := hi
          done;
          ops + n)
        0 streams);
  replay_time rp.msg (fun () ->
      let inter =
        Interleaver.create ~buffer_capacity:t.cfg.Soc.buffer_capacity
          ~wire_latency:t.cfg.Soc.wire_latency ()
      in
      round_robin streams
        (fun s -> Array.length s.sends)
        (fun s k ->
          let dst, chan = s.sends.(k) in
          ignore (Interleaver.send inter ~src:s.tile ~dst ~chan ~cycle:k ~available:k);
          ignore (Interleaver.try_recv inter ~tile:dst ~chan ~cycle:k)))

(* An uncontended ordered operation: the other shard's horizon is already
   past every point, so [wait_order] never waits. *)
let replay_ordered rp ~ops =
  replay_time rp.ordered (fun () ->
      let s = Shard_sync.create ~nshards:2 () in
      Shard_sync.publish s ~shard:1 ~point:max_int;
      for i = 0 to ops - 1 do
        let p = Shard_sync.point ~seq:i ~tile:0 in
        Shard_sync.wait_order s ~shard:0 ~point:p;
        Shard_sync.publish s ~shard:0 ~point:(p + 1)
      done;
      ops)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = string * string * float  (** name, unit, value *)

let end_to_end ~setup_s ~walls ~obs ~rss : metric list =
  [
    ("sim_mips", "MIPS", sim_mips obs);
    ("run_s", "s", pass_s walls);
    ("setup_s", "s", setup_s);
    ("peak_rss_mb", "MB", rss);
  ]

(* Per-job best of [f] summed over the jobs: one pass's worth. *)
let pass_sum obs f =
  Array.fold_left (fun a o -> a +. best (List.map f o)) 0.0 obs

let per_layer ~acc ~setup_s ~base_walls ~walls ~obs ~rp : metric list =
  let last = Array.to_list obs |> List.filter_map (function o :: _ -> Some o | [] -> None) in
  let results = List.concat_map (fun o -> o.results) last in
  let rsum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 results) in
  let instrs = rsum (fun r -> r.Soc.instrs) in
  let stepped = rsum (fun r -> r.Soc.stepped_cycles) in
  let accesses = rsum (fun r -> r.Soc.mem_totals.Hierarchy.l1_accesses) in
  let l1_hits =
    fsum
      (fun (r : Soc.result) ->
        float_of_int r.Soc.mem_totals.Hierarchy.l1_accesses
        *. Metrics.get_gauge r.Soc.metrics "mem.l1_hit_rate")
      results
  in
  let messages = rsum (fun r -> r.Soc.interleaver.Interleaver.sends) in
  let barrier_gauges (r : Soc.result) =
    List.filter_map
      (fun (name, m) ->
        match m with
        | Metrics.Gauge g
          when String.starts_with ~prefix:"host.shard." name
               && String.ends_with ~suffix:".barrier_wait_seconds" name ->
            Some (Metrics.gauge_value g)
        | _ -> None)
      (Metrics.to_list r.Soc.metrics)
  in
  let shards = List.fold_left (fun a r -> max a (List.length (barrier_gauges r))) 0 results in
  let barrier_s = fsum (fun r -> List.fold_left ( +. ) 0.0 (barrier_gauges r)) results in
  (* Shared operations a sharded run must order: every message send and
     receive, and every access that leaves the tile-private L1. *)
  let ordered = if shards > 1 then (2.0 *. messages) +. (accesses -. l1_hits) else 0.0 in
  if ordered > 0.0 then replay_ordered rp ~ops:(int_of_float ordered);
  let soc_s = pass_sum obs (fun o -> o.soc_s) in
  let ff_s = pass_sum obs (fun o -> o.ff_s) in
  let samples = List.filter_map (fun (r : Soc.result) -> r.Soc.sample) results in
  let detailed = List.fold_left (fun a s -> a + s.Sample.detailed_instrs) 0 samples in
  let ffi = List.fold_left (fun a s -> a + s.Sample.ff_instrs) 0 samples in
  let sweeps f = pass_sum obs (fun o -> f o.sweep_s) in
  let points = List.fold_left (fun a o -> a + o.points) 0 last in
  let named = [ "dataset"; "snapshot"; "digest"; "interp"; "check"; "save" ] in
  let covered = List.fold_left (fun a k -> a +. get acc k) 0.0 named in
  let modelled =
    (accesses *. (ns_per_op rp.access +. ns_per_op rp.mao)
    +. (messages *. ns_per_op rp.msg)
    +. (ordered *. ns_per_op rp.ordered))
    /. 1e9
  in
  [
    ("workloads.dataset_s", "s", get acc "dataset");
    ("workloads.check_s", "s", get acc "check");
    ("interp.s", "s", get acc "interp");
    ("interp.steps", "count", get acc "steps");
    ("interp.ns_per_step", "ns", ratio (get acc "interp" *. 1e9) (get acc "steps"));
    ("store.snapshot_s", "s", get acc "snapshot");
    ("store.snapshot_words", "count", get acc "snapshot_words");
    ("store.digest_s", "s", get acc "digest");
    ("store.save_s", "s", get acc "save");
    ("store.bytes", "bytes", get acc "bytes");
    ("setup.residual_s", "s", setup_s -. covered);
    ("setup.coverage", "ratio", ratio covered setup_s);
    ("soc.s", "s", soc_s);
    ("soc.instrs", "count", instrs);
    ("soc.cycles", "count", rsum (fun r -> r.Soc.cycles));
    ("soc.stepped_cycles", "count", stepped);
    ("soc.ns_per_instr", "ns", ratio (soc_s *. 1e9) instrs);
    ("soc.ns_per_stepped_cycle", "ns", ratio (soc_s *. 1e9) stepped);
    ("soc.minor_words_per_instr", "words", ratio (fsum (fun o -> o.minor_words) last) instrs);
    ("soc.promoted_words_per_instr", "words", ratio (fsum (fun o -> o.promoted_words) last) instrs);
    ("hierarchy.accesses", "count", accesses);
    ("hierarchy.l1_hit_rate", "ratio", ratio l1_hits accesses);
    ("hierarchy.ns_per_access", "ns", ns_per_op rp.access);
    ("hierarchy.ns_per_warm", "ns", ns_per_op rp.warm);
    ("dram.requests", "count", rsum (fun r -> r.Soc.dram.Dram.reads + r.Soc.dram.Dram.writes));
    ("dram.ns_per_request", "ns", ns_per_op rp.dram);
    ("mao.ns_per_op", "ns", ns_per_op rp.mao);
    ("tile.mao_stalls", "count", rsum (fun r -> r.Soc.mao_stalls));
    ("tile.residual_s", "s", soc_s -. modelled -. ff_s);
    ("interleaver.messages", "count", messages);
    ("interleaver.ns_per_msg", "ns", ns_per_op rp.msg);
    ("shard.barrier_wait_s", "s", barrier_s);
    ("shard.wait_share", "ratio", ratio barrier_s (soc_s *. float_of_int shards));
    ("shard.ordered_ops", "count", ordered);
    ("shard.ns_per_ordered_op", "ns", ns_per_op rp.ordered);
    ("sample.ff_s", "s", ff_s);
    ("sample.detailed_share", "ratio", ratio (float_of_int detailed) (float_of_int (detailed + ffi)));
    ("sample.degraded", "count", float_of_int (List.fold_left (fun a s -> a + s.Sample.degraded) 0 samples));
    ("sweep.base_s", "s", sweeps (fun (b, _, _) -> b));
    ("sweep.analyze_s", "s", sweeps (fun (_, a, _) -> a));
    ("sweep.retime_us_per_point", "us",
      ratio (sweeps (fun (_, _, r) -> r) *. 1e6) (float_of_int points));
    ("est_err_pct", "%", List.fold_left (fun a o -> Float.max a o.est_err_pct) 0.0 last);
    ("bench.tracing_overhead", "ratio", ratio (pass_s walls) (pass_s base_walls));
  ]

(* The metric names and units, for a run that failed before measuring. *)
let metric_names ~traced =
  let walls = [| [] |] and obs = [| [] |] in
  List.map
    (fun (n, u, _) -> (n, u))
    (if traced then
       per_layer ~acc:(Hashtbl.create 1) ~setup_s:0.0 ~base_walls:walls
         ~walls ~obs ~rp:(fresh_replays ())
     else end_to_end ~setup_s:0.0 ~walls ~obs ~rss:0.0)

let print_result tally metrics =
  let finite v = if Float.is_finite v then v else 0.0 in
  let doc =
    Json.Obj
      [
        ("correct", Json.Bool (tally.failed = 0));
        ("attempted", Json.Int (max 1 tally.attempted));
        ("failed", Json.Int tally.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, u, v) ->
                 (n, Json.Obj [ ("value", Json.Float (finite v)); ("unit", Json.String u) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string doc)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

(* Cold set-ups run between the passes of the timed phase whenever the
   set-ups so far have taken less than this share of the window, so that
   [setup_s] samples the host over the whole window, as [run_s] does,
   rather than over the one speed phase a burst of set-ups would fall
   into, while most of the window is left to the jobs. *)
let setup_share = 0.15

(* The traced run times the set-up before its windows, in pairs of a
   [fetch] set-up and an [acquire] one, at least this many pairs and
   until this many seconds. *)
let traced_pairs = 3
let traced_setup_budget = 2.0

let run_workload tally w ~seed ~seconds ~traced =
  let e = load_expect seed in
  if not traced then begin
    let first, targets = setup tally w seed fetch in
    let times = ref [ first ] in
    Gc.compact ();
    w.prepare ~traced e targets;
    let t_start = now () and spent = ref 0.0 in
    let between () =
      if !spent < setup_share *. (now () -. t_start) then begin
        while !spent < setup_share *. (now () -. t_start) do
          let s, _ = setup tally w seed fetch in
          times := s :: !times;
          spent := !spent +. s
        done;
        Gc.compact ()
      end
    in
    let walls, obs, rss = window ~between tally (w.jobs e targets) ~seconds in
    end_to_end ~setup_s:(median !times) ~walls ~obs ~rss
  end
  else begin
    let acc = Hashtbl.create 16 and fetched = ref [] and pairs = ref 0 in
    let last = ref [] in
    while !pairs < traced_pairs || fsum Fun.id !fetched < traced_setup_budget do
      (* Drop the previous round's traces before building the next. *)
      last := [];
      let s, _ = setup tally w seed fetch in
      fetched := s :: !fetched;
      let _, targets = setup tally w seed (acquire acc) in
      last := targets;
      incr pairs
    done;
    let targets = !last in
    let n = float_of_int !pairs in
    Hashtbl.filter_map_inplace (fun _ v -> Some (v /. n)) acc;
    Gc.compact ();
    w.prepare ~traced e targets;
    let jobs = w.jobs e targets in
    let base_walls, _, _ = window tally jobs ~seconds:(seconds /. 2.0) in
    Span.set_enabled true;
    let walls, obs, _ = window tally jobs ~seconds:(seconds /. 2.0) in
    Span.set_enabled false;
    let rp = fresh_replays () in
    let done_ = Hashtbl.create 16 in
    Array.iteri
      (fun i o ->
        let j = List.nth jobs i in
        match o with
        | { results = r :: _; _ } :: _ when not (Hashtbl.mem done_ j.target) ->
            Hashtbl.replace done_ j.target ();
            let t, trace = List.find (fun (t, _) -> t.name = j.target) targets in
            replay_target rp t trace r
        | _ -> ())
      obs;
    let m =
      per_layer ~acc ~setup_s:(fsum Fun.id !fetched /. n) ~base_walls ~walls
        ~obs ~rp
    in
    let coverage = List.assoc "setup.coverage" (List.map (fun (n, _, v) -> (n, v)) m) in
    if coverage < 0.9 then
      Printf.eprintf "perfbench: named set-up layers cover only %.0f%% of setup_s\n%!"
        (100.0 *. coverage);
    m
  end

let regen_reference () =
  let e = no_expect () in
  let seed = committed_seed in
  let traced ts = List.map (fun t -> (cold_store (); (t, fetch t.source))) ts in
  let parboil = traced (List.map (parboil_target seed) parboil_names) in
  exact_refs e parboil ~shards:1;
  exact_refs e (traced [ sharded_target seed ]) ~shards:1;
  let max_err = ref [] in
  List.iter
    (fun (t, trace) ->
      ignore ((sample_job e t trace).run ());
      if List.mem t.name sweep_names then begin
        sweep_exact e t trace sweep_points;
        let o = (sweep_job e t trace).run () in
        max_err := ("maxerr." ^ t.name, o.est_err_pct) :: !max_err
      end)
    parboil;
  let ints =
    Hashtbl.fold
      (fun k v a -> if String.starts_with ~prefix:"retimed." k then a else (k, Json.Int v) :: a)
      e.ints []
  in
  let kvs = List.sort compare ints @ List.rev_map (fun (k, v) -> (k, Json.Float v)) !max_err in
  print_endline (Json.to_string (Json.Obj kvs))

let () =
  let workload = ref "" and seed = ref committed_seed and seconds = ref 10
  and trace = ref 0 and regen = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (0: the committed datasets)");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--regen-reference", Arg.Set regen, " print reference.json for the committed seed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  at_exit (fun () ->
      rm_rf scratch_root;
      try Sys.rmdir (Filename.dirname scratch_root) with Sys_error _ -> ());
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  if !regen then regen_reference ()
  else
    let w =
      match List.find_opt (fun w -> w.wname = !workload) workloads with
      | Some w -> w
      | None ->
          Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
            (String.concat ", " (List.map (fun w -> w.wname) workloads));
          exit 2
    in
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
      exit 2
    end;
    let traced = !trace = 1 in
    let tally = { attempted = 0; failed = 0 } in
    let metrics =
      try
        run_workload tally w ~seed:!seed ~seconds:(float_of_int !seconds) ~traced
      with ex ->
        fail tally w.wname ex;
        List.map (fun (n, u) -> (n, u, 0.0)) (metric_names ~traced)
    in
    print_result tally metrics
