(* Interval sampling (SMARTS-style, by instruction count) and the
   functional fast-forward executor between measured intervals.

   The driver alternates: detailed measurement (timing recorded) → drain
   (launching disabled, detailed stepping until the pipelines are empty) →
   functional fast-forward (trace position, cache/directory image and
   channel occupancy advance; no timing) → detailed warmup (timing
   simulated but discarded from the extrapolation basis) → measurement.
   Every fast-forwarded stretch is extrapolated from the per-tile IPC of
   the measurement that preceded it, and — when profiling — its stall
   attribution is scaled per cause from the same interval. A drain that
   cannot reach quiescence within its deadline degrades gracefully: the
   period is simulated in detail instead (counted in [report.degraded]). *)

open Mosaic_ir
module Trace = Mosaic_trace.Trace
module Core_tile = Mosaic_tile.Core_tile
module Tile_config = Mosaic_tile.Tile_config
module Profile = Mosaic_tile.Profile
module Hierarchy = Mosaic_memory.Hierarchy
module Stall = Mosaic_obs.Stall

type spec = {
  period : int;  (** instructions (all tiles) per sampling period *)
  interval : int;  (** detailed-measurement instructions per period *)
  warmup : int;  (** detailed warmup instructions before each measurement *)
}

let validate_spec s =
  if s.period <= 0 || s.interval <= 0 || s.warmup < 0 then
    invalid_arg "Sample: period/interval must be positive, warmup >= 0";
  if s.interval + s.warmup >= s.period then
    invalid_arg "Sample: interval + warmup must be smaller than period"

(* Defaults in the spirit of SMARTS: ~10 periods across the run, 1/8 of
   each measured in detail, a short warmup ahead of each measurement. *)
let auto ~total_instrs =
  let period = Stdlib.max 400 (total_instrs / 10) in
  { period; interval = Stdlib.max 50 (period / 8); warmup = Stdlib.max 10 (period / 40) }

type report = {
  est_cycles : int;
      (** detailed clock plus the extrapolated fast-forwarded stretches *)
  detailed_cycles : int;
  detailed_instrs : int;
  ff_instrs : int;  (** instructions executed functionally *)
  periods : int;  (** completed fast-forward stretches *)
  degraded : int;  (** drains that missed their deadline (period ran exact) *)
  est_stalls : int array;
      (** estimated per-cause cycle totals across tiles (detailed counts
          plus scaled stretch attribution); [[||]] when unprofiled *)
}

(* --- Functional fast-forward ---

   Replays whole trace blocks against each tile's cursor: memory
   instructions pop their addresses and warm the hierarchy (fills, LRU,
   dirtiness, directory — no stats or timing), terminators train the
   branch predictor, sends/receives move tokens between per-channel
   counters seeded from and committed back to the interleaver. Tiles run
   round-robin; a receive with no token stalls its tile until a producer
   supplies one (plain [Recv] never goes into debt — only [Store_recv]
   may, mirroring [take_or_owe]). Tiles that reach their target are
   reactivated, one block at a time, while another tile is stalled
   mid-block on their output — targets are soft, trace alignment is not. *)

type channel = {
  mutable buffered : int;
  mutable owed : int;
  mutable sends : int;
  mutable recvs : int;
}

type tile_ff = {
  mutable blk : Instr.t array;  (** block being walked; [||] between blocks *)
  mutable idx : int;
  mutable pend_dst : int;  (** popped send destination awaiting a slot; -1 *)
  mutable instrs : int;
  mutable dbbs : int;
  mutable mem : int;
  by_class : int array;
  mutable accel_pj : float;
  mutable active : bool;
  mutable target : int;
}

(* [targets] are per-tile instruction counts to advance (block-granular,
   soft). Returns the instructions actually skipped per tile. Raises
   [Failure] if the channels deadlock mid-block, which for a trace the
   detailed simulator can execute means a simulator bug. *)
let fast_forward ~cores ~funcs ~inter ~hier
    ~(on_accel : tile:int -> kind:string -> params:Value.t array -> float)
    ~cycle ~targets =
  let ntiles = Array.length cores in
  let cap = Interleaver.capacity inter in
  let channels : (int * int, channel) Hashtbl.t = Hashtbl.create 16 in
  let channel ~dst ~chan =
    match Hashtbl.find_opt channels (dst, chan) with
    | Some c -> c
    | None ->
        let buffered, owed = Interleaver.ff_channel inter ~dst ~chan in
        let c = { buffered; owed; sends = 0; recvs = 0 } in
        Hashtbl.replace channels (dst, chan) c;
        c
  in
  let states =
    Array.init ntiles (fun i ->
        {
          blk = [||];
          idx = 0;
          pend_dst = -1;
          instrs = 0;
          dbbs = 0;
          mem = 0;
          by_class = Array.make Tile_config.nclasses 0;
          accel_pj = 0.0;
          active = targets.(i) > 0;
          target = targets.(i);
        })
  in
  (* [warm_mem] and [try_send] take the instruction's context as arguments
     rather than closing over it inside [exec], which would allocate two
     closures per fast-forwarded instruction. *)
  let warm_mem i st c iid ~is_write =
    let addr = Trace.Cursor.next_addr c ~instr_id:iid in
    Hierarchy.warm hier ~tile:i ~addr ~is_write;
    st.mem <- st.mem + 1
  in
  let try_send st c iid ~chan =
    let dst =
      if st.pend_dst >= 0 then st.pend_dst
      else begin
        let d = Trace.Cursor.next_send_dst c ~instr_id:iid in
        st.pend_dst <- d;
        d
      end
    in
    let ch = channel ~dst ~chan in
    if ch.owed > 0 then begin
      ch.owed <- ch.owed - 1;
      ch.sends <- ch.sends + 1;
      st.pend_dst <- -1;
      true
    end
    else if ch.buffered < cap then begin
      ch.buffered <- ch.buffered + 1;
      ch.sends <- ch.sends + 1;
      st.pend_dst <- -1;
      true
    end
    else false
  in
  (* Execute one instruction; false = blocked on a channel (retry after
     other tiles progress). Trace streams are popped only on success —
     except a send's destination, which decides success and is stashed in
     [pend_dst] across retries. *)
  let exec i st (instr : Instr.t) =
    let c = Core_tile.cursor cores.(i) in
    let iid = instr.Instr.id in
    match instr.Instr.op with
    | Op.Load _ ->
        warm_mem i st c iid ~is_write:false;
        true
    | Op.Store _ | Op.Atomic_rmw _ ->
        warm_mem i st c iid ~is_write:true;
        true
    | Op.Send chan -> try_send st c iid ~chan
    | Op.Load_send (chan, _) ->
        if try_send st c iid ~chan then begin
          warm_mem i st c iid ~is_write:false;
          true
        end
        else false
    | Op.Recv chan ->
        (* Plain receives never go into debt: a committed debt would
           absorb a send the resumed detailed receive still waits for. *)
        let ch = channel ~dst:i ~chan in
        if ch.buffered > 0 then begin
          ch.buffered <- ch.buffered - 1;
          ch.recvs <- ch.recvs + 1;
          true
        end
        else false
    | Op.Store_recv (chan, _, _) ->
        let ch = channel ~dst:i ~chan in
        if ch.buffered > 0 then begin
          ch.buffered <- ch.buffered - 1;
          ch.recvs <- ch.recvs + 1;
          warm_mem i st c iid ~is_write:true;
          true
        end
        else if ch.owed < cap then begin
          ch.owed <- ch.owed + 1;
          ch.recvs <- ch.recvs + 1;
          warm_mem i st c iid ~is_write:true;
          true
        end
        else false
    | Op.Accel kind ->
        let params = Trace.Cursor.next_accel_params c ~instr_id:iid in
        st.accel_pj <- st.accel_pj +. on_accel ~tile:i ~kind ~params;
        true
    | _ -> true
  in
  (* Run tile [i] until it stalls on a channel or completes its target at a
     block boundary. *)
  let run_tile i =
    let st = states.(i) in
    let core = cores.(i) in
    let c = Core_tile.cursor core in
    let progressed = ref false in
    let stalled = ref false in
    while st.active && not !stalled do
      let blk = st.blk in
      if Array.length blk = 0 then begin
        if st.instrs >= st.target then st.active <- false
        else begin
          let bid = Trace.Cursor.next_block_id c in
          if bid < 0 then st.active <- false
          else begin
            st.blk <- (Func.block funcs.(i) bid).Func.instrs;
            st.idx <- 0;
            st.dbbs <- st.dbbs + 1
          end
        end
      end
      else begin
        let instr = blk.(st.idx) in
        if exec i st instr then begin
          progressed := true;
          st.instrs <- st.instrs + 1;
          st.by_class.(Tile_config.class_index (Op.classify instr.Instr.op)) <-
            st.by_class.(Tile_config.class_index (Op.classify instr.Instr.op))
            + 1;
          st.idx <- st.idx + 1;
          if st.idx >= Array.length blk then begin
            if Op.is_terminator instr.Instr.op then begin
              let actual = Trace.Cursor.peek_block_id c 0 in
              if actual >= 0 then
                Core_tile.ff_observe_branch core instr ~actual
            end;
            st.blk <- [||]
          end
        end
        else stalled := true
      end
    done;
    !progressed
  in
  let running = ref true in
  while !running do
    let progressed = ref false in
    for i = 0 to ntiles - 1 do
      if run_tile i then progressed := true
    done;
    if not !progressed then begin
      let mid_block = Array.exists (fun st -> Array.length st.blk > 0) states in
      if not mid_block then running := false
      else begin
        (* A consumer is stalled inside a block; push every tile with
           trace remaining one more block so its producer can supply the
           missing tokens. No reactivation candidate means the trace
           itself deadlocks — the detailed simulator could not execute it
           either. *)
        let reactivated = ref false in
        Array.iteri
          (fun i st ->
            if
              (not st.active) && Array.length st.blk = 0
              && Trace.Cursor.peek_block_id (Core_tile.cursor cores.(i)) 0 >= 0
            then begin
              st.active <- true;
              st.target <- st.instrs + 1;
              reactivated := true
            end)
          states;
        if not !reactivated then
          failwith "Sample.fast_forward: inter-tile channel deadlock"
      end
    end
  done;
  Array.iteri
    (fun i st ->
      Core_tile.ff_commit cores.(i) ~instrs:st.instrs ~dbbs:st.dbbs
        ~mem_accesses:st.mem ~by_class:st.by_class ~accel_energy_pj:st.accel_pj)
    states;
  Hashtbl.iter
    (fun (dst, chan) ch ->
      Interleaver.ff_set_channel inter ~dst ~chan ~buffered:ch.buffered
        ~owed:ch.owed ~sends:ch.sends ~recvs:ch.recvs ~cycle)
    channels;
  Array.map (fun st -> st.instrs) states

(* --- Sampling driver ---

   Owned by [Soc.run]; [tick] runs at the top of every visited cycle,
   before the tiles step. *)

type measurement = {
  m_cycles : int;
  m_instrs : int array;  (** per-tile committed-instruction delta *)
  m_stalls : int array array;  (** per tile, per cause; [[||]] unprofiled *)
}

type stretch = {
  f_instrs : int array;
  f_basis : measurement;
  mutable f_after : measurement option;
      (** the measurement on the far side of the stretch; pooled with
          [f_basis] so a biased interval (notably the cold-cache one at
          cycle 0) cannot dominate the extrapolation *)
}

type phase = Measure | Drain | Warmup

type driver = {
  spec : spec;
  cores : Core_tile.t array;
  funcs : Func.t array;
  profiles : Profile.t array;
  inter : Interleaver.t;
  hier : Hierarchy.t;
  dyn_instrs : int array;
  on_accel : tile:int -> kind:string -> params:Value.t array -> float;
  profiled : bool;
  drain_bound : int;  (** cycles a drain may take before degrading *)
  mutable phase : phase;
  mutable meas_c0 : int;
  mutable meas_i0 : int array;
  mutable meas_t0 : int;
  mutable meas_s0 : int array array;
  mutable pending : (measurement * int) option;
      (** completed measurement and the skip budget, across the drain *)
  mutable warm_t0 : int;
  mutable drain_deadline : int;
  mutable stretches : stretch list;  (** newest first *)
  mutable ff_total : int;
  mutable degraded : int;
  mutable exhausted : bool;  (** too little trace left; run exact to the end *)
}

let committed d i = Core_tile.completed_instrs d.cores.(i)

let total d =
  let t = ref 0 in
  for i = 0 to Array.length d.cores - 1 do
    t := !t + committed d i
  done;
  !t

let stall_counts d =
  if d.profiled then Array.map Profile.counts d.profiles else [||]

let begin_measurement d ~cycle =
  d.meas_c0 <- cycle;
  d.meas_i0 <- Array.init (Array.length d.cores) (committed d);
  d.meas_t0 <- Array.fold_left ( + ) 0 d.meas_i0;
  d.meas_s0 <- stall_counts d

let make_driver ~spec ~cores ~funcs ~profiles ~inter ~hier ~dyn_instrs
    ~on_accel ~profiled =
  validate_spec spec;
  let d =
    {
      spec;
      cores;
      funcs;
      profiles;
      inter;
      hier;
      dyn_instrs;
      on_accel;
      profiled;
      drain_bound = 100_000;
      phase = Measure;
      meas_c0 = 0;
      meas_i0 = [||];
      meas_t0 = 0;
      meas_s0 = [||];
      pending = None;
      warm_t0 = 0;
      drain_deadline = 0;
      stretches = [];
      ff_total = 0;
      degraded = 0;
      exhausted = false;
    }
  in
  begin_measurement d ~cycle:0;
  d

let close_measurement d ~cycle =
  let n = Array.length d.cores in
  let instrs = Array.init n (fun i -> committed d i - d.meas_i0.(i)) in
  let stalls =
    if d.profiled then
      Array.init n (fun i ->
          let now = Profile.counts d.profiles.(i) in
          Array.mapi (fun c v -> v - d.meas_s0.(i).(c)) now)
    else [||]
  in
  { m_cycles = cycle - d.meas_c0; m_instrs = instrs; m_stalls = stalls }

(* During a drain the scheduler must not fast-forward over the quiescence
   point (or the deadline); elsewhere it skips freely. *)
let skip_cap d ~cycle =
  match d.phase with Drain -> cycle + 1 | Measure | Warmup -> max_int

let set_launching d v =
  Array.iter (fun c -> Core_tile.set_launch_enabled c v) d.cores

let tick d ~cycle =
  if not d.exhausted then
    match d.phase with
    | Measure ->
        if total d - d.meas_t0 >= d.spec.interval then begin
          let m = close_measurement d ~cycle in
          (match d.stretches with
          | s :: _ when s.f_after = None -> s.f_after <- Some m
          | _ -> ());
          let remaining =
            let r = ref 0 in
            Array.iteri
              (fun i di -> r := !r + Stdlib.max 0 (di - committed d i))
              d.dyn_instrs;
            !r
          in
          let skip = d.spec.period - d.spec.interval - d.spec.warmup in
          let skip =
            Stdlib.min skip (remaining - d.spec.interval - d.spec.warmup)
          in
          if skip <= 0 || m.m_cycles <= 0 then d.exhausted <- true
          else begin
            d.pending <- Some (m, skip);
            set_launching d false;
            d.drain_deadline <- cycle + d.drain_bound;
            d.phase <- Drain
          end
        end
    | Drain ->
        if Array.for_all Core_tile.quiescent d.cores then begin
          let m, skip = Option.get d.pending in
          d.pending <- None;
          let remaining =
            Array.mapi
              (fun i di -> Stdlib.max 0 (di - committed d i))
              d.dyn_instrs
          in
          let rem_total = Array.fold_left ( + ) 0 remaining in
          let targets =
            Array.map
              (fun r ->
                if rem_total = 0 then 0 else skip * r / rem_total)
              remaining
          in
          let skipped =
            Mosaic_obs.Span.with_span "sample.ff" (fun () ->
                fast_forward ~cores:d.cores ~funcs:d.funcs ~inter:d.inter
                  ~hier:d.hier ~on_accel:d.on_accel ~cycle ~targets)
          in
          d.stretches <-
            { f_instrs = skipped; f_basis = m; f_after = None } :: d.stretches;
          d.ff_total <- d.ff_total + Array.fold_left ( + ) 0 skipped;
          set_launching d true;
          d.warm_t0 <- total d;
          d.phase <- Warmup
        end
        else if cycle >= d.drain_deadline then begin
          d.pending <- None;
          d.degraded <- d.degraded + 1;
          set_launching d true;
          d.phase <- Measure;
          begin_measurement d ~cycle
        end
    | Warmup ->
        if total d - d.warm_t0 >= d.spec.warmup then begin
          d.phase <- Measure;
          begin_measurement d ~cycle
        end

(* Extrapolation basis: the stretch's bracketing measurements pooled into
   one (cycles summed, per-tile instrs and stalls summed). A stretch is
   timed under conditions between its two endpoints, so pooling both is a
   strictly better estimator than the preceding interval alone — and it
   stops the cold-cache interval at cycle 0 (whose CPI can be several
   times steady state) from single-handedly pricing the first stretch. *)
let basis s =
  match s.f_after with
  | None -> s.f_basis
  | Some a ->
      let n = Array.length s.f_basis.m_instrs in
      {
        m_cycles = s.f_basis.m_cycles + a.m_cycles;
        m_instrs =
          Array.init n (fun i ->
              s.f_basis.m_instrs.(i)
              + if Array.length a.m_instrs > i then a.m_instrs.(i) else 0);
        m_stalls =
          (if Array.length s.f_basis.m_stalls = 0 then [||]
           else
             Array.init n (fun i ->
                 Array.mapi
                   (fun c v ->
                     v
                     +
                     if Array.length a.m_stalls > i then a.m_stalls.(i).(c)
                     else 0)
                   s.f_basis.m_stalls.(i)));
      }

(* Tiles run in parallel, so a stretch's cycle estimate is the slowest
   tile's [skipped / ipc] under the pooled basis; stall attribution scales
   each tile's pooled per-cause counts by the same ratio. *)
let stretch_cycles ?basis:b s =
  let m = match b with Some m -> m | None -> basis s in
  let mc = float_of_int m.m_cycles in
  let best = ref 0.0 in
  let any = ref false in
  Array.iteri
    (fun i skipped ->
      if skipped > 0 && m.m_instrs.(i) > 0 then begin
        any := true;
        let est = float_of_int skipped *. mc /. float_of_int m.m_instrs.(i) in
        if est > !best then best := est
      end)
    s.f_instrs;
  if !any then !best
  else begin
    (* No per-tile basis (measured tiles differ from skipped tiles): fall
       back to the aggregate IPC of the interval, then to IPC 1. *)
    let ti = Array.fold_left ( + ) 0 m.m_instrs in
    let tf = Array.fold_left ( + ) 0 s.f_instrs in
    if ti > 0 then float_of_int tf *. mc /. float_of_int ti else float_of_int tf
  end

let finish d ~cycle =
  (* The tail after the last stretch ran detailed but may never have
     closed as a measurement (exhaustion, or end of trace mid-interval);
     it is still that stretch's far-side bracket. *)
  (match d.stretches with
  | s :: _ when s.f_after = None && d.phase = Measure ->
      (* Only in Measure is [meas_*] fresh — ending inside a drain or a
         warmup would pool fast-forwarded instructions into the basis. *)
      let m = close_measurement d ~cycle in
      if m.m_cycles > 0 && Array.fold_left ( + ) 0 m.m_instrs > 0 then
        s.f_after <- Some m
  | _ -> ());
  let extra =
    List.fold_left (fun acc s -> acc +. stretch_cycles s) 0.0 d.stretches
  in
  let est_stalls =
    if not d.profiled then [||]
    else begin
      let n = Array.length d.cores in
      let acc = Array.make Stall.ncauses 0.0 in
      for i = 0 to n - 1 do
        let counts = Profile.counts d.profiles.(i) in
        Array.iteri (fun c v -> acc.(c) <- acc.(c) +. float_of_int v) counts
      done;
      List.iter
        (fun s ->
          let m = basis s in
          let est = stretch_cycles ~basis:m s in
          let mc = float_of_int m.m_cycles in
          if mc > 0.0 then
            for i = 0 to n - 1 do
              if Array.length m.m_stalls > i then
                Array.iteri
                  (fun c v ->
                    acc.(c) <- acc.(c) +. (float_of_int v /. mc *. est))
                  m.m_stalls.(i)
            done)
        d.stretches;
      Array.map (fun v -> int_of_float (Float.round v)) acc
    end
  in
  {
    est_cycles = cycle + int_of_float (Float.round extra);
    detailed_cycles = cycle;
    detailed_instrs = total d - d.ff_total;
    ff_instrs = d.ff_total;
    periods = List.length d.stretches;
    degraded = d.degraded;
    est_stalls;
  }
