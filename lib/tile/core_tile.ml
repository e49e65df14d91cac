open Mosaic_ir
module Int_heap = Mosaic_util.Int_heap
module Trace = Mosaic_trace.Trace
module Ddg = Mosaic_compiler.Ddg
module Hierarchy = Mosaic_memory.Hierarchy
module Stall = Mosaic_obs.Stall

type accel_result = { finish_cycle : int; energy_pj : float }

type comm = {
  send :
    src:int -> dst:int -> chan:int -> cycle:int -> available:int -> bool;
  try_recv : tile:int -> chan:int -> cycle:int -> int;
  take_or_owe : tile:int -> chan:int -> bool;
  accel :
    tile:int -> kind:string -> params:Value.t array -> cycle:int ->
    accel_result;
  mem_access : tile:int -> cycle:int -> addr:int -> is_write:bool -> int;
}

type stats = {
  mutable completed_instrs : int;
  mutable finish_cycle : int;
  mutable energy_pj : float;
  mutable dbbs_launched : int;
  mutable mem_accesses : int;
  issued_by_class : int array;
  branch : Branch.stats;
}

(* Slot states. *)
let st_waiting = 0
let st_ready = 1
let st_issued = 2
let st_completed = 3

(* Op kind codes: the memory kinds are contiguous (1..5) and the two
   fire-and-forget ones, which free their LSQ entry when memory answers
   rather than at retirement, come last among them. *)
let k_other = 0
let k_load = 1
let k_store = 2
let k_atomic = 3
let k_load_send = 4
let k_store_recv = 5
let k_send = 6
let k_recv = 7
let k_accel = 8

let kind_of_op = function
  | Op.Load _ -> k_load
  | Op.Store _ -> k_store
  | Op.Atomic_rmw _ -> k_atomic
  | Op.Load_send _ -> k_load_send
  | Op.Store_recv _ -> k_store_recv
  | Op.Send _ -> k_send
  | Op.Recv _ -> k_recv
  | Op.Accel _ -> k_accel
  | _ -> k_other

let is_mem_kind k = k >= k_load && k <= k_store_recv

(* Static block templates: everything launching a DBB needs from the
   program, flattened once per tile. Static index [g] = [base.(bid) + k]
   for position [k] of block [bid]. Intra-block dependence edges live here
   as positions and are never materialised per launch; only cross-block
   last-writer links are dynamic. Per-instruction lists are compressed
   rows: row [g] is [data.(start.(g)) .. data.(start.(g + 1) - 1)]. *)
type templates = {
  base : int array;  (** per block: static index of position 0 *)
  len : int array;  (** per block: instruction count *)
  instr : Instr.t array;
  bid : int array;
  pos : int array;
  kind : int array;
  ci : int array;  (** [Tile_config.class_index] *)
  size : int array;  (** memory access size; -1 when not a memory op *)
  nparents : int array;  (** intra-block parent count, one per edge *)
  dep_start : int array;
  deps : int array;  (** intra-block dependents, as positions *)
  ext_start : int array;
  ext : int array;  (** registers read whose definition is outside the block *)
  longest : int;
}

let rows n f =
  let rows = Array.init n f in
  let start = Array.make (n + 1) 0 in
  Array.iteri (fun g r -> start.(g + 1) <- start.(g) + Array.length r) rows;
  (start, Array.concat (Array.to_list rows))

let build_templates (func : Func.t) (ddg : Ddg.t) =
  let blocks = func.Func.blocks in
  let per_block f = Array.concat (Array.to_list (Array.mapi f blocks)) in
  let len =
    Array.map (fun (b : Func.block) -> Array.length b.Func.instrs) blocks
  in
  let base = Array.make (Array.length blocks) 0 in
  for b = 1 to Array.length blocks - 1 do
    base.(b) <- base.(b - 1) + len.(b - 1)
  done;
  let instr = per_block (fun _ (b : Func.block) -> b.Func.instrs) in
  let n = Array.length instr in
  let g_of_id = Array.make (Stdlib.max func.Func.ninstrs 1) (-1) in
  Array.iteri (fun g (i : Instr.t) -> g_of_id.(i.Instr.id) <- g) instr;
  let pos = per_block (fun b _ -> Array.init len.(b) Fun.id) in
  let deps_of g = ddg.Ddg.deps.(instr.(g).Instr.id) in
  (* One dependent entry per intra edge, duplicates included, so parent
     counts and wake-ups match edge for edge. *)
  let dependents = Array.make n [] in
  for g = n - 1 downto 0 do
    Array.iter
      (fun pid ->
        let pg = g_of_id.(pid) in
        if pg >= g then invalid_arg "Core_tile: forward intra-block dependence";
        dependents.(pg) <- pos.(g) :: dependents.(pg))
      (deps_of g).Ddg.intra
  done;
  let dep_start, deps = rows n (fun g -> Array.of_list dependents.(g)) in
  let ext_start, ext = rows n (fun g -> (deps_of g).Ddg.extern_regs) in
  let op f = Array.map (fun (i : Instr.t) -> f i.Instr.op) instr in
  {
    base;
    len;
    instr;
    bid = per_block (fun b _ -> Array.make len.(b) b);
    pos;
    kind = op kind_of_op;
    ci = op (fun o -> Tile_config.class_index (Op.classify o));
    size = op (fun o -> match Op.mem_size o with Some s -> s | None -> -1);
    nparents = Array.init n (fun g -> Array.length (deps_of g).Ddg.intra);
    dep_start;
    deps;
    ext_start;
    ext;
    longest = Array.fold_left Stdlib.max 1 len;
  }

(* In-flight state. Every dynamic instruction has a sequence number [seq]
   and lives in ring slot [seq land mask] from launch until retirement;
   the ring is sized so the window ([window_start], [next_seq]) always
   fits, so a slot is reused only after its previous occupant retired.
   Launching, waking, issuing and retiring therefore touch preallocated
   int arrays only. *)
type t = {
  id : int;
  cfg : Tile_config.t;
  tpl : templates;
  cursor : Trace.Cursor.cursor;
  hier : Hierarchy.t;
  comm : comm;
  mask : int;  (** ring size - 1; also masks the DBB ring *)
  r_g : int array;  (** static index of the slot's instruction *)
  r_state : int array;
  r_parents : int array;  (** parents not yet completed *)
  r_addr : int array;  (** -1 when not a memory op *)
  r_accel : Value.t array array;  (** written for accelerator calls only *)
  r_send_dst : int array;  (** destination tile of a send, from the trace *)
  r_dbb : int array;  (** owning DBB's sequence number *)
  r_deps : int array;  (** head of the cross-block dependents list, -1 none *)
  (* Cross-block dependents: singly linked int lists in a pool with a free
     list. Intra-block dependents come from the templates instead. *)
  mutable e_target : int array;
  mutable e_next : int array;
  mutable e_free : int;
  d_bid : int array;  (** DBB ring, indexed by DBB seq land mask *)
  d_incomplete : int array;
  mutable window_start : int;
      (** oldest unretired seq; everything below it has completed *)
  mutable next_seq : int;
  mutable next_issue : int;  (** in-order: oldest unissued seq *)
  mutable ready_arr : int array;
      (** out-of-order ready seqs, sorted and scanned in place (a heap
          would pop and re-push every blocked entry every cycle) *)
  mutable ready_len : int;
  mutable stash : int array;
      (** seqs that became ready since the last issue scan; sorted and
          merged into [ready_arr] at the top of the next scan *)
  mutable stash_len : int;
  events : Int_heap.t;
      (** completion cycle -> seq; ties pop in issue order *)
  mao : Mao.t;
  mao_release : Int_heap.t;
      (** deferred LSQ frees for fire-and-forget memory ops: the core
          retires them immediately but the entry pins the LSQ until the
          access completes in memory *)
  last_writer : int array;  (** per register: writer seq, -1 for none *)
  fu_busy : int array;
  fu_limit_ci : int array;  (** dense per-class cost tables, see below *)
  latency_ci : int array;
  energy_ci : float array;
  energy : float array;
      (** one-cell unboxed accumulator behind [stats.energy_pj], which as a
          mutable float in a mixed record would box on every completion *)
  mutable live_dbbs : int;
  live_per_bb : int array;
  (* The last launched terminator, kept past its retirement for the
     control gate: seq (-1 for none), static index and completion cycle
     (-1 until it completes). *)
  mutable lt_seq : int;
  mutable lt_g : int;
  mutable lt_complete : int;
  predictor : Predictor.t option;
  mutable pending_mispredict : bool;
  mutable launch_enabled : bool;
      (** cleared while the sampling driver drains the pipeline to a
          snapshot-able quiescent point; never part of a snapshot *)
  mutable trace_done : bool;
  mutable done_ : bool;
  stats : stats;
  sink : Mosaic_obs.Sink.t;
  lat_hist : Mosaic_obs.Metrics.histogram option;
      (** live memory-completion-latency histogram, when observability is on *)
  prof : Profile.t;
      (** cycle-accounting store; [Profile.null] when not profiling *)
}

let fresh_stats () =
  {
    completed_instrs = 0;
    finish_cycle = -1;
    energy_pj = 0.0;
    dbbs_launched = 0;
    mem_accesses = 0;
    issued_by_class = Array.make Tile_config.nclasses 0;
    branch = Branch.fresh_stats ();
  }

(* The window holds fewer than [window_size] instructions before a launch,
   which adds at most one block. *)
let ring_size cfg tpl =
  let need = Stdlib.max 1 cfg.Tile_config.window_size + tpl.longest in
  let n = ref 1 in
  while !n < need do n := !n * 2 done;
  !n

let create ?(sink = Mosaic_obs.Sink.null) ?lat_hist ?(profile = Profile.null)
    ~id ~config ~func ~ddg ~tile_trace ~hierarchy ~comm () =
  if ddg.Ddg.func != func then
    invalid_arg "Core_tile.create: DDG built for a different function";
  let tpl = build_templates func ddg in
  let size = ring_size config tpl in
  {
    id;
    cfg = config;
    tpl;
    cursor = Trace.Cursor.create tile_trace;
    hier = hierarchy;
    comm;
    mask = size - 1;
    r_g = Array.make size 0;
    r_state = Array.make size st_completed;
    r_parents = Array.make size 0;
    r_addr = Array.make size (-1);
    r_accel = Array.make size [||];
    r_send_dst = Array.make size (-1);
    r_dbb = Array.make size 0;
    r_deps = Array.make size (-1);
    e_target = [||];
    e_next = [||];
    e_free = -1;
    d_bid = Array.make size 0;
    d_incomplete = Array.make size 0;
    window_start = 0;
    next_seq = 0;
    next_issue = 0;
    ready_arr = Array.make 8 0;
    ready_len = 0;
    stash = Array.make 8 0;
    stash_len = 0;
    events = Int_heap.create ();
    mao =
      Mao.create ~capacity:config.Tile_config.lsq_size
        ~perfect_alias:config.Tile_config.perfect_alias;
    mao_release = Int_heap.create ();
    last_writer = Array.make (Stdlib.max func.Func.nregs 1) (-1);
    fu_busy = Array.make Tile_config.nclasses 0;
    (* The issue path consults these once per issue attempt; compiling
       the config's association lists into dense arrays here keeps those
       lookups allocation-free and O(1). *)
    fu_limit_ci = Tile_config.fu_limit_table config;
    latency_ci = Tile_config.latency_table config;
    energy_ci = Tile_config.energy_table config;
    energy = [| 0.0 |];
    live_dbbs = 0;
    live_per_bb = Array.make (Array.length func.Func.blocks) 0;
    lt_seq = -1;
    lt_g = 0;
    lt_complete = -1;
    predictor =
      (match config.Tile_config.branch with
      | Branch.Dynamic { kind; _ } -> Some (Predictor.create kind)
      | _ -> None);
    pending_mispredict = false;
    launch_enabled = true;
    trace_done = false;
    done_ = false;
    stats = fresh_stats ();
    sink;
    lat_hist;
    prof = profile;
  }

let id t = t.id
let config t = t.cfg

let stats t =
  t.stats.energy_pj <- t.energy.(0);
  t.stats

let completed_instrs t = t.stats.completed_instrs

let profile t = t.prof
let finished t = t.done_
let mao_stalls t = Mao.stalls t.mao

let ipc t =
  if t.stats.finish_cycle <= 0 then 0.0
  else float_of_int t.stats.completed_instrs /. float_of_int t.stats.finish_cycle

let is_mem_g t g = t.tpl.size.(g) >= 0

let push_stash t seq =
  if t.stash_len = Array.length t.stash then begin
    let grown = Array.make (2 * t.stash_len) 0 in
    Array.blit t.stash 0 grown 0 t.stash_len;
    t.stash <- grown
  end;
  t.stash.(t.stash_len) <- seq;
  t.stash_len <- t.stash_len + 1

let mark_ready t seq =
  let s = seq land t.mask in
  t.r_state.(s) <- st_ready;
  if is_mem_g t t.r_g.(s) then Mao.resolve t.mao ~seq;
  if not t.cfg.Tile_config.in_order then push_stash t seq

(* One completed parent of [seq]. *)
let wake t seq =
  let s = seq land t.mask in
  let left = t.r_parents.(s) - 1 in
  t.r_parents.(s) <- left;
  if left = 0 && t.r_state.(s) = st_waiting then mark_ready t seq

(* --- Completion --- *)

let complete_node t seq ~cycle =
  let s = seq land t.mask in
  let g = t.r_g.(s) in
  let tpl = t.tpl in
  t.r_state.(s) <- st_completed;
  if seq = t.lt_seq then t.lt_complete <- cycle;
  if Mosaic_obs.Sink.enabled t.sink then
    Mosaic_obs.Sink.emit t.sink ~cycle
      (Mosaic_obs.Event.Instr_retire { tile = t.id; seq });
  t.stats.completed_instrs <- t.stats.completed_instrs + 1;
  t.energy.(0) <- t.energy.(0) +. t.energy_ci.(tpl.ci.(g));
  (* Fire-and-forget ops free their MAO entry when memory completes, not
     when the core retires them. *)
  let k = tpl.kind.(g) in
  if is_mem_kind k && k < k_load_send then Mao.complete t.mao ~seq;
  let d = t.r_dbb.(s) land t.mask in
  let left = t.d_incomplete.(d) - 1 in
  t.d_incomplete.(d) <- left;
  if left = 0 then begin
    t.live_dbbs <- t.live_dbbs - 1;
    t.live_per_bb.(t.d_bid.(d)) <- t.live_per_bb.(t.d_bid.(d)) - 1
  end;
  let first = seq - tpl.pos.(g) in
  for i = tpl.dep_start.(g) to tpl.dep_start.(g + 1) - 1 do
    wake t (first + tpl.deps.(i))
  done;
  let e = ref t.r_deps.(s) in
  while !e >= 0 do
    let cur = !e in
    wake t t.e_target.(cur);
    e := t.e_next.(cur);
    t.e_next.(cur) <- t.e_free;
    t.e_free <- cur
  done;
  t.r_deps.(s) <- -1;
  (* Retire: advance the window past the completed prefix. *)
  while
    t.window_start < t.next_seq
    && t.r_state.(t.window_start land t.mask) = st_completed
  do
    t.window_start <- t.window_start + 1
  done

(* Returns whether anything matured: the scheduler must not skip cycles
   where a completion (or deferred LSQ free) changes tile state. *)
let process_events t ~cycle =
  let progressed = ref false in
  while
    (not (Int_heap.is_empty t.mao_release))
    && Int_heap.min_prio t.mao_release <= cycle
  do
    Mao.complete t.mao ~seq:(Int_heap.min_value t.mao_release);
    Int_heap.drop_min t.mao_release;
    progressed := true
  done;
  while
    (not (Int_heap.is_empty t.events)) && Int_heap.min_prio t.events <= cycle
  do
    let c = Int_heap.min_prio t.events and seq = Int_heap.min_value t.events in
    Int_heap.drop_min t.events;
    complete_node t seq ~cycle:c;
    progressed := true
  done;
  !progressed

(* --- DBB launching --- *)

(* Called with the free list empty: the new entries become the list. *)
let grow_edges t =
  let n = Array.length t.e_target in
  let m = Stdlib.max 64 (2 * n) in
  let target = Array.make m 0 in
  let next = Array.init m (fun e -> if e + 1 < m then e + 1 else -1) in
  Array.blit t.e_target 0 target 0 n;
  Array.blit t.e_next 0 next 0 n;
  t.e_target <- target;
  t.e_next <- next;
  t.e_free <- n

(* Prepend [seq] to the cross-block dependents of ring slot [s]. *)
let push_dependent t s seq =
  if t.e_free < 0 then grow_edges t;
  let e = t.e_free in
  t.e_free <- t.e_next.(e);
  t.e_target.(e) <- seq;
  t.e_next.(e) <- t.r_deps.(s);
  t.r_deps.(s) <- e

(* Record cross-block parent [p] of [seq] unless it already completed. *)
let add_extern_parent t seq p =
  let ps = p land t.mask in
  if p >= t.window_start && t.r_state.(ps) <> st_completed then begin
    let s = seq land t.mask in
    t.r_parents.(s) <- t.r_parents.(s) + 1;
    push_dependent t ps seq
  end

let launch_dbb t bid =
  let tpl = t.tpl in
  let base = tpl.base.(bid) and n_instrs = tpl.len.(bid) in
  let dseq = t.stats.dbbs_launched in
  let d = dseq land t.mask in
  t.d_bid.(d) <- bid;
  t.d_incomplete.(d) <- n_instrs;
  t.stats.dbbs_launched <- dseq + 1;
  t.live_dbbs <- t.live_dbbs + 1;
  t.live_per_bb.(bid) <- t.live_per_bb.(bid) + 1;
  let first = t.next_seq in
  (* Claim the block's seqs up front; slots are initialised in program
     order below, so a node is wired before any younger one reads the
     last-writer map. *)
  t.next_seq <- first + n_instrs;
  for k = 0 to n_instrs - 1 do
    let g = base + k in
    let seq = first + k in
    let s = seq land t.mask in
    t.r_g.(s) <- g;
    t.r_state.(s) <- st_waiting;
    t.r_parents.(s) <- tpl.nparents.(g);
    t.r_deps.(s) <- -1;
    t.r_dbb.(s) <- dseq;
    t.r_addr.(s) <- -1;
    t.r_send_dst.(s) <- -1;
    for ri = tpl.ext_start.(g) to tpl.ext_start.(g + 1) - 1 do
      let p = t.last_writer.(tpl.ext.(ri)) in
      if p >= 0 then add_extern_parent t seq p
    done;
    (* Memory nodes take their address from the trace and enter the MAO
       in program order. *)
    let instr = tpl.instr.(g) in
    let instr_id = instr.Instr.id in
    let kind = tpl.kind.(g) in
    let size = tpl.size.(g) in
    if size >= 0 then begin
      let addr = Trace.Cursor.next_addr t.cursor ~instr_id in
      t.r_addr.(s) <- addr;
      let load = kind = k_load || kind = k_load_send in
      Mao.insert t.mao ~seq ~addr ~size
        ~kind:(if load then Mao.K_load else Mao.K_store)
    end;
    if kind = k_accel then
      t.r_accel.(s) <- Trace.Cursor.next_accel_params t.cursor ~instr_id
    else if kind = k_send || kind = k_load_send then
      t.r_send_dst.(s) <- Trace.Cursor.next_send_dst t.cursor ~instr_id;
    (match instr.Instr.dst with
    | Some d -> t.last_writer.(d) <- seq
    | None -> ());
    if t.r_parents.(s) = 0 then mark_ready t seq
  done;
  let tg = base + n_instrs - 1 in
  let term = tpl.instr.(tg) in
  if Op.is_terminator term.Instr.op then begin
    t.lt_seq <- first + n_instrs - 1;
    t.lt_g <- tg;
    t.lt_complete <- -1;
    (* A dynamic predictor guesses (and trains on) the next block at
       fetch; the verdict is stable until that block launches. *)
    match t.predictor with
    | Some pred ->
        let actual = Trace.Cursor.peek_block_id t.cursor 0 in
        if actual >= 0 then begin
          let predicted =
            Predictor.predict pred ~branch_id:term.Instr.id term
          in
          Predictor.train pred ~branch_id:term.Instr.id term ~actual;
          t.pending_mispredict <-
            (match predicted with Some b -> b <> actual | None -> true)
        end
        else t.pending_mispredict <- false
    | None -> t.pending_mispredict <- false
  end
  else t.lt_seq <- -1

(* Whether the next DBB may launch now, as an int code — the gate runs for
   every launch attempt and every next-event probe, so the old polymorphic
   variant result (`Launch carrying its payload) allocated on each call. *)
let gate_wait = 0
let gate_first = 1 (* ungated: no prior terminator *)
let gate_predicted = 2
let gate_mispredicted = 3

let control_gate t ~cycle ~next_bid =
  if t.lt_seq < 0 then gate_first
  else
    let resolved = t.lt_complete >= 0 in
    match t.cfg.Tile_config.branch with
    | Branch.Perfect -> gate_predicted
    | Branch.No_speculation -> if resolved then gate_predicted else gate_wait
    | Branch.Dynamic { penalty; _ } ->
        if not t.pending_mispredict then gate_predicted
        else if resolved && cycle >= t.lt_complete + penalty then
          gate_mispredicted
        else gate_wait
    | Branch.Static { penalty } ->
        let predicted =
          Branch.predict_id ~policy:t.cfg.Tile_config.branch
            ~bid:t.tpl.bid.(t.lt_g) t.tpl.instr.(t.lt_g)
        in
        if predicted >= 0 && predicted = next_bid then gate_predicted
          (* Mispredicted (or unpredictable): wait for resolution plus
             the misprediction penalty. *)
        else if resolved && cycle >= t.lt_complete + penalty then
          gate_mispredicted
        else gate_wait

let try_launches t ~cycle =
  let launched = ref 0 in
  let continue = ref true in
  while !continue && !launched < t.cfg.Tile_config.fetch_per_cycle do
    let next_bid = Trace.Cursor.peek_block_id t.cursor 0 in
    if next_bid < 0 then begin
      t.trace_done <- true;
      continue := false
    end
    else begin
      let live_ok =
        (match t.cfg.Tile_config.live_dbb_limit with
        | Some limit -> t.live_per_bb.(next_bid) < limit
        | None -> true)
        && t.live_dbbs < t.cfg.Tile_config.max_live_dbbs
        && t.next_seq - t.window_start < t.cfg.Tile_config.window_size
      in
      if not live_ok then continue := false
      else begin
        let gate = control_gate t ~cycle ~next_bid in
        if gate = gate_wait then continue := false
        else begin
          if gate = gate_predicted || gate = gate_mispredicted then
            t.stats.branch.Branch.predictions <-
              t.stats.branch.Branch.predictions + 1;
          if gate = gate_mispredicted then
            t.stats.branch.Branch.mispredictions <-
              t.stats.branch.Branch.mispredictions + 1;
          ignore (Trace.Cursor.next_block_id t.cursor);
          launch_dbb t next_bid;
          incr launched
        end
      end
    end
  done;
  !launched > 0

(* --- Issue --- *)

let fixed_completion ~cycle ~div lat = cycle + Stdlib.max 1 (lat * div)

(* Profiler hook for issue-scan failures; [blocked] doubles as the -1
   "cannot issue" completion code so the failure paths below stay
   one-liners. *)
let note_fail t g cause =
  if t.prof.Profile.enabled then
    Profile.note_fail t.prof ~cause ~iid:t.tpl.instr.(g).Instr.id
      ~bid:t.tpl.bid.(g)

let blocked t g cause =
  note_fail t g cause;
  -1

(* Attempt to issue [seq] at [cycle]; true on success. *)
(* Functional units are pipelined: the limit is per-cycle issue
   throughput, tracked in [fu_busy] which resets every cycle.

   The completion cycle flows as a plain int with -1 for "cannot issue" —
   this path runs once per instruction, so an option per attempt would be
   a steady allocation drip. *)
let try_issue t seq ~cycle =
  let s = seq land t.mask in
  let g = t.r_g.(s) in
  let ci = t.tpl.ci.(g) in
  if t.fu_busy.(ci) >= t.fu_limit_ci.(ci) then begin
    note_fail t g Stall.Structural;
    false
  end
  else begin
    let div = t.cfg.Tile_config.clock_divider in
    let addr = t.r_addr.(s) in
    let completion =
      match t.tpl.instr.(g).Instr.op with
      | Op.Load _ ->
          if Mao.can_issue t.mao ~seq then begin
            t.stats.mem_accesses <- t.stats.mem_accesses + 1;
            t.comm.mem_access ~tile:t.id ~cycle ~addr ~is_write:false
          end
          else blocked t g Stall.Mao
      | Op.Store _ ->
          if Mao.can_issue t.mao ~seq then begin
            t.stats.mem_accesses <- t.stats.mem_accesses + 1;
            t.comm.mem_access ~tile:t.id ~cycle ~addr ~is_write:true
          end
          else blocked t g Stall.Mao
      | Op.Atomic_rmw _ ->
          if Mao.can_issue t.mao ~seq then begin
            t.stats.mem_accesses <- t.stats.mem_accesses + 1;
            let base =
              t.comm.mem_access ~tile:t.id ~cycle ~addr ~is_write:true
            in
            base + t.cfg.Tile_config.atomic_extra_latency
          end
          else blocked t g Stall.Mao
      | Op.Send chan ->
          if
            t.comm.send ~src:t.id ~dst:t.r_send_dst.(s) ~chan ~cycle
              ~available:cycle
          then fixed_completion ~cycle ~div t.cfg.Tile_config.comm_latency
          else blocked t g Stall.Supply
      | Op.Load_send (chan, _) ->
          (* Terminal load: needs an MAO slot, a buffer slot and a free
             miss slot; the core moves on while memory fills the message
             in. *)
          if Mao.can_issue t.mao ~seq then
            if Hierarchy.can_accept t.hier ~tile:t.id ~cycle then begin
              let completion =
                t.comm.mem_access ~tile:t.id ~cycle ~addr ~is_write:false
              in
              if
                t.comm.send ~src:t.id ~dst:t.r_send_dst.(s) ~chan ~cycle
                  ~available:completion
              then begin
                t.stats.mem_accesses <- t.stats.mem_accesses + 1;
                (* The core retires the push at once; the LSQ entry drains
                   when memory answers. *)
                Int_heap.push t.mao_release ~prio:completion seq;
                fixed_completion ~cycle ~div 1
              end
              else blocked t g Stall.Supply
            end
            else blocked t g Stall.Memory
          else blocked t g Stall.Mao
      | Op.Recv chan ->
          let c = t.comm.try_recv ~tile:t.id ~chan ~cycle in
          if c >= 0 then c else blocked t g Stall.Supply
      | Op.Store_recv (chan, _, rmw) ->
          (* Retire into the store value buffer: commit the channel slot,
             charge the memory write, and move on. Gated on a free miss
             slot so drains respect memory bandwidth. *)
          if Mao.can_issue t.mao ~seq then
            if Hierarchy.can_accept t.hier ~tile:t.id ~cycle then
              if t.comm.take_or_owe ~tile:t.id ~chan then begin
                t.stats.mem_accesses <- t.stats.mem_accesses + 1;
                let completion =
                  t.comm.mem_access ~tile:t.id ~cycle ~addr ~is_write:true
                in
                Int_heap.push t.mao_release ~prio:completion seq;
                fixed_completion ~cycle ~div
                  (match rmw with Some _ -> 2 | None -> 1)
              end
              else blocked t g Stall.Supply
            else blocked t g Stall.Memory
          else blocked t g Stall.Mao
      | Op.Accel kind ->
          let r =
            t.comm.accel ~tile:t.id ~kind ~params:t.r_accel.(s) ~cycle
          in
          t.energy.(0) <- t.energy.(0) +. r.energy_pj;
          Stdlib.max (cycle + 1) r.finish_cycle
      | _ -> fixed_completion ~cycle ~div t.latency_ci.(ci)
    in
    if completion < 0 then false
    else begin
      let c = completion in
      t.r_state.(s) <- st_issued;
      if Mosaic_obs.Sink.enabled t.sink then
        Mosaic_obs.Sink.emit t.sink ~cycle
          (Mosaic_obs.Event.Instr_issue
             {
               tile = t.id;
               seq;
               cls = Op.class_to_string (Op.classify t.tpl.instr.(g).Instr.op);
             });
      (match t.lat_hist with
      | Some h when is_mem_g t g ->
          Mosaic_obs.Metrics.observe h (float_of_int (c - cycle))
      | _ -> ());
      t.fu_busy.(ci) <- t.fu_busy.(ci) + 1;
      t.stats.issued_by_class.(ci) <- t.stats.issued_by_class.(ci) + 1;
      Int_heap.push t.events ~prio:(Stdlib.max (cycle + 1) c) seq;
      true
    end
  end

(* Fold the seqs that became ready since the last scan into the sorted
   ready list: insertion-sort the (typically tiny) batch, then a single
   back-to-front in-place merge. *)
let merge_new_ready t =
  if t.stash_len > 0 then begin
    for i = 1 to t.stash_len - 1 do
      let n = t.stash.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && t.stash.(!j) > n do
        t.stash.(!j + 1) <- t.stash.(!j);
        decr j
      done;
      t.stash.(!j + 1) <- n
    done;
    let total = t.ready_len + t.stash_len in
    if total > Array.length t.ready_arr then begin
      let cap = ref (Array.length t.ready_arr) in
      while !cap < total do cap := !cap * 2 done;
      let grown = Array.make !cap 0 in
      Array.blit t.ready_arr 0 grown 0 t.ready_len;
      t.ready_arr <- grown
    end;
    let i = ref (t.ready_len - 1) in
    let j = ref (t.stash_len - 1) in
    let k = ref (total - 1) in
    while !j >= 0 do
      if !i >= 0 && t.ready_arr.(!i) > t.stash.(!j) then begin
        t.ready_arr.(!k) <- t.ready_arr.(!i);
        decr i
      end
      else begin
        t.ready_arr.(!k) <- t.stash.(!j);
        decr j
      end;
      decr k
    done;
    t.ready_len <- total;
    t.stash_len <- 0
  end

let issue_out_of_order t ~cycle =
  merge_new_ready t;
  let budget = ref t.cfg.Tile_config.issue_width in
  let window_end = t.window_start + t.cfg.Tile_config.window_size in
  let scans = ref 0 in
  (* Scan the whole window's worth of ready nodes in seq order: blocked
     older entries must not starve issuable younger ones. Issued nodes are
     squeezed out in place as the scan advances; blocked ones stay put. *)
  let scan_budget = Stdlib.min 256 t.cfg.Tile_config.window_size in
  let r = ref 0 in
  let w = ref 0 in
  let continue = ref true in
  while !continue && !r < t.ready_len && !budget > 0 && !scans < scan_budget do
    let seq = t.ready_arr.(!r) in
    incr scans;
    if seq >= window_end then begin
      (* Ordered by seq: nothing further fits the window either. *)
      note_fail t t.r_g.(seq land t.mask) Stall.Structural;
      continue := false
    end
    else begin
      incr r;
      if try_issue t seq ~cycle then decr budget
      else begin
        if !w < !r - 1 then t.ready_arr.(!w) <- seq;
        incr w
      end
    end
  done;
  if !w < !r then begin
    let tail = t.ready_len - !r in
    if tail > 0 then Array.blit t.ready_arr !r t.ready_arr !w tail;
    t.ready_len <- !w + tail
  end;
  t.cfg.Tile_config.issue_width - !budget

let issue_in_order t ~cycle =
  let budget = ref t.cfg.Tile_config.issue_width in
  let window_end = t.window_start + t.cfg.Tile_config.window_size in
  let continue = ref true in
  while !continue && !budget > 0 do
    let seq = t.next_issue in
    if seq >= t.next_seq then continue := false
    else begin
      let s = seq land t.mask in
      if t.r_state.(s) <> st_ready then continue := false
      else if seq >= window_end then begin
        note_fail t t.r_g.(s) Stall.Structural;
        continue := false
      end
      else if try_issue t seq ~cycle then begin
        t.next_issue <- seq + 1;
        decr budget
      end
      else continue := false
    end
  done;
  t.cfg.Tile_config.issue_width - !budget

(* End-of-cycle attribution (profiling only). Priority when several
   conditions hold at once: finished > full-width busy > outstanding
   memory access at the window head (top-down style — an in-flight load
   at the head is what the whole window is draining behind, even when a
   younger candidate was also turned away this cycle) > first blocked
   issue candidate noted during the scan > dependency (head is an
   uncompleted non-memory producer) > branch redirect > idle. One cause
   per tile-cycle; see DESIGN.md "Cycle accounting". *)
let classify t ~issued =
  let p = t.prof in
  let tpl = t.tpl in
  let head_g = t.r_g.(t.window_start land t.mask) in
  let nonempty = t.window_start < t.next_seq in
  if t.done_ then Profile.book_cause p Stall.Finished
  else if issued >= t.cfg.Tile_config.issue_width then
    Profile.book_cause p Stall.Busy
  else if
    nonempty
    && t.r_state.(t.window_start land t.mask) = st_issued
    && is_mem_g t head_g
  then
    Profile.book p ~cause:Stall.Memory ~iid:tpl.instr.(head_g).Instr.id
      ~bid:tpl.bid.(head_g)
  else if Profile.book_fail p then ()
  else if nonempty then
    (* Nothing ready and no candidate was turned away: the window head is
       an uncompleted producer somebody is waiting on. *)
    Profile.book p ~cause:Stall.Dependency ~iid:tpl.instr.(head_g).Instr.id
      ~bid:tpl.bid.(head_g)
  else if not t.trace_done then begin
    (* Empty pipeline with trace remaining: the control gate is closed
       (unresolved terminator or misprediction penalty). *)
    if t.lt_seq >= 0 then
      Profile.book p ~cause:Stall.Branch_redirect
        ~iid:tpl.instr.(t.lt_g).Instr.id
        ~bid:tpl.bid.(t.lt_g)
    else Profile.book_cause p Stall.Branch_redirect
  end
  else Profile.book_cause p Stall.Idle

let drained t = t.window_start = t.next_seq && Int_heap.is_empty t.events

let step t ~cycle =
  if t.done_ then begin
    if t.prof.Profile.enabled then Profile.book_cause t.prof Stall.Finished;
    false
  end
  else if cycle mod t.cfg.Tile_config.clock_divider = 0 then begin
    if t.prof.Profile.enabled then Profile.reset_scan t.prof;
    let progress = ref (process_events t ~cycle) in
    Array.fill t.fu_busy 0 (Array.length t.fu_busy) 0;
    if t.launch_enabled && try_launches t ~cycle then progress := true;
    let issued =
      if t.cfg.Tile_config.in_order then issue_in_order t ~cycle
      else issue_out_of_order t ~cycle
    in
    if issued > 0 then progress := true;

    if t.trace_done && drained t then begin
      t.done_ <- true;
      t.stats.finish_cycle <- cycle;
      progress := true
    end;
    if t.prof.Profile.enabled then classify t ~issued;
    !progress
  end
  else begin
    let progressed = process_events t ~cycle in
    (* Below the clock edge there is no launch/issue opportunity: re-book
       the last edge's attribution so every cycle is accounted. *)
    if t.prof.Profile.enabled then Profile.book_last t.prof;
    progressed
  end

(* --- Next-event view (event-driven cycle skipping) --- *)

let round_up_to ~div c = if div <= 1 then c else (c + div - 1) / div * div

(* Whether the tile holds work the issue stage would look at on its next
   clock edge: any ready node out of order, the oldest unissued node when
   in order. *)
let has_issue_candidate t =
  if t.cfg.Tile_config.in_order then
    t.next_issue < t.next_seq
    && t.r_state.(t.next_issue land t.mask) = st_ready
  else t.ready_len > 0 || t.stash_len > 0

(* The earliest cycle after [cycle] at which this tile's state can change
   by time alone, or [max_int] when only another component's progress can
   unblock it (a full destination buffer, an empty receive channel, a debt
   ceiling). The SoC scheduler consults this only on globally quiescent
   cycles — no tile processed an event, launched, issued, or retired — so a
   blocked tile is genuinely blocked and everything that can wake it is
   either queued here with a known cycle or will itself wake the system. *)
let next_event_cycle t ~cycle =
  if t.done_ then max_int
  else begin
    let div = t.cfg.Tile_config.clock_divider in
    let best = ref max_int in
    let add c = if c > cycle && c < !best then best := c in
    if not (Int_heap.is_empty t.events) then add (Int_heap.min_prio t.events);
    if not (Int_heap.is_empty t.mao_release) then
      add (Int_heap.min_prio t.mao_release);
    let next_edge = round_up_to ~div (cycle + 1) in
    if cycle mod div <> 0 then begin
      (* The tile had no launch/issue opportunity at [cycle], so failing to
         progress proves nothing: retry pending work at the next edge. *)
      if
        has_issue_candidate t
        || (t.launch_enabled && not t.trace_done)
        || t.window_start < t.next_seq
      then add next_edge
    end
    else begin
      (* The tile took a full step at [cycle] and did nothing, so its work
         is blocked; the only blockers that clear by time alone are the
         branch-misprediction penalty and MSHR miss bandwidth. *)
      if t.lt_seq >= 0 && t.lt_complete >= 0 then begin
        let next_bid = Trace.Cursor.peek_block_id t.cursor 0 in
        if next_bid >= 0 && control_gate t ~cycle ~next_bid = gate_wait
        then begin
          let penalty =
            match t.cfg.Tile_config.branch with
            | Branch.Dynamic { penalty; _ } | Branch.Static { penalty } ->
                penalty
            | Branch.Perfect | Branch.No_speculation -> 0
          in
          add (round_up_to ~div (t.lt_complete + penalty))
        end
      end;
      if
        has_issue_candidate t
        && not (Hierarchy.can_accept t.hier ~tile:t.id ~cycle)
      then
        match Hierarchy.next_accept t.hier ~tile:t.id ~cycle with
        | Some free -> add (round_up_to ~div free)
        | None -> ()
    end;
    (* A drained tile flips [done_] only at a clock edge; give it one even
       when no event remains to trigger a wake-up. *)
    if t.trace_done && drained t then add next_edge;
    !best
  end

(* --- Fast-forward support ---

   The sampling driver drains the pipeline (launching disabled, detailed
   stepping) to a quiescent point, then the functional executor replays
   trace blocks against the cursor directly. [ff_commit] absorbs the
   skipped work into the architectural counters and resets the
   cross-boundary frontier: register and control dependencies into the
   fast-forwarded region are dropped, which is the sampling approximation
   (the exact path never calls this). *)

let set_launch_enabled t v = t.launch_enabled <- v
let quiescent t = drained t && Int_heap.is_empty t.mao_release
let cursor t = t.cursor
let trace_done t = t.trace_done

let ff_observe_branch t (term : Instr.t) ~actual =
  match t.predictor with
  | Some p -> Predictor.observe p ~branch_id:term.Instr.id term ~actual
  | None -> ()

let ff_commit t ~instrs ~dbbs ~mem_accesses ~by_class ~accel_energy_pj =
  t.stats.completed_instrs <- t.stats.completed_instrs + instrs;
  t.stats.dbbs_launched <- t.stats.dbbs_launched + dbbs;
  t.stats.mem_accesses <- t.stats.mem_accesses + mem_accesses;
  let energy = ref accel_energy_pj in
  Array.iteri
    (fun ci k ->
      t.stats.issued_by_class.(ci) <- t.stats.issued_by_class.(ci) + k;
      energy := !energy +. (float_of_int k *. t.energy_ci.(ci)))
    by_class;
  t.energy.(0) <- t.energy.(0) +. !energy;
  Array.fill t.last_writer 0 (Array.length t.last_writer) (-1);
  t.lt_seq <- -1;
  t.pending_mispredict <- false

(* --- Snapshots ---

   The window [window_start, next_seq) is dumped slot by slot in seq
   order, with each slot's cross-block dependents in list order; slots
   below the window have completed and nothing reads them. Instruction
   identity is (DBB, position in block) — the static program and its
   templates are rebuilt from the workload on restore, never serialized. *)

type dbb_dump = { bd_seq : int; bd_bid : int; bd_incomplete : int }

type dump = {
  d_cursor : Trace.Cursor.dump;
  d_window_start : int;
  d_next_seq : int;
  d_next_issue : int;
  d_pos : int array;  (** per window slot: position within its block *)
  d_state : int array;
  d_parents : int array;
  d_addr : int array;
  d_accel_params : Value.t array array;  (** [||] except accelerator calls *)
  d_send_dst : int array;
  d_dbb : int array;  (** owning DBB's seq *)
  d_dependents : int array array;  (** cross-block dependents, list order *)
  d_dbbs : dbb_dump array;  (** the DBBs window slots belong to *)
  d_ready : int array;
  d_stash : int array;
  d_events : Int_heap.dump;
  d_mao : Mao.dump;
  d_mao_release : Int_heap.dump;
  d_last_writer : int array;  (** per register: writer seq or -1 *)
  d_fu_busy : int array;
  d_live_dbbs : int;
  d_live_per_bb : int array;
  d_last_term : int array;
      (** seq (-1 for none), block id, position, completion cycle *)
  d_predictor : Predictor.dump option;
  d_pending_mispredict : bool;
  d_trace_done : bool;
  d_done : bool;
  d_stats : int array;
      (** completed_instrs, finish_cycle, dbbs_launched, mem_accesses,
          branch predictions, branch mispredictions *)
  d_energy_pj : float;
  d_issued_by_class : int array;
  d_prof : Profile.dump;
  d_lat_hist : Mosaic_obs.Metrics.hist_dump option;
}

let dump t =
  let ws = t.window_start in
  let n = t.next_seq - ws in
  let slot i = (ws + i) land t.mask in
  let per f = Array.init n (fun i -> f (slot i)) in
  let dependents s =
    let rec collect e acc =
      if e < 0 then List.rev acc
      else collect t.e_next.(e) (t.e_target.(e) :: acc)
    in
    Array.of_list (collect t.r_deps.(s) [])
  in
  let dbbs =
    Array.to_list (per (fun s -> t.r_dbb.(s)))
    |> List.sort_uniq compare
    |> List.map (fun d ->
           {
             bd_seq = d;
             bd_bid = t.d_bid.(d land t.mask);
             bd_incomplete = t.d_incomplete.(d land t.mask);
           })
    |> Array.of_list
  in
  {
    d_cursor = Trace.Cursor.dump t.cursor;
    d_window_start = ws;
    d_next_seq = t.next_seq;
    d_next_issue = t.next_issue;
    d_pos = per (fun s -> t.tpl.pos.(t.r_g.(s)));
    d_state = per (fun s -> t.r_state.(s));
    d_parents = per (fun s -> t.r_parents.(s));
    d_addr = per (fun s -> t.r_addr.(s));
    d_accel_params =
      per (fun s ->
          if t.tpl.kind.(t.r_g.(s)) = k_accel then Array.copy t.r_accel.(s)
          else [||]);
    d_send_dst = per (fun s -> t.r_send_dst.(s));
    d_dbb = per (fun s -> t.r_dbb.(s));
    d_dependents = per dependents;
    d_dbbs = dbbs;
    d_ready = Array.sub t.ready_arr 0 t.ready_len;
    d_stash = Array.sub t.stash 0 t.stash_len;
    d_events = Int_heap.dump t.events;
    d_mao = Mao.dump t.mao;
    d_mao_release = Int_heap.dump t.mao_release;
    d_last_writer = Array.copy t.last_writer;
    d_fu_busy = Array.copy t.fu_busy;
    d_live_dbbs = t.live_dbbs;
    d_live_per_bb = Array.copy t.live_per_bb;
    d_last_term =
      (if t.lt_seq < 0 then [| -1; 0; 0; -1 |]
       else
         [| t.lt_seq; t.tpl.bid.(t.lt_g); t.tpl.pos.(t.lt_g); t.lt_complete |]);
    d_predictor = Option.map Predictor.dump t.predictor;
    d_pending_mispredict = t.pending_mispredict;
    d_trace_done = t.trace_done;
    d_done = t.done_;
    d_stats =
      [|
        t.stats.completed_instrs; t.stats.finish_cycle; t.stats.dbbs_launched;
        t.stats.mem_accesses; t.stats.branch.Branch.predictions;
        t.stats.branch.Branch.mispredictions;
      |];
    d_energy_pj = t.energy.(0);
    d_issued_by_class = Array.copy t.stats.issued_by_class;
    d_prof = Profile.dump t.prof;
    d_lat_hist = Option.map Mosaic_obs.Metrics.hist_dump t.lat_hist;
  }

let restore t d =
  let bad msg = invalid_arg ("Core_tile.restore: " ^ msg) in
  if Array.length d.d_last_writer <> Array.length t.last_writer then
    bad "register-file size mismatch";
  if Array.length d.d_live_per_bb <> Array.length t.live_per_bb then
    bad "block count mismatch";
  let ws = d.d_window_start in
  let n = d.d_next_seq - ws in
  if n < 0 || n > t.mask + 1 then bad "window does not fit the slot ring";
  List.iter
    (fun a ->
      if Array.length a <> n then bad "window arrays disagree in length")
    [ d.d_pos; d.d_state; d.d_parents; d.d_addr; d.d_send_dst; d.d_dbb ];
  if Array.length d.d_accel_params <> n || Array.length d.d_dependents <> n
  then bad "window arrays disagree in length";
  let in_window seq =
    if seq < ws || seq >= d.d_next_seq then
      bad (Printf.sprintf "seq %d outside the window" seq)
  in
  let nblocks = Array.length t.tpl.base in
  let template ~bid ~pos =
    if bid < 0 || bid >= nblocks || pos < 0 || pos >= t.tpl.len.(bid) then
      bad "instruction outside the program";
    t.tpl.base.(bid) + pos
  in
  Trace.Cursor.restore t.cursor d.d_cursor;
  let bids = Hashtbl.create 64 in
  Array.iter
    (fun b ->
      let x = b.bd_seq land t.mask in
      t.d_bid.(x) <- b.bd_bid;
      t.d_incomplete.(x) <- b.bd_incomplete;
      Hashtbl.replace bids b.bd_seq b.bd_bid)
    d.d_dbbs;
  (* A fresh edge pool; the window's lists are rebuilt below. *)
  t.e_target <- [||];
  t.e_next <- [||];
  t.e_free <- -1;
  t.window_start <- ws;
  t.next_seq <- d.d_next_seq;
  t.next_issue <- d.d_next_issue;
  for i = 0 to n - 1 do
    let s = (ws + i) land t.mask in
    let bid =
      match Hashtbl.find_opt bids d.d_dbb.(i) with
      | Some b -> b
      | None -> bad "slot references an unknown DBB"
    in
    t.r_g.(s) <- template ~bid ~pos:d.d_pos.(i);
    if d.d_state.(i) < st_waiting || d.d_state.(i) > st_completed then
      bad (Printf.sprintf "bad slot state code %d" d.d_state.(i));
    t.r_state.(s) <- d.d_state.(i);
    t.r_parents.(s) <- d.d_parents.(i);
    t.r_addr.(s) <- d.d_addr.(i);
    t.r_accel.(s) <- Array.copy d.d_accel_params.(i);
    t.r_send_dst.(s) <- d.d_send_dst.(i);
    t.r_dbb.(s) <- d.d_dbb.(i);
    t.r_deps.(s) <- -1;
    let deps = d.d_dependents.(i) in
    for j = Array.length deps - 1 downto 0 do
      in_window deps.(j);
      push_dependent t s deps.(j)
    done
  done;
  Array.iter in_window d.d_ready;
  Array.iter in_window d.d_stash;
  let with_room a = Array.append a (Array.make 8 0) in
  t.ready_arr <- with_room d.d_ready;
  t.ready_len <- Array.length d.d_ready;
  t.stash <- with_room d.d_stash;
  t.stash_len <- Array.length d.d_stash;
  Int_heap.restore t.events d.d_events;
  Mao.restore t.mao d.d_mao;
  Int_heap.restore t.mao_release d.d_mao_release;
  Array.blit d.d_last_writer 0 t.last_writer 0 (Array.length t.last_writer);
  Array.blit d.d_fu_busy 0 t.fu_busy 0 (Array.length t.fu_busy);
  t.live_dbbs <- d.d_live_dbbs;
  Array.blit d.d_live_per_bb 0 t.live_per_bb 0 (Array.length t.live_per_bb);
  (match d.d_last_term with
  | [| seq; bid; pos; complete |] ->
      t.lt_seq <- seq;
      t.lt_g <- (if seq < 0 then 0 else template ~bid ~pos);
      t.lt_complete <- complete
  | _ -> bad "malformed last terminator");
  (match (t.predictor, d.d_predictor) with
  | Some p, Some pd -> Predictor.restore p pd
  | None, None -> ()
  | _ -> bad "branch-predictor mismatch");
  t.pending_mispredict <- d.d_pending_mispredict;
  t.launch_enabled <- true;
  t.trace_done <- d.d_trace_done;
  t.done_ <- d.d_done;
  t.stats.completed_instrs <- d.d_stats.(0);
  t.stats.finish_cycle <- d.d_stats.(1);
  t.stats.dbbs_launched <- d.d_stats.(2);
  t.stats.mem_accesses <- d.d_stats.(3);
  t.stats.branch.Branch.predictions <- d.d_stats.(4);
  t.stats.branch.Branch.mispredictions <- d.d_stats.(5);
  t.energy.(0) <- d.d_energy_pj;
  Array.blit d.d_issued_by_class 0 t.stats.issued_by_class 0
    (Array.length t.stats.issued_by_class);
  Profile.restore t.prof d.d_prof;
  match (t.lat_hist, d.d_lat_hist) with
  | Some h, Some hd -> Mosaic_obs.Metrics.hist_restore h hd
  | None, None -> ()
  | _ -> bad "latency-histogram mismatch"
