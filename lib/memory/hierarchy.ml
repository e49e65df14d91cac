module Int_table = Mosaic_util.Int_table
module Int_vec = Mosaic_util.Int_vec

type dram_config =
  | Simple of Dram.simple_config
  | Detailed of Dram.detailed_config

type coherence_config = { directory_latency : int }

type config = {
  l1 : Cache.config;
  l2 : Cache.config option;
  llc : Cache.config option;
  dram : dram_config;
  coherence : coherence_config option;
}

type t = {
  cfg : config;
  ntiles : int;
  l1s : Cache.t array;
  l2s : Cache.t array;  (** empty when no private L2 *)
  llc : Cache.t option;
  chains : Cache.t array array;
      (** per tile, the levels a demand access walks, front to back —
          precomputed so the per-access path builds no lists *)
  shared_chain : Cache.t array;  (** the LLC alone (or empty) *)
  dram : Dram.t;
  (* directory state: per line, a sharer bitmask and the modifying tile *)
  sharers : Int_table.t;
  modified : Int_table.t;
  mutable inval_msgs : int;
  sink : Mosaic_obs.Sink.t;
}

let create ?(sink = Mosaic_obs.Sink.null) ~ntiles cfg =
  if ntiles <= 0 then invalid_arg "Hierarchy.create: ntiles must be positive";
  let mk name c = Cache.create ~name c in
  let l1s = Array.init ntiles (fun i -> mk (Printf.sprintf "l1.%d" i) cfg.l1) in
  let l2s =
    match cfg.l2 with
    | Some c -> Array.init ntiles (fun i -> mk (Printf.sprintf "l2.%d" i) c)
    | None -> [||]
  in
  let llc = Option.map (mk "llc") cfg.llc in
  let shared_chain = match llc with Some c -> [| c |] | None -> [||] in
  let chains =
    Array.init ntiles (fun i ->
        Array.concat
          [
            [| l1s.(i) |];
            (if Array.length l2s > 0 then [| l2s.(i) |] else [||]);
            shared_chain;
          ])
  in
  {
    cfg;
    ntiles;
    l1s;
    l2s;
    llc;
    chains;
    shared_chain;
    dram =
      (match cfg.dram with
      | Simple c -> Dram.simple ~sink c
      | Detailed c -> Dram.detailed ~sink c);
    sharers = Int_table.create ~initial_capacity:1024 ();
    modified = Int_table.create ~initial_capacity:256 ();
    inval_msgs = 0;
    sink;
  }

let emit_cache t ~cycle c outcome =
  if Mosaic_obs.Sink.enabled t.sink then
    Mosaic_obs.Sink.emit t.sink ~cycle
      (Mosaic_obs.Event.Cache_access { cache = Cache.name c; outcome })

let line_size t = t.cfg.l1.Cache.line_size

let ntiles t = t.ntiles

(* The per-access walkers below recurse over a precomputed [Cache.t array]
   plus a level index instead of consing a list per access. [i] past the
   end of the array means DRAM. *)

(* Push a dirty line toward DRAM: it lands in the next level (inclusive
   hierarchy), which may itself evict. *)
let rec writeback t caches i ~cycle ~addr =
  if i >= Array.length caches then
    ignore (Dram.access t.dram ~cycle ~addr Dram.Dram_write)
  else
    let c = caches.(i) in
    match Cache.lookup c ~addr ~is_write:true with
    | `Hit -> ()
    | `Miss -> (
        match Cache.fill c ~addr ~dirty:true with
        | `Dirty evicted -> writeback t caches (i + 1) ~cycle ~addr:evicted
        | `Clean _ | `None -> ())

(* Demand access walking the cache chain; [dirty_first] marks/installs the
   line dirty at the first level only (write-back). Returns the completion
   cycle. *)
let rec demand t caches i ~cycle ~addr ~dirty_first =
  if i >= Array.length caches then Dram.access t.dram ~cycle ~addr Dram.Dram_read
  else begin
    let c = caches.(i) in
    let lat = (Cache.config c).Cache.latency in
    let completion =
      match Cache.lookup c ~addr ~is_write:dirty_first with
      | `Hit ->
          emit_cache t ~cycle c Mosaic_obs.Event.Hit;
          let base = cycle + lat in
          (* A hit on a line whose fill is still in flight completes when
             the outstanding miss returns (MSHR coalescing). *)
          let ready = Cache.mshr_pending c ~addr ~cycle in
          if ready >= 0 then begin
            (Cache.stats c).Cache.mshr_merges <-
              (Cache.stats c).Cache.mshr_merges + 1;
            Stdlib.max base ready
          end
          else base
      | `Miss ->
          emit_cache t ~cycle c Mosaic_obs.Event.Miss;
          let start =
            if Cache.mshr_full c ~cycle then begin
              (Cache.stats c).Cache.mshr_stalls <-
                (Cache.stats c).Cache.mshr_stalls + 1;
              let ready = Cache.mshr_earliest c ~cycle in
              if ready >= 0 then ready else cycle
            end
            else cycle
          in
          let below =
            demand t caches (i + 1) ~cycle:(start + lat) ~addr
              ~dirty_first:false
          in
          (match Cache.fill c ~addr ~dirty:dirty_first with
          | `Dirty evicted ->
              emit_cache t ~cycle:below c Mosaic_obs.Event.Evict;
              emit_cache t ~cycle:below c Mosaic_obs.Event.Writeback;
              writeback t caches (i + 1) ~cycle:below ~addr:evicted
          | `Clean _ -> emit_cache t ~cycle:below c Mosaic_obs.Event.Evict
          | `None -> ());
          Cache.mshr_insert c ~addr ~ready:below;
          below
    in
    maybe_prefetch t c caches i ~cycle ~addr;
    completion
  end

and maybe_prefetch t c caches i ~cycle ~addr =
  match Cache.prefetcher c with
  | None -> ()
  | Some pf ->
      let lat = (Cache.config c).Cache.latency in
      let lines =
        Prefetcher.observe pf ~addr ~line_size:(Cache.config c).Cache.line_size
      in
      for k = 0 to Int_vec.length lines - 1 do
        let pa = Int_vec.get lines k in
        if
          (not (Cache.probe c ~addr:pa))
          && (not (Cache.mshr_full c ~cycle))
          && Cache.mshr_pending c ~addr:pa ~cycle < 0
        then begin
          (Cache.stats c).Cache.prefetches_issued <-
            (Cache.stats c).Cache.prefetches_issued + 1;
          let below =
            demand t caches (i + 1) ~cycle:(cycle + lat) ~addr:pa
              ~dirty_first:false
          in
          (match Cache.fill c ~addr:pa ~dirty:false with
          | `Dirty evicted -> writeback t caches (i + 1) ~cycle:below ~addr:evicted
          | `Clean _ | `None -> ());
          Cache.mshr_insert c ~addr:pa ~ready:below
        end
      done

(* Drop a line from another tile's private caches; its dirty data merges at
   the shared level (or DRAM), which the writeback path accounts. *)
let invalidate_private t other ~addr ~cycle =
  t.inval_msgs <- t.inval_msgs + 1;
  let dirty1 = Cache.invalidate t.l1s.(other) ~addr in
  let dirty2 =
    if Array.length t.l2s > 0 then Cache.invalidate t.l2s.(other) ~addr
    else `Absent
  in
  if dirty1 = `Dirty || dirty2 = `Dirty then
    writeback t t.shared_chain 0 ~cycle ~addr

let directory_penalty t ~tile ~cycle ~addr ~is_write =
  match t.cfg.coherence with
  | None -> 0
  | Some { directory_latency } when t.ntiles > 1 ->
      let line = addr / line_size t in
      let bit = 1 lsl tile in
      let sharer_mask = Int_table.find t.sharers line ~default:0 in
      let penalty = ref 0 in
      if is_write then begin
        let others = sharer_mask land lnot bit in
        if others <> 0 then begin
          penalty := directory_latency;
          for other = 0 to t.ntiles - 1 do
            if others land (1 lsl other) <> 0 then
              invalidate_private t other ~addr ~cycle
          done
        end;
        Int_table.set t.sharers line bit;
        Int_table.set t.modified line tile
      end
      else begin
        let owner = Int_table.find t.modified line ~default:(-1) in
        if owner >= 0 && owner <> tile then begin
          penalty := directory_latency;
          invalidate_private t owner ~addr ~cycle;
          Int_table.remove t.modified line
        end;
        Int_table.set t.sharers line (sharer_mask lor bit)
      end;
      !penalty
  | Some _ -> 0

let access t ~tile ~cycle ~addr ~is_write =
  if tile < 0 || tile >= t.ntiles then
    invalid_arg (Printf.sprintf "Hierarchy.access: bad tile %d" tile);
  let penalty = directory_penalty t ~tile ~cycle ~addr ~is_write in
  demand t t.chains.(tile) 0 ~cycle:(cycle + penalty) ~addr
    ~dirty_first:is_write

(* --- Fast-forward cache warming ---

   Mirror of the demand path's *architectural* effects — fills, LRU
   refreshes, dirty bits, directory sharers/owners and the invalidations
   they imply — with no timing, no MSHR traffic and no stats, so the
   demand counters keep measuring only detailed intervals. *)

let rec warm_writeback caches i ~addr =
  if i < Array.length caches then
    match Cache.warm caches.(i) ~addr ~is_write:true with
    | `Hit | `Filled `None | `Filled (`Clean _) -> ()
    | `Filled (`Dirty evicted) -> warm_writeback caches (i + 1) ~addr:evicted

let rec warm_chain caches i ~addr ~is_write =
  if i < Array.length caches then
    match
      Cache.warm caches.(i) ~addr ~is_write:(if i = 0 then is_write else false)
    with
    | `Hit -> ()
    | `Filled ev ->
        (match ev with
        | `Dirty evicted -> warm_writeback caches (i + 1) ~addr:evicted
        | `Clean _ | `None -> ());
        warm_chain caches (i + 1) ~addr ~is_write

(* Directory effects without latency accounting: lines dropped from other
   tiles' private caches merge their dirty data at the shared level. *)
let warm_drop_private t other ~addr =
  let merge = function
    | `Dirty -> warm_writeback t.shared_chain 0 ~addr
    | `Clean | `Absent -> ()
  in
  merge (Cache.drop t.l1s.(other) ~addr);
  if Array.length t.l2s > 0 then merge (Cache.drop t.l2s.(other) ~addr)

let warm_directory t ~tile ~addr ~is_write =
  match t.cfg.coherence with
  | Some _ when t.ntiles > 1 ->
      let line = addr / line_size t in
      let bit = 1 lsl tile in
      let sharer_mask = Int_table.find t.sharers line ~default:0 in
      if is_write then begin
        let others = sharer_mask land lnot bit in
        if others <> 0 then
          for other = 0 to t.ntiles - 1 do
            if others land (1 lsl other) <> 0 then
              warm_drop_private t other ~addr
          done;
        Int_table.set t.sharers line bit;
        Int_table.set t.modified line tile
      end
      else begin
        let owner = Int_table.find t.modified line ~default:(-1) in
        if owner >= 0 && owner <> tile then begin
          warm_drop_private t owner ~addr;
          Int_table.remove t.modified line
        end;
        Int_table.set t.sharers line (sharer_mask lor bit)
      end
  | _ -> ()

let warm t ~tile ~addr ~is_write =
  if tile < 0 || tile >= t.ntiles then
    invalid_arg (Printf.sprintf "Hierarchy.warm: bad tile %d" tile);
  warm_directory t ~tile ~addr ~is_write;
  warm_chain t.chains.(tile) 0 ~addr ~is_write

(* Sharded-execution support: an access whose line is already resident in
   the tile's L1 reads and writes only that tile's private state (tags,
   LRU, stats, MSHR merge bookkeeping), provided nothing can reach across
   tiles — no directory (coherence invalidates *other* tiles' private
   caches) and no L1 prefetcher (prefetches walk into shared levels even
   on a hit). Under those two conditions the sharded scheduler may run
   L1-hit accesses without global ordering: they commute with every
   shared-state operation. *)
let private_only_config t =
  t.cfg.coherence = None && t.cfg.l1.Cache.prefetch = None

let hits_private t ~tile ~addr =
  if tile < 0 || tile >= t.ntiles then
    invalid_arg (Printf.sprintf "Hierarchy.hits_private: bad tile %d" tile);
  Cache.probe t.l1s.(tile) ~addr

let can_accept t ~tile ~cycle =
  if tile < 0 || tile >= t.ntiles then
    invalid_arg (Printf.sprintf "Hierarchy.can_accept: bad tile %d" tile);
  not (Cache.mshr_full t.l1s.(tile) ~cycle)

let next_accept_cycle t ~tile ~cycle =
  if tile < 0 || tile >= t.ntiles then
    invalid_arg (Printf.sprintf "Hierarchy.next_accept: bad tile %d" tile);
  if not (Cache.mshr_full t.l1s.(tile) ~cycle) then -1
  else Cache.mshr_earliest t.l1s.(tile) ~cycle

let next_accept t ~tile ~cycle =
  let ready = next_accept_cycle t ~tile ~cycle in
  if ready >= 0 then Some ready else None

let dram_burst t ~cycle ~addr ~bytes ~is_write =
  if bytes <= 0 then cycle
  else begin
    let line = line_size t in
    let nlines = (bytes + line - 1) / line in
    let kind = if is_write then Dram.Dram_write else Dram.Dram_read in
    let completion = ref cycle in
    for i = 0 to nlines - 1 do
      completion :=
        Stdlib.max !completion
          (Dram.access t.dram ~cycle ~addr:(addr + (i * line)) kind)
    done;
    !completion
  end

let cache_stats t =
  let l1 = Array.to_list (Array.map (fun c -> (Cache.name c, Cache.stats c)) t.l1s) in
  let l2 = Array.to_list (Array.map (fun c -> (Cache.name c, Cache.stats c)) t.l2s) in
  let llc =
    match t.llc with Some c -> [ (Cache.name c, Cache.stats c) ] | None -> []
  in
  l1 @ l2 @ llc

let dram_stats t = Dram.stats t.dram

let coherence_invalidations t = t.inval_msgs

type totals = {
  l1_accesses : int;
  l2_accesses : int;
  llc_accesses : int;
  dram_lines : int;
}

let totals t =
  let sum arr = Array.fold_left (fun acc c -> acc + (Cache.stats c).Cache.accesses) 0 arr in
  {
    l1_accesses = sum t.l1s;
    l2_accesses = sum t.l2s;
    llc_accesses =
      (match t.llc with Some c -> (Cache.stats c).Cache.accesses | None -> 0);
    dram_lines =
      (let s = Dram.stats t.dram in
       s.Dram.reads + s.Dram.writes);
  }

(* Aggregate hit rate across an array of same-level private caches. *)
let level_hit_rate caches =
  let acc, hits =
    Array.fold_left
      (fun (a, h) c ->
        let s = Cache.stats c in
        (a + s.Cache.accesses, h + s.Cache.hits))
      (0, 0) caches
  in
  if acc = 0 then 0.0 else float_of_int hits /. float_of_int acc

let l1_hit_rate t = level_hit_rate t.l1s
let l2_hit_rate t = level_hit_rate t.l2s

let llc_hit_rate t =
  match t.llc with Some c -> Cache.hit_rate c | None -> 0.0

(* Publish every cache, the DRAM model and the level totals into a metrics
   registry. *)
let publish t reg =
  let module M = Mosaic_obs.Metrics in
  Array.iter (fun c -> Cache.publish c reg) t.l1s;
  Array.iter (fun c -> Cache.publish c reg) t.l2s;
  Option.iter (fun c -> Cache.publish c reg) t.llc;
  Dram.publish t.dram reg;
  let tt = totals t in
  let c name v = M.incr ~by:v (M.counter reg name) in
  c "mem.l1_accesses" tt.l1_accesses;
  c "mem.l2_accesses" tt.l2_accesses;
  c "mem.llc_accesses" tt.llc_accesses;
  c "mem.dram_lines" tt.dram_lines;
  c "mem.coherence_invalidations" t.inval_msgs;
  M.set (M.gauge reg "mem.l1_hit_rate") (l1_hit_rate t);
  M.set (M.gauge reg "mem.l2_hit_rate") (l2_hit_rate t);
  M.set (M.gauge reg "mem.llc_hit_rate") (llc_hit_rate t)
