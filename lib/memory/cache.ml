type config = {
  size_bytes : int;
  line_size : int;
  assoc : int;
  latency : int;
  mshr_size : int;
  prefetch : Prefetcher.config option;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate_config cfg =
  if not (is_pow2 cfg.line_size) then
    invalid_arg "Cache: line_size must be a power of two";
  if cfg.assoc <= 0 then invalid_arg "Cache: assoc must be positive";
  if cfg.size_bytes mod (cfg.line_size * cfg.assoc) <> 0 then
    invalid_arg "Cache: size must divide into line_size * assoc sets";
  if cfg.latency < 0 then invalid_arg "Cache: negative latency";
  if cfg.mshr_size <= 0 then invalid_arg "Cache: mshr_size must be positive";
  cfg

type stats = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable prefetches_issued : int;
  mutable mshr_merges : int;
  mutable mshr_stalls : int;
  mutable invalidations : int;
}

let fresh_stats () =
  {
    accesses = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    prefetches_issued = 0;
    mshr_merges = 0;
    mshr_stalls = 0;
    invalidations = 0;
  }

module Int_table = Mosaic_util.Int_table
module Int_heap = Mosaic_util.Int_heap

(* Way state lives in one pool shared by all sets, grown on demand: a
   set's ways are created when a fill or warm first needs one, so a run
   allocates in proportion to the lines it touches, not to the cache's
   capacity (a 20 MB LLC is 327 680 ways). Set [s] holds [set_ways.(s)]
   ways at pool indices [set_base.(s)] onward, inside a reservation of
   [reserved t set_ways.(s)] slots; a set that outgrows its reservation
   moves to a doubled one at the end of the pool.

   Which way a line sits in cannot be observed, so this is exact against a
   dense array of [nsets * assoc] ways: a set with an invalid way, created
   or not, fills one without evicting, and once all [assoc] ways are valid
   their LRU stamps are distinct [clock] values, so the victim is the same
   line whatever order the ways are in. *)
type t = {
  cname : string;
  cfg : config;
  nsets : int;
  set_base : int array;  (** pool index of the set's first way *)
  set_ways : int array;  (** ways created, 0 .. assoc *)
  mutable tags : int array;  (** pool; -1 = invalid *)
  mutable dirty : Bytes.t;  (** pool; '\001' = dirty *)
  mutable lru : int array;  (** pool; higher = more recent *)
  mutable used : int;  (** pool slots handed out to reservations *)
  mutable clock : int;
  mshr : Int_table.t;  (** line address -> ready cycle *)
  mshr_expiry : Int_heap.t;
      (** (ready, line) pairs mirroring [mshr] inserts; drained lazily so
          stale-entry expiry never traverses the table. An entry is live
          only while the table still maps its line to its ready cycle —
          re-inserting a line orphans the old heap pair, which validation
          against the table discards on contact. *)
  stats : stats;
  pf : Prefetcher.t option;
}

let create ~name cfg =
  let cfg = validate_config cfg in
  let nsets = cfg.size_bytes / (cfg.line_size * cfg.assoc) in
  let pool = Stdlib.min (nsets * cfg.assoc) 256 in
  {
    cname = name;
    cfg;
    nsets;
    set_base = Array.make nsets 0;
    set_ways = Array.make nsets 0;
    tags = Array.make pool (-1);
    dirty = Bytes.make pool '\000';
    lru = Array.make pool 0;
    used = 0;
    clock = 0;
    mshr = Int_table.create ~initial_capacity:(2 * cfg.mshr_size) ();
    mshr_expiry = Int_heap.create ();
    stats = fresh_stats ();
    pf = Option.map Prefetcher.create cfg.prefetch;
  }

let name t = t.cname
let config t = t.cfg
let stats t = t.stats
let nsets t = t.nsets
let prefetcher t = t.pf

let line_of t addr = addr / t.cfg.line_size

let set_of t line = line mod t.nsets

(* Slot holding [line], or -1. Runs for every lookup/fill/probe; the int
   sentinel and while shape keep it allocation-free (an option return plus
   a local recursive scan cost two small allocations per call). *)
let find_way t line =
  let set = set_of t line in
  let slot = ref t.set_base.(set) in
  let stop = !slot + t.set_ways.(set) in
  while !slot < stop && t.tags.(!slot) <> line do
    incr slot
  done;
  if !slot < stop then !slot else -1

let is_dirty t slot = Bytes.get t.dirty slot <> '\000'
let set_dirty t slot d = Bytes.set t.dirty slot (if d then '\001' else '\000')

(* Pool slots reserved for a set holding [n] ways: the next power of two,
   capped at the associativity. *)
let reserved t n =
  if n = 0 then 0
  else begin
    let r = ref 1 in
    while !r < n do
      r := !r * 2
    done;
    Stdlib.min !r t.cfg.assoc
  end

(* Move [set]'s ways to a fresh reservation of [cap] slots at the end of
   the pool, doubling the pool when it is full. The old reservation is
   left unused. *)
let relocate t set cap =
  let len = Array.length t.tags in
  if t.used + cap > len then begin
    let len' = Stdlib.max (2 * len) (t.used + cap) in
    let tags = Array.make len' (-1) and lru = Array.make len' 0 in
    let dirty = Bytes.make len' '\000' in
    Array.blit t.tags 0 tags 0 t.used;
    Array.blit t.lru 0 lru 0 t.used;
    Bytes.blit t.dirty 0 dirty 0 t.used;
    t.tags <- tags;
    t.lru <- lru;
    t.dirty <- dirty
  end;
  let base = t.set_base.(set) and n = t.set_ways.(set) in
  Array.blit t.tags base t.tags t.used n;
  Array.blit t.lru base t.lru t.used n;
  Bytes.blit t.dirty base t.dirty t.used n;
  t.set_base.(set) <- t.used;
  t.used <- t.used + cap

(* The slot a miss on a line of [set] fills: an invalid way if the set has
   one, created or not (a way not yet created is made here), else the
   least recently used way. *)
let victim t set =
  let base = t.set_base.(set) and n = t.set_ways.(set) in
  let invalid = ref (-1) and oldest = ref base in
  let slot = ref base in
  while !invalid < 0 && !slot < base + n do
    if t.tags.(!slot) = -1 then invalid := !slot
    else if t.lru.(!slot) < t.lru.(!oldest) then oldest := !slot;
    incr slot
  done;
  if !invalid >= 0 then !invalid
  else if n < t.cfg.assoc then begin
    if n = reserved t n then relocate t set (reserved t (n + 1));
    t.set_ways.(set) <- n + 1;
    t.set_base.(set) + n
  end
  else !oldest

let touch t slot =
  t.clock <- t.clock + 1;
  t.lru.(slot) <- t.clock

(* Put [line] in [slot] as the most recently used way. *)
let install t slot line ~dirty =
  t.tags.(slot) <- line;
  set_dirty t slot dirty;
  touch t slot

let lookup t ~addr ~is_write =
  t.stats.accesses <- t.stats.accesses + 1;
  let line = line_of t addr in
  let slot = find_way t line in
  if slot >= 0 then begin
    t.stats.hits <- t.stats.hits + 1;
    touch t slot;
    if is_write then set_dirty t slot true;
    `Hit
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    `Miss
  end

let probe t ~addr = find_way t (line_of t addr) >= 0

let fill t ~addr ~dirty =
  let line = line_of t addr in
  let slot = find_way t line in
  if slot >= 0 then begin
    (* Already present (e.g. filled by a coalesced miss): refresh. *)
    touch t slot;
    if dirty then set_dirty t slot true;
    `None
  end
  else begin
    let slot = victim t (set_of t line) in
    let old = t.tags.(slot) in
    let result =
      if old = -1 then `None
      else begin
        t.stats.evictions <- t.stats.evictions + 1;
        let evicted_addr = old * t.cfg.line_size in
        if is_dirty t slot then begin
          t.stats.writebacks <- t.stats.writebacks + 1;
          `Dirty evicted_addr
        end
        else `Clean evicted_addr
      end
    in
    install t slot line ~dirty;
    result
  end

(* Drop the line holding [addr]; whether it was dirty, or [`Absent]. *)
let remove t ~addr =
  let slot = find_way t (line_of t addr) in
  if slot < 0 then `Absent
  else begin
    t.tags.(slot) <- -1;
    let was_dirty = is_dirty t slot in
    set_dirty t slot false;
    if was_dirty then `Dirty else `Clean
  end

let invalidate t ~addr =
  match remove t ~addr with
  | `Absent -> `Absent
  | (`Clean | `Dirty) as r ->
      t.stats.invalidations <- t.stats.invalidations + 1;
      r

(* MSHR entries are cleaned lazily: an entry whose ready cycle has passed no
   longer occupies a slot. The expiry heap makes this O(stale log n) instead
   of a full-table fold per access: pop orphaned pairs (their line was
   re-registered with a newer ready cycle) and expired live pairs until the
   head is a live entry strictly in the future. Heap order guarantees that
   once the head is in the future, no stale table entry remains. *)
let mshr_sweep t ~cycle =
  let continue = ref true in
  while !continue && not (Int_heap.is_empty t.mshr_expiry) do
    let ready = Int_heap.min_prio t.mshr_expiry in
    let line = Int_heap.min_value t.mshr_expiry in
    if Int_table.find t.mshr line ~default:min_int <> ready then
      Int_heap.drop_min t.mshr_expiry
    else if ready <= cycle then begin
      Int_table.remove t.mshr line;
      Int_heap.drop_min t.mshr_expiry
    end
    else continue := false
  done

let mshr_pending t ~addr ~cycle =
  let line = line_of t addr in
  let ready = Int_table.find t.mshr line ~default:min_int in
  if ready = min_int then -1
  else if ready > cycle then ready
  else begin
    (* Expired: free the slot; its heap pair dies as an orphan later. *)
    Int_table.remove t.mshr line;
    -1
  end

let mshr_insert t ~addr ~ready =
  let line = line_of t addr in
  Int_table.set t.mshr line ready;
  Int_heap.push t.mshr_expiry ~prio:ready line

let mshr_full t ~cycle =
  mshr_sweep t ~cycle;
  Int_table.length t.mshr >= t.cfg.mshr_size

let mshr_earliest t ~cycle =
  mshr_sweep t ~cycle;
  (* After the sweep every table entry is in the future and the heap head,
     if any, is live — so it is exactly the earliest retirement. *)
  if Int_heap.is_empty t.mshr_expiry then -1
  else Int_heap.min_prio t.mshr_expiry

let hit_rate t =
  if t.stats.accesses = 0 then 0.0
  else float_of_int t.stats.hits /. float_of_int t.stats.accesses

(* Warm [addr] into the cache without touching stats or MSHRs: the
   fast-forward touch stream maintains tags/LRU/dirty architecturally so
   the next detailed interval starts from a warmed cache, while demand
   counters keep counting only detailed accesses. Returns the same
   eviction view as [fill] so the hierarchy can propagate writebacks. *)
let warm t ~addr ~is_write =
  let line = line_of t addr in
  let slot = find_way t line in
  if slot >= 0 then begin
    touch t slot;
    if is_write then set_dirty t slot true;
    `Hit
  end
  else begin
    let slot = victim t (set_of t line) in
    let old = t.tags.(slot) in
    let result =
      if old = -1 then `Filled `None
      else if is_dirty t slot then `Filled (`Dirty (old * t.cfg.line_size))
      else `Filled (`Clean (old * t.cfg.line_size))
    in
    install t slot line ~dirty:is_write;
    result
  end

(* [invalidate] minus the stats bump: directory bookkeeping during
   fast-forward drops lines architecturally without counting them as
   demand-path invalidations. *)
let drop = remove

(* Publish this cache's counters into a metrics registry under
   "cache.<name>.*" (e.g. cache.l1.0.hits). *)
let publish t reg =
  let module M = Mosaic_obs.Metrics in
  let c field v =
    M.incr ~by:v (M.counter reg (Printf.sprintf "cache.%s.%s" t.cname field))
  in
  c "accesses" t.stats.accesses;
  c "hits" t.stats.hits;
  c "misses" t.stats.misses;
  c "evictions" t.stats.evictions;
  c "writebacks" t.stats.writebacks;
  c "prefetches_issued" t.stats.prefetches_issued;
  c "mshr_merges" t.stats.mshr_merges;
  c "mshr_stalls" t.stats.mshr_stalls;
  c "invalidations" t.stats.invalidations
