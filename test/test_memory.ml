(* Tests for the memory hierarchy: caches, MSHRs, prefetcher, DRAM models. *)

module Cache = Mosaic_memory.Cache
module Prefetcher = Mosaic_memory.Prefetcher
module Dram = Mosaic_memory.Dram
module Hierarchy = Mosaic_memory.Hierarchy

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let small_cache ?(assoc = 2) ?(mshr = 4) ?(latency = 2) ?(size = 1024) () =
  Cache.create ~name:"t"
    {
      Cache.size_bytes = size;
      line_size = 64;
      assoc;
      latency;
      mshr_size = mshr;
      prefetch = None;
    }

(* --- Cache basics --- *)

let test_cache_geometry () =
  let c = small_cache () in
  checki "sets" 8 (Cache.nsets c);
  Alcotest.check_raises "bad line size"
    (Invalid_argument "Cache: line_size must be a power of two") (fun () ->
      ignore
        (Cache.validate_config
           {
             Cache.size_bytes = 1024;
             line_size = 60;
             assoc = 2;
             latency = 1;
             mshr_size = 4;
             prefetch = None;
           }))

let test_cache_hit_after_fill () =
  let c = small_cache () in
  checkb "cold miss" true (Cache.lookup c ~addr:0 ~is_write:false = `Miss);
  ignore (Cache.fill c ~addr:0 ~dirty:false);
  checkb "then hit" true (Cache.lookup c ~addr:32 ~is_write:false = `Hit);
  checki "stats" 1 (Cache.stats c).Cache.hits;
  checki "misses" 1 (Cache.stats c).Cache.misses

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* Three lines mapping to the same set (stride = nsets * line). *)
  let stride = 8 * 64 in
  ignore (Cache.fill c ~addr:0 ~dirty:false);
  ignore (Cache.fill c ~addr:stride ~dirty:false);
  (* touch line 0 so line stride is LRU *)
  ignore (Cache.lookup c ~addr:0 ~is_write:false);
  (match Cache.fill c ~addr:(2 * stride) ~dirty:false with
  | `Clean evicted -> checki "evicted LRU" stride evicted
  | _ -> Alcotest.fail "expected clean eviction");
  checkb "line 0 survives" true (Cache.probe c ~addr:0);
  checkb "victim gone" false (Cache.probe c ~addr:stride)

let test_cache_dirty_writeback () =
  let c = small_cache ~assoc:1 () in
  (* direct-mapped: 16 sets, so lines 1024 bytes apart collide *)
  ignore (Cache.fill c ~addr:0 ~dirty:true);
  (match Cache.fill c ~addr:(16 * 64) ~dirty:false with
  | `Dirty evicted -> checki "dirty eviction addr" 0 evicted
  | _ -> Alcotest.fail "expected dirty eviction");
  checki "writeback counted" 1 (Cache.stats c).Cache.writebacks

let test_cache_write_marks_dirty () =
  let c = small_cache ~assoc:1 () in
  ignore (Cache.fill c ~addr:0 ~dirty:false);
  ignore (Cache.lookup c ~addr:0 ~is_write:true);
  match Cache.fill c ~addr:(16 * 64) ~dirty:false with
  | `Dirty _ -> ()
  | _ -> Alcotest.fail "write hit should have dirtied the line"

let test_mshr_tracking () =
  let c = small_cache ~mshr:2 () in
  Cache.mshr_insert c ~addr:0 ~ready:100;
  Cache.mshr_insert c ~addr:64 ~ready:50;
  checkb "full at 2" true (Cache.mshr_full c ~cycle:10);
  checki "pending" 100 (Cache.mshr_pending c ~addr:0 ~cycle:10);
  checki "earliest" 50 (Cache.mshr_earliest c ~cycle:10);
  (* entries lazily expire *)
  checkb "not full later" false (Cache.mshr_full c ~cycle:60);
  checki "expired entry gone" (-1) (Cache.mshr_pending c ~addr:64 ~cycle:60)

(* Reference LRU model: per set, a most-recent-first list of lines. *)
module Ref_cache = struct
  type t = { nsets : int; assoc : int; sets : int list array }

  let create ~nsets ~assoc = { nsets; assoc; sets = Array.make nsets [] }

  (* returns hit?, updating recency / filling on miss *)
  let access t line =
    let s = line mod t.nsets in
    let set = t.sets.(s) in
    let hit = List.mem line set in
    let without = List.filter (fun l -> l <> line) set in
    let updated = line :: without in
    let trimmed =
      if List.length updated > t.assoc then
        List.filteri (fun i _ -> i < t.assoc) updated
      else updated
    in
    t.sets.(s) <- trimmed;
    hit
end

let prop_cache_matches_reference =
  QCheck.Test.make ~name:"cache hit/miss decisions match a reference LRU"
    ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 1 300) (int_range 0 63))
    (fun lines ->
      (* 2KB, 4-way, 64B lines -> 8 sets *)
      let c =
        Cache.create ~name:"ref"
          {
            Cache.size_bytes = 2048;
            line_size = 64;
            assoc = 4;
            latency = 1;
            mshr_size = 4;
            prefetch = None;
          }
      in
      let r = Ref_cache.create ~nsets:8 ~assoc:4 in
      List.for_all
        (fun line ->
          let addr = line * 64 in
          let model_hit = Cache.lookup c ~addr ~is_write:false = `Hit in
          if not model_hit then ignore (Cache.fill c ~addr ~dirty:false);
          let ref_hit = Ref_cache.access r line in
          model_hit = ref_hit)
        lines)

(* Dense reference for [Cache]'s tag state: every way of every set exists
   from the start ([set * assoc + way]), a miss fills the first invalid way
   of its set or else the least recently used one. [Cache] creates ways on
   first use instead; no sequence of operations may tell the two apart. *)
module Dense_cache = struct
  type t = {
    nsets : int;
    assoc : int;
    tags : int array;  (** -1 = invalid *)
    dirty : bool array;
    lru : int array;
    mutable clock : int;
    stats : int array;  (** the nine counters, field order of [Cache.stats] *)
  }

  let create ~nsets ~assoc =
    {
      nsets;
      assoc;
      tags = Array.make (nsets * assoc) (-1);
      dirty = Array.make (nsets * assoc) false;
      lru = Array.make (nsets * assoc) 0;
      clock = 0;
      stats = Array.make 9 0;
    }

  let bump t i = t.stats.(i) <- t.stats.(i) + 1
  let base t line = line mod t.nsets * t.assoc

  let find t line =
    let b = base t line in
    let rec go w =
      if w = t.assoc then -1
      else if t.tags.(b + w) = line then b + w
      else go (w + 1)
    in
    go 0

  let touch t slot =
    t.clock <- t.clock + 1;
    t.lru.(slot) <- t.clock

  let victim t line =
    let b = base t line in
    let ways = List.init t.assoc (fun w -> b + w) in
    match List.find_opt (fun s -> t.tags.(s) = -1) ways with
    | Some s -> s
    | None ->
        List.fold_left
          (fun v s -> if t.lru.(s) < t.lru.(v) then s else v)
          b ways

  (* Install [line] at its victim; the displaced line, if any. *)
  let replace t line ~dirty =
    let s = victim t line in
    let old = t.tags.(s) and was_dirty = t.dirty.(s) in
    t.tags.(s) <- line;
    t.dirty.(s) <- dirty;
    touch t s;
    if old = -1 then `None
    else if was_dirty then `Dirty (old * 64)
    else `Clean (old * 64)

  let lookup t line ~is_write =
    bump t 0;
    let s = find t line in
    if s < 0 then (bump t 2; `Miss)
    else begin
      bump t 1;
      touch t s;
      if is_write then t.dirty.(s) <- true;
      `Hit
    end

  let fill t line ~dirty =
    let s = find t line in
    if s >= 0 then begin
      touch t s;
      if dirty then t.dirty.(s) <- true;
      `None
    end
    else
      match replace t line ~dirty with
      | `None -> `None
      | `Clean a -> bump t 3; `Clean a
      | `Dirty a -> bump t 3; bump t 4; `Dirty a

  let warm t line ~is_write =
    let s = find t line in
    if s >= 0 then begin
      touch t s;
      if is_write then t.dirty.(s) <- true;
      `Hit
    end
    else `Filled (replace t line ~dirty:is_write)

  let drop t line =
    let s = find t line in
    if s < 0 then `Absent
    else begin
      t.tags.(s) <- -1;
      let d = t.dirty.(s) in
      t.dirty.(s) <- false;
      if d then `Dirty else `Clean
    end

  let invalidate t line =
    match drop t line with
    | `Absent -> `Absent
    | r -> bump t 8; r
end

let cache_stats_array c =
  let s = Cache.stats c in
  Cache.
    [|
      s.accesses; s.hits; s.misses; s.evictions; s.writebacks;
      s.prefetches_issued; s.mshr_merges; s.mshr_stalls; s.invalidations;
    |]

(* Random operation streams on 1-4 sets x 1-8 ways: every outcome, every
   evicted address and all nine counters must equal the dense model's. *)
let prop_cache_matches_dense =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun nsets ->
      int_range 1 8 >>= fun assoc ->
      let nlines = nsets * assoc * 3 in
      let op =
        triple (int_range 0 5) (int_range 0 (nlines - 1)) bool
      in
      list_size (int_range 1 400) op >|= fun ops -> (nsets, assoc, ops))
  in
  let print (nsets, assoc, ops) =
    Printf.sprintf "%d sets x %d ways: %s" nsets assoc
      (String.concat " "
         (List.map
            (fun (k, l, b) ->
              Printf.sprintf "%s(%d%s)"
                [| "lookup"; "fill"; "invalidate"; "warm"; "drop"; "probe" |].(k)
                l (if b then ",w" else ""))
            ops))
  in
  QCheck.Test.make ~name:"cache matches a dense reference" ~count:300
    (QCheck.make ~print gen) (fun (nsets, assoc, ops) ->
      let cfg =
        {
          Cache.size_bytes = nsets * assoc * 64;
          line_size = 64;
          assoc;
          latency = 1;
          mshr_size = 4;
          prefetch = None;
        }
      in
      let c = Cache.create ~name:"sparse" cfg in
      let d = Dense_cache.create ~nsets ~assoc in
      List.for_all
        (fun (i, (kind, line, flag)) ->
          (* An offset inside the line: the cache must work on lines. *)
          let addr = (line * 64) + (i mod 64) in
          let same =
            match kind with
            | 0 ->
                Cache.lookup c ~addr ~is_write:flag
                = Dense_cache.lookup d line ~is_write:flag
            | 1 ->
                Cache.fill c ~addr ~dirty:flag
                = Dense_cache.fill d line ~dirty:flag
            | 2 -> Cache.invalidate c ~addr = Dense_cache.invalidate d line
            | 3 ->
                Cache.warm c ~addr ~is_write:flag
                = Dense_cache.warm d line ~is_write:flag
            | 4 -> Cache.drop c ~addr = Dense_cache.drop d line
            | _ -> Cache.probe c ~addr = (Dense_cache.find d line >= 0)
          in
          same && cache_stats_array c = d.Dense_cache.stats)
        (List.mapi (fun i op -> (i, op)) ops))

(* --- Prefetcher --- *)

let test_prefetcher_detects_stream () =
  let pf = Prefetcher.create Prefetcher.default_config in
  let observe_list pf ~addr ~line_size =
    Array.to_list
      (Mosaic_util.Int_vec.to_array (Prefetcher.observe pf ~addr ~line_size))
  in
  let prefetches = ref [] in
  for i = 0 to 9 do
    prefetches := observe_list pf ~addr:(i * 64) ~line_size:64 @ !prefetches
  done;
  checkb "stream confirmed" true (Prefetcher.active_streams pf >= 1);
  checkb "issued prefetches" true (List.length !prefetches > 0);
  List.iter
    (fun a -> checki "line aligned" 0 (a mod 64))
    !prefetches

let test_prefetcher_ignores_random () =
  let pf =
    Prefetcher.create { Prefetcher.default_config with Prefetcher.table_size = 4 }
  in
  let rng = Mosaic_util.Rng.create 9 in
  let total = ref 0 in
  for _ = 0 to 199 do
    let addr = Mosaic_util.Rng.int rng 1_000_000 * 64 in
    total :=
      !total + Mosaic_util.Int_vec.length (Prefetcher.observe pf ~addr ~line_size:64)
  done;
  checkb "few prefetches on random stream" true (!total < 20)

let test_prefetcher_strided () =
  (* k-words-apart chains, as the paper describes. *)
  let pf = Prefetcher.create Prefetcher.default_config in
  let out = ref 0 in
  for i = 0 to 9 do
    out :=
      !out + Mosaic_util.Int_vec.length (Prefetcher.observe pf ~addr:(i * 24) ~line_size:64)
  done;
  checkb "stride 24 detected" true (!out > 0)

(* --- SimpleDRAM --- *)

let test_simple_dram_min_latency () =
  let d = Dram.simple { Dram.min_latency = 100; lines_per_epoch = 4; epoch_cycles = 32 } in
  let c = Dram.access d ~cycle:10 ~addr:0 Dram.Dram_read in
  checkb "at least min latency" true (c >= 110)

let test_simple_dram_bandwidth_throttling () =
  let d = Dram.simple { Dram.min_latency = 10; lines_per_epoch = 2; epoch_cycles = 64 } in
  (* 8 simultaneous requests at 2 per 64-cycle epoch: completions spread. *)
  let completions = List.init 8 (fun i -> Dram.access d ~cycle:0 ~addr:(i * 64) Dram.Dram_read) in
  let last = List.fold_left Stdlib.max 0 completions in
  checkb "throttled past three epochs" true (last >= 3 * 64);
  checkb "busy returns counted" true ((Dram.stats d).Dram.busy_returns > 0)

let test_simple_dram_bandwidth_recovers () =
  let d = Dram.simple { Dram.min_latency = 10; lines_per_epoch = 2; epoch_cycles = 64 } in
  ignore (Dram.access d ~cycle:0 ~addr:0 Dram.Dram_read);
  (* far in the future: no queuing *)
  let c = Dram.access d ~cycle:100_000 ~addr:64 Dram.Dram_read in
  checkb "no residual queueing" true (c <= 100_000 + 10 + 64)

(* --- Detailed DRAM --- *)

let test_detailed_dram_row_hits () =
  let cfg = { Dram.default_detailed with Dram.t_refi = 0 } in
  let d = Dram.detailed cfg in
  let c1 = Dram.access d ~cycle:0 ~addr:0 Dram.Dram_read in
  let c2 = Dram.access d ~cycle:(c1 + 10) ~addr:64 Dram.Dram_read in
  let stats = Dram.stats d in
  checki "one miss one hit" 1 stats.Dram.row_hits;
  checki "misses" 1 stats.Dram.row_misses;
  checkb "hit faster than miss" true (c2 - (c1 + 10) < c1)

let test_detailed_dram_bank_conflict () =
  let cfg = { Dram.default_detailed with Dram.t_refi = 0 } in
  let d = Dram.detailed cfg in
  (* Same bank, different rows: serialized. *)
  let row_bytes = cfg.Dram.row_bytes and nbanks = cfg.Dram.nbanks in
  let a1 = 0 and a2 = row_bytes * nbanks in
  let c1 = Dram.access d ~cycle:0 ~addr:a1 Dram.Dram_read in
  let c2 = Dram.access d ~cycle:0 ~addr:a2 Dram.Dram_read in
  checkb "second delayed by bank busy" true (c2 > c1)

(* --- Hierarchy --- *)

let test_cache_invalidate () =
  let c = small_cache () in
  ignore (Cache.fill c ~addr:0 ~dirty:true);
  checkb "dirty on drop" true (Cache.invalidate c ~addr:0 = `Dirty);
  checkb "absent after" true (Cache.invalidate c ~addr:0 = `Absent);
  checki "counted" 1 (Cache.stats c).Cache.invalidations

let hier_config ?(prefetch = None) () =
  {
    Hierarchy.l1 =
      {
        Cache.size_bytes = 1024;
        line_size = 64;
        assoc = 2;
        latency = 2;
        mshr_size = 4;
        prefetch;
      };
    l2 = None;
    llc =
      Some
        {
          Cache.size_bytes = 8192;
          line_size = 64;
          assoc = 4;
          latency = 10;
          mshr_size = 8;
          prefetch = None;
        };
    dram = Hierarchy.Simple { Dram.min_latency = 100; lines_per_epoch = 8; epoch_cycles = 64 };
    coherence = None;
  }

let test_coherence_invalidation () =
  let cfg =
    {
      (hier_config ()) with
      Hierarchy.coherence = Some { Hierarchy.directory_latency = 25 };
    }
  in
  let h = Hierarchy.create ~ntiles:2 cfg in
  (* tile 0 reads and caches the line *)
  let c0 = Hierarchy.access h ~tile:0 ~cycle:0 ~addr:0 ~is_write:false in
  (* tile 1 writes it: directory must invalidate tile 0's copy and charge
     the directory latency *)
  let t = c0 + 10 in
  ignore (Hierarchy.access h ~tile:1 ~cycle:t ~addr:0 ~is_write:true);
  checkb "invalidation sent" true (Hierarchy.coherence_invalidations h > 0);
  (* tile 0 re-reads: its L1 copy is gone (miss beyond L1 latency) *)
  let t2 = t + 100_000 in
  let reread = Hierarchy.access h ~tile:0 ~cycle:t2 ~addr:0 ~is_write:false in
  checkb "copy was dropped" true (reread - t2 > 2)

let test_coherence_read_of_modified () =
  let cfg =
    {
      (hier_config ()) with
      Hierarchy.coherence = Some { Hierarchy.directory_latency = 25 };
    }
  in
  let h = Hierarchy.create ~ntiles:2 cfg in
  ignore (Hierarchy.access h ~tile:0 ~cycle:0 ~addr:64 ~is_write:true);
  let t = 100_000 in
  let warm_other = Hierarchy.access h ~tile:1 ~cycle:t ~addr:64 ~is_write:false in
  (* reader pays the directory penalty to flush the owner *)
  checkb "flush penalty charged" true (warm_other - t >= 25);
  checkb "owner invalidated" true (Hierarchy.coherence_invalidations h > 0)

let test_coherence_off_by_default () =
  let h = Hierarchy.create ~ntiles:2 (hier_config ()) in
  ignore (Hierarchy.access h ~tile:0 ~cycle:0 ~addr:0 ~is_write:false);
  ignore (Hierarchy.access h ~tile:1 ~cycle:1000 ~addr:0 ~is_write:true);
  checki "no invalidations" 0 (Hierarchy.coherence_invalidations h)

let test_hierarchy_latency_ladder () =
  let h = Hierarchy.create ~ntiles:1 (hier_config ()) in
  let cold = Hierarchy.access h ~tile:0 ~cycle:0 ~addr:0 ~is_write:false in
  checkb "cold miss goes to DRAM" true (cold >= 100);
  let warm = Hierarchy.access h ~tile:0 ~cycle:(cold + 1) ~addr:0 ~is_write:false in
  checki "L1 hit" 2 (warm - (cold + 1));
  (* evict from tiny L1 but stay in LLC *)
  for i = 1 to 40 do
    ignore (Hierarchy.access h ~tile:0 ~cycle:(cold + 100 + i) ~addr:(i * 64) ~is_write:false)
  done;
  let t = cold + 100_000 in
  let llc_hit = Hierarchy.access h ~tile:0 ~cycle:t ~addr:0 ~is_write:false in
  checkb "LLC hit between L1 and DRAM" true
    (llc_hit - t > 2 && llc_hit - t < 100)

let test_hierarchy_mshr_coalescing () =
  let h = Hierarchy.create ~ntiles:1 (hier_config ()) in
  let c1 = Hierarchy.access h ~tile:0 ~cycle:0 ~addr:0 ~is_write:false in
  (* same line shortly after: coalesced onto the in-flight miss *)
  let c2 = Hierarchy.access h ~tile:0 ~cycle:1 ~addr:8 ~is_write:false in
  checki "same completion as the miss" c1 c2;
  let stats = Hierarchy.cache_stats h in
  let l1 = List.assoc "l1.0" stats in
  checki "merge counted" 1 l1.Cache.mshr_merges

let test_hierarchy_private_l1s () =
  let h = Hierarchy.create ~ntiles:2 (hier_config ()) in
  let c = Hierarchy.access h ~tile:0 ~cycle:0 ~addr:0 ~is_write:false in
  (* other tile misses its own L1 but hits shared LLC *)
  let t = c + 10 in
  let other = Hierarchy.access h ~tile:1 ~cycle:t ~addr:0 ~is_write:false in
  checkb "tile 1 missed L1, hit LLC" true (other - t > 2 && other - t < 100)

let test_hierarchy_prefetch_effect () =
  let stream tile_cfg =
    let h = Hierarchy.create ~ntiles:1 tile_cfg in
    let total = ref 0 in
    let cycle = ref 0 in
    for i = 0 to 199 do
      let c = Hierarchy.access h ~tile:0 ~cycle:!cycle ~addr:(i * 64) ~is_write:false in
      total := !total + (c - !cycle);
      cycle := c + 1
    done;
    !total
  in
  let without = stream (hier_config ()) in
  let with_pf = stream (hier_config ~prefetch:(Some Prefetcher.default_config) ()) in
  checkb "prefetching helps a streaming walk" true (with_pf < without)

let test_hierarchy_dram_burst () =
  let h = Hierarchy.create ~ntiles:1 (hier_config ()) in
  let one = Hierarchy.dram_burst h ~cycle:0 ~addr:0 ~bytes:64 ~is_write:false in
  let many = Hierarchy.dram_burst h ~cycle:0 ~addr:4096 ~bytes:(64 * 64) ~is_write:false in
  checkb "bigger burst takes longer" true (many > one);
  checki "zero bytes instant" 0 (Hierarchy.dram_burst h ~cycle:0 ~addr:0 ~bytes:0 ~is_write:false)

let test_hierarchy_can_accept () =
  let h = Hierarchy.create ~ntiles:1 (hier_config ()) in
  checkb "empty accepts" true (Hierarchy.can_accept h ~tile:0 ~cycle:0);
  (* saturate the 4-entry L1 MSHR with distinct-line misses *)
  for i = 0 to 3 do
    ignore (Hierarchy.access h ~tile:0 ~cycle:0 ~addr:(i * 64) ~is_write:false)
  done;
  checkb "full rejects" false (Hierarchy.can_accept h ~tile:0 ~cycle:1);
  checkb "accepts after drain" true (Hierarchy.can_accept h ~tile:0 ~cycle:10_000)

let suite =
  [
    ( "memory.cache",
      [
        Alcotest.test_case "geometry" `Quick test_cache_geometry;
        Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "dirty writeback" `Quick test_cache_dirty_writeback;
        Alcotest.test_case "write marks dirty" `Quick test_cache_write_marks_dirty;
        Alcotest.test_case "mshr tracking" `Quick test_mshr_tracking;
        Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
        QCheck_alcotest.to_alcotest prop_cache_matches_reference;
        QCheck_alcotest.to_alcotest prop_cache_matches_dense;
      ] );
    ( "memory.prefetcher",
      [
        Alcotest.test_case "detects streams" `Quick test_prefetcher_detects_stream;
        Alcotest.test_case "ignores random" `Quick test_prefetcher_ignores_random;
        Alcotest.test_case "strided chains" `Quick test_prefetcher_strided;
      ] );
    ( "memory.dram",
      [
        Alcotest.test_case "min latency" `Quick test_simple_dram_min_latency;
        Alcotest.test_case "bandwidth throttling" `Quick test_simple_dram_bandwidth_throttling;
        Alcotest.test_case "bandwidth recovers" `Quick test_simple_dram_bandwidth_recovers;
        Alcotest.test_case "detailed row hits" `Quick test_detailed_dram_row_hits;
        Alcotest.test_case "detailed bank conflicts" `Quick test_detailed_dram_bank_conflict;
      ] );
    ( "memory.hierarchy",
      [
        Alcotest.test_case "latency ladder" `Quick test_hierarchy_latency_ladder;
        Alcotest.test_case "mshr coalescing" `Quick test_hierarchy_mshr_coalescing;
        Alcotest.test_case "private L1s share LLC" `Quick test_hierarchy_private_l1s;
        Alcotest.test_case "prefetching helps streams" `Quick test_hierarchy_prefetch_effect;
        Alcotest.test_case "dram bursts" `Quick test_hierarchy_dram_burst;
        Alcotest.test_case "can_accept backpressure" `Quick test_hierarchy_can_accept;
        Alcotest.test_case "coherence invalidation" `Quick test_coherence_invalidation;
        Alcotest.test_case "coherence read of modified" `Quick
          test_coherence_read_of_modified;
        Alcotest.test_case "coherence off by default" `Quick
          test_coherence_off_by_default;
      ] );
  ]
