(* Trace store tests: the binary container (qcheck round-trip over every
   field, loud rejection of corrupt/truncated/stale files) and the caching
   layers (disk hits bit-identical to fresh interpretation, the in-process
   memo interpreting each workload exactly once across run_batch domains). *)

open Mosaic_ir
module Trace = Mosaic_trace.Trace
module Store = Mosaic_trace.Store
module Interp = Mosaic_trace.Interp
module W = Mosaic_workloads

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int (Int64.of_int i)) int;
        map (fun f -> Value.Float f) float;
        (* exercise exact bit preservation on the specials *)
        oneofl
          [
            Value.Float Float.nan;
            Value.Float Float.infinity;
            Value.Float (-0.0);
            Value.Int Int64.min_int;
            Value.Int Int64.max_int;
          ];
      ])

(* Address streams mix ascending and random walks so zig-zag sees both
   signs of delta; empty arrays are common by construction. *)
let addr_stream_gen =
  QCheck.Gen.(
    sized_size (int_bound 40) (fun n ->
        map Array.of_list (list_size (return n) (int_bound 1_000_000))))

let tile_trace_gen tile =
  QCheck.Gen.(
    let* kernel = string_size ~gen:printable (int_bound 12) in
    let* bb_path =
      sized_size (int_bound 60) (fun n ->
          map Array.of_list (list_size (return n) (int_bound 50)))
    in
    let* mem_addrs =
      sized_size (int_bound 6) (fun n ->
          map Array.of_list (list_size (return n) addr_stream_gen))
    in
    let* accel_params =
      sized_size (int_bound 3) (fun n ->
          map Array.of_list
            (list_size (return n)
               (sized_size (int_bound 3) (fun m ->
                    map Array.of_list
                      (list_size (return m)
                         (sized_size (int_bound 4) (fun k ->
                              map Array.of_list
                                (list_size (return k) value_gen))))))))
    in
    let* send_dsts =
      sized_size (int_bound 3) (fun n ->
          map Array.of_list
            (list_size (return n)
               (sized_size (int_bound 10) (fun m ->
                    map Array.of_list (list_size (return m) (int_bound 7))))))
    in
    let* dyn_instrs = int_bound 100_000 in
    return
      {
        Trace.tile;
        kernel;
        bb_path;
        mem_addrs;
        accel_params;
        send_dsts;
        dyn_instrs;
      })

let trace_gen =
  QCheck.Gen.(
    let* ntiles = int_range 1 4 in
    let* tiles = map Array.of_list (flatten_l (List.init ntiles tile_trace_gen)) in
    let* kernel = string_size ~gen:printable (int_bound 16) in
    return { Trace.kernel; ntiles; tiles })

let trace_arb =
  QCheck.make ~print:(fun t -> Printf.sprintf "trace %S" t.Trace.kernel)
    trace_gen

(* ------------------------------------------------------------------ *)
(* Round-trip                                                          *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~name:"trace container roundtrips (bytes)" ~count:200
    trace_arb (fun t ->
      let digest = "cafe1234" in
      let digest', t' = Trace.of_bytes (Trace.to_bytes ~digest t) in
      digest' = digest && Trace.equal t t')

let test_file_roundtrip () =
  (* A handcrafted hetero trace covering every field at once: empty
     streams, descending addresses (negative deltas), accel params with
     exact specials, send destinations. *)
  let t =
    {
      Trace.kernel = "dae-pair";
      ntiles = 2;
      tiles =
        [|
          {
            Trace.tile = 0;
            kernel = "access";
            bb_path = [| 0; 1; 1; 1; 2 |];
            mem_addrs = [| [| 4096; 64; 8; 1_000_000 |]; [||] |];
            accel_params = [| [||] |];
            send_dsts = [| [| 1; 1; 0 |]; [||] |];
            dyn_instrs = 42;
          };
          {
            Trace.tile = 1;
            kernel = "execute";
            bb_path = [||];
            mem_addrs = [||];
            accel_params =
              [|
                [|
                  [| Value.Int 7L; Value.Float Float.nan |];
                  [| Value.Float (-0.0) |];
                  [||];
                |];
              |];
            send_dsts = [||];
            dyn_instrs = 0;
          };
        |];
    }
  in
  let path = Filename.temp_file "mosaic" ".mstr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save ~digest:"feedbeef" t path;
      let digest, t' = Trace.load_with_digest path in
      checks "digest preserved" "feedbeef" digest;
      checkb "trace preserved exactly" true (Trace.equal t t');
      (* and the strict loader accepts the matching digest *)
      let t'' = Trace.load ~expect_digest:"feedbeef" path in
      checkb "strict load matches" true (Trace.equal t t''))

(* ------------------------------------------------------------------ *)
(* Corrupt / truncated / stale rejection                               *)
(* ------------------------------------------------------------------ *)

let expect_format_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Format_error" name
  | exception Trace.Format_error _ -> ()

let with_bytes_file bytes f =
  let path = Filename.temp_file "mosaic" ".mstr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
      f path)

let sample_trace () =
  {
    Trace.kernel = "k";
    ntiles = 1;
    tiles =
      [|
        {
          Trace.tile = 0;
          kernel = "k";
          bb_path = [| 0; 1; 2; 1; 2 |];
          mem_addrs = [| [| 8; 16; 24 |] |];
          accel_params = [| [||] |];
          send_dsts = [| [||] |];
          dyn_instrs = 9;
        };
      |];
  }

let test_load_rejects_garbage () =
  expect_format_error "empty" (fun () -> Trace.of_bytes Bytes.empty);
  with_bytes_file (Bytes.of_string "not a trace at all") (fun path ->
      expect_format_error "bad magic" (fun () -> Trace.load path))

let test_load_rejects_bad_version () =
  let bytes = Trace.to_bytes (sample_trace ()) in
  (* byte 4 is the (single-byte varint) format version *)
  Bytes.set bytes 4 '\099';
  with_bytes_file bytes (fun path ->
      expect_format_error "version" (fun () -> Trace.load path))

let test_load_rejects_truncation () =
  let bytes = Trace.to_bytes (sample_trace ()) in
  let cut = Bytes.sub bytes 0 (Bytes.length bytes - 7) in
  with_bytes_file cut (fun path ->
      expect_format_error "truncated" (fun () -> Trace.load path))

let test_load_rejects_bitflip () =
  let bytes = Trace.to_bytes (sample_trace ()) in
  let pos = Bytes.length bytes - 3 in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x40));
  with_bytes_file bytes (fun path ->
      expect_format_error "bitflip" (fun () -> Trace.load path))

let test_load_rejects_stale_digest () =
  let bytes = Trace.to_bytes ~digest:"old-workload" (sample_trace ()) in
  with_bytes_file bytes (fun path ->
      expect_format_error "stale" (fun () ->
          Trace.load ~expect_digest:"new-workload" path);
      (* without an expectation the same file loads fine *)
      checkb "unchecked load ok" true
        (Trace.equal (sample_trace ()) (Trace.load path)))

(* ------------------------------------------------------------------ *)
(* Cache behaviour                                                     *)
(* ------------------------------------------------------------------ *)

let with_temp_cache f =
  let dir = Filename.temp_file "mosaic-cache" "" in
  Sys.remove dir;
  Store.set_cache_dir (`Dir dir);
  Store.reset ();
  Fun.protect
    ~finally:(fun () ->
      Store.set_cache_dir `Disabled;
      Store.reset ();
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let small_instance () = W.Spmv.instance ~rows:96 ~cols:96 ~per_row:4 ()

let source_name = function
  | Store.Interpreted -> "interpreted"
  | Store.Memo_hit -> "memo"
  | Store.Disk_hit -> "disk"

let test_cache_hit_bit_identity () =
  with_temp_cache (fun _dir ->
      let t1, i1 = W.Runner.trace_cached_full (small_instance ()) ~ntiles:2 in
      checks "cold run interprets" "interpreted" (source_name i1.Store.source);
      let t2, i2 = W.Runner.trace_cached_full (small_instance ()) ~ntiles:2 in
      checks "second fetch memo-hits" "memo" (source_name i2.Store.source);
      checkb "memo hit is the same trace" true (Trace.equal t1 t2);
      (* Drop the memo so the next fetch must go to disk. *)
      Store.reset ();
      let t3, i3 = W.Runner.trace_cached_full (small_instance ()) ~ntiles:2 in
      checks "post-reset fetch disk-hits" "disk" (source_name i3.Store.source);
      checks "same digest throughout" i1.Store.digest i3.Store.digest;
      checkb "disk hit bit-identical" true
        (Trace.to_bytes ~digest:i1.Store.digest t1
        = Trace.to_bytes ~digest:i3.Store.digest t3);
      (* A different tile count is a different workload. *)
      let _, i4 = W.Runner.trace_cached_full (small_instance ()) ~ntiles:1 in
      checkb "tile spec keys the digest" true
        (i4.Store.digest <> i1.Store.digest))

let test_stale_cache_file_regenerates () =
  with_temp_cache (fun dir ->
      let _, i1 = W.Runner.trace_cached_full (small_instance ()) ~ntiles:1 in
      let _, i2 = W.Runner.trace_cached_full (small_instance ()) ~ntiles:2 in
      (* Masquerade the ntiles:2 trace as the ntiles:1 entry: the digest
         recorded inside the file disagrees with the file name, so the
         store must treat it as a miss, not serve the wrong trace. *)
      let path d = Filename.concat dir (d ^ ".mstr") in
      Sys.remove (path i1.Store.digest);
      let data =
        In_channel.with_open_bin (path i2.Store.digest) In_channel.input_all
      in
      Out_channel.with_open_bin (path i1.Store.digest) (fun oc ->
          Out_channel.output_string oc data);
      Store.reset ();
      let t, i3 = W.Runner.trace_cached_full (small_instance ()) ~ntiles:1 in
      checks "stale file treated as miss" "interpreted"
        (source_name i3.Store.source);
      checki "regenerated trace has 1 tile" 1 (Array.length t.Trace.tiles))

let test_memo_domain_safe_single_flight () =
  (* Disk off: only the in-process memo can dedup. Eight tasks across four
     domains all want the same workload; exactly one interpretation may
     happen, and everyone must get the identical trace. *)
  Store.set_cache_dir `Disabled;
  Store.reset ();
  Fun.protect
    ~finally:(fun () -> Store.reset ())
    (fun () ->
      let traces =
        W.Runner.run_batch ~jobs:4
          (List.init 8 (fun _ () ->
               W.Runner.trace_cached (small_instance ()) ~ntiles:1))
      in
      let s = Store.stats () in
      checki "interpreted exactly once" 1 s.Store.interpreted;
      checki "everyone else memo-hit" 7 s.Store.memo_hits;
      checki "no disk traffic" 0 s.Store.disk_hits;
      match traces with
      | first :: rest ->
          List.iteri
            (fun i t ->
              checkb
                (Printf.sprintf "trace %d identical" (i + 1))
                true (Trace.equal first t))
            rest
      | [] -> Alcotest.fail "no traces")

let test_different_datasets_different_digests () =
  (* Same program shape, different seeded dataset: the digest must differ
     because the dataset lives in interpreter memory, not the program. *)
  Store.set_cache_dir `Disabled;
  Store.reset ();
  Fun.protect
    ~finally:(fun () -> Store.reset ())
    (fun () ->
      let _, a =
        W.Runner.trace_cached_full
          (W.Spmv.instance ~seed:1 ~rows:64 ~cols:64 ~per_row:4 ())
          ~ntiles:1
      in
      let _, b =
        W.Runner.trace_cached_full
          (W.Spmv.instance ~seed:2 ~rows:64 ~cols:64 ~per_row:4 ())
          ~ntiles:1
      in
      checkb "seeded datasets key differently" true
        (a.Store.digest <> b.Store.digest);
      checki "both interpreted" 2 (Store.stats ()).Store.interpreted)

let test_gc_lru_pruning () =
  with_temp_cache (fun dir ->
      (* Three distinct entries; back-date their mtimes so LRU order is
         deterministic: ntiles:1 oldest, ntiles:4 newest. *)
      let infos =
        List.map
          (fun n ->
            let _, i =
              W.Runner.trace_cached_full (small_instance ()) ~ntiles:n
            in
            i)
          [ 1; 2; 4 ]
      in
      let path (i : Store.info) =
        Filename.concat dir (i.Store.digest ^ ".mstr")
      in
      let now = Unix.gettimeofday () in
      List.iteri
        (fun k i -> Unix.utimes (path i) (now -. 3600.0 +. (60.0 *. float_of_int k)) (now -. 3600.0 +. (60.0 *. float_of_int k)))
        infos;
      let sizes = List.map (fun i -> (Unix.stat (path i)).Unix.st_size) infos in
      let total = List.fold_left ( + ) 0 sizes in
      (* Accounting pass: no cap, nothing deleted. *)
      let r = Option.get (Store.gc ()) in
      checki "scanned all entries" 3 r.Store.scanned;
      checki "scanned every byte" total r.Store.scanned_bytes;
      checki "no cap deletes nothing" 0 r.Store.deleted;
      (* Cap that only the newest entry fits: the two oldest go. *)
      let newest_size = List.nth sizes 2 in
      let r = Option.get (Store.gc ~max_bytes:newest_size ()) in
      checki "pruned the two oldest" 2 r.Store.deleted;
      checki "freed their bytes" (total - newest_size) r.Store.deleted_bytes;
      let survives i = Sys.file_exists (path i) in
      checkb "oldest entry gone" false (survives (List.nth infos 0));
      checkb "middle entry gone" false (survives (List.nth infos 1));
      checkb "newest entry kept" true (survives (List.nth infos 2));
      (* GC is always safe: a pruned entry just regenerates, the kept one
         still disk-hits. *)
      Store.reset ();
      let _, i1 = W.Runner.trace_cached_full (small_instance ()) ~ntiles:1 in
      checks "pruned entry regenerates" "interpreted"
        (source_name i1.Store.source);
      Store.reset ();
      let _, i4 = W.Runner.trace_cached_full (small_instance ()) ~ntiles:4 in
      checks "kept entry disk-hits" "disk" (source_name i4.Store.source));
  (* With the cache disabled there is nothing to collect. *)
  Store.set_cache_dir `Disabled;
  checkb "disabled cache has no report" true (Store.gc () = None)

(* The workloads both golden pin files cover: every registry name at 1
   tile, [bfs], [histo] and [spmv] at 4 tiles (SPMD quanta, atomics, the
   spin barrier), and the 4-tile projection DAE pair (send, recv,
   load_send, store_recv). Each is a line label, the instance, and either
   a tile count or a heterogeneous tile assignment. *)
let pinned_workloads () =
  let homog name ntiles =
    ( Printf.sprintf "%s %d" name ntiles,
      W.Registry.instance name,
      `Homog ntiles )
  in
  let dae =
    let inst, _ =
      W.Projection.dae_instance ~n_left:64 ~n_right:128 ~degree:8 ()
    in
    let k = inst.W.Runner.kernel in
    let tiles =
      Array.init 4 (fun i ->
          ((if i < 2 then k ^ "_access" else k ^ "_execute"), inst.W.Runner.args))
    in
    ("projection-dae-n_left64-n_right128 pairs2", inst, `Hetero tiles)
  in
  List.map (fun n -> homog n 1) W.Registry.all_names
  @ List.map (fun n -> homog n 4) [ "bfs"; "histo"; "spmv" ]
  @ [ dae ]

(* Absolute trace-cache keys, pinned in test/golden/workload_digests.txt.
   The .mir twin tests only compare instances with each other, so a change
   to the memory snapshot that moved both twins would pass them while
   invalidating every cached trace. [Runner.cache_digest] is the key the
   cached trace functions use; it runs dataset set-up only. *)
let digest_lines () =
  List.map
    (fun (label, inst, shape) ->
      let digest =
        match shape with
        | `Homog ntiles -> W.Runner.cache_digest inst ~ntiles
        | `Hetero tiles -> W.Runner.cache_digest_hetero inst ~tiles
      in
      Printf.sprintf "%s %s" label digest)
    (pinned_workloads ())

(* What the interpreter produces for each pinned workload, in
   test/golden/trace_digests.txt: the MD5 of the encoded trace, the MD5 of
   the memory after the run, and the dynamic step count. A change to the
   interpreter or the MSTR encoder that moves any of them changes what
   every simulation sees. *)
let memory_md5 contents =
  let buf = Buffer.create (17 * Array.length contents) in
  Array.iter
    (fun (addr, v) ->
      Buffer.add_int64_le buf (Int64.of_int addr);
      match v with
      | Value.Int i ->
          Buffer.add_char buf 'i';
          Buffer.add_int64_le buf i
      | Value.Float f ->
          Buffer.add_char buf 'f';
          Buffer.add_int64_le buf (Int64.bits_of_float f))
    contents;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let trace_lines () =
  List.map
    (fun (label, inst, shape) ->
      let program = inst.W.Runner.program in
      let it =
        match shape with
        | `Homog ntiles ->
            Interp.create program ~kernel:inst.W.Runner.kernel ~ntiles
              ~args:inst.W.Runner.args
        | `Hetero tiles ->
            Interp.create_hetero program ~label:inst.W.Runner.name ~tiles
      in
      Mosaic_accel.Accel_kinds.register_functional it;
      inst.W.Runner.setup it;
      let trace = Interp.run it in
      if not (inst.W.Runner.check it) then
        Alcotest.failf "%s: wrong answer" label;
      Printf.sprintf "%s %s %s %d" label
        (Digest.to_hex (Digest.bytes (Trace.to_bytes ~digest:"" trace)))
        (memory_md5 (Interp.memory_contents it))
        (Interp.steps it))
    (pinned_workloads ())

let check_pinned ~path ~what ~advice actual =
  let expected =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  if actual <> expected then
    Alcotest.failf "%s moved, %s and replace %s with:\n%s" what advice path
      (String.concat "\n" actual)

let test_workload_digests_pinned () =
  check_pinned ~path:"golden/workload_digests.txt"
    ~what:"trace-cache keys"
    ~advice:
      "which invalidates every cached trace. If the change is deliberate, \
       bump Store.semantics_version"
    (digest_lines ())

let test_trace_digests_pinned () =
  check_pinned ~path:"golden/trace_digests.txt"
    ~what:"interpreter traces, memory or step counts"
    ~advice:
      "which changes what every simulation sees. If the change is \
       deliberate, bump Store.semantics_version"
    (trace_lines ())

let suite =
  [
    ( "trace_store.format",
      [
        QCheck_alcotest.to_alcotest prop_roundtrip;
        Alcotest.test_case "file roundtrip (hetero)" `Quick test_file_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_load_rejects_garbage;
        Alcotest.test_case "rejects bad version" `Quick
          test_load_rejects_bad_version;
        Alcotest.test_case "rejects truncation" `Quick
          test_load_rejects_truncation;
        Alcotest.test_case "rejects bit flips" `Quick test_load_rejects_bitflip;
        Alcotest.test_case "rejects stale digest" `Quick
          test_load_rejects_stale_digest;
      ] );
    ( "trace_store.cache",
      [
        Alcotest.test_case "hit bit-identical to miss" `Quick
          test_cache_hit_bit_identity;
        Alcotest.test_case "stale cache file regenerates" `Quick
          test_stale_cache_file_regenerates;
        Alcotest.test_case "memo single-flight across domains" `Quick
          test_memo_domain_safe_single_flight;
        Alcotest.test_case "datasets key digests" `Quick
          test_different_datasets_different_digests;
        Alcotest.test_case "gc prunes LRU-by-mtime" `Quick test_gc_lru_pruning;
        Alcotest.test_case "workload digests pinned" `Quick
          test_workload_digests_pinned;
        Alcotest.test_case "trace digests pinned" `Quick
          test_trace_digests_pinned;
      ] );
  ]
