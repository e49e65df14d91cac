(* Trace store: generate a dynamic trace once, reuse it everywhere.

   Two layers sit in front of the interpreter:

   - a domain-safe in-process memo (mutex + condition, because
     [Runner.run_batch] fans identical requests across OCaml 5 domains),
     guaranteeing each workload is interpreted at most once per process;
   - a content-addressed on-disk cache of [Trace.save] containers keyed by
     the workload digest, so separate invocations (warm bench runs, CI
     re-runs) skip interpretation entirely.

   The digest covers everything the trace is a function of: the program
   text, the run label, the per-tile kernel/argument spec, and the
   post-setup memory image (datasets are poked into interpreter memory by
   workload setup closures, so program + args alone would under-key).
   Cache files self-describe via the digest recorded in their header;
   [Trace.load ~expect_digest] rejects collisions from renamed or stale
   files, and any unreadable entry is treated as a miss and rewritten. *)

module Value = Mosaic_ir.Value

(* Bumping this string invalidates every cached trace; do so whenever the
   interpreter's observable semantics change. *)
let semantics_version = "mosaicsim-trace-v1"

let add_value sink v =
  match v with
  | Value.Int i ->
      Encode.add_char sink 'i';
      Encode.add_int64_le sink i
  | Value.Float f ->
      Encode.add_char sink 'f';
      Encode.add_int64_le sink (Int64.bits_of_float f)

let workload_digest ~program ~label ~tiles ~mem =
  let b = Encode.sink (4096 + (17 * Array.length mem)) in
  Encode.add_string b semantics_version;
  Encode.add_char b '\n';
  Encode.add_string b
    (Format.asprintf "%a" Mosaic_ir.Pretty.pp_program program);
  Encode.add_char b '\000';
  Encode.add_string b label;
  Encode.add_char b '\000';
  Encode.add_varint b (Array.length tiles);
  Array.iter
    (fun (kernel, args) ->
      Encode.add_string b kernel;
      Encode.add_char b '\000';
      Encode.add_varint b (List.length args);
      List.iter (add_value b) args)
    tiles;
  Array.iter
    (fun (addr, v) ->
      Encode.add_int64_le b (Int64.of_int addr);
      add_value b v)
    mem;
  Digest.to_hex
    (Digest.subbytes (Encode.sink_buffer b) 0 (Encode.sink_length b))

(* ---- cache directory resolution ---- *)

let override = ref `Default

let set_cache_dir o = override := o

let default_dir () =
  match Sys.getenv_opt "MOSAICSIM_TRACE_CACHE" with
  | Some "" | Some "off" | Some "none" -> None
  | Some dir -> Some dir
  | None -> (
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some dir when dir <> "" -> Some (Filename.concat dir "mosaicsim")
      | _ -> (
          match Sys.getenv_opt "HOME" with
          | Some home when home <> "" ->
              Some (Filename.concat (Filename.concat home ".cache") "mosaicsim")
          | _ -> None))

let cache_dir () =
  match !override with
  | `Disabled -> None
  | `Dir dir -> Some dir
  | `Default -> default_dir ()

let cache_file digest =
  Option.map (fun dir -> Filename.concat dir (digest ^ ".mstr")) (cache_dir ())

(* Bytes moved to or from the disk layer, for host.store.* telemetry. *)
let n_disk_bytes = Atomic.make 0

let count_disk_bytes path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> ignore (Atomic.fetch_and_add n_disk_bytes st_size)
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The cache is best-effort: an unwritable directory or a lost race must
   never fail the run that produced the trace. *)
let store_to_disk ~digest trace =
  match cache_dir () with
  | None -> ()
  | Some dir -> (
      try
        mkdir_p dir;
        let path = Filename.concat dir (digest ^ ".mstr") in
        let tmp = Filename.temp_file ~temp_dir:dir "trace-" ".tmp" in
        Trace.save ~digest trace tmp;
        Sys.rename tmp path;
        count_disk_bytes path
      with Sys_error _ | Unix.Unix_error _ -> ())

let load_from_disk ~digest =
  match cache_file digest with
  | None -> None
  | Some path when not (Sys.file_exists path) -> None
  | Some path -> (
      try
        let t = Trace.load ~expect_digest:digest path in
        count_disk_bytes path;
        Some t
      with Trace.Format_error _ | Sys_error _ -> None)

(* ---- garbage collection ----

   The cache is append-only in normal operation, so long-lived machines
   accumulate traces for workloads nobody runs anymore. [gc] provides the
   size accounting and an LRU-by-mtime pruning pass: the store is
   content-addressed, so deleting any entry is always safe — the next run
   that needs it regenerates and re-caches it. *)

type gc_report = {
  scanned : int;
  scanned_bytes : int;
  deleted : int;
  deleted_bytes : int;
}

let gc ?max_bytes () =
  match cache_dir () with
  | None -> None
  | Some dir ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        Some { scanned = 0; scanned_bytes = 0; deleted = 0; deleted_bytes = 0 }
      else begin
        let entries =
          Sys.readdir dir |> Array.to_list
          |> List.filter_map (fun name ->
                 if not (Filename.check_suffix name ".mstr") then None
                 else
                   let path = Filename.concat dir name in
                   match Unix.stat path with
                   | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                       Some (path, st_size, st_mtime)
                   | _ -> None
                   | exception Unix.Unix_error _ -> None)
        in
        let scanned = List.length entries in
        let scanned_bytes =
          List.fold_left (fun acc (_, size, _) -> acc + size) 0 entries
        in
        let deleted = ref 0 in
        let deleted_bytes = ref 0 in
        (match max_bytes with
        | None -> ()
        | Some cap ->
            let by_age =
              List.sort (fun (_, _, a) (_, _, b) -> compare a b) entries
            in
            let total = ref scanned_bytes in
            List.iter
              (fun (path, size, _) ->
                if !total > cap then
                  try
                    Sys.remove path;
                    incr deleted;
                    deleted_bytes := !deleted_bytes + size;
                    total := !total - size
                  with Sys_error _ -> ())
              by_age);
        Some
          {
            scanned;
            scanned_bytes;
            deleted = !deleted;
            deleted_bytes = !deleted_bytes;
          }
      end

(* ---- domain-safe memo + single-flight generation ---- *)

type source = Interpreted | Memo_hit | Disk_hit

type info = {
  digest : string;
  source : source;
  cache_file : string option;
  gen_seconds : float;
}

type state = Pending | Ready of Trace.t | Failed of exn

let lock = Mutex.create ()

let cond = Condition.create ()

let memo : (string, state ref) Hashtbl.t = Hashtbl.create 64

let n_interpreted = Atomic.make 0

let n_memo_hits = Atomic.make 0

let n_disk_hits = Atomic.make 0

type stats = {
  interpreted : int;
  memo_hits : int;
  disk_hits : int;
  disk_bytes : int;
}

let stats () =
  {
    interpreted = Atomic.get n_interpreted;
    memo_hits = Atomic.get n_memo_hits;
    disk_hits = Atomic.get n_disk_hits;
    disk_bytes = Atomic.get n_disk_bytes;
  }

let reset () =
  Mutex.lock lock;
  Hashtbl.reset memo;
  Mutex.unlock lock;
  Atomic.set n_interpreted 0;
  Atomic.set n_memo_hits 0;
  Atomic.set n_disk_hits 0;
  Atomic.set n_disk_bytes 0

(* Wait (lock held) until [cell] leaves Pending; unlocks before returning. *)
let rec await cell =
  match !cell with
  | Ready trace ->
      Mutex.unlock lock;
      trace
  | Failed e ->
      Mutex.unlock lock;
      raise e
  | Pending ->
      Condition.wait cond lock;
      await cell

let resolve ~digest cell outcome =
  Mutex.lock lock;
  cell := outcome;
  (* A failed generation is forgotten so a later request retries; waiters
     that already hold [cell] still observe the failure. *)
  (match outcome with Failed _ -> Hashtbl.remove memo digest | _ -> ());
  Condition.broadcast cond;
  Mutex.unlock lock

let fetch ~digest ~generate =
  let t0 = Unix.gettimeofday () in
  let info source =
    {
      digest;
      source;
      cache_file = cache_file digest;
      gen_seconds = Unix.gettimeofday () -. t0;
    }
  in
  Mutex.lock lock;
  match Hashtbl.find_opt memo digest with
  | Some cell ->
      let trace = await cell in
      Atomic.incr n_memo_hits;
      (trace, info Memo_hit)
  | None ->
      let cell = ref Pending in
      Hashtbl.replace memo digest cell;
      Mutex.unlock lock;
      (match load_from_disk ~digest with
      | Some trace ->
          Atomic.incr n_disk_hits;
          resolve ~digest cell (Ready trace);
          (trace, info Disk_hit)
      | None -> (
          match generate () with
          | trace ->
              Atomic.incr n_interpreted;
              store_to_disk ~digest trace;
              resolve ~digest cell (Ready trace);
              (trace, info Interpreted)
          | exception e ->
              resolve ~digest cell (Failed e);
              raise e))
