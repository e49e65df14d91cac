(* Global span tracer. Disabled-path cost is one [Atomic.get] plus a
   shared [Off] token; the enabled path reads the clock and [Gc.quick_stat]
   twice per scope, which is microseconds — negligible against the
   second-scale phases being measured.

   Per-domain nesting depth lives in DLS so concurrent shard/pool domains
   nest independently; completed spans funnel into one mutex-protected
   list (spans complete at phase granularity, thousands per run at most,
   so the lock is never contended in any hot path). *)

type completed = {
  name : string;
  domain : int;
  depth : int;
  start_s : float;
  dur_s : float;
  minor_words : float;
  major_collections : int;
}

type open_span = {
  o_name : string;
  o_domain : int;
  o_depth : int;
  o_t0 : float;
  o_minor : float;
  o_major : int;
}

type token = Off | On of open_span

let enabled_flag = Atomic.make false
let epoch = Atomic.make 0.0

(* GC stats at the epoch, for whole-process deltas in [publish]. *)
let epoch_minor = Atomic.make 0.0
let epoch_promoted = Atomic.make 0.0
let epoch_major = Atomic.make 0

let lock = Mutex.create ()
let completed_rev : completed list ref = ref []
let depth_key = Domain.DLS.new_key (fun () -> ref 0)
let enabled () = Atomic.get enabled_flag
let now () = Unix.gettimeofday ()

let mark_epoch () =
  let g = Gc.quick_stat () in
  Atomic.set epoch (now ());
  Atomic.set epoch_minor g.Gc.minor_words;
  Atomic.set epoch_promoted g.Gc.promoted_words;
  Atomic.set epoch_major g.Gc.major_collections

let begin_span name =
  if not (Atomic.get enabled_flag) then Off
  else begin
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    incr depth;
    let g = Gc.quick_stat () in
    On
      {
        o_name = name;
        o_domain = (Domain.self () :> int);
        o_depth = d;
        o_t0 = now ();
        o_minor = g.Gc.minor_words;
        o_major = g.Gc.major_collections;
      }
  end

let end_span = function
  | Off -> ()
  | On o ->
      let t1 = now () in
      let g = Gc.quick_stat () in
      let depth = Domain.DLS.get depth_key in
      if !depth > 0 then decr depth;
      let c =
        {
          name = o.o_name;
          domain = o.o_domain;
          depth = o.o_depth;
          start_s = Stdlib.max 0.0 (o.o_t0 -. Atomic.get epoch);
          dur_s = Stdlib.max 0.0 (t1 -. o.o_t0);
          minor_words = Stdlib.max 0.0 (g.Gc.minor_words -. o.o_minor);
          major_collections =
            Stdlib.max 0 (g.Gc.major_collections - o.o_major);
        }
      in
      Mutex.lock lock;
      completed_rev := c :: !completed_rev;
      Mutex.unlock lock

let with_span name f =
  let tok = begin_span name in
  match f () with
  | v ->
      end_span tok;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      end_span tok;
      Printexc.raise_with_backtrace e bt

let pool_hook () =
  let tok = begin_span "pool.task" in
  fun () -> end_span tok

let switch b =
  Atomic.set enabled_flag b;
  Mosaic_util.Domain_pool.set_task_hook (if b then Some pool_hook else None)

let set_enabled b =
  if b then mark_epoch ();
  switch b

let with_enabled b f =
  let was = enabled () in
  if b && not was then mark_epoch ();
  switch b;
  Fun.protect ~finally:(fun () -> switch was) f

let reset () =
  Mutex.lock lock;
  completed_rev := [];
  Mutex.unlock lock;
  mark_epoch ()

let spans () =
  Mutex.lock lock;
  let l = List.rev !completed_rev in
  Mutex.unlock lock;
  l

let total_seconds name =
  List.fold_left
    (fun acc c -> if String.equal c.name name then acc +. c.dur_s else acc)
    0.0 (spans ())

let gauge_set reg name v =
  let g =
    match Metrics.find reg name with
    | Some (Metrics.Gauge g) -> g
    | Some _ -> invalid_arg (Printf.sprintf "Span.gauge_set: %s not a gauge" name)
    | None -> Metrics.gauge reg name
  in
  Metrics.set g v

let publish reg =
  let totals = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun c ->
      (match Hashtbl.find_opt totals c.name with
      | None ->
          order := c.name :: !order;
          Hashtbl.replace totals c.name c.dur_s
      | Some s -> Hashtbl.replace totals c.name (s +. c.dur_s)))
    (spans ());
  List.iter
    (fun name ->
      gauge_set reg
        (Printf.sprintf "host.%s_seconds" name)
        (Hashtbl.find totals name))
    (List.rev !order);
  let g = Gc.quick_stat () in
  gauge_set reg "host.gc.minor_words"
    (Stdlib.max 0.0 (g.Gc.minor_words -. Atomic.get epoch_minor));
  gauge_set reg "host.gc.promoted_words"
    (Stdlib.max 0.0 (g.Gc.promoted_words -. Atomic.get epoch_promoted));
  gauge_set reg "host.gc.major_collections"
    (float_of_int
       (Stdlib.max 0 (g.Gc.major_collections - Atomic.get epoch_major)))

let to_json l =
  Json.List
    (List.map
       (fun c ->
         Json.Obj
           [
             ("name", Json.String c.name);
             ("domain", Json.Int c.domain);
             ("depth", Json.Int c.depth);
             ("start_s", Json.Float c.start_s);
             ("dur_s", Json.Float c.dur_s);
             ("minor_words", Json.Float c.minor_words);
             ("major_collections", Json.Int c.major_collections);
           ])
       l)

let of_json j =
  List.map
    (fun o ->
      {
        name = Json.to_string_exn (Json.member_exn "name" o);
        domain = int_of_float (Json.to_number_exn (Json.member_exn "domain" o));
        depth = int_of_float (Json.to_number_exn (Json.member_exn "depth" o));
        start_s = Json.to_number_exn (Json.member_exn "start_s" o);
        dur_s = Json.to_number_exn (Json.member_exn "dur_s" o);
        minor_words = Json.to_number_exn (Json.member_exn "minor_words" o);
        major_collections =
          int_of_float
            (Json.to_number_exn (Json.member_exn "major_collections" o));
      })
    (Json.to_list_exn j)
