(* Chrome trace-event exporter: turns a recorded event stream into JSON
   loadable in chrome://tracing or Perfetto. Tracks (trace "threads") are
   one per tile plus one per cache level, DRAM, interleaver and
   accelerator; everything lives in a single process 0. Timestamps are
   simulation cycles. *)

(* Counter samples carry one args entry per stall cause; Chrome renders
   each key as a series of the counter track. Extra (unnamed) slots can
   only come from hand-built events, not the profiler; label them c<i>
   instead of raising so exports never fail mid-run. *)
let stall_args counts =
  List.init (Array.length counts) (fun i ->
      let key =
        if i < Stall.ncauses then Stall.names.(i) else Printf.sprintf "c%d" i
      in
      (key, Json.Int counts.(i)))

let args_of_event (e : Event.t) =
  match e.Event.payload with
  | Event.Instr_issue { seq; cls; _ } ->
      [ ("seq", Json.Int seq); ("class", Json.String cls) ]
  | Event.Instr_retire { seq; _ } -> [ ("seq", Json.Int seq) ]
  | Event.Cache_access { cache; _ } -> [ ("cache", Json.String cache) ]
  | Event.Dram_row_activate { bank; row } ->
      [ ("bank", Json.Int bank); ("row", Json.Int row) ]
  | Event.Interleaver_handoff { src; dst; chan } ->
      [ ("src", Json.Int src); ("dst", Json.Int dst); ("chan", Json.Int chan) ]
  | Event.Accel_invoke { tile; kind; cycles } ->
      [
        ("tile", Json.Int tile);
        ("kind", Json.String kind);
        ("cycles", Json.Int cycles);
      ]
  | Event.Stall_sample { counts; _ } -> stall_args counts

(* Accelerator invocations know their duration, so they render as complete
   ("X") spans; stall samples are counter ("C") points; everything else is
   an instant ("i"). *)
let phase_and_extra (e : Event.t) =
  match e.Event.payload with
  | Event.Accel_invoke { cycles; _ } -> ("X", [ ("dur", Json.Int cycles) ])
  | Event.Stall_sample _ -> ("C", [])
  | _ -> ("i", [ ("s", Json.String "t") ])

(* Host spans live in their own Chrome process (pid 1, one "thread" per
   OCaml domain) so simulator wall-clock sits beside — not interleaved
   with — the simulated-hardware timeline in pid 0. Their ts/dur are
   microseconds of wall-clock since the tracer epoch, which Chrome
   renders on the same axis as pid 0's cycles; the tracks are separate,
   so mixed units only affect relative lengths, not correctness. *)
let host_rows spans =
  let tids =
    List.sort_uniq Stdlib.compare
      (List.map (fun (s : Span.completed) -> s.Span.domain) spans)
  in
  let metadata =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.String "host (simulator)") ]);
      ]
    :: List.map
         (fun tid ->
           Json.Obj
             [
               ("name", Json.String "thread_name");
               ("ph", Json.String "M");
               ("pid", Json.Int 1);
               ("tid", Json.Int tid);
               ("args",
                Json.Obj
                  [ ("name", Json.String (Printf.sprintf "domain %d" tid)) ]);
             ])
         tids
  in
  let rows =
    List.map
      (fun (s : Span.completed) ->
        Json.Obj
          [
            ("name", Json.String s.Span.name);
            ("ph", Json.String "X");
            ("ts", Json.Float (s.Span.start_s *. 1e6));
            ("dur", Json.Float (s.Span.dur_s *. 1e6));
            ("pid", Json.Int 1);
            ("tid", Json.Int s.Span.domain);
            ("args",
             Json.Obj
               [
                 ("depth", Json.Int s.Span.depth);
                 ("minor_words", Json.Float s.Span.minor_words);
                 ("major_collections", Json.Int s.Span.major_collections);
               ]);
          ])
      spans
  in
  metadata @ rows

let to_json ?(host_spans = []) events =
  (* Stable sort keeps same-cycle events in emission order while making the
     exported ts column monotonic. *)
  let events =
    List.stable_sort
      (fun (a : Event.t) (b : Event.t) -> compare a.Event.cycle b.Event.cycle)
      events
  in
  let tracks = Hashtbl.create 16 in
  let track_order = ref [] in
  let tid_of e =
    let tr = Event.track e in
    match Hashtbl.find_opt tracks tr with
    | Some tid -> tid
    | None ->
        let tid = Hashtbl.length tracks in
        Hashtbl.replace tracks tr tid;
        track_order := (tr, tid) :: !track_order;
        tid
  in
  let rows =
    List.map
      (fun (e : Event.t) ->
        let ph, extra = phase_and_extra e in
        Json.Obj
          ([
             ("name", Json.String (Event.name e));
             ("ph", Json.String ph);
             ("ts", Json.Int e.Event.cycle);
             ("pid", Json.Int 0);
             ("tid", Json.Int (tid_of e));
           ]
          @ extra
          @ [ ("args", Json.Obj (args_of_event e)) ]))
      events
  in
  let metadata =
    List.rev_map
      (fun (name, tid) ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 0);
            ("tid", Json.Int tid);
            ("args", Json.Obj [ ("name", Json.String name) ]);
          ])
      !track_order
  in
  let host = if host_spans = [] then [] else host_rows host_spans in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata @ rows @ host));
      ("displayTimeUnit", Json.String "ns");
    ]

let to_string ?host_spans events = Json.to_string (to_json ?host_spans events)

let write_file ?host_spans path events =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string ?host_spans events))

(* Flat schema for stall-attribution samples, independent of the Chrome
   format: one row per (cycle, tile, cause) with the cumulative cycle
   count. Non-sample events in the stream are ignored, so the whole sink
   contents can be passed through unfiltered. *)

let stall_rows events =
  let events =
    List.stable_sort
      (fun (a : Event.t) (b : Event.t) -> compare a.Event.cycle b.Event.cycle)
      events
  in
  List.concat_map
    (fun (e : Event.t) ->
      match e.Event.payload with
      | Event.Stall_sample { tile; counts } ->
          List.init (Array.length counts) (fun i ->
              let cause =
                if i < Stall.ncauses then Stall.names.(i)
                else Printf.sprintf "c%d" i
              in
              (e.Event.cycle, tile, cause, counts.(i)))
      | _ -> [])
    events

let stalls_to_csv events =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "cycle,tile,cause,cycles\n";
  List.iter
    (fun (cycle, tile, cause, v) ->
      Buffer.add_string buf (Printf.sprintf "%d,%d,%s,%d\n" cycle tile cause v))
    (stall_rows events);
  Buffer.contents buf

let stalls_to_json events =
  Json.List
    (List.map
       (fun (cycle, tile, cause, v) ->
         Json.Obj
           [
             ("cycle", Json.Int cycle);
             ("tile", Json.Int tile);
             ("cause", Json.String cause);
             ("cycles", Json.Int v);
           ])
       (stall_rows events))
