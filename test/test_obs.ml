(* Observability layer: ring-buffer event sink, metrics registry, and the
   Chrome trace / CSV exporters. *)

module Event = Mosaic_obs.Event
module Sink = Mosaic_obs.Sink
module Metrics = Mosaic_obs.Metrics
module Json = Mosaic_obs.Json
module Trace_export = Mosaic_obs.Trace_export

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checks = Alcotest.(check string)

let retire ~tile ~seq = Event.Instr_retire { tile; seq }

(* --- Sink --- *)

let test_sink_basic () =
  let s = Sink.create ~capacity:16 () in
  checkb "enabled" true (Sink.enabled s);
  for i = 0 to 4 do
    Sink.emit s ~cycle:i (retire ~tile:0 ~seq:i)
  done;
  checki "length" 5 (Sink.length s);
  checki "emitted" 5 (Sink.emitted s);
  checki "dropped" 0 (Sink.dropped s);
  let cycles = List.map (fun (e : Event.t) -> e.Event.cycle) (Sink.to_list s) in
  Alcotest.(check (list int)) "order" [ 0; 1; 2; 3; 4 ] cycles

let test_sink_wraparound () =
  let s = Sink.create ~capacity:8 () in
  for i = 0 to 19 do
    Sink.emit s ~cycle:i (retire ~tile:0 ~seq:i)
  done;
  checki "length capped" 8 (Sink.length s);
  checki "emitted counts all" 20 (Sink.emitted s);
  checki "dropped = emitted - capacity" 12 (Sink.dropped s);
  let cycles = List.map (fun (e : Event.t) -> e.Event.cycle) (Sink.to_list s) in
  Alcotest.(check (list int))
    "retains newest, oldest-first" [ 12; 13; 14; 15; 16; 17; 18; 19 ] cycles;
  Sink.clear s;
  checki "clear resets" 0 (Sink.length s);
  checki "clear resets emitted" 0 (Sink.emitted s)

let test_sink_disabled () =
  let s = Sink.null in
  checkb "null disabled" false (Sink.enabled s);
  (* A disabled sink must be a no-op: all counters stay at zero no matter
     how much is emitted at it. *)
  for i = 0 to 999 do
    Sink.emit s ~cycle:i (retire ~tile:1 ~seq:i)
  done;
  checki "no events" 0 (Sink.length s);
  checki "no emitted count" 0 (Sink.emitted s);
  checki "no dropped count" 0 (Sink.dropped s);
  Alcotest.(check (list int))
    "empty stream" []
    (List.map (fun (e : Event.t) -> e.Event.cycle) (Sink.to_list s))

(* --- Event naming --- *)

let test_event_tracks () =
  let tr payload = Event.track { Event.cycle = 0; payload } in
  checks "instr track" "tile.3" (tr (retire ~tile:3 ~seq:0));
  checks "cache track" "l1"
    (tr (Event.Cache_access { cache = "l1.0"; outcome = Event.Hit }));
  checks "dram track" "dram" (tr (Event.Dram_row_activate { bank = 0; row = 1 }));
  checks "interleaver track" "interleaver"
    (tr (Event.Interleaver_handoff { src = 0; dst = 1; chan = 0 }));
  checks "accel track" "accel"
    (tr (Event.Accel_invoke { tile = 0; kind = "gemm"; cycles = 10 }))

(* --- Metrics --- *)

let test_metrics_counters_gauges () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "x.count" in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  checki "counter" 42 (Metrics.counter_value c);
  checki "lookup" 42 (Metrics.get_counter reg "x.count");
  let g = Metrics.gauge reg "x.rate" in
  Metrics.set g 0.75;
  checkf "gauge" 0.75 (Metrics.get_gauge reg "x.rate");
  checkb "mem" true (Metrics.mem reg "x.count");
  checkb "not mem" false (Metrics.mem reg "nope")

let test_metrics_duplicate_rejected () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "dup");
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Metrics: duplicate metric dup") (fun () ->
      ignore (Metrics.gauge reg "dup"))

let test_metrics_histogram () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~bounds:[| 1.; 2.; 4.; 8. |] reg "lat" in
  checkf "empty quantile" 0.0 (Metrics.hist_quantile h 0.5);
  checkf "empty min" 0.0 (Metrics.hist_min h);
  List.iter (fun v -> Metrics.observe h v) [ 1.0; 1.0; 3.0; 7.0; 100.0 ];
  checki "count" 5 (Metrics.hist_count h);
  checkf "sum" 112.0 (Metrics.hist_sum h);
  checkf "min" 1.0 (Metrics.hist_min h);
  checkf "max" 100.0 (Metrics.hist_max h);
  checkf "p20 in first bucket" 1.0 (Metrics.hist_quantile h 0.2);
  checkf "median reports its bucket's upper bound" 4.0
    (Metrics.hist_quantile h 0.5);
  checkf "p99 hits overflow bucket -> observed max" 100.0
    (Metrics.hist_quantile h 0.99);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Metrics.hist_quantile: q out of range") (fun () ->
      ignore (Metrics.hist_quantile h 1.5));
  (* [observe_int] records the same samples and, since it runs on every
     memory issue, allocates nothing. *)
  let hi = Metrics.histogram ~bounds:[| 1.; 2.; 4.; 8. |] reg "lat_int" in
  List.iter (Metrics.observe_int hi) [ 1; 1; 3; 7; 100 ];
  checkf "int sum" 112.0 (Metrics.hist_sum hi);
  checkf "int median" 4.0 (Metrics.hist_quantile hi 0.5);
  let before = Gc.minor_words () in
  for i = 0 to 99_999 do
    Metrics.observe_int hi (i land 15)
  done;
  let words = Gc.minor_words () -. before in
  if words > 100. then
    Alcotest.failf "observe_int allocated %.0f words for 100000 samples" words

let test_metrics_csv_roundtrip () =
  let reg = Metrics.create () in
  Metrics.incr ~by:7 (Metrics.counter reg "a.count");
  Metrics.set (Metrics.gauge reg "a.rate") 0.125;
  let h = Metrics.histogram ~bounds:[| 10.; 100. |] reg "a.lat" in
  Metrics.observe h 5.0;
  Metrics.observe h 50.0;
  let rows = Metrics.rows reg in
  let parsed = Metrics.of_csv (Metrics.to_csv reg) in
  checki "row count survives" (List.length rows) (List.length parsed);
  List.iter2
    (fun (n1, k1, v1) (n2, k2, v2) ->
      checks "name" n1 n2;
      checks "kind" k1 k2;
      checkf "value" v1 v2)
    rows parsed;
  Alcotest.check_raises "bad header rejected"
    (Invalid_argument "Metrics.of_csv: bad header") (fun () ->
      ignore (Metrics.of_csv "nope\n"))

(* --- Trace export --- *)

let sample_events =
  [
    { Event.cycle = 0; payload = Event.Instr_issue { tile = 0; seq = 0; cls = "load" } };
    { Event.cycle = 3; payload = Event.Cache_access { cache = "l1.0"; outcome = Event.Miss } };
    { Event.cycle = 2; payload = retire ~tile:0 ~seq:0 };
    { Event.cycle = 5; payload = Event.Accel_invoke { tile = 1; kind = "gemm"; cycles = 40 } };
    { Event.cycle = 4; payload = Event.Dram_row_activate { bank = 2; row = 17 } };
  ]

let test_trace_json_well_formed () =
  let json = Json.of_string (Trace_export.to_string sample_events) in
  let events = Json.to_list_exn (Json.member_exn "traceEvents" json) in
  let non_meta =
    List.filter
      (fun e -> Json.to_string_exn (Json.member_exn "ph" e) <> "M")
      events
  in
  checki "all events exported" (List.length sample_events)
    (List.length non_meta);
  (* Timestamps must be monotonically non-decreasing even though the input
     events arrive out of order. *)
  let ts =
    List.map (fun e -> Json.to_number_exn (Json.member_exn "ts" e)) non_meta
  in
  checkb "monotonic ts" true
    (List.for_all2 (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < List.length ts - 1) ts)
       (List.tl ts));
  (* Every event references a tid that has a thread_name metadata record. *)
  let named_tids =
    List.filter_map
      (fun e ->
        if Json.to_string_exn (Json.member_exn "ph" e) = "M" then
          Some (Json.to_number_exn (Json.member_exn "tid" e))
        else None)
      events
  in
  List.iter
    (fun e ->
      let tid = Json.to_number_exn (Json.member_exn "tid" e) in
      checkb "tid has metadata" true (List.mem tid named_tids))
    non_meta;
  (* The accelerator invocation is a complete span with a duration. *)
  let accel =
    List.find
      (fun e -> Json.to_string_exn (Json.member_exn "ph" e) = "X")
      events
  in
  checkf "accel dur" 40.0 (Json.to_number_exn (Json.member_exn "dur" accel))

let test_trace_json_empty () =
  let json = Json.of_string (Trace_export.to_string []) in
  checki "no events" 0
    (List.length (Json.to_list_exn (Json.member_exn "traceEvents" json)))

(* --- Property tests: the Chrome export is valid for ANY event stream --- *)

module Stall = Mosaic_obs.Stall

(* Strings with quotes, backslashes, control characters and non-ASCII
   bytes: the exporter must escape them all into parseable JSON. *)
let nasty_string_gen =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:char (int_range 0 12);
        oneofl [ "\"q\""; "a\\b"; "nl\n"; "tab\t"; "\x00\x1f\x7f"; "caf\xc3\xa9" ];
      ])

let event_gen =
  QCheck.Gen.(
    let payload =
      int_range 0 3 >>= fun tile ->
      oneof
        [
          ( nasty_string_gen >>= fun cls ->
            int_range 0 999 >>= fun seq ->
            return (Event.Instr_issue { tile; seq; cls }) );
          (int_range 0 999 >>= fun seq -> return (Event.Instr_retire { tile; seq }));
          ( nasty_string_gen >>= fun cache ->
            oneofl [ Event.Hit; Event.Miss; Event.Evict; Event.Writeback ]
            >>= fun outcome -> return (Event.Cache_access { cache; outcome }) );
          ( int_range 0 7 >>= fun bank ->
            int_range 0 4095 >>= fun row ->
            return (Event.Dram_row_activate { bank; row }) );
          ( int_range 0 3 >>= fun dst ->
            return (Event.Interleaver_handoff { src = tile; dst; chan = 0 }) );
          ( nasty_string_gen >>= fun kind ->
            int_range 0 500 >>= fun cycles ->
            return (Event.Accel_invoke { tile; kind; cycles }) );
          (* Lengths around ncauses exercise the exporter's extra-column
             guard for hand-built samples. *)
          ( int_range 0 (Stall.ncauses + 2) >>= fun len ->
            array_size (return len) (int_range 0 100) >>= fun counts ->
            return (Event.Stall_sample { tile; counts }) );
        ]
    in
    int_range 0 5000 >>= fun cycle ->
    payload >>= fun payload -> return { Event.cycle; payload })

let prop_chrome_export_parses =
  QCheck.Test.make ~name:"chrome export of any event stream parses" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) event_gen))
    (fun events ->
      let json = Json.of_string (Trace_export.to_string events) in
      let entries = Json.to_list_exn (Json.member_exn "traceEvents" json) in
      let non_meta =
        List.filter
          (fun e -> Json.to_string_exn (Json.member_exn "ph" e) <> "M")
          entries
      in
      List.length non_meta = List.length events)

(* Cumulative profiler samples: random per-tile increments folded into
   running totals, exactly what Soc.run emits. The exported counter tracks
   must come out non-negative and monotone in ts, per tile, per cause. *)
let cumulative_samples_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun ntiles ->
    list_size (int_range 1 20)
      (pair
         (int_range 0 (ntiles - 1))
         (array_size (return Stall.ncauses) (int_range 0 50)))
    >>= fun increments ->
    let totals = Array.init ntiles (fun _ -> Array.make Stall.ncauses 0) in
    let cycle = ref 0 in
    let events =
      List.map
        (fun (tile, inc) ->
          cycle := !cycle + 1 + tile;
          Array.iteri
            (fun i d -> totals.(tile).(i) <- totals.(tile).(i) + d)
            inc;
          {
            Event.cycle = !cycle;
            payload =
              Event.Stall_sample { tile; counts = Array.copy totals.(tile) };
          })
        increments
    in
    return events)

let prop_counter_tracks_monotone =
  QCheck.Test.make ~name:"stall counter tracks non-negative and monotone"
    ~count:100
    (QCheck.make cumulative_samples_gen)
    (fun events ->
      let json = Json.of_string (Trace_export.to_string events) in
      let counters =
        List.filter
          (fun e -> Json.to_string_exn (Json.member_exn "ph" e) = "C")
          (Json.to_list_exn (Json.member_exn "traceEvents" json))
      in
      List.length counters = List.length events
      && List.for_all
           (fun e ->
             match Json.member_exn "args" e with
             | Json.Obj kvs ->
                 List.for_all (fun (_, v) -> Json.to_number_exn v >= 0.0) kvs
             | _ -> false)
           counters
      &&
      (* Per (tid, cause): values sorted by ts never decrease. The export
         is already ts-sorted, so a single sweep with a watermark per key
         suffices. *)
      let last : (float * string, float) Hashtbl.t = Hashtbl.create 16 in
      List.for_all
        (fun e ->
          let tid = Json.to_number_exn (Json.member_exn "tid" e) in
          match Json.member_exn "args" e with
          | Json.Obj kvs ->
              List.for_all
                (fun (cause, v) ->
                  let v = Json.to_number_exn v in
                  let key = (tid, cause) in
                  let ok =
                    match Hashtbl.find_opt last key with
                    | Some prev -> v >= prev
                    | None -> true
                  in
                  Hashtbl.replace last key v;
                  ok)
                kvs
          | _ -> false)
        counters)

(* The tabular stall exporters mirror the same samples. *)
let test_stalls_csv_json () =
  let events =
    [
      {
        Event.cycle = 10;
        payload = Event.Stall_sample { tile = 0; counts = [| 1; 2; 3; 0; 0; 0; 0; 0; 4 |] };
      };
      { Event.cycle = 4; payload = retire ~tile:0 ~seq:0 };
      {
        Event.cycle = 7;
        payload = Event.Stall_sample { tile = 1; counts = [| 5; 0; 0; 0; 0; 0; 0; 0; 0 |] };
      };
    ]
  in
  let csv = Trace_export.stalls_to_csv events in
  let lines = String.split_on_char '\n' (String.trim csv) in
  checks "header" "cycle,tile,cause,cycles" (List.hd lines);
  checki "one row per tile per cause" (2 * Stall.ncauses)
    (List.length (List.tl lines));
  (* Samples sort by cycle: tile 1's earlier sample leads. *)
  checks "first row" "7,1,busy,5" (List.nth lines 1);
  let json = Trace_export.stalls_to_json events in
  let rows = Json.to_list_exn json in
  checki "json rows" (2 * Stall.ncauses) (List.length rows);
  let r0 = List.hd rows in
  checkf "json cycle" 7.0 (Json.to_number_exn (Json.member_exn "cycle" r0));
  checks "json cause" "busy" (Json.to_string_exn (Json.member_exn "cause" r0));
  checkf "json cycles" 5.0 (Json.to_number_exn (Json.member_exn "cycles" r0))

let suite =
  [
    ( "obs.sink",
      [
        Alcotest.test_case "emit and drain" `Quick test_sink_basic;
        Alcotest.test_case "ring wraparound" `Quick test_sink_wraparound;
        Alcotest.test_case "disabled sink is a no-op" `Quick test_sink_disabled;
        Alcotest.test_case "event track names" `Quick test_event_tracks;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "counters and gauges" `Quick
          test_metrics_counters_gauges;
        Alcotest.test_case "duplicate names rejected" `Quick
          test_metrics_duplicate_rejected;
        Alcotest.test_case "histogram quantiles" `Quick test_metrics_histogram;
        Alcotest.test_case "CSV round-trip" `Quick test_metrics_csv_roundtrip;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "chrome JSON well-formed" `Quick
          test_trace_json_well_formed;
        Alcotest.test_case "empty stream" `Quick test_trace_json_empty;
        QCheck_alcotest.to_alcotest prop_chrome_export_parses;
        QCheck_alcotest.to_alcotest prop_counter_tracks_monotone;
        Alcotest.test_case "stall CSV/JSON exporters" `Quick
          test_stalls_csv_json;
      ] );
  ]
