(* Host-side telemetry: span tracer, progress heartbeat, manifests, the
   diff classifier and its rules engine.

   The tracer's contract is structural (every scope completes exactly
   once, at the right depth, with a non-negative duration — for any
   nesting shape, including raising bodies and hostile names), so the
   nesting tests are property-based. The differential tests hold the
   telemetry layer to the simulator's prime directive: enabling spans
   and progress must leave every deterministic output bit-identical,
   serial and sharded. *)

module Span = Mosaic_obs.Span
module Progress = Mosaic_obs.Progress
module Diff = Mosaic_obs.Diff
module Rules = Mosaic_obs.Rules
module Manifest = Mosaic_obs.Manifest
module Metrics = Mosaic_obs.Metrics
module Json = Mosaic_obs.Json
module Trace_export = Mosaic_obs.Trace_export
module W = Mosaic_workloads
module Soc = Mosaic.Soc
module Presets = Mosaic.Presets
module TC = Mosaic_tile.Tile_config

let checkb = Alcotest.(check bool)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Names the exporters must survive: quotes, backslashes, control
   characters, non-ASCII bytes. *)
let nasty_names =
  [ "plain"; "dots.in.name"; "q\"uote"; "back\\slash"; "new\nline"; "µops" ]

(* --- Span nesting (property) ------------------------------------------ *)

type tree = Node of string * tree list

let tree_gen =
  let open QCheck.Gen in
  let name = oneofl nasty_names in
  sized
  @@ fix (fun self n ->
         if n <= 0 then map (fun nm -> Node (nm, [])) name
         else
           map2
             (fun nm kids -> Node (nm, kids))
             name
             (list_size (int_range 0 3) (self (n / 2))))

let rec run_tree (Node (name, kids)) =
  Span.with_span name (fun () -> List.iter run_tree kids)

(* Expected (name, depth) multiset of a tree. *)
let rec expected_spans depth (Node (name, kids)) =
  (name, depth) :: List.concat_map (expected_spans (depth + 1)) kids

let prop_span_nesting =
  QCheck.Test.make ~name:"span tracer: balanced, depth-correct, non-negative"
    ~count:50 (QCheck.make tree_gen) (fun tree ->
      Span.set_enabled true;
      Span.reset ();
      run_tree tree;
      let spans = Span.spans () in
      Span.set_enabled false;
      let got =
        List.sort compare
          (List.map (fun s -> (s.Span.name, s.Span.depth)) spans)
      in
      let want = List.sort compare (expected_spans 0 tree) in
      if got <> want then QCheck.Test.fail_report "name/depth multiset differs";
      if not (List.for_all (fun s -> s.Span.dur_s >= 0.0) spans) then
        QCheck.Test.fail_report "negative duration";
      if not (List.for_all (fun s -> s.Span.start_s >= 0.0) spans) then
        QCheck.Test.fail_report "span starts before epoch";
      true)

let test_span_disabled_noop () =
  Span.set_enabled false;
  Span.reset ();
  let r = Span.with_span "ignored" (fun () -> 42) in
  checki "body runs" 42 r;
  let t = Span.begin_span "also ignored" in
  Span.end_span t;
  checki "nothing recorded" 0 (List.length (Span.spans ()))

(* Suspending a running tracer records nothing, then resumes on the same
   timeline: a later span starts after an earlier one. *)
let test_span_with_enabled () =
  Span.set_enabled true;
  Span.reset ();
  Span.with_span "before" (fun () -> Unix.sleepf 0.002);
  Span.with_enabled false (fun () -> Span.with_span "hidden" ignore);
  checkb "restored on" true (Span.enabled ());
  Span.with_span "after" ignore;
  Span.set_enabled false;
  Span.with_enabled true (fun () -> Span.with_span "scoped" ignore);
  checkb "restored off" false (Span.enabled ());
  match Span.spans () with
  | [ b; a; sc ] ->
      checks "names" "before after scoped"
        (String.concat " " [ b.Span.name; a.Span.name; sc.Span.name ]);
      checkb "epoch kept" true (a.Span.start_s >= b.Span.dur_s)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let test_span_exception_balance () =
  Span.set_enabled true;
  Span.reset ();
  (try Span.with_span "outer" (fun () ->
       Span.with_span "raises" (fun () -> failwith "boom"))
   with Failure _ -> ());
  (* Both scopes completed despite the raise, and depth unwound: a new
     span sits at depth 0 again. *)
  Span.with_span "after" (fun () -> ());
  let spans = Span.spans () in
  Span.set_enabled false;
  checki "all scopes recorded" 3 (List.length spans);
  let depth name =
    (List.find (fun s -> s.Span.name = name) spans).Span.depth
  in
  checki "raises at depth 1" 1 (depth "raises");
  checki "outer at depth 0" 0 (depth "outer");
  checki "after back at depth 0" 0 (depth "after")

let test_span_publish_and_json () =
  Span.set_enabled true;
  Span.reset ();
  Span.with_span "phase.a" (fun () -> ());
  Span.with_span "phase.a" (fun () -> ());
  Span.with_span "phase.b" (fun () -> ());
  let spans = Span.spans () in
  let reg = Metrics.create () in
  Span.publish reg;
  Span.publish reg (* find-or-create: second publish must not raise *);
  Span.set_enabled false;
  let gauge name =
    match Metrics.find reg name with
    | Some (Metrics.Gauge g) -> Metrics.gauge_value g
    | _ -> Alcotest.failf "missing gauge %s" name
  in
  Alcotest.(check (float 1e-9))
    "summed per name"
    (Span.total_seconds "phase.a")
    (gauge "host.phase.a_seconds");
  checkb "gc gauges present" true (gauge "host.gc.minor_words" >= 0.0);
  (* Raw spans round-trip through JSON (manifests embed them). *)
  let back = Span.of_json (Span.to_json spans) in
  checki "roundtrip count" (List.length spans) (List.length back);
  checkb "roundtrip equal" true (back = spans)

let test_chrome_export_host_spans () =
  Span.set_enabled true;
  Span.reset ();
  List.iter (fun n -> Span.with_span n (fun () -> ())) nasty_names;
  let spans = Span.spans () in
  Span.set_enabled false;
  let doc = Json.of_string (Trace_export.to_string ~host_spans:spans []) in
  let events = Json.to_list_exn (Json.member_exn "traceEvents" doc) in
  let host_x =
    List.filter
      (fun e ->
        Json.member "ph" e = Some (Json.String "X")
        && Json.member "pid" e = Some (Json.Int 1))
      events
  in
  checki "one X event per span" (List.length spans) (List.length host_x);
  let exported =
    List.sort compare
      (List.map
         (fun e -> Json.to_string_exn (Json.member_exn "name" e))
         host_x)
  in
  Alcotest.(check (list string))
    "names survive escaping" (List.sort compare nasty_names) exported

(* --- Progress --------------------------------------------------------- *)

let test_progress_rate_limit () =
  let buf = Buffer.create 256 in
  let p =
    Progress.create ~interval_s:3600.0 ~print:(Buffer.add_string buf)
      ~label:"t" ~total_instrs:(Some 1000) ()
  in
  for i = 1 to 100 do
    Progress.tick p ~cycle:i ~instrs:i
  done;
  checki "interval not elapsed: silent" 0 (Progress.lines_printed p);
  Progress.finish p ~cycle:100 ~instrs:100;
  checki "short run: no final line either" 0 (Progress.lines_printed p);
  checks "nothing printed" "" (Buffer.contents buf)

let test_progress_prints () =
  let buf = Buffer.create 256 in
  let p =
    Progress.create ~interval_s:0.0 ~print:(Buffer.add_string buf) ~label:"wl"
      ~total_instrs:(Some 200) ()
  in
  Progress.tick p ~cycle:10 ~instrs:100;
  checki "zero interval prints" 1 (Progress.lines_printed p);
  Progress.finish p ~cycle:20 ~instrs:200;
  checki "final line after a printed tick" 2 (Progress.lines_printed p);
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  checkb "labelled" true
    (String.starts_with ~prefix:"progress[wl]: " (List.hd lines));
  checkb "percentage shown" true (contains ~needle:"50.0%" (List.hd lines))

(* --- Diff classifier -------------------------------------------------- *)

let flat obj = Diff.flatten (Json.Obj obj)

let test_diff_identical () =
  let a = flat [ ("x.cycles", Json.Int 5); ("y", Json.Float 1.5) ] in
  let entries = Diff.compare a a in
  checkb "all identical" true
    (List.for_all (fun e -> e.Diff.cls = Diff.Identical) entries);
  checki "no cycle drift" 0 (List.length (Diff.cycle_drift entries))

let test_diff_classes () =
  let a =
    flat
      [
        ("sim.cycles", Json.Int 100);
        ("mips", Json.Float 2.0);
        ("host", Json.Float 10.0);
        ("gone", Json.Int 1);
        ("tag", Json.String "abc");
      ]
  and b =
    flat
      [
        ("sim.cycles", Json.Int 101);
        ("mips", Json.Float 2.02);
        ("host", Json.Float 20.0);
        ("fresh", Json.Int 1);
        ("tag", Json.String "abd");
      ]
  in
  let entries = Diff.compare ~threshold:0.05 a b in
  let cls key = (List.find (fun e -> e.Diff.key = key) entries).Diff.cls in
  checkb "cycles exact: 1-part-in-100 drifts" true (cls "sim.cycles" = Diff.Drifted);
  checkb "within threshold" true (cls "mips" = Diff.Close);
  checkb "beyond threshold" true (cls "host" = Diff.Drifted);
  checkb "removed" true (cls "gone" = Diff.Removed);
  checkb "added" true (cls "fresh" = Diff.Added);
  checkb "string drift" true (cls "tag" = Diff.Drifted);
  let drift = Diff.cycle_drift entries in
  checki "cycle drift collected" 1 (List.length drift);
  checks "the cycles key" "sim.cycles" (List.hd drift).Diff.key;
  (* Render never raises and mentions the drifted key. *)
  let table = Diff.render entries in
  checkb "rendered" true (contains ~needle:"sim.cycles" table)

let test_diff_flatten_nested () =
  let leaves =
    flat
      [
        ("a", Json.Obj [ ("b", Json.Int 1); ("c", Json.List [ Json.Int 2; Json.Int 3 ]) ]);
        ("ok", Json.Bool true);
      ]
  in
  Alcotest.(check (list string))
    "dotted keys in document order"
    [ "a.b"; "a.c.0"; "a.c.1"; "ok" ]
    (List.map fst leaves);
  checkb "bools become strings" true
    (List.assoc "ok" leaves = Diff.Str "true")

(* --- Rules engine ------------------------------------------------------ *)

let nums kvs = List.map (fun (k, v) -> (k, Diff.Num v)) kvs

(* (line, detail) of each violation of [text] on [candidate]. *)
let violations ?(baseline = []) text candidate =
  List.map
    (fun (v : Rules.violation) -> (v.rule.line, v.detail))
    (Rules.check (Rules.parse text) ~baseline:(nums baseline) (nums candidate))

let test_rules_max_min () =
  let c = [ ("a.err", 10.0); ("b.err", 3.0); ("speedup", 1.5) ] in
  checki "max holds at the bound" 0 (List.length (violations "*.err max 10" c));
  (match violations "*.err max 9.5" c with
  | [ (1, d) ] -> checkb "names the key" true (contains ~needle:"a.err" d)
  | l -> Alcotest.failf "expected one max violation, got %d" (List.length l));
  checki "min holds at the bound" 0
    (List.length (violations "speedup min 1.5" c));
  checki "min fails below" 1 (List.length (violations "speedup min 1.6" c));
  checki "NaN fails" 1
    (List.length (violations "x max 1" [ ("x", Float.nan) ]));
  checki "a string fails" 1
    (List.length
       (Rules.check (Rules.parse "x max 1") ~baseline:[]
          [ ("x", Diff.Str "fast") ]))

let test_rules_sum_max () =
  let rule = "*.gen sum-max 0.10 0.05" in
  let cold = [ ("a.gen", 1.0); ("b.gen", 1.0) ] in
  checki "within 10% of the baseline sum" 0
    (List.length
       (violations ~baseline:cold rule [ ("a.gen", 0.1); ("b.gen", 0.1) ]));
  checki "over 10% of the baseline sum" 1
    (List.length
       (violations ~baseline:cold rule [ ("a.gen", 0.1); ("b.gen", 0.11) ]));
  let quick = [ ("a.gen", 0.1); ("b.gen", 0.1) ] in
  checki "the floor covers a small baseline" 0
    (List.length (violations ~baseline:quick rule [ ("a.gen", 0.05) ]));
  checki "the floor is a ceiling too" 1
    (List.length (violations ~baseline:quick rule [ ("a.gen", 0.051) ]))

let test_rules_glob () =
  checkb "star crosses dots" true
    (Rules.glob_match "speed.*.trace_gen_seconds"
       "speed.sample.bfs.trace_gen_seconds");
  checkb "literal dot" false (Rules.glob_match "speed.*.err" "speed.max_err");
  checkb "anchored" false (Rules.glob_match "speed.x" "speed.x.y");
  checkb "two stars" true (Rules.glob_match "*.a*b" "x.y.a.zb");
  checki "an unmatched glob fails" 1
    (List.length (violations "speed.typo max 1" [ ("speed.real", 0.0) ]))

let test_rules_parse_error () =
  (match Rules.parse "# comment\n\nx max 1 # trailing\ny max\n" with
  | _ -> Alcotest.fail "a line without a bound parsed"
  | exception Rules.Parse_error (line, _) -> checki "located" 4 line);
  (match Rules.parse "x max ten" with
  | _ -> Alcotest.fail "a word for a number parsed"
  | exception Rules.Parse_error (line, msg) ->
      checki "line 1" 1 line;
      checkb "quotes the token" true (contains ~needle:"ten" msg));
  checki "comments and blanks only" 0
    (List.length (Rules.parse "# nothing\n   \n\t\n"))

(* The committed rules against the committed baseline, so a mistyped glob
   or a bound the baseline itself breaks fails here. The warm-cache
   budget relates a warm run to a cold one, which one file cannot show;
   for it only the glob's match is checked. *)
let test_committed_speed_rules () =
  let rules = Rules.load "../bench/speed.rules" in
  let bench = Diff.flatten_file "../BENCH_speed.json" in
  checki "every bound present" 9 (List.length rules);
  List.iter
    (fun (v : Rules.violation) ->
      match v.rule.bound with
      | Rules.Sum_max _ when v.detail <> "no key matches" -> ()
      | _ ->
          Alcotest.failf "speed.rules:%d (%s): %s" v.rule.line
            (Rules.describe v.rule) v.detail)
    (Rules.check rules ~baseline:bench bench)

(* --- Manifest --------------------------------------------------------- *)

let test_manifest_roundtrip () =
  let reg = Metrics.create () in
  Metrics.set (Metrics.gauge reg "sim.cycles") 918128.0;
  let m =
    Manifest.make ~kind:"run" ~name:"spmv"
      ~versions:[ ("semantics", "v1") ]
      ~digests:[ ("config", "deadbeef") ]
      ~spans:[] ~metrics:reg ()
  in
  let file = Filename.temp_file "manifest" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Manifest.write file m;
      let back = Manifest.load file in
      checks "kind" m.Manifest.kind back.Manifest.kind;
      checks "name" m.Manifest.name back.Manifest.name;
      checkb "versions" true (back.Manifest.versions = m.Manifest.versions);
      checkb "digests" true (back.Manifest.digests = m.Manifest.digests);
      checkb "metrics json" true (back.Manifest.metrics = m.Manifest.metrics);
      (* A manifest file flattens through the diff lens with prefixed
         provenance keys, and diffing a manifest against itself is clean. *)
      let leaves = Diff.flatten_file file in
      checkb "metrics leaf" true
        (List.assoc_opt "sim.cycles" leaves = Some (Diff.Num 918128.0));
      checkb "digest leaf" true
        (List.assoc_opt "digest.config" leaves = Some (Diff.Str "deadbeef"));
      checkb "version leaf" true
        (List.assoc_opt "version.semantics" leaves = Some (Diff.Str "v1"));
      let entries = Diff.compare leaves leaves in
      checki "self-diff: no cycle drift" 0
        (List.length (Diff.cycle_drift entries)))

(* --- Telemetry leaves cycles alone (differential) --------------------- *)

let fingerprint = Test_batch.fingerprint

let test_telemetry_differential () =
  let inst = W.Micro.stream ~seed:23 ~elems:1024 () in
  let trace = W.Runner.trace inst ~ntiles:2 in
  let run ?progress ~shards () =
    Soc.run_homogeneous ?progress
      { Presets.dae_soc with Soc.shards }
      ~program:inst.W.Runner.program ~trace ~tile_config:TC.out_of_order
  in
  let reference = fingerprint (run ~shards:1 ()) in
  List.iter
    (fun shards ->
      Span.set_enabled true;
      Span.reset ();
      let progress =
        Progress.create ~interval_s:0.0
          ~print:(fun _ -> ())
          ~label:"diff" ~total_instrs:(Some (Mosaic_trace.Trace.total_dyn_instrs trace))
          ()
      in
      let r = run ~progress ~shards () in
      let sim_recorded =
        List.exists (fun s -> s.Span.name = "sim") (Span.spans ())
      in
      Span.set_enabled false;
      checkb (Printf.sprintf "sim span recorded (shards:%d)" shards) true
        sim_recorded;
      checks
        (Printf.sprintf "telemetry run bit-identical (shards:%d)" shards)
        reference (fingerprint r))
    [ 1; 2 ]

let suite =
  [
    ( "telemetry",
      [
        QCheck_alcotest.to_alcotest prop_span_nesting;
        Alcotest.test_case "disabled tracer is a no-op" `Quick
          test_span_disabled_noop;
        Alcotest.test_case "with_enabled suspends and restores" `Quick
          test_span_with_enabled;
        Alcotest.test_case "raising bodies stay balanced" `Quick
          test_span_exception_balance;
        Alcotest.test_case "publish gauges + span JSON roundtrip" `Quick
          test_span_publish_and_json;
        Alcotest.test_case "chrome export: host track well-formed" `Quick
          test_chrome_export_host_spans;
        Alcotest.test_case "progress: rate-limited to silence" `Quick
          test_progress_rate_limit;
        Alcotest.test_case "progress: prints and finishes" `Quick
          test_progress_prints;
        Alcotest.test_case "diff: identical is clean" `Quick
          test_diff_identical;
        Alcotest.test_case "diff: classification" `Quick test_diff_classes;
        Alcotest.test_case "diff: flatten shapes" `Quick
          test_diff_flatten_nested;
        Alcotest.test_case "rules: max and min" `Quick test_rules_max_min;
        Alcotest.test_case "rules: sum-max and floor" `Quick
          test_rules_sum_max;
        Alcotest.test_case "rules: globs" `Quick test_rules_glob;
        Alcotest.test_case "rules: located parse errors" `Quick
          test_rules_parse_error;
        Alcotest.test_case "rules: committed speed.rules" `Quick
          test_committed_speed_rules;
        Alcotest.test_case "manifest roundtrip + diff lens" `Quick
          test_manifest_roundtrip;
        Alcotest.test_case "spans+progress leave runs bit-identical" `Quick
          test_telemetry_differential;
      ] );
  ]
