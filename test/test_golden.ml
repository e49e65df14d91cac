(* Golden-trace regression tests: three small seeded workloads whose
   headline metrics must exactly match test/golden/*.json, plus the
   determinism guarantees the goldens rely on. *)

module Sink = Mosaic_obs.Sink
module Json = Mosaic_obs.Json
module Soc = Mosaic.Soc

let regen_hint =
  "if this change in simulator behaviour is intentional, regenerate the \
   goldens with `dune exec test/regen_golden.exe` from the repository root \
   and commit the diff of test/golden/*.json"

let load_golden name =
  let path = Filename.concat "golden" (Golden_support.golden_file name) in
  if not (Sys.file_exists path) then
    Alcotest.failf "missing golden file %s — %s" path regen_hint;
  let text = In_channel.with_open_text path In_channel.input_all in
  Golden_support.of_json (Json.of_string text)

let check_golden name () =
  let expected = load_golden name in
  let actual = Golden_support.headline (Golden_support.run name) in
  let expected_keys = List.map fst expected
  and actual_keys = List.map fst actual in
  if expected_keys <> actual_keys then
    Alcotest.failf "golden %s: metric set changed (%s vs %s) — %s" name
      (String.concat "," expected_keys)
      (String.concat "," actual_keys)
      regen_hint;
  List.iter2
    (fun (key, want) (_, got) ->
      if got <> want then
        Alcotest.failf "golden %s: %s = %.17g, expected %.17g — %s" name key
          got want regen_hint)
    expected actual

(* Same configuration and seed must produce the identical event stream,
   not just the same summary numbers. Event payloads are plain data, so
   structural equality compares the full streams. *)
let test_deterministic_events () =
  let stream () =
    let sink = Sink.create () in
    let r = Golden_support.run ~sink "micro" in
    (Sink.to_list sink, Golden_support.headline r)
  in
  let events1, headline1 = stream () in
  let events2, headline2 = stream () in
  Alcotest.(check int)
    "stream lengths" (List.length events1) (List.length events2);
  Alcotest.(check bool) "identical event streams" true (events1 = events2);
  Alcotest.(check bool) "identical headline" true (headline1 = headline2)

(* A different dataset seed changes timing (different addresses, different
   cache behaviour) but not the amount of work: instructions retired stay
   equal because the kernel structure is seed-independent. *)
let test_seed_variation () =
  let r1 = Golden_support.run ~seed:1 "spmv" in
  let r2 = Golden_support.run ~seed:2 "spmv" in
  Alcotest.(check int) "instructions equal" r1.Soc.instrs r2.Soc.instrs;
  Alcotest.(check bool)
    "memory behaviour differs" true
    (r1.Soc.cycles <> r2.Soc.cycles
    || r1.Soc.mem_totals <> r2.Soc.mem_totals)

(* Every pinned stress line must reappear verbatim: a timing-model
   change that moves cycles, stepped cycles, MAO stalls, a stall cause or
   the issue/retire stream on any corpus kernel and tile shape fails here
   with the first differing line. *)
let test_pipeline_stress () =
  let path = Filename.concat "golden" Golden_support.stress_file in
  if not (Sys.file_exists path) then
    Alcotest.failf "missing golden file %s — %s" path regen_hint;
  let expected =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let got = Golden_support.stress_lines () in
  Alcotest.(check int) "stress line count" (List.length expected)
    (List.length got);
  List.iter2
    (fun e g ->
      if e <> g then
        Alcotest.failf "expected %s\n     got %s — %s" e g regen_hint)
    expected got

let suite =
  [
    ( "golden",
      List.map
        (fun name ->
          Alcotest.test_case ("headline metrics: " ^ name) `Quick
            (check_golden name))
        Golden_support.names
      @ [
          Alcotest.test_case "same seed, identical event stream" `Quick
            test_deterministic_events;
          Alcotest.test_case "different seed, same instruction count" `Quick
            test_seed_variation;
          Alcotest.test_case "pipeline stress pins" `Slow test_pipeline_stress;
        ] );
  ]
