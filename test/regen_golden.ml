(* Regenerate the golden headline-metric files used by test_golden.ml.

   Run from the repository root after an intentional behaviour change:

     dune exec test/regen_golden.exe

   then inspect the diff of test/golden/*.json and
   test/golden/pipeline_stress.txt before committing it. An
   alternative output directory can be given as the first argument. *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun name ->
      let r = Golden_support.run name in
      let path = Filename.concat dir (Golden_support.golden_file name) in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (Mosaic_obs.Json.to_string
               (Golden_support.to_json (Golden_support.headline r)));
          Out_channel.output_char oc '\n');
      Printf.printf "wrote %s\n" path)
    Golden_support.names;
  let path = Filename.concat dir Golden_support.stress_file in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun line ->
          Out_channel.output_string oc line;
          Out_channel.output_char oc '\n')
        (Golden_support.stress_lines ()));
  Printf.printf "wrote %s\n" path
