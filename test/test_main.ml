(* Aggregated alcotest runner for the whole reproduction. *)

let () =
  Alcotest.run "mosaicsim"
    (Test_util.suite @ Test_ir.suite @ Test_parse.suite @ Test_interp.suite
   @ Test_compiler.suite @ Test_memory.suite @ Test_mao.suite
   @ Test_tile.suite @ Test_soc.suite @ Test_accel.suite
   @ Test_workloads.suite @ Test_baseline.suite @ Test_extensions.suite @ Test_analysis.suite @ Test_validation.suite @ Test_dae_property.suite @ Test_presets.suite @ Test_minic.suite @ Test_obs.suite @ Test_golden.suite @ Test_cycle_skip.suite @ Test_batch.suite @ Test_trace_store.suite @ Test_profile.suite @ Test_mir.suite
   @ Test_retime.suite @ Test_shard.suite
   @ Test_telemetry.suite @ Test_run_stream.suite)
