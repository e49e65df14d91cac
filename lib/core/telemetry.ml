(* Host-telemetry wiring shared by the CLI and the bench suite: publish
   every host.* gauge into a run's registry, name the format versions,
   digest configs, and assemble manifests. Lives in mosaic (not
   mosaic_obs) because it reaches across layers — Span/Manifest from obs,
   Store from trace, Soc from core. *)

module Metrics = Mosaic_obs.Metrics
module Span = Mosaic_obs.Span
module Manifest = Mosaic_obs.Manifest
module Store = Mosaic_trace.Store
module Trace = Mosaic_trace.Trace

let versions () =
  [
    ("semantics", Store.semantics_version);
    ( "trace_format",
      Printf.sprintf "%s v%d" Trace.magic Trace.format_version );
  ]

(* Soc.config and tile specs are plain data (records, variants, arrays —
   no closures), so a structural Marshal digest identifies the design
   point exactly. NO_SHARING keeps the bytes a function of the value
   alone, not of sharing in how it was built. *)
let config_digest (cfg : Soc.config) ~(tiles : Soc.tile_spec array) =
  Digest.to_hex
    (Digest.string (Marshal.to_string (cfg, tiles) [ Marshal.No_sharing ]))

let publish_host reg =
  Span.publish reg;
  let s = Store.stats () in
  Span.gauge_set reg "host.store.hits"
    (float_of_int (s.Store.memo_hits + s.Store.disk_hits));
  Span.gauge_set reg "host.store.misses" (float_of_int s.Store.interpreted);
  Span.gauge_set reg "host.store.bytes" (float_of_int s.Store.disk_bytes)

let manifest ~kind ~name ?digests ~metrics () =
  publish_host metrics;
  Manifest.make ~kind ~name ~versions:(versions ()) ?digests ~metrics ()
