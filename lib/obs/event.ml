(* Typed, timestamped simulation events. Components emit these into a
   [Sink.t]; exporters turn the recorded stream into Chrome trace-event
   JSON (see Trace_export). Payloads are plain immutable data so event
   streams can be compared structurally for determinism tests. *)

type cache_outcome = Hit | Miss | Evict | Writeback

type payload =
  | Instr_issue of { tile : int; seq : int; cls : string }
  | Instr_retire of { tile : int; seq : int }
  | Cache_access of { cache : string; outcome : cache_outcome }
  | Dram_row_activate of { bank : int; row : int }
  | Interleaver_handoff of { src : int; dst : int; chan : int }
  | Accel_invoke of { tile : int; kind : string; cycles : int }
  | Stall_sample of { tile : int; counts : int array }

type t = { cycle : int; payload : payload }

let outcome_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Evict -> "evict"
  | Writeback -> "writeback"

(* Short human-readable event name, used as the Chrome trace "name". *)
let name e =
  match e.payload with
  | Instr_issue _ -> "issue"
  | Instr_retire _ -> "retire"
  | Cache_access { outcome; _ } -> outcome_to_string outcome
  | Dram_row_activate _ -> "row_activate"
  | Interleaver_handoff _ -> "handoff"
  | Accel_invoke { kind; _ } -> kind
  | Stall_sample _ -> "stalls"

(* Track (Chrome trace thread) the event belongs to: one per tile, one per
   cache level, and one each for DRAM, the interleaver and accelerators. *)
let track e =
  match e.payload with
  | Instr_issue { tile; _ } | Instr_retire { tile; _ } | Stall_sample { tile; _ }
    ->
      Printf.sprintf "tile.%d" tile
  | Cache_access { cache; _ } -> (
      (* Per-tile caches are named "l1.0", "l2.3", ...; the track is the
         level alone so all tiles' L1 events share one row. *)
      match String.index_opt cache '.' with
      | Some i -> String.sub cache 0 i
      | None -> cache)
  | Dram_row_activate _ -> "dram"
  | Interleaver_handoff _ -> "interleaver"
  | Accel_invoke _ -> "accel"
