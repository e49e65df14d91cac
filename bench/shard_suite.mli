(** The multi-tile workload suite that measures and guards the sharded
    scheduler. The speed section runs each entry serially and sharded,
    fails unless both give the same cycles, and publishes
    [speed.shard.*]; `mosaicsim diff` then holds those cycles to the
    committed baseline. *)

type entry = {
  name : string;
  ntiles : int;
  run : shards:int -> Mosaic.Soc.result;
      (** builds (or fetches from the trace store) the workload's trace
          and simulates it with the given shard count; [shards:1] is the
          serial scheduler *)
}

val entries : entry list
