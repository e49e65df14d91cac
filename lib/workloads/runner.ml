module Interp = Mosaic_trace.Interp
module Store = Mosaic_trace.Store
module Validate = Mosaic_ir.Validate
module Span = Mosaic_obs.Span

type t = {
  name : string;
  program : Mosaic_ir.Program.t;
  kernel : string;
  args : Mosaic_ir.Value.t list;
  setup : Interp.t -> unit;
  check : Interp.t -> bool;
}

let run_checked ~check inst it =
  let trace = Interp.run it in
  if check && not (inst.check it) then
    failwith (Printf.sprintf "workload %s: wrong answer" inst.name);
  trace

(* "trace_gen" spans cover the whole acquisition — dataset setup plus
   interpretation on a miss, or setup plus decode on a cache hit — so
   host.trace_gen_seconds is the wall-clock a run spent obtaining its
   trace, whatever the source. *)
let run_interp ?(check = true) inst it =
  Span.with_span "trace_gen" (fun () ->
      Mosaic_accel.Accel_kinds.register_functional it;
      inst.setup it;
      run_checked ~check inst it)

let trace ?check inst ~ntiles =
  Validate.check_exn inst.program;
  let it =
    Interp.create inst.program ~kernel:inst.kernel ~ntiles ~args:inst.args
  in
  run_interp ?check inst it

let trace_hetero ?check inst ~tiles =
  Validate.check_exn inst.program;
  let it = Interp.create_hetero inst.program ~label:inst.name ~tiles in
  run_interp ?check inst it

(* The cached path still creates the interpreter and runs dataset setup
   (cheap, and the post-setup memory image is part of the cache key); only
   the expensive [Interp.run] is skipped on a hit. On a miss the prepared
   interpreter is consumed by [Store.fetch]'s generate thunk, so the trace
   a hit returns is bit-identical to the one a miss would have produced.
   A request is the fresh interpreter plus the label and tile assignment
   the key names; [prepare] is the only code that computes a key. *)
let prepare inst (it, label, tiles) =
  Mosaic_accel.Accel_kinds.register_functional it;
  inst.setup it;
  Store.workload_digest ~program:inst.program ~label ~tiles
    ~mem:(Interp.memory_contents it)

let homogeneous inst ~ntiles =
  Validate.check_exn inst.program;
  let it =
    Interp.create inst.program ~kernel:inst.kernel ~ntiles ~args:inst.args
  in
  (it, inst.kernel, Array.make ntiles (inst.kernel, inst.args))

let hetero inst ~tiles =
  Validate.check_exn inst.program;
  (Interp.create_hetero inst.program ~label:inst.name ~tiles, inst.name, tiles)

let cached ?(check = true) inst ((it, _, _) as request) =
  Span.with_span "trace_gen" (fun () ->
      let digest = prepare inst request in
      Store.fetch ~digest ~generate:(fun () -> run_checked ~check inst it))

let trace_cached_full ?check inst ~ntiles =
  cached ?check inst (homogeneous inst ~ntiles)

let trace_cached ?check inst ~ntiles =
  fst (trace_cached_full ?check inst ~ntiles)

let trace_hetero_cached_full ?check inst ~tiles =
  cached ?check inst (hetero inst ~tiles)

let trace_hetero_cached ?check inst ~tiles =
  fst (trace_hetero_cached_full ?check inst ~tiles)

let cache_digest inst ~ntiles = prepare inst (homogeneous inst ~ntiles)

let cache_digest_hetero inst ~tiles = prepare inst (hetero inst ~tiles)

let execute inst ~ntiles =
  Validate.check_exn inst.program;
  let it =
    Interp.create inst.program ~kernel:inst.kernel ~ntiles ~args:inst.args
  in
  let tr = run_interp ~check:true inst it in
  (it, tr)

(* Independent simulations share no mutable state (every Soc/Interp run owns
   its own records), so a batch parallelizes across OCaml 5 domains. The
   domain pool writes each task's result into its input-order slot, so the
   output is identical to [List.map (fun f -> f ()) tasks] regardless of
   [jobs] — callers can flip parallelism on without re-validating output. *)
let run_batch ~jobs tasks =
  Array.to_list (Mosaic_util.Domain_pool.run ~jobs (Array.of_list tasks))
