open Mosaic_ir
module Fenwick = Mosaic_util.Fenwick

type t = {
  dyn_instrs : int;
  mem_accesses : int;
  mem_ratio : float;
  footprint_lines : int;
  reuse_hist : (int * int) list;
  stride_regular : float;
}

let line_size = 64

let bucket_bounds =
  (* powers of two up to 2^24 lines (1 GB of 64B lines), then cold *)
  List.init 25 (fun i -> 1 lsl i) @ [ max_int ]

(* Replay the control path popping each memory instruction's address
   stream, yielding the true dynamic access order. *)
let dynamic_addresses (func : Func.t) (tt : Trace.tile_trace) =
  let cursor = Trace.Cursor.create tt in
  let out = Mosaic_util.Int_vec.create ~initial_capacity:1024 () in
  (* Loops, not iterators: a closure per block and an option per step
     would allocate on every dynamic block of the trace. *)
  let bid = ref (Trace.Cursor.next_block_id cursor) in
  while !bid >= 0 do
    let instrs = (Func.block func !bid).Func.instrs in
    for k = 0 to Array.length instrs - 1 do
      let i = instrs.(k) in
      if Op.is_mem i.Instr.op then
        Mosaic_util.Int_vec.push out
          (Trace.Cursor.next_addr cursor ~instr_id:i.Instr.id)
    done;
    bid := Trace.Cursor.next_block_id cursor
  done;
  Mosaic_util.Int_vec.to_array out

(* LRU stack distances via the classic Fenwick-tree algorithm: for access i
   to a line last touched at j, the stack distance is the number of
   distinct lines touched in (j, i). *)
let reuse_histogram addrs =
  let n = Array.length addrs in
  let bit = Fenwick.create (Stdlib.max n 1) in
  let last = Mosaic_util.Int_table.create ~initial_capacity:4096 () in
  let buckets = Array.make (List.length bucket_bounds) 0 in
  let cold = Array.length buckets - 1 in
  for i = 0 to n - 1 do
    let line = addrs.(i) / line_size in
    let j = Mosaic_util.Int_table.find last line ~default:(-1) in
    if j >= 0 then begin
      let distance = Fenwick.range_sum bit ~lo:(j + 1) ~hi:(i - 1) in
      (* The first power-of-two bound above [distance] (bit length), or
         the last bucket past 2^24. *)
      let b = ref 0 in
      while !b < cold && distance >= 1 lsl !b do incr b done;
      buckets.(!b) <- buckets.(!b) + 1;
      Fenwick.add bit j (-1)
    end
    else
      (* cold miss: infinite distance *)
      buckets.(cold) <- buckets.(cold) + 1;
    Mosaic_util.Int_table.set last line i;
    Fenwick.add bit i 1
  done;
  (List.map2 (fun bound count -> (bound, count)) bucket_bounds
     (Array.to_list buckets),
   Mosaic_util.Int_table.length last)

(* Per static instruction: does the stride repeat? *)
let stride_regularity (tt : Trace.tile_trace) =
  let regular = ref 0 and total = ref 0 in
  Array.iter
    (fun addrs ->
      let n = Array.length addrs in
      for i = 2 to n - 1 do
        incr total;
        if addrs.(i) - addrs.(i - 1) = addrs.(i - 1) - addrs.(i - 2) then
          incr regular
      done)
    tt.Trace.mem_addrs;
  if !total = 0 then 0.0 else float_of_int !regular /. float_of_int !total

let tile func (tt : Trace.tile_trace) =
  let addrs = dynamic_addresses func tt in
  let reuse_hist, footprint_lines = reuse_histogram addrs in
  let mem_accesses = Array.length addrs in
  {
    dyn_instrs = tt.Trace.dyn_instrs;
    mem_accesses;
    mem_ratio =
      (if tt.Trace.dyn_instrs = 0 then 0.0
       else float_of_int mem_accesses /. float_of_int tt.Trace.dyn_instrs);
    footprint_lines;
    reuse_hist;
    stride_regular = stride_regularity tt;
  }

let whole prog (trace : Trace.t) =
  let parts =
    Array.to_list
      (Array.map
         (fun (tt : Trace.tile_trace) ->
           tile (Program.func_exn prog tt.Trace.kernel) tt)
         trace.Trace.tiles)
  in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 parts in
  let dyn_instrs = sum (fun p -> p.dyn_instrs) in
  let mem_accesses = sum (fun p -> p.mem_accesses) in
  let reuse_hist =
    List.map
      (fun bound ->
        ( bound,
          List.fold_left
            (fun acc p -> acc + List.assoc bound p.reuse_hist)
            0 parts ))
      bucket_bounds
  in
  let weighted_stride =
    let total = float_of_int (Stdlib.max mem_accesses 1) in
    List.fold_left
      (fun acc p ->
        acc +. (p.stride_regular *. float_of_int p.mem_accesses /. total))
      0.0 parts
  in
  {
    dyn_instrs;
    mem_accesses;
    mem_ratio =
      (if dyn_instrs = 0 then 0.0
       else float_of_int mem_accesses /. float_of_int dyn_instrs);
    footprint_lines = sum (fun p -> p.footprint_lines);
    reuse_hist;
    stride_regular = weighted_stride;
  }

let capacity_hit_rate t ~lines =
  if t.mem_accesses = 0 then 0.0
  else
    let hits =
      List.fold_left
        (fun acc (bound, count) -> if bound <= lines then acc + count else acc)
        0 t.reuse_hist
    in
    float_of_int hits /. float_of_int t.mem_accesses

(* ------------------------------------------------------------------ *)
(* Config-independent trace skeleton (incremental DSE)                 *)
(* ------------------------------------------------------------------ *)

let nclasses = List.length Op.all_classes
let classes = Array.of_list Op.all_classes

let class_index =
  let tbl = Hashtbl.create 32 in
  List.iteri (fun i c -> Hashtbl.replace tbl c i) Op.all_classes;
  fun c -> Hashtbl.find tbl c

(* Baseline weights for picking the longest dependence chain. They only
   decide *which* chain is the argmax; the re-timer prices the winning
   chain's composition under each candidate config, so these stay
   config-independent by construction. Memory ops get a mid-hierarchy
   estimate, accelerator calls are priced separately (additive model). *)
let chain_weight = function
  | Op.C_ialu | Op.C_agu | Op.C_branch -> 1
  | Op.C_imul | Op.C_falu -> 3
  | Op.C_fmul -> 4
  | Op.C_fdiv -> 15
  | Op.C_idiv -> 18
  | Op.C_fmath -> 20
  | Op.C_load | Op.C_store -> 30
  | Op.C_atomic -> 40
  | Op.C_send | Op.C_recv -> 5
  | Op.C_accel -> 0

type tile_skeleton = {
  tile : int;
  kernel : string;
  locality : t;
  class_counts : int array;
  cp_classes : int array;
  cp_mem : int;
  cp_atomics : int;
  cp_nodes : int;
  sends : int;
  recvs : int;
  accel_calls : (string * Value.t array) array;
}

type skeleton = {
  label : string;
  ntiles : int;
  tiles : tile_skeleton array;
  total_dyn_instrs : int;
}

(* One pass over the control path recovering dynamic def-use chains by
   last-writer tracking (exactly how the tile model wires DBBs at launch).
   Per register we keep the chain depth plus the chain's composition — a
   per-class node count with memory and atomic ops broken out — so the
   argmax chain can be re-priced under any config without re-walking. *)
let dependence_chain (func : Func.t) (tt : Trace.tile_trace) =
  let nregs = Stdlib.max func.Func.nregs 1 in
  let k = nclasses + 2 in
  let mem_slot = nclasses and atomic_slot = nclasses + 1 in
  let reg_depth = Array.make nregs 0 in
  let comp = Array.make (nregs * k) 0 in
  let scratch = Array.make k 0 in
  let best = Array.make k 0 in
  let best_depth = ref 0 in
  let class_counts = Array.make nclasses 0 in
  let sends = ref 0 and recvs = ref 0 in
  (* Loops over the path and the operands, not iterators over
     [Instr.uses]: a closure per block and a list per instruction would
     allocate on every dynamic instruction of the trace. *)
  let path = tt.Trace.bb_path in
  for p = 0 to Array.length path - 1 do
    let instrs = (Func.block func path.(p)).Func.instrs in
    for x = 0 to Array.length instrs - 1 do
      let i = instrs.(x) in
      let cls = Op.classify i.Instr.op in
      let ci = class_index cls in
      class_counts.(ci) <- class_counts.(ci) + 1;
      (match i.Instr.op with
      | Op.Send _ | Op.Load_send _ -> incr sends
      | Op.Recv _ | Op.Store_recv _ -> incr recvs
      | _ -> ());
      (* Deepest producer among the registers read; the first register in
         operand order wins a tie (a repeated operand never does). *)
      let pd = ref 0 and pr = ref (-1) in
      let args = i.Instr.args in
      for a = 0 to Array.length args - 1 do
        match args.(a) with
        | Instr.Reg r when r < nregs && reg_depth.(r) > !pd ->
            pd := reg_depth.(r);
            pr := r
        | _ -> ()
      done;
      if !pr >= 0 then Array.blit comp (!pr * k) scratch 0 k
      else Array.fill scratch 0 k 0;
      if Op.is_mem i.Instr.op then begin
        scratch.(mem_slot) <- scratch.(mem_slot) + 1;
        if cls = Op.C_atomic then
          scratch.(atomic_slot) <- scratch.(atomic_slot) + 1
      end
      else scratch.(ci) <- scratch.(ci) + 1;
      let nd = !pd + chain_weight cls in
      (match i.Instr.dst with
      | Some r when r < nregs ->
          reg_depth.(r) <- nd;
          Array.blit scratch 0 comp (r * k) k
      | _ -> ());
      if nd > !best_depth then begin
        best_depth := nd;
        Array.blit scratch 0 best 0 k
      end
    done
  done;
  let cp_classes = Array.sub best 0 nclasses in
  let cp_nodes = Array.fold_left ( + ) 0 best in
  (class_counts, cp_classes, best.(mem_slot), best.(atomic_slot), cp_nodes,
   !sends, !recvs)

let tile_skeleton (func : Func.t) (tt : Trace.tile_trace) =
  let class_counts, cp_classes, cp_mem, cp_atomics, cp_nodes, sends, recvs =
    dependence_chain func tt
  in
  let accel_calls =
    let acc = ref [] in
    Array.iter
      (fun ((i : Instr.t), _) ->
        match i.Instr.op with
        | Op.Accel kind ->
            Array.iter
              (fun params -> acc := (kind, params) :: !acc)
              tt.Trace.accel_params.(i.Instr.id)
        | _ -> ())
      func.Func.index;
    Array.of_list (List.rev !acc)
  in
  {
    tile = tt.Trace.tile;
    kernel = tt.Trace.kernel;
    locality = tile func tt;
    class_counts;
    cp_classes;
    cp_mem;
    cp_atomics;
    cp_nodes;
    sends;
    recvs;
    accel_calls;
  }

let skeleton prog (trace : Trace.t) =
  {
    label = trace.Trace.kernel;
    ntiles = trace.Trace.ntiles;
    tiles =
      Array.map
        (fun (tt : Trace.tile_trace) ->
          tile_skeleton (Program.func_exn prog tt.Trace.kernel) tt)
        trace.Trace.tiles;
    total_dyn_instrs = Trace.total_dyn_instrs trace;
  }

let pp_skeleton ppf (s : skeleton) =
  Format.fprintf ppf "@[<v>skeleton: %s (%d tiles, %d dyn instrs)@ " s.label
    s.ntiles s.total_dyn_instrs;
  Array.iter
    (fun ts ->
      Format.fprintf ppf
        "tile %d (%s): %d instrs, chain %d nodes (%d mem, %d atomic), %d \
         sends, %d recvs, %d accel calls@ "
        ts.tile ts.kernel ts.locality.dyn_instrs ts.cp_nodes ts.cp_mem
        ts.cp_atomics ts.sends ts.recvs
        (Array.length ts.accel_calls);
      Format.fprintf ppf "  mix:";
      Array.iteri
        (fun i cls ->
          if ts.class_counts.(i) > 0 then
            Format.fprintf ppf " %s=%d" (Op.class_to_string cls)
              ts.class_counts.(i))
        classes;
      Format.fprintf ppf "@ ")
    s.tiles;
  Format.fprintf ppf "@]"

let pp ppf t =
  Format.fprintf ppf
    "@[<v>dyn instrs: %d@ mem accesses: %d (ratio %.3f)@ footprint: %d lines \
     (%d KB)@ stride regularity: %.1f%%@ reuse hist (lines <= bound: \
     accesses):@ "
    t.dyn_instrs t.mem_accesses t.mem_ratio t.footprint_lines
    (t.footprint_lines * line_size / 1024)
    (100.0 *. t.stride_regular);
  List.iter
    (fun (bound, count) ->
      if count > 0 then
        if bound = max_int then Format.fprintf ppf "  cold: %d@ " count
        else Format.fprintf ppf "  <=%d: %d@ " bound count)
    t.reuse_hist;
  Format.fprintf ppf "@]"
