open Mosaic_ir
module Int_vec = Mosaic_util.Int_vec

(* Keys are byte addresses (multiples of the element size) and channel
   ids, so the hash mixes high bits down before the table masks them. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)
end)

type status = Running | Blocked | Finished

type tile_state = {
  tile : int;
  kernel : Func.t;
  regs : Value.t array;
  operands : Instr.operand array array;
      (** by instruction id: the instruction's args with every
          [Glob]/[Tid]/[Ntiles] already turned into an [Imm] *)
  mutable bid : int;
  mutable ip : int;
  mutable status : status;
  bb_path : Int_vec.t;
  mem_accs : Int_vec.t array;
  accel_accs : Value.t array list ref array;
  send_accs : Int_vec.t array;
  mutable dyn : int;
}

type t = {
  prog : Program.t;
  label : string;
  ntiles : int;
  mem : Value.t Int_tbl.t;
  channels : Value.t Queue.t Int_tbl.t array;  (** by dst tile, then chan *)
  tiles : tile_state array;
  accel_fns : (string, t -> Value.t array -> unit) Hashtbl.t;
  mutable total_steps : int;
  mutable ran : bool;
}

exception Deadlock of string
exception Step_limit of int

(* Operands fixed for a tile's lifetime are resolved once, in [make_tile].
   A [Glob] naming no global is left as it is, so the lookup fails only if
   the instruction ever executes. *)
let resolve prog ~ntiles ~tile (operand : Instr.operand) =
  match operand with
  | Instr.Glob g -> (
      match Program.find_global prog g with
      | Some gl -> Instr.Imm (Value.of_int gl.Program.base)
      | None -> operand)
  | Instr.Tid -> Instr.Imm (Value.of_int tile)
  | Instr.Ntiles -> Instr.Imm (Value.of_int ntiles)
  | Instr.Reg _ | Instr.Imm _ -> operand

let make_tile prog ~ntiles tile (kernel_name, args) =
  let f = Program.func_exn prog kernel_name in
  if List.length args <> f.Func.nparams then
    invalid_arg
      (Printf.sprintf "Interp: %s expects %d args, got %d" kernel_name
         f.Func.nparams (List.length args));
  let regs = Array.make (Stdlib.max f.Func.nregs 1) Value.zero in
  List.iteri (fun i v -> regs.(i) <- v) args;
  {
    tile;
    kernel = f;
    regs;
    operands =
      Array.map
        (fun ((i : Instr.t), _) ->
          Array.map (resolve prog ~ntiles ~tile) i.Instr.args)
        f.Func.index;
    bid = 0;
    ip = 0;
    status = Running;
    bb_path = Int_vec.create ();
    mem_accs = Array.init f.Func.ninstrs (fun _ -> Int_vec.create ());
    accel_accs = Array.init f.Func.ninstrs (fun _ -> ref []);
    send_accs = Array.init f.Func.ninstrs (fun _ -> Int_vec.create ());
    dyn = 0;
  }

let create_hetero prog ~label ~tiles =
  let ntiles = Array.length tiles in
  if ntiles <= 0 then invalid_arg "Interp.create_hetero: no tiles";
  let tiles = Array.mapi (fun i spec -> make_tile prog ~ntiles i spec) tiles in
  Array.iter (fun ts -> Int_vec.push ts.bb_path 0) tiles;
  {
    prog;
    label;
    ntiles;
    mem = Int_tbl.create 4096;
    channels = Array.init ntiles (fun _ -> Int_tbl.create 4);
    tiles;
    accel_fns = Hashtbl.create 4;
    total_steps = 0;
    ran = false;
  }

let create prog ~kernel ~ntiles ~args =
  if ntiles <= 0 then invalid_arg "Interp.create: ntiles must be positive";
  create_hetero prog ~label:kernel
    ~tiles:(Array.make ntiles (kernel, args))

let register_accel t name fn = Hashtbl.replace t.accel_fns name fn

let poke t addr v = Int_tbl.replace t.mem addr v

let peek t addr =
  match Int_tbl.find t.mem addr with v -> v | exception Not_found -> Value.zero

let global_addr (g : Program.global) i =
  if i < 0 || i >= g.Program.elems then
    invalid_arg
      (Printf.sprintf "Interp: index %d out of bounds for @%s" i
         g.Program.gname);
  g.Program.base + (i * g.Program.elem_size)

let poke_global t g i v = poke t (global_addr g i) v

let peek_global t g i = peek t (global_addr g i)

(* [poke] only ever [Int_tbl.replace]s, so each address has one binding;
   sorting makes the snapshot independent of hash order. *)
let memory_contents t =
  let arr = Array.make (Int_tbl.length t.mem) (0, Value.zero) in
  let i = ref 0 in
  Int_tbl.iter
    (fun addr v ->
      arr.(!i) <- (addr, v);
      incr i)
    t.mem;
  Array.sort (fun (a, _) (b, _) -> Stdlib.compare a b) arr;
  arr

(* [dst] is a valid tile id: sends check it, receivers pass their own. *)
let channel_queue t ~dst ~chan =
  let queues = t.channels.(dst) in
  match Int_tbl.find queues chan with
  | q -> q
  | exception Not_found ->
      let q = Queue.create () in
      Int_tbl.replace queues chan q;
      q

(* [operand] comes from [ts.operands]: a [Glob] there is unresolved and
   its lookup raises. *)
let eval t ts (operand : Instr.operand) =
  match operand with
  | Instr.Reg r -> ts.regs.(r)
  | Instr.Imm v -> v
  | Instr.Glob g -> Value.of_int (Program.global_exn t.prog g).Program.base
  | Instr.Tid | Instr.Ntiles -> assert false (* resolved in [make_tile] *)

let set_dst ts (i : Instr.t) v =
  match i.Instr.dst with
  | Some d -> ts.regs.(d) <- v
  | None -> ()

let arg t ts ops n = eval t ts ops.(n)

let goto ts target =
  ts.bid <- target;
  ts.ip <- 0;
  Int_vec.push ts.bb_path target

let advance ts = ts.ip <- ts.ip + 1

(* Execute the instruction at [ts.ip]; returns [false] when the tile must
   block (recv on an empty channel) without advancing. *)
let exec_instr t ts (i : Instr.t) =
  let ops = ts.operands.(i.Instr.id) in
  match i.Instr.op with
  | Op.Binop op ->
      let a = Value.to_int64 (arg t ts ops 0)
      and b = Value.to_int64 (arg t ts ops 1) in
      set_dst ts i (Value.Int (Eval.ibinop op a b));
      advance ts;
      true
  | Op.Fbinop op ->
      let a = Value.to_float (arg t ts ops 0)
      and b = Value.to_float (arg t ts ops 1) in
      set_dst ts i (Value.Float (Eval.fbinop op a b));
      advance ts;
      true
  | Op.Icmp p ->
      let a = Value.to_int64 (arg t ts ops 0)
      and b = Value.to_int64 (arg t ts ops 1) in
      set_dst ts i (Value.of_bool (Eval.pred_int p a b));
      advance ts;
      true
  | Op.Fcmp p ->
      let a = Value.to_float (arg t ts ops 0)
      and b = Value.to_float (arg t ts ops 1) in
      set_dst ts i (Value.of_bool (Eval.pred_float p a b));
      advance ts;
      true
  | Op.Select ->
      set_dst ts i
        (if Value.to_bool (arg t ts ops 0) then arg t ts ops 1
         else arg t ts ops 2);
      advance ts;
      true
  | Op.Cast c ->
      let v = arg t ts ops 0 in
      let result =
        match c with
        | Op.Sitofp -> Value.Float (Value.to_float v)
        | Op.Fptosi -> Value.Int (Int64.of_float (Value.to_float v))
        | Op.Zext -> Value.Int (Value.to_int64 v)
        | Op.Trunc ->
            Value.Int (Int64.of_int32 (Int64.to_int32 (Value.to_int64 v)))
      in
      set_dst ts i result;
      advance ts;
      true
  | Op.Math m ->
      let args = Array.map (fun a -> Value.to_float (eval t ts a)) ops in
      set_dst ts i (Value.Float (Eval.math m args));
      advance ts;
      true
  | Op.Gep scale ->
      let base = Value.to_int (arg t ts ops 0)
      and idx = Value.to_int (arg t ts ops 1) in
      set_dst ts i (Value.of_int (base + (idx * scale)));
      advance ts;
      true
  | Op.Load _ ->
      let addr = Value.to_int (arg t ts ops 0) in
      Int_vec.push ts.mem_accs.(i.Instr.id) addr;
      set_dst ts i (peek t addr);
      advance ts;
      true
  | Op.Store _ ->
      let addr = Value.to_int (arg t ts ops 0) in
      Int_vec.push ts.mem_accs.(i.Instr.id) addr;
      poke t addr (arg t ts ops 1);
      advance ts;
      true
  | Op.Atomic_rmw (rmw, _) ->
      let addr = Value.to_int (arg t ts ops 0) in
      Int_vec.push ts.mem_accs.(i.Instr.id) addr;
      let old = peek t addr in
      poke t addr (Eval.rmw rmw old (arg t ts ops 1));
      set_dst ts i old;
      advance ts;
      true
  | Op.Send chan ->
      let dst = Value.to_int (arg t ts ops 0) in
      if dst < 0 || dst >= t.ntiles then
        invalid_arg (Printf.sprintf "Interp: send to bad tile %d" dst);
      Int_vec.push ts.send_accs.(i.Instr.id) dst;
      Queue.add (arg t ts ops 1) (channel_queue t ~dst ~chan);
      advance ts;
      true
  | Op.Load_send (chan, _) ->
      let dst = Value.to_int (arg t ts ops 0) in
      if dst < 0 || dst >= t.ntiles then
        invalid_arg (Printf.sprintf "Interp: load_send to bad tile %d" dst);
      let addr = Value.to_int (arg t ts ops 1) in
      Int_vec.push ts.mem_accs.(i.Instr.id) addr;
      Int_vec.push ts.send_accs.(i.Instr.id) dst;
      Queue.add (peek t addr) (channel_queue t ~dst ~chan);
      advance ts;
      true
  | Op.Recv chan -> (
      let q = channel_queue t ~dst:ts.tile ~chan in
      match Queue.take_opt q with
      | Some v ->
          set_dst ts i v;
          advance ts;
          true
      | None ->
          ts.status <- Blocked;
          false)
  | Op.Store_recv (chan, _, rmw) -> (
      let q = channel_queue t ~dst:ts.tile ~chan in
      match Queue.take_opt q with
      | Some v ->
          let addr = Value.to_int (arg t ts ops 0) in
          Int_vec.push ts.mem_accs.(i.Instr.id) addr;
          (match rmw with
          | Some r -> poke t addr (Eval.rmw r (peek t addr) v)
          | None -> poke t addr v);
          advance ts;
          true
      | None ->
          ts.status <- Blocked;
          false)
  | Op.Accel kind ->
      let params = Array.map (eval t ts) ops in
      let cell = ts.accel_accs.(i.Instr.id) in
      cell := params :: !cell;
      (match Hashtbl.find_opt t.accel_fns kind with
      | Some fn -> fn t params
      | None -> ());
      advance ts;
      true
  | Op.Br target ->
      goto ts target;
      true
  | Op.Cond_br (taken, not_taken) ->
      goto ts (if Value.to_bool (arg t ts ops 0) then taken else not_taken);
      true
  | Op.Ret ->
      ts.status <- Finished;
      true

let step_tile t ts ~quantum ~max_steps =
  let executed = ref 0 in
  let continue = ref true in
  while !continue && ts.status = Running && !executed < quantum do
    if t.total_steps >= max_steps then raise (Step_limit t.total_steps);
    let blk = Func.block ts.kernel ts.bid in
    let i = blk.Func.instrs.(ts.ip) in
    if exec_instr t ts i then begin
      ts.dyn <- ts.dyn + 1;
      t.total_steps <- t.total_steps + 1;
      incr executed
    end
    else continue := false
  done;
  !executed

let steps t = t.total_steps

let finalize_trace t =
  let tiles =
    Array.map
      (fun ts ->
        {
          Trace.tile = ts.tile;
          kernel = ts.kernel.Func.name;
          bb_path = Int_vec.to_array ts.bb_path;
          mem_addrs = Array.map Int_vec.to_array ts.mem_accs;
          accel_params =
            Array.map (fun cell -> Array.of_list (List.rev !cell)) ts.accel_accs;
          send_dsts = Array.map Int_vec.to_array ts.send_accs;
          dyn_instrs = ts.dyn;
        })
      t.tiles
  in
  { Trace.kernel = t.label; ntiles = t.ntiles; tiles }

let run ?(max_steps = 200_000_000) t =
  if t.ran then invalid_arg "Interp.run: handle already consumed";
  t.ran <- true;
  let quantum = 10_000 in
  let all_finished () =
    Array.for_all (fun ts -> ts.status = Finished) t.tiles
  in
  let round () =
    let progressed = ref 0 in
    Array.iter
      (fun ts ->
        if ts.status = Blocked then ts.status <- Running;
        if ts.status = Running then
          progressed := !progressed + step_tile t ts ~quantum ~max_steps)
      t.tiles;
    !progressed
  in
  let rec loop () =
    if not (all_finished ()) then begin
      let progressed = round () in
      if progressed = 0 && not (all_finished ()) then
        raise
          (Deadlock
             (Printf.sprintf "kernel %s: all unfinished tiles blocked on recv"
                t.label));
      loop ()
    end
  in
  loop ();
  finalize_trace t
