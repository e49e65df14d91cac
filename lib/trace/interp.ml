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

(* Interpreter memory. Every 4-byte-aligned address from the first global
   up to [Program.heap_end] at [create] (the span, capped at [max_span]
   bytes) lives in an unboxed image: one slot per aligned address, grouped
   into pages of [page_slots] slots that are allocated on first write. A
   page is one [Bytes.t]: a tag byte per slot ([unset], [tag_int],
   [tag_float]) followed by an 8-byte payload per slot, the [int64] or the
   float's bits. Any other address (unaligned, negative, past the span, or
   in a global allocated after [create]) is bound in [table] instead, so
   each address has exactly one home. Neither holds a pointer per word, so
   pokes allocate nothing in the major heap and the GC never scans them. *)
let page_bits = 12

let page_slots = 1 lsl page_bits

(* 2^30 slots: the page directory stays at 2^18 words (2 MB). *)
let max_span = 1 lsl 32

let unset = '\000'

let tag_int = '\001'

let tag_float = '\002'

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Shared by every unallocated page directory entry; never written. *)
let no_page = Bytes.empty

type memory = {
  lo : int;  (** address of slot 0: the first global's base *)
  span : int;  (** bytes covered by the image *)
  pages : Bytes.t array;
  mutable bound : int;  (** image slots holding a value *)
  table : Value.t Int_tbl.t;
}

let make_memory prog =
  let lo =
    match Program.globals prog with
    | g :: _ -> g.Program.base
    | [] -> Program.heap_end prog
  in
  let span = Stdlib.min max_span (Stdlib.max 0 (Program.heap_end prog - lo)) in
  (* A span that ends mid-word still has a slot for its last aligned
     address. *)
  let nslots = (span + 3) lsr 2 in
  let npages = (nslots + page_slots - 1) lsr page_bits in
  {
    lo;
    span;
    pages = Array.make npages no_page;
    bound = 0;
    table = Int_tbl.create 16;
  }

(* The image slot of [addr], or -1 when [addr] lives in the table. *)
let slot_of m addr =
  let off = addr - m.lo in
  if off >= 0 && off < m.span && off land 3 = 0 then off lsr 2 else -1

let payload i = page_slots + (i lsl 3)

let slot_value page i =
  let tag = Bytes.unsafe_get page i in
  if tag == tag_int then Value.Int (get64u page (payload i))
  else if tag == tag_float then
    Value.Float (Int64.float_of_bits (get64u page (payload i)))
  else Value.zero

(* The page holding image slot [s], allocated on first write. *)
let page_for_write m s =
  let p = s lsr page_bits in
  let page = Array.unsafe_get m.pages p in
  if page != no_page then page
  else begin
    let page = Bytes.make (9 * page_slots) unset in
    m.pages.(p) <- page;
    page
  end

(* Register files share the pages' layout: [n] slots, a tag byte each at
   offset [s], then their 8-byte payloads from offset [n], a multiple of 8.
   A slot is named by its tag offset [s] and payload offset [p = n + 8s],
   both fixed when an instruction is compiled. Registers start as [Int 0]
   and are only ever overwritten, so a register's tag is never [unset].
   The readers below are [Value.to_int64], [Value.to_float] and
   [Value.to_bool] on a slot.

   A float payload is read and written in place as a float: the float
   array primitives load and store 8 bytes at an 8-byte-aligned offset of
   any block without looking at its tag, which saves the C calls of
   [Int64.float_of_bits] and [Int64.bits_of_float] on every float
   operand. *)

external get_f64 : Bytes.t -> int -> float = "%floatarray_unsafe_get"
external set_f64 : Bytes.t -> int -> float -> unit = "%floatarray_unsafe_set"

let[@inline] get_i64 regs s p =
  let b = get64u regs p in
  if Bytes.unsafe_get regs s == tag_float then
    Int64.of_float (Int64.float_of_bits b)
  else b

let[@inline] get_int regs s p = Int64.to_int (get_i64 regs s p)

let[@inline] get_float regs s p =
  if Bytes.unsafe_get regs s == tag_float then get_f64 regs (p lsr 3)
  else Int64.to_float (get64u regs p)

let[@inline] get_bool regs s p =
  if Bytes.unsafe_get regs s == tag_float then get_f64 regs (p lsr 3) <> 0.0
  else not (Int64.equal (get64u regs p) 0L)

let[@inline] set_i64 regs s p x =
  Bytes.unsafe_set regs s tag_int;
  set64u regs p x

let[@inline] set_float regs s p f =
  Bytes.unsafe_set regs s tag_float;
  set_f64 regs (p lsr 3) f

let[@inline] copy src ss sp dst ds dp =
  Bytes.unsafe_set dst ds (Bytes.unsafe_get src ss);
  set64u dst dp (get64u src sp)

let get_value regs s p =
  let b = get64u regs p in
  if Bytes.unsafe_get regs s == tag_float then
    Value.Float (Int64.float_of_bits b)
  else Value.Int b

let set_value regs s p = function
  | Value.Int x -> set_i64 regs s p x
  | Value.Float f -> set_float regs s p f

type status = Running | Blocked | Finished

(* A compiled basic block. [steps.(ip)] executes the instruction at [ip]
   alone and returns [false] when it blocks (a [recv] on an empty channel)
   without executing; [steps] ends with a stub that fails like running off
   the block's end. [whole] executes the entire block from its first
   instruction, each instruction tail-calling the next; it exists when the
   block can neither block nor fail before its terminator, and [len] is then
   its instruction count (otherwise [no_whole]). The fields are filled in
   once every block exists, so that a branch holds its target block. *)
type block = {
  mutable steps : (unit -> bool) array;
  mutable whole : unit -> bool;
  mutable len : int;
}

(* A length no fuel covers, and that a step count can be added to. *)
let no_whole = max_int / 2

let fell_off () = invalid_arg "index out of bounds"

type tile_state = {
  tile : int;
  kernel : Func.t;
  args : Value.t list;
  mutable code : block array;  (** by block id; filled by [compile] *)
  mutable bid : int;  (** the current block; an int, so moving costs no
                          write barrier *)
  mutable ip : int;
  mutable fuel : int;
      (** steps the tile may still take in this quantum; a whole block
          runs only when its length is covered, and takes its length *)
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
  mem : memory;
  channels : Value.t Queue.t Int_tbl.t array;  (** by dst tile, then chan *)
  tiles : tile_state array;
  accel_fns : (string, t -> Value.t array -> unit) Hashtbl.t;
  mutable total_steps : int;
  mutable ran : bool;
}

exception Deadlock of string
exception Step_limit of int

let make_tile prog tile (kernel_name, args) =
  let f = Program.func_exn prog kernel_name in
  if List.length args <> f.Func.nparams then
    invalid_arg
      (Printf.sprintf "Interp: %s expects %d args, got %d" kernel_name
         f.Func.nparams (List.length args));
  {
    tile;
    kernel = f;
    args;
    code = [||];
    bid = 0;
    ip = 0;
    fuel = 0;
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
  let tiles = Array.mapi (make_tile prog) tiles in
  Array.iter (fun ts -> Int_vec.push ts.bb_path 0) tiles;
  {
    prog;
    label;
    ntiles;
    mem = make_memory prog;
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

let peek t addr =
  let m = t.mem in
  let s = slot_of m addr in
  if s >= 0 then
    let page = Array.unsafe_get m.pages (s lsr page_bits) in
    if page == no_page then Value.zero
    else slot_value page (s land (page_slots - 1))
  else
    match Int_tbl.find m.table addr with
    | v -> v
    | exception Not_found -> Value.zero

let poke t addr (v : Value.t) =
  let m = t.mem in
  let s = slot_of m addr in
  if s >= 0 then begin
    let page = page_for_write m s in
    let i = s land (page_slots - 1) in
    if Bytes.unsafe_get page i == unset then m.bound <- m.bound + 1;
    set_value page i (payload i) v
  end
  else Int_tbl.replace m.table addr v

(* [peek] and [poke] between memory and register-file slots, copying tag
   and payload: an image slot never becomes a [Value.t] on the way. An
   unset slot's payload bytes are zero, so it reads as [Int 0]. *)

let load t addr regs s p =
  let m = t.mem in
  let k = slot_of m addr in
  if k >= 0 then begin
    let page = Array.unsafe_get m.pages (k lsr page_bits) in
    if page == no_page then set_i64 regs s p 0L
    else begin
      let i = k land (page_slots - 1) in
      let tag = Bytes.unsafe_get page i in
      Bytes.unsafe_set regs s (if tag == unset then tag_int else tag);
      set64u regs p (get64u page (payload i))
    end
  end
  else set_value regs s p (peek t addr)

let store t addr regs s p =
  let m = t.mem in
  let k = slot_of m addr in
  if k >= 0 then begin
    let page = page_for_write m k in
    let i = k land (page_slots - 1) in
    if Bytes.unsafe_get page i == unset then m.bound <- m.bound + 1;
    copy regs s p page i (payload i)
  end
  else Int_tbl.replace m.table addr (get_value regs s p)

(* [Eval.rmw] on an image slot: the operand is read before the old value
   lands in the destination, which may be the same register. *)
let atomic t r addr regs ~vs ~vp ~ds ~dp =
  let m = t.mem in
  let k = slot_of m addr in
  if k >= 0 then begin
    let page = page_for_write m k in
    let i = k land (page_slots - 1) in
    let tag = Bytes.unsafe_get page i and old = get64u page (payload i) in
    if tag == unset then m.bound <- m.bound + 1;
    (match r with
    | Op.Rmw_xchg -> copy regs vs vp page i (payload i)
    | _ when tag == tag_float ->
        set_float page i (payload i)
          (Eval.rmw_float r (Int64.float_of_bits old) (get_float regs vs vp))
    | _ ->
        set_i64 page i (payload i) (Eval.rmw_int r old (get_i64 regs vs vp)));
    Bytes.unsafe_set regs ds (if tag == unset then tag_int else tag);
    set64u regs dp old
  end
  else begin
    let old = peek t addr in
    Int_tbl.replace m.table addr (Eval.rmw r old (get_value regs vs vp));
    set_value regs ds dp old
  end

let global_addr (g : Program.global) i =
  if i < 0 || i >= g.Program.elems then
    invalid_arg
      (Printf.sprintf "Interp: index %d out of bounds for @%s" i
         g.Program.gname);
  g.Program.base + (i * g.Program.elem_size)

let poke_global t g i v = poke t (global_addr g i) v

let peek_global t g i = peek t (global_addr g i)

(* Pages are walked in address order; the table's few bindings are sorted
   and merged in, so the image itself is never sorted. *)
let memory_contents t =
  let m = t.mem in
  let extra = Array.make (Int_tbl.length m.table) (0, Value.zero) in
  let n = ref 0 in
  Int_tbl.iter
    (fun addr v ->
      extra.(!n) <- (addr, v);
      incr n)
    m.table;
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) extra;
  let out = Array.make (m.bound + Array.length extra) (0, Value.zero) in
  let k = ref 0 and j = ref 0 in
  Array.iteri
    (fun p page ->
      if page != no_page then
        for i = 0 to page_slots - 1 do
          if Bytes.unsafe_get page i != unset then begin
            let addr = m.lo + (((p lsl page_bits) + i) lsl 2) in
            while !j < Array.length extra && fst extra.(!j) < addr do
              out.(!k) <- extra.(!j);
              incr k;
              incr j
            done;
            out.(!k) <- (addr, slot_value page i);
            incr k
          end
        done)
    m.pages;
  Array.blit extra !j out !k (Array.length extra - !j);
  out

(* [dst] is a valid tile id: sends check it, receivers pass their own. *)
let channel_queue t ~dst ~chan =
  let queues = t.channels.(dst) in
  match Int_tbl.find queues chan with
  | q -> q
  | exception Not_found ->
      let q = Queue.create () in
      Int_tbl.replace queues chan q;
      q

let check_dst t op dst =
  if dst < 0 || dst >= t.ntiles then
    invalid_arg (Printf.sprintf "Interp: %s to bad tile %d" op dst)

(* A branch to a block the kernel does not have fails on the next step,
   where the block is looked up. *)
let missing_block ts target =
  let fail () = ignore (Func.block ts.kernel target); false in
  { steps = [| fail |]; whole = fail; len = no_whole }

let code_of ts bid =
  if bid >= 0 && bid < Array.length ts.code then Array.unsafe_get ts.code bid
  else missing_block ts bid

(* Enter block [bid], whose code is [blk], and, while the tile's fuel
   covers all of it, run it whole: the next terminator does the same, so a
   tile runs from block to block without returning to [step_tile]. *)
let goto ts bid blk =
  Int_vec.push ts.bb_path bid;
  ts.ip <- 0;
  ts.bid <- bid;
  if blk.len <= ts.fuel then begin
    ts.fuel <- ts.fuel - blk.len;
    blk.whole ()
  end
  else true

(* The closure for instruction [i]: it does the instruction's work and
   then tail-calls [k], or, for a terminator, moves the tile to its next
   block. Each operand [j] is the register-file slot [ops.(j)] (payload at
   [pays.(j)]); [d], [dp] is the destination slot. Every array index below
   is taken here, once, so the closures themselves only touch the register
   file, the memory and the tile. *)
let instr t ts regs ~ops ~pays ~d ~dp ~k ~target (i : Instr.t) =
  let mem_accs () = ts.mem_accs.(i.Instr.id) in
  let send_accs () = ts.send_accs.(i.Instr.id) in
  match i.Instr.op with
  | Op.Binop op ->
      let a = ops.(0) and pa = pays.(0) and b = ops.(1) and pb = pays.(1) in
      fun () ->
        set_i64 regs d dp
          (Eval.ibinop op (get_i64 regs a pa) (get_i64 regs b pb));
        k ()
  | Op.Fbinop op ->
      let a = ops.(0) and pa = pays.(0) and b = ops.(1) and pb = pays.(1) in
      fun () ->
        set_float regs d dp
          (Eval.fbinop op (get_float regs a pa) (get_float regs b pb));
        k ()
  | Op.Icmp pred ->
      let a = ops.(0) and pa = pays.(0) and b = ops.(1) and pb = pays.(1) in
      fun () ->
        set_i64 regs d dp
          (if Eval.pred_int pred (get_i64 regs a pa) (get_i64 regs b pb)
           then 1L
           else 0L);
        k ()
  | Op.Fcmp pred ->
      let a = ops.(0) and pa = pays.(0) and b = ops.(1) and pb = pays.(1) in
      fun () ->
        set_i64 regs d dp
          (if Eval.pred_float pred (get_float regs a pa) (get_float regs b pb)
           then 1L
           else 0L);
        k ()
  | Op.Select ->
      let c = ops.(0) and pc = pays.(0) in
      let a = ops.(1) and pa = pays.(1) and b = ops.(2) and pb = pays.(2) in
      fun () ->
        if get_bool regs c pc then copy regs a pa regs d dp
        else copy regs b pb regs d dp;
        k ()
  | Op.Cast c -> (
      let a = ops.(0) and pa = pays.(0) in
      match c with
      | Op.Sitofp ->
          fun () ->
            set_float regs d dp (get_float regs a pa);
            k ()
      | Op.Fptosi ->
          fun () ->
            set_i64 regs d dp (Eval.fptosi (get_float regs a pa));
            k ()
      | Op.Zext ->
          fun () ->
            set_i64 regs d dp (get_i64 regs a pa);
            k ()
      | Op.Trunc ->
          fun () ->
            set_i64 regs d dp (Eval.trunc (get_i64 regs a pa));
            k ())
  | Op.Math m -> (
      match (ops, pays) with
      | [| a |], [| pa |] ->
          fun () ->
            set_float regs d dp (Eval.math1 m (get_float regs a pa));
            k ()
      | [| a; b |], [| pa; pb |] ->
          fun () ->
            set_float regs d dp
              (Eval.math2 m (get_float regs a pa) (get_float regs b pb));
            k ()
      | _ ->
          fun () ->
            set_float regs d dp
              (Eval.math m (Array.map2 (get_float regs) ops pays));
            k ())
  | Op.Gep scale ->
      let a = ops.(0) and pa = pays.(0) and b = ops.(1) and pb = pays.(1) in
      fun () ->
        let base = get_int regs a pa and idx = get_int regs b pb in
        set_i64 regs d dp (Int64.of_int (Eval.gep scale base idx));
        k ()
  | Op.Load _ ->
      let a = ops.(0) and pa = pays.(0) and accs = mem_accs () in
      fun () ->
        let addr = get_int regs a pa in
        Int_vec.push accs addr;
        load t addr regs d dp;
        k ()
  | Op.Store _ ->
      let a = ops.(0) and pa = pays.(0) and v = ops.(1) and pv = pays.(1) in
      let accs = mem_accs () in
      fun () ->
        let addr = get_int regs a pa in
        Int_vec.push accs addr;
        store t addr regs v pv;
        k ()
  | Op.Atomic_rmw (r, _) ->
      let a = ops.(0) and pa = pays.(0) and vs = ops.(1) and vp = pays.(1) in
      let accs = mem_accs () in
      fun () ->
        let addr = get_int regs a pa in
        Int_vec.push accs addr;
        atomic t r addr regs ~vs ~vp ~ds:d ~dp;
        k ()
  | Op.Send chan ->
      let a = ops.(0) and pa = pays.(0) and v = ops.(1) and pv = pays.(1) in
      let sends = send_accs () in
      fun () ->
        let dst = get_int regs a pa in
        check_dst t "send" dst;
        Int_vec.push sends dst;
        Queue.add (get_value regs v pv) (channel_queue t ~dst ~chan);
        k ()
  | Op.Load_send (chan, _) ->
      let a = ops.(0) and pa = pays.(0) and b = ops.(1) and pb = pays.(1) in
      let accs = mem_accs () and sends = send_accs () in
      fun () ->
        let dst = get_int regs a pa in
        check_dst t "load_send" dst;
        let addr = get_int regs b pb in
        Int_vec.push accs addr;
        Int_vec.push sends dst;
        Queue.add (peek t addr) (channel_queue t ~dst ~chan);
        k ()
  | Op.Recv chan ->
      let q = channel_queue t ~dst:ts.tile ~chan in
      fun () ->
        if Queue.is_empty q then begin
          ts.status <- Blocked;
          false
        end
        else begin
          set_value regs d dp (Queue.take q);
          k ()
        end
  | Op.Store_recv (chan, _, rmw) ->
      let q = channel_queue t ~dst:ts.tile ~chan in
      let a = ops.(0) and pa = pays.(0) and accs = mem_accs () in
      fun () ->
        if Queue.is_empty q then begin
          ts.status <- Blocked;
          false
        end
        else begin
          let v = Queue.take q in
          let addr = get_int regs a pa in
          Int_vec.push accs addr;
          (match rmw with
          | Some r -> poke t addr (Eval.rmw r (peek t addr) v)
          | None -> poke t addr v);
          k ()
        end
  | Op.Accel kind ->
      let cell = ts.accel_accs.(i.Instr.id) in
      fun () ->
        let params = Array.map2 (get_value regs) ops pays in
        cell := params :: !cell;
        (match Hashtbl.find_opt t.accel_fns kind with
        | Some fn -> fn t params
        | None -> ());
        k ()
  | Op.Br bid ->
      let blk = target bid in
      fun () -> goto ts bid blk
  | Op.Cond_br (taken, not_taken) ->
      let c = ops.(0) and pc = pays.(0) in
      let t = target taken and n = target not_taken in
      fun () ->
        if get_bool regs c pc then goto ts taken t else goto ts not_taken n
  | Op.Ret ->
      fun () ->
        ts.status <- Finished;
        true

(* Compile tile [ts]'s kernel against a register file of its own: the
   kernel's registers, then one read-only constant slot per non-register
   operand ([Imm], [Tid], [Ntiles], and [Glob] resolved to its address),
   then one slot that takes results nobody reads. Every instruction is
   compiled twice, into [steps] and into [whole], over the same slots. *)
let compile t ts =
  let f = ts.kernel in
  let nregs = Stdlib.max f.Func.nregs 1 in
  let nconst =
    Array.fold_left
      (fun acc (blk : Func.block) ->
        Array.fold_left
          (fun acc (i : Instr.t) ->
            Array.fold_left
              (fun acc -> function Instr.Reg _ -> acc | _ -> acc + 1)
              acc i.Instr.args)
          acc blk.Func.instrs)
      0 f.Func.blocks
  in
  let n = (nregs + nconst + 1 + 7) land lnot 7 in
  let discard = nregs + nconst in
  let regs = Bytes.make (9 * n) '\000' in
  Bytes.fill regs 0 n tag_int;
  let pay s = n + (s lsl 3) in
  List.iteri
    (fun r v ->
      if r >= nregs then invalid_arg "Interp: more arguments than registers";
      set_value regs r (pay r) v)
    ts.args;
  let next_const = ref nregs in
  let const v =
    let s = !next_const in
    incr next_const;
    set_value regs s (pay s) v;
    s
  in
  let nblocks = Array.length f.Func.blocks in
  ts.code <-
    Array.init nblocks (fun _ ->
        { steps = [||]; whole = fell_off; len = no_whole });
  let target bid =
    if bid >= 0 && bid < nblocks then ts.code.(bid) else missing_block ts bid
  in
  (* Returns the instruction's closure, given what it does after its work
     ([k]: the rest of the block, or the advance past it), and a flag that
     is cleared once the instruction is known to fail before its work. *)
  let prepare (i : Instr.t) =
    let unresolved = ref [] and bad_reg = ref false in
    let slot r =
      if r >= 0 && r < nregs then r
      else begin
        bad_reg := true;
        discard
      end
    in
    let ops =
      Array.map
        (function
          | Instr.Reg r -> slot r
          | Instr.Imm v -> const v
          | Instr.Tid -> const (Value.of_int ts.tile)
          | Instr.Ntiles -> const (Value.of_int t.ntiles)
          | Instr.Glob g -> (
              match Program.find_global t.prog g with
              | Some gl -> const (Value.of_int gl.Program.base)
              | None ->
                  let s = const Value.zero in
                  unresolved := (g, s) :: !unresolved;
                  s))
        i.Instr.args
    in
    let d = match i.Instr.dst with Some r -> slot r | None -> discard in
    let pays = Array.map pay ops and dp = pay d in
    let globs = !unresolved in
    let safe = ref ((not !bad_reg) && globs = []) in
    let compiled k =
      match instr t ts regs ~ops ~pays ~d ~dp ~k ~target i with
      | _ when !bad_reg -> fell_off
      | exception Invalid_argument msg ->
          safe := false;
          fun () -> invalid_arg msg
      | body when globs = [] -> body
      | body ->
          (* A [Glob] naming no global fails only when its instruction
             executes. *)
          fun () ->
            List.iter
              (fun (g, s) ->
                set_i64 regs s (pay s)
                  (Int64.of_int (Program.global_exn t.prog g).Program.base))
              globs;
            body ()
    in
    (compiled, safe)
  in
  let compile_block code (blk : Func.block) =
    let instrs = blk.Func.instrs in
    let len = Array.length instrs in
    let prepared = Array.map prepare instrs in
    let steps =
      Array.init (len + 1) (fun ip ->
          if ip = len then fell_off
          else
            let next = ip + 1 in
            fst prepared.(ip) (fun () ->
                ts.ip <- next;
                true))
    in
    let whole = ref fell_off and whole_ok = ref (len > 0) in
    for ip = len - 1 downto 0 do
      let op = instrs.(ip).Instr.op in
      let compiled, safe = prepared.(ip) in
      (match op with
      | Op.Recv _ | Op.Store_recv _ -> whole_ok := false
      | _ -> ());
      if (not !safe) || Op.is_terminator op <> (ip = len - 1) then
        whole_ok := false;
      whole := compiled !whole
    done;
    code.steps <- steps;
    if !whole_ok then begin
      code.whole <- !whole;
      code.len <- len
    end
  in
  Array.iter2 compile_block ts.code f.Func.blocks

(* The quantum and the step budget are the tile's fuel, so a quantum
   ends, and [Step_limit] fires, at the same instruction as when stepping
   one instruction at a time. A single step is paid for before it runs,
   since its terminator may go on into whole blocks, and refunded if it
   blocks. *)
let step_tile t ts ~quantum ~max_steps =
  let base = t.total_steps in
  let limit = Stdlib.min quantum (max_steps - base) in
  ts.fuel <- limit;
  let commit () =
    let n = limit - ts.fuel in
    ts.dyn <- ts.dyn + n;
    t.total_steps <- base + n;
    n
  in
  match
    while ts.status == Running && limit - ts.fuel < quantum do
      let blk = code_of ts ts.bid in
      if ts.ip = 0 && blk.len <= ts.fuel then begin
        ts.fuel <- ts.fuel - blk.len;
        ignore (blk.whole ())
      end
      else begin
        let n = limit - ts.fuel in
        if base + n >= max_steps then raise (Step_limit (base + n));
        ts.fuel <- ts.fuel - 1;
        if not ((Array.unsafe_get blk.steps ts.ip) ()) then
          ts.fuel <- ts.fuel + 1
      end
    done
  with
  | () -> commit ()
  | exception e ->
      ignore (commit ());
      raise e

let steps t = t.total_steps

(* A handle runs once, so each stream's chunks are dropped as soon as
   they are copied out, rather than live as long as the handle. *)
let take v =
  let a = Int_vec.to_array v in
  Int_vec.clear v;
  a

let finalize_trace t =
  let tiles =
    Array.map
      (fun ts ->
        {
          Trace.tile = ts.tile;
          kernel = ts.kernel.Func.name;
          bb_path = take ts.bb_path;
          mem_addrs = Array.map take ts.mem_accs;
          accel_params =
            Array.map (fun cell -> Array.of_list (List.rev !cell)) ts.accel_accs;
          send_dsts = Array.map take ts.send_accs;
          dyn_instrs = ts.dyn;
        })
      t.tiles
  in
  { Trace.kernel = t.label; ntiles = t.ntiles; tiles }

let run ?(max_steps = 200_000_000) t =
  if t.ran then invalid_arg "Interp.run: handle already consumed";
  t.ran <- true;
  Array.iter (compile t) t.tiles;
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
