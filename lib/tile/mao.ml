module Int_table = Mosaic_util.Int_table

type kind = K_load | K_store

(* Entries live in a struct-of-arrays ring indexed by absolute position
   (monotonically increasing; slot = position land mask). The previous
   implementation kept an [entry list] with an O(n) append per insert and a
   list rebuild per prune — on the issue path of every memory node. The
   ring appends in O(1), prunes by advancing [head], and [can_issue] scans
   the live window over flat arrays. *)
type t = {
  capacity : int;
  perfect_alias : bool;
  mutable seqs : int array;
  mutable stores : bool array;  (** kind, unpacked: true = store *)
  mutable addrs : int array;
  mutable sizes : int array;
  mutable resolved : bool array;
  mutable completed : bool array;
  mutable head : int;  (** absolute index of the oldest retained entry *)
  mutable tail : int;  (** absolute index one past the newest *)
  index : Int_table.t;  (** seq -> absolute index, pruned entries removed *)
  mutable stall_count : int;
  (* Snapshot of the live window for [can_issue]: ascending absolute
     positions of live (non-completed) entries, and of the live stores
     alone. Rebuilt lazily when membership changed ([snap_dirty]); between
     changes — typically many issue attempts, often whole stalled cycles —
     queries reuse it, turning the O(window) per-attempt scan into a walk
     of just the entries that can actually block. *)
  mutable snap_live : int array;
  mutable snap_nlive : int;
  mutable snap_stores : int array;
  mutable snap_nstores : int;
  mutable snap_dirty : bool;
}

let initial_ring = 64

let create ~capacity ~perfect_alias =
  if capacity <= 0 then invalid_arg "Mao.create: capacity must be positive";
  {
    capacity;
    perfect_alias;
    seqs = Array.make initial_ring 0;
    stores = Array.make initial_ring false;
    addrs = Array.make initial_ring 0;
    sizes = Array.make initial_ring 0;
    resolved = Array.make initial_ring false;
    completed = Array.make initial_ring false;
    head = 0;
    tail = 0;
    index = Int_table.create ~initial_capacity:initial_ring ();
    stall_count = 0;
    snap_live = Array.make initial_ring 0;
    snap_nlive = 0;
    snap_stores = Array.make initial_ring 0;
    snap_nstores = 0;
    snap_dirty = true;
  }

let mask t = Array.length t.seqs - 1

let prune t =
  let m = mask t in
  while t.head < t.tail && t.completed.(t.head land m) do
    Int_table.remove t.index t.seqs.(t.head land m);
    t.head <- t.head + 1
  done

let grow t =
  let old_len = Array.length t.seqs in
  let old_mask = old_len - 1 in
  let len = old_len * 2 in
  let m = len - 1 in
  let seqs = Array.make len 0
  and stores = Array.make len false
  and addrs = Array.make len 0
  and sizes = Array.make len 0
  and resolved = Array.make len false
  and completed = Array.make len false in
  for a = t.head to t.tail - 1 do
    let src = a land old_mask and dst = a land m in
    seqs.(dst) <- t.seqs.(src);
    stores.(dst) <- t.stores.(src);
    addrs.(dst) <- t.addrs.(src);
    sizes.(dst) <- t.sizes.(src);
    resolved.(dst) <- t.resolved.(src);
    completed.(dst) <- t.completed.(src)
  done;
  t.seqs <- seqs;
  t.stores <- stores;
  t.addrs <- addrs;
  t.sizes <- sizes;
  t.resolved <- resolved;
  t.completed <- completed

let insert t ~seq ~kind ~addr ~size =
  if Int_table.mem t.index seq then
    invalid_arg (Printf.sprintf "Mao.insert: duplicate seq %d" seq);
  if t.tail - t.head = Array.length t.seqs then grow t;
  let s = t.tail land mask t in
  t.seqs.(s) <- seq;
  t.stores.(s) <- (kind = K_store);
  t.addrs.(s) <- addr;
  t.sizes.(s) <- size;
  t.resolved.(s) <- t.perfect_alias;
  t.completed.(s) <- false;
  Int_table.set t.index seq t.tail;
  t.tail <- t.tail + 1;
  t.snap_dirty <- true

let find t seq =
  let a = Int_table.find t.index seq ~default:min_int in
  if a = min_int then invalid_arg (Printf.sprintf "Mao: unknown seq %d" seq);
  a

let resolve t ~seq = t.resolved.(find t seq land mask t) <- true

let overlaps t i j =
  t.addrs.(i) < t.addrs.(j) + t.sizes.(j)
  && t.addrs.(j) < t.addrs.(i) + t.sizes.(i)

(* [me] and [older] are slots of live (non-completed) entries. *)
let conflicts t ~me older =
  if not t.resolved.(older) then true
  else if not t.resolved.(me) then true
  else overlaps t me older

let rebuild_snapshot t =
  let m = mask t in
  let need = t.tail - t.head in
  if Array.length t.snap_live < need then begin
    let cap = ref (Array.length t.snap_live * 2) in
    while !cap < need do cap := !cap * 2 done;
    t.snap_live <- Array.make !cap 0;
    t.snap_stores <- Array.make !cap 0
  end;
  let nl = ref 0 in
  let ns = ref 0 in
  for a = t.head to t.tail - 1 do
    let s = a land m in
    if not t.completed.(s) then begin
      t.snap_live.(!nl) <- a;
      incr nl;
      if t.stores.(s) then begin
        t.snap_stores.(!ns) <- a;
        incr ns
      end
    end
  done;
  t.snap_nlive <- !nl;
  t.snap_nstores <- !ns;
  t.snap_dirty <- false

let can_issue t ~seq =
  prune t;
  if t.snap_dirty then rebuild_snapshot t;
  let me_abs = find t seq in
  let m = mask t in
  let me = me_abs land m in
  let me_load = not t.stores.(me) in
  (* Rank of [me] among live entries = its index in the ascending
     snapshot (binary search; [me] is live, so it is present). *)
  let lo = ref 0 in
  let hi = ref t.snap_nlive in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.snap_live.(mid) <= me_abs then lo := mid else hi := mid
  done;
  let rank = !lo in
  let ok =
    (* Inside the capacity window of oldest in-flight entries? *)
    if rank >= t.capacity then false
    else begin
      (* Only stores can block a load; anything older can block a store. *)
      let arr = if me_load then t.snap_stores else t.snap_live in
      let n = if me_load then t.snap_nstores else t.snap_nlive in
      let i = ref 0 in
      let blocked = ref false in
      while (not !blocked) && !i < n && arr.(!i) < me_abs do
        if conflicts t ~me (arr.(!i) land m) then blocked := true else incr i
      done;
      not !blocked
    end
  in
  if not ok then t.stall_count <- t.stall_count + 1;
  ok

let complete t ~seq =
  t.completed.(find t seq land mask t) <- true;
  t.snap_dirty <- true;
  prune t

let occupancy t =
  prune t;
  let m = mask t in
  let n = ref 0 in
  for a = t.head to t.tail - 1 do
    if not t.completed.(a land m) then incr n
  done;
  !n

let stalls t = t.stall_count
