module Int_ring = Mosaic_util.Int_ring
module Int_table = Mosaic_util.Int_table
module Int_heap = Mosaic_util.Int_heap

type stats = {
  mutable sends : int;
  mutable recvs : int;
  mutable send_stalls : int;
  mutable max_occupancy : int;
}

(* (dst, chan) pairs key both the message buffers and the owed counters.
   Packing them into one int keeps the lookups in monomorphic int tables:
   the previous tuple-keyed [Hashtbl]s allocated a key per send/receive and
   probed twice (find then replace). Channel ids are small enumerations, so
   20 bits is far beyond any configuration. *)
let pack ~dst ~chan = (dst lsl 20) lor chan

type t = {
  capacity : int;
  wire_latency : int;
  buffers : Int_table.t;  (** packed key -> index into [rings] *)
  mutable rings : Int_ring.t array;
  mutable nrings : int;
  owed : Int_table.t;
      (** per packed (dst, chan): consumptions committed before the message *)
  mutable occupancy : int;
      (** running total of buffered messages across all channels *)
  arrivals : Int_heap.t;
      (** arrival cycles of buffered sends, drained lazily; its head is the
          conservative next-event view for the cycle-skipping scheduler *)
  stats : stats;
  sink : Mosaic_obs.Sink.t;
}

let create ?(buffer_capacity = 512) ?(wire_latency = 1)
    ?(sink = Mosaic_obs.Sink.null) () =
  if buffer_capacity <= 0 then
    invalid_arg "Interleaver.create: buffer_capacity must be positive";
  {
    capacity = buffer_capacity;
    wire_latency;
    buffers = Int_table.create ~initial_capacity:16 ();
    rings = [||];
    nrings = 0;
    owed = Int_table.create ~initial_capacity:16 ();
    occupancy = 0;
    arrivals = Int_heap.create ();
    stats = { sends = 0; recvs = 0; send_stalls = 0; max_occupancy = 0 };
    sink;
  }

let buffer t ~dst ~chan =
  let key = pack ~dst ~chan in
  let i = Int_table.find t.buffers key ~default:(-1) in
  if i >= 0 then t.rings.(i)
  else begin
    let q = Int_ring.create ~capacity:t.capacity in
    if t.nrings = Array.length t.rings then begin
      let grown = Array.make (Stdlib.max 8 (2 * t.nrings)) q in
      Array.blit t.rings 0 grown 0 t.nrings;
      t.rings <- grown
    end;
    t.rings.(t.nrings) <- q;
    Int_table.set t.buffers key t.nrings;
    t.nrings <- t.nrings + 1;
    q
  end

let occupancy t = t.occupancy
let capacity t = t.capacity

let emit_handoff t ~src ~dst ~chan ~cycle =
  if Mosaic_obs.Sink.enabled t.sink then
    Mosaic_obs.Sink.emit t.sink ~cycle
      (Mosaic_obs.Event.Interleaver_handoff { src; dst; chan })

let send t ~src ~dst ~chan ~cycle ~available =
  let owed_slot = Int_table.probe t.owed (pack ~dst ~chan) in
  if owed_slot >= 0 && Int_table.value_at t.owed owed_slot > 0 then begin
    (* The consumer already committed this slot; the message is absorbed. *)
    Int_table.set_at t.owed owed_slot (Int_table.value_at t.owed owed_slot - 1);
    t.stats.sends <- t.stats.sends + 1;
    emit_handoff t ~src ~dst ~chan ~cycle;
    true
  end
  else
    let q = buffer t ~dst ~chan in
    let arrival = available + t.wire_latency in
    if Int_ring.push q arrival then begin
      t.stats.sends <- t.stats.sends + 1;
      emit_handoff t ~src ~dst ~chan ~cycle;
      t.occupancy <- t.occupancy + 1;
      Int_heap.push t.arrivals ~prio:arrival 0;
      if t.occupancy > t.stats.max_occupancy then
        t.stats.max_occupancy <- t.occupancy;
      true
    end
    else begin
      t.stats.send_stalls <- t.stats.send_stalls + 1;
      false
    end

let take_or_owe t ~tile ~chan =
  let q = buffer t ~dst:tile ~chan in
  if not (Int_ring.is_empty q) then begin
    ignore (Int_ring.pop_exn q);
    t.occupancy <- t.occupancy - 1;
    t.stats.recvs <- t.stats.recvs + 1;
    true
  end
  else begin
    let key = pack ~dst:tile ~chan in
    let slot = Int_table.probe t.owed key in
    let owed = if slot >= 0 then Int_table.value_at t.owed slot else 0 in
    if owed >= t.capacity then false
    else begin
      if slot >= 0 then Int_table.set_at t.owed slot (owed + 1)
      else Int_table.set t.owed key 1;
      t.stats.recvs <- t.stats.recvs + 1;
      true
    end
  end

let try_recv t ~tile ~chan ~cycle =
  let q = buffer t ~dst:tile ~chan in
  if Int_ring.is_empty q then -1
  else begin
    let arrival = Int_ring.pop_exn q in
    t.occupancy <- t.occupancy - 1;
    t.stats.recvs <- t.stats.recvs + 1;
    Stdlib.max (cycle + 1) arrival
  end

(* Buffered messages are consumable as soon as they are enqueued (arrival
   only bounds the receive-completion cycle), so this is a conservative
   wake-up hint, not a gate: the scheduler may wake at an arrival and find
   nothing to do. Entries for already-consumed or already-arrived messages
   are drained lazily here. *)
let next_arrival t ~cycle =
  while
    (not (Int_heap.is_empty t.arrivals))
    && Int_heap.min_prio t.arrivals <= cycle
  do
    Int_heap.drop_min t.arrivals
  done;
  if Int_heap.is_empty t.arrivals then max_int else Int_heap.min_prio t.arrivals

let stats t = t.stats

(* --- Fast-forward support ---

   The functional fast-forward executor models each (dst, chan) channel as
   a pair of counters — buffered messages and owed consumptions — seeded
   from the live state here, replayed against the trace, and committed
   back when detailed simulation resumes. *)

let ff_channel t ~dst ~chan =
  let key = pack ~dst ~chan in
  let i = Int_table.find t.buffers key ~default:(-1) in
  let buffered = if i >= 0 then Int_ring.length t.rings.(i) else 0 in
  (buffered, Int_table.find t.owed key ~default:0)

let ff_set_channel t ~dst ~chan ~buffered ~owed ~sends ~recvs ~cycle =
  let q = buffer t ~dst ~chan in
  (* Oldest tokens were consumed first; tokens minted during fast-forward
     are available at the resume cycle. *)
  let net = buffered - Int_ring.length q in
  if net < 0 then
    for _ = 1 to -net do
      ignore (Int_ring.pop_exn q)
    done
  else
    for _ = 1 to net do
      if not (Int_ring.push q cycle) then
        invalid_arg "Interleaver.ff_set_channel: buffered beyond capacity";
      Int_heap.push t.arrivals ~prio:cycle 0
    done;
  Int_table.set t.owed (pack ~dst ~chan) owed;
  t.occupancy <- t.occupancy + net;
  t.stats.sends <- t.stats.sends + sends;
  t.stats.recvs <- t.stats.recvs + recvs;
  if t.occupancy > t.stats.max_occupancy then
    t.stats.max_occupancy <- t.occupancy

(* Publish the messaging counters under "inter.*" into a metrics
   registry; the report's memory table reads these. *)
let publish t reg =
  let module M = Mosaic_obs.Metrics in
  let c name v = M.incr ~by:v (M.counter reg name) in
  c "inter.sends" t.stats.sends;
  c "inter.recvs" t.stats.recvs;
  c "inter.send_stalls" t.stats.send_stalls;
  c "inter.max_occupancy" t.stats.max_occupancy
