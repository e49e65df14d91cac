(* Ordering kernel for sharded SoC simulation.

   The sharded scheduler in [Soc] partitions tiles into contiguous
   ascending ranges, one per shard (domain), and sweeps them in cycle
   lockstep: every shard visits the same sequence of simulated cycles,
   stepping its own tiles in ascending id order. Tile-private work runs
   freely in parallel; any operation that touches shared simulator state
   (interleaver rings, LLC/DRAM, directory, accelerator manager) is a
   *point* [(seq, tile)] in the global program order that the serial
   scheduler would have executed it at, where [seq] counts visited
   cycles and [tile] is the acting tile's id.

   The protocol makes those shared operations execute one at a time, in
   exactly ascending point order, without a lock:

   - each shard owns an atomic *horizon*: a packed point promising "all
     my shared operations at points < horizon are done, and my next one
     is >= horizon". A shard publishes [(seq, t)] before stepping tile
     [t] and [(seq + 1, first_tile)] when its sweep for [seq] ends, so
     the horizon only ever advances.
   - a shared operation at point [p] first waits until every *other*
     shard's horizon is > [p]. Distinct shards hold distinct tiles, so
     points are unique; of any two shards attempting operations, the
     lower point proceeds and the higher spins on the lower's horizon —
     mutual exclusion and ascending order follow. Waits only ever target
     shards that own lower tile ids (earlier program-order turns), so
     the wait graph is acyclic and the protocol cannot deadlock.

   Sweeps are separated by a combined barrier: the last shard to arrive
   runs the reduction (the serial scheduler's end-of-cycle decision) and
   releases the rest. The barrier's seq_cst counters give the reducer a
   happens-before edge over every shard's plain-field writes from the
   finished sweep, so it may read any tile's state directly.

   Waiting is spin-then-park. A waiter spins on [Domain.cpu_relax] for
   up to [spin_budget] checks (long when every shard has a core, short
   when shards outnumber cores and a spinner would only burn the
   timeslice its peer needs), then parks on the coordinator's condition
   variable. Parking increments [sleepers] and re-checks the predicate
   under [lock]; every state change a waiter can wait for (a horizon
   store, the barrier phase flip, the failure flag) is an atomic store
   followed by a read of [sleepers] that broadcasts under [lock] when it
   is non-zero. Both sides are seq_cst, so either the waiter's re-check
   sees the new state or the waker sees the waiter counted — and since
   the waiter holds [lock] from its increment until [Condition.wait]
   releases it, the waker's broadcast cannot slip in between. No wake-up
   is lost, and the uncontended path pays one atomic load per store.

   Failure anywhere (a stepping shard or the reduction) records the
   exception, raises every shard's horizon to infinity and trips a
   global flag that all waiters poll; the other shards unwind with
   {!Aborted} and [run] re-raises the original exception after joining. *)

exception Aborted

type t = {
  nshards : int;
  horizons : int Atomic.t array;
  failed : bool Atomic.t;
  failures : (exn * Printexc.raw_backtrace) option array;
      (** slot [k] written only by shard [k] before [failed] is set;
          read only after all domains join *)
  arrived : int Atomic.t;
  phase : int Atomic.t;
  timed : bool;
  waits : float array;
      (** per-shard seconds spent waiting (spinning or parked) in
          {!wait_order}/{!barrier}; slot [k] written only by shard [k],
          read after [run] joins *)
  spin_budget : int;
  lock : Mutex.t;
  wake : Condition.t;
  sleepers : int Atomic.t;  (** waiters parked, or about to park, on [wake] *)
}

(* Packed the same way the interleaver packs (dst, chan) keys: tile ids
   fit in 20 bits, leaving 42 bits of visited-cycle sequence. *)
let point_shift = 20

let point ~seq ~tile = (seq lsl point_shift) lor tile

(* Spin budgets, in predicate checks. With a core per shard the typical
   wait is a peer finishing one tile-step, far shorter than a park/wake
   round trip, so spin for a while; oversubscribed, the peer we wait on
   may need our core, so park almost at once. *)
let dedicated_spins = 16_384
let oversubscribed_spins = 64

let create ?(timed = false) ~nshards () =
  if nshards <= 0 then invalid_arg "Shard_sync.create: nshards must be positive";
  {
    nshards;
    horizons = Array.init nshards (fun _ -> Atomic.make 0);
    failed = Atomic.make false;
    failures = Array.make nshards None;
    arrived = Atomic.make 0;
    phase = Atomic.make 0;
    timed;
    waits = Array.make nshards 0.0;
    spin_budget =
      (if nshards <= Domain_pool.available_cores () then dedicated_spins
       else oversubscribed_spins);
    lock = Mutex.create ();
    wake = Condition.create ();
    sleepers = Atomic.make 0;
  }

let nshards t = t.nshards

let check_failed t = if Atomic.get t.failed then raise Aborted

(* Called after every atomic store a waiter may be parked on. *)
let wake_sleepers t =
  if Atomic.get t.sleepers > 0 then begin
    Mutex.lock t.lock;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock
  end

let record_failure t ~shard e bt =
  t.failures.(shard) <- Some (e, bt);
  (* Infinite horizon: nobody must ever wait on a dead shard. *)
  Atomic.set t.horizons.(shard) max_int;
  Atomic.set t.failed true;
  wake_sleepers t

let publish t ~shard ~point =
  Atomic.set t.horizons.(shard) point;
  wake_sleepers t

let park t pred =
  Mutex.lock t.lock;
  Atomic.incr t.sleepers;
  while not (pred () || Atomic.get t.failed) do
    Condition.wait t.wake t.lock
  done;
  Atomic.decr t.sleepers;
  Mutex.unlock t.lock

(* Wait-time accounting reads the clock only on the slow path (an actual
   wait), so untimed fast-path cost is unchanged and timed fast-path cost
   is one extra branch per horizon check. *)
let spin_until t ~shard pred =
  let spins = ref 0 in
  let t0 = if t.timed then Unix.gettimeofday () else 0.0 in
  while not (pred ()) do
    check_failed t;
    if !spins < t.spin_budget then begin
      Domain.cpu_relax ();
      incr spins
    end
    else park t pred
  done;
  if t.timed then t.waits.(shard) <- t.waits.(shard) +. (Unix.gettimeofday () -. t0)

let wait_order t ~shard ~point =
  for j = 0 to t.nshards - 1 do
    if j <> shard then
      if Atomic.get t.horizons.(j) <= point then
        spin_until t ~shard (fun () -> Atomic.get t.horizons.(j) > point)
  done

let barrier t ~shard ~reduce =
  let gen = Atomic.get t.phase in
  let n = 1 + Atomic.fetch_and_add t.arrived 1 in
  if n = t.nshards then begin
    (try reduce ()
     with e ->
       (* The reducer is whichever shard arrived last; the slot index
          only picks which exception [run] re-raises, and on a reduce
          failure exactly one slot is ever set. *)
       record_failure t ~shard:0 e (Printexc.get_raw_backtrace ()));
    Atomic.set t.arrived 0;
    Atomic.incr t.phase;
    wake_sleepers t
  end
  else spin_until t ~shard (fun () -> Atomic.get t.phase <> gen);
  check_failed t

let wait_seconds t shard = t.waits.(shard)

let run t body =
  let wrap shard =
    try body shard with
    | Aborted -> ()
    | e -> record_failure t ~shard e (Printexc.get_raw_backtrace ())
  in
  let spawned =
    Array.init (t.nshards - 1) (fun i -> Domain.spawn (fun () -> wrap (i + 1)))
  in
  wrap 0;
  Array.iter Domain.join spawned;
  if Atomic.get t.failed then
    let rec first k =
      if k >= t.nshards then assert false
      else
        match t.failures.(k) with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> first (k + 1)
    in
    first 0
