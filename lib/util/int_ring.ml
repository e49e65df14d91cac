(* Bounded FIFO queue of ints backed by a circular buffer: the
   interleaver's per-channel message queue. The payload (an arrival
   cycle) lives unboxed in the buffer, so sends allocate nothing. Storage
   grows geometrically up to [capacity], so idle channels stay small. *)

type t = {
  capacity : int;  (** hard bound on occupancy *)
  mutable data : int array;
  mutable head : int;  (** index of the oldest element *)
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Int_ring.create: capacity must be positive";
  { capacity; data = Array.make (Stdlib.min capacity 8) 0; head = 0; len = 0 }

let length q = q.len
let is_empty q = q.len = 0
let is_full q = q.len >= q.capacity
let capacity q = q.capacity

let grow q =
  let cap = Array.length q.data in
  let fresh = Array.make (Stdlib.min q.capacity (2 * cap)) 0 in
  for i = 0 to q.len - 1 do
    fresh.(i) <- q.data.((q.head + i) mod cap)
  done;
  q.data <- fresh;
  q.head <- 0

let push q x =
  if is_full q then false
  else begin
    if q.len = Array.length q.data then grow q;
    q.data.((q.head + q.len) mod Array.length q.data) <- x;
    q.len <- q.len + 1;
    true
  end

let peek_exn q =
  if q.len = 0 then invalid_arg "Int_ring.peek_exn: empty";
  q.data.(q.head)

let pop_exn q =
  if q.len = 0 then invalid_arg "Int_ring.pop_exn: empty";
  let x = q.data.(q.head) in
  q.head <- (q.head + 1) mod Array.length q.data;
  q.len <- q.len - 1;
  x

let clear q =
  q.head <- 0;
  q.len <- 0

(* Peek the [i]-th oldest element (0 = head) without popping: the
   fast-forward executor reads channel occupancy in place. *)
let peek_at_exn q i =
  if i < 0 || i >= q.len then invalid_arg "Int_ring.peek_at_exn: out of range";
  q.data.((q.head + i) mod Array.length q.data)
