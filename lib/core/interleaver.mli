(** The Interleaver (§II): coordinates tile timing and inter-tile messages.

    Tiles create inter-tile events and enqueue them here; the Interleaver is
    responsible for delivering each message to its destination tile at the
    right time. Buffers are bounded — a full destination buffer back-pressures
    the sender (its [send] node cannot issue), which is what makes DAE
    pairs throttle correctly. *)

type stats = {
  mutable sends : int;
  mutable recvs : int;
  mutable send_stalls : int;  (** sends rejected because a buffer was full *)
  mutable max_occupancy : int;
}

type t

(** [create ~buffer_capacity ~wire_latency ()]. Capacity is per
    (destination, channel) buffer; Table II uses 512 entries. *)
val create :
  ?buffer_capacity:int ->
  ?wire_latency:int ->
  ?sink:Mosaic_obs.Sink.t ->
  unit ->
  t

(** [send t ~src ~dst ~chan ~cycle ~available] reserves a buffer slot now
    and delivers the message at [available + wire_latency] ([available =
    cycle] for plain sends; the memory-completion cycle for terminal
    loads); [false] when the buffer is full. *)
val send :
  t -> src:int -> dst:int -> chan:int -> cycle:int -> available:int -> bool

(** [try_recv t ~tile ~chan ~cycle] consumes the oldest message for
    [(tile, chan)] and returns the receive completion cycle, or [-1] when
    no message has been sent yet (a plain int, so the receive path
    allocates nothing). *)
val try_recv : t -> tile:int -> chan:int -> cycle:int -> int

(** [take_or_owe t ~tile ~chan] consumes a message if one is buffered, or
    records a debt that cancels the next send to [(tile, chan)] — the
    store-value-buffer behaviour where the consumer has already committed
    the slot. Returns [false] when the debt ceiling (buffer capacity) is
    reached and the caller must stall. *)
val take_or_owe : t -> tile:int -> chan:int -> bool

val stats : t -> stats

(** Messages currently buffered across all channels. O(1): maintained as a
    running counter on enqueue/dequeue. *)
val occupancy : t -> int

(** The per-(destination, channel) buffer capacity passed at creation. *)
val capacity : t -> int

(** [next_arrival t ~cycle] is the earliest in-flight message arrival
    strictly after [cycle], or [max_int] when nothing is in flight. Buffered
    messages are consumable before their arrival cycle (arrival only bounds
    receive completion), so this is a conservative wake-up hint for the
    cycle-skipping scheduler, never a gate. *)
val next_arrival : t -> cycle:int -> int

(** Publish the messaging counters under "inter.*" into a metrics
    registry. *)
val publish : t -> Mosaic_obs.Metrics.t -> unit

(** {1 Fast-forward}

    The functional fast-forward executor models each (dst, chan) channel as
    counters seeded from, and committed back to, the live buffers. *)

(** [(buffered, owed)] for the channel: messages waiting and consumptions
    committed ahead of their send. *)
val ff_channel : t -> dst:int -> chan:int -> int * int

(** Commit a channel's post-fast-forward state: [buffered]/[owed] become
    the live counts (new tokens arrive at [cycle]; surplus old tokens are
    consumed oldest-first) and [sends]/[recvs] are added to the stats. *)
val ff_set_channel :
  t ->
  dst:int ->
  chan:int ->
  buffered:int ->
  owed:int ->
  sends:int ->
  recvs:int ->
  cycle:int ->
  unit
