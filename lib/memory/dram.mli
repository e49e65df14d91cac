(** DRAM models (§V-B).

    Two models behind one interface, as in the paper: [SimpleDRAM] enforces
    a minimum latency and a maximum bandwidth in epochs; [Detailed] is the
    DRAMSim2-class model with banks, row buffers and refresh.

    The interface is latency-oriented: [access] is told when a line request
    arrives and answers when its data returns, updating internal contention
    state. Calls must have non-decreasing arrival cycles per channel (the
    hierarchy guarantees this within a cycle-driven run). *)

type kind = Dram_read | Dram_write

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable busy_returns : int;
      (** requests delayed past min latency by bandwidth or bank conflicts *)
  mutable row_hits : int;  (** detailed model only *)
  mutable row_misses : int;  (** detailed model only *)
}

type t

(** Configuration of the in-house SimpleDRAM model. *)
type simple_config = {
  min_latency : int;  (** cycles from request to earliest return *)
  lines_per_epoch : int;  (** bandwidth cap: line returns per epoch *)
  epoch_cycles : int;
}

(** Configuration of the detailed (DRAMSim2-substitute) model. *)
type detailed_config = {
  nbanks : int;
  row_bytes : int;
  t_cas : int;  (** column access, row already open *)
  t_rcd : int;  (** row activate *)
  t_rp : int;  (** precharge *)
  t_bus : int;  (** data burst occupancy per access *)
  base_latency : int;  (** controller + channel overhead *)
  t_refi : int;  (** refresh interval; 0 disables refresh *)
  t_rfc : int;  (** refresh duration *)
}

(** Constructors; an enabled [sink] receives a [Dram_row_activate] event
    per row-buffer miss (detailed model only). *)
val simple : ?sink:Mosaic_obs.Sink.t -> simple_config -> t

val detailed : ?sink:Mosaic_obs.Sink.t -> detailed_config -> t

(** Defaults tuned for the paper's evaluation systems: DDR4-ish SimpleDRAM
    with [min_latency] 200 cycles. *)
val default_simple : simple_config

val default_detailed : detailed_config

(** [access t ~cycle ~addr kind] is the cycle at which the request's data is
    available at the DRAM pins. *)
val access : t -> cycle:int -> addr:int -> kind -> int

val stats : t -> stats

(** Human-readable model name ("simple" or "detailed"). *)
val name : t -> string

(** Publish end-of-run counters under "dram.*" into a metrics registry. *)
val publish : t -> Mosaic_obs.Metrics.t -> unit
