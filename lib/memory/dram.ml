type kind = Dram_read | Dram_write

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable busy_returns : int;
  mutable row_hits : int;
  mutable row_misses : int;
}

let fresh_stats () =
  { reads = 0; writes = 0; busy_returns = 0; row_hits = 0; row_misses = 0 }

type simple_config = {
  min_latency : int;
  lines_per_epoch : int;
  epoch_cycles : int;
}

type detailed_config = {
  nbanks : int;
  row_bytes : int;
  t_cas : int;
  t_rcd : int;
  t_rp : int;
  t_bus : int;
  base_latency : int;
  t_refi : int;
  t_rfc : int;
}

module Int_table = Mosaic_util.Int_table

(* SimpleDRAM tracks per-epoch return counts; a request returns in the first
   epoch at or after (arrival + min latency) with spare bandwidth. *)
type simple_state = {
  s_cfg : simple_config;
  epoch_used : Int_table.t;
  mutable oldest_epoch : int;
}

type detailed_state = {
  d_cfg : detailed_config;
  bank_avail : int array;  (** earliest cycle each bank can start *)
  bank_open_row : int array;  (** -1 = closed *)
}

type model = Simple of simple_state | Detailed of detailed_state

type t = { model : model; stats : stats; sink : Mosaic_obs.Sink.t }

let default_simple =
  (* 200-cycle latency, ~24 GB/s at 2 GHz: 12 B/cycle = one 64B line per
     ~5.3 cycles; with 64-cycle epochs that is 12 lines per epoch. *)
  { min_latency = 200; lines_per_epoch = 12; epoch_cycles = 64 }

let default_detailed =
  {
    nbanks = 8;
    row_bytes = 2048;
    t_cas = 28;
    t_rcd = 28;
    t_rp = 28;
    t_bus = 8;
    base_latency = 120;
    t_refi = 15_600;
    t_rfc = 700;
  }

let simple ?(sink = Mosaic_obs.Sink.null) cfg =
  if cfg.min_latency < 0 || cfg.lines_per_epoch <= 0 || cfg.epoch_cycles <= 0
  then invalid_arg "Dram.simple: bad configuration";
  {
    model =
      Simple
        {
          s_cfg = cfg;
          epoch_used = Int_table.create ~initial_capacity:64 ();
          oldest_epoch = 0;
        };
    stats = fresh_stats ();
    sink;
  }

let detailed ?(sink = Mosaic_obs.Sink.null) cfg =
  if cfg.nbanks <= 0 || cfg.row_bytes <= 0 then
    invalid_arg "Dram.detailed: bad configuration";
  {
    model =
      Detailed
        {
          d_cfg = cfg;
          bank_avail = Array.make cfg.nbanks 0;
          bank_open_row = Array.make cfg.nbanks (-1);
        };
    stats = fresh_stats ();
    sink;
  }

let simple_access st stats ~cycle =
  let cfg = st.s_cfg in
  let earliest = cycle + cfg.min_latency in
  (* While-shaped scan for the first epoch with spare bandwidth (a local
     recursive function would allocate its closure on every access). *)
  let epoch = ref (earliest / cfg.epoch_cycles) in
  let continue = ref true in
  while !continue do
    let slot = Int_table.probe st.epoch_used !epoch in
    if slot < 0 then begin
      Int_table.set st.epoch_used !epoch 1;
      continue := false
    end
    else begin
      let used = Int_table.value_at st.epoch_used slot in
      if used < cfg.lines_per_epoch then begin
        Int_table.set_at st.epoch_used slot (used + 1);
        continue := false
      end
      else incr epoch
    end
  done;
  let epoch = !epoch in
  (* Drop bookkeeping for epochs long past to bound memory. *)
  if epoch > st.oldest_epoch + 4096 then begin
    Int_table.clear st.epoch_used;
    st.oldest_epoch <- epoch
  end;
  let completion = Stdlib.max earliest (epoch * cfg.epoch_cycles) in
  if completion > earliest then stats.busy_returns <- stats.busy_returns + 1;
  completion

let detailed_access st stats ~sink ~cycle ~addr =
  let cfg = st.d_cfg in
  let row = addr / cfg.row_bytes in
  let bank = row mod cfg.nbanks in
  (* Refresh: the bank is unavailable for t_rfc at each refresh interval. *)
  let refresh_adjust c =
    if cfg.t_refi <= 0 then c
    else
      let phase = c mod cfg.t_refi in
      if phase < cfg.t_rfc then c + (cfg.t_rfc - phase) else c
  in
  let start = refresh_adjust (Stdlib.max cycle st.bank_avail.(bank)) in
  let array_latency =
    if st.bank_open_row.(bank) = row then begin
      stats.row_hits <- stats.row_hits + 1;
      cfg.t_cas
    end
    else begin
      stats.row_misses <- stats.row_misses + 1;
      if Mosaic_obs.Sink.enabled sink then
        Mosaic_obs.Sink.emit sink ~cycle
          (Mosaic_obs.Event.Dram_row_activate { bank; row });
      let closed = st.bank_open_row.(bank) = -1 in
      st.bank_open_row.(bank) <- row;
      (if closed then 0 else cfg.t_rp) + cfg.t_rcd + cfg.t_cas
    end
  in
  st.bank_avail.(bank) <- start + array_latency + cfg.t_bus;
  if start > cycle then stats.busy_returns <- stats.busy_returns + 1;
  start + cfg.base_latency + array_latency

let access t ~cycle ~addr kind =
  (match kind with
  | Dram_read -> t.stats.reads <- t.stats.reads + 1
  | Dram_write -> t.stats.writes <- t.stats.writes + 1);
  match t.model with
  | Simple st -> simple_access st t.stats ~cycle
  | Detailed st -> detailed_access st t.stats ~sink:t.sink ~cycle ~addr

let stats t = t.stats

let name t = match t.model with Simple _ -> "simple" | Detailed _ -> "detailed"

(* Publish the end-of-run counters into a metrics registry; the report and
   the CSV/JSON exporters read these rather than the raw record. *)
let publish t reg =
  let module M = Mosaic_obs.Metrics in
  let c name v = M.incr ~by:v (M.counter reg name) in
  c "dram.reads" t.stats.reads;
  c "dram.writes" t.stats.writes;
  c "dram.busy_returns" t.stats.busy_returns;
  c "dram.row_hits" t.stats.row_hits;
  c "dram.row_misses" t.stats.row_misses
