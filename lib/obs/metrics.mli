(** Named-metric registry: counters, gauges and histograms that simulator
    components publish into — the source of truth for reports and
    exporters.

    Registration returns the mutable cell, so hot paths update through the
    cell directly ([incr]/[set]/[observe]) without a name lookup. Names
    must be unique per registry; [to_list]/[rows] preserve registration
    order. Histogram bucket counts sit in a Fenwick tree so quantile
    queries are prefix-sum searches. *)

type counter
type gauge
type histogram

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t

val create : unit -> t

(** {1 Registration} — raises [Invalid_argument] on duplicate names. *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val default_latency_bounds : float array
(** Power-of-two-ish latency buckets [1 .. 16384] cycles. *)

val histogram : ?bounds:float array -> t -> string -> histogram
(** [bounds] are strictly increasing inclusive upper bounds; values above
    the last bound land in an implicit overflow bucket. *)

(** {1 Updates and reads} *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float
val observe : histogram -> float -> unit

(** [observe_int h n] is [observe h (float_of_int n)] without boxing the
    float: the per-access latency histograms use it on the issue path. *)
val observe_int : histogram -> int -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_mean : histogram -> float
val hist_min : histogram -> float
val hist_max : histogram -> float

val hist_quantile : histogram -> float -> float
(** Quantile estimate: the upper bound of the first bucket whose
    cumulative count reaches [q] of the total; the overflow bucket reports
    the observed max. Empty histograms report [0.] rather than raising.
    Raises [Invalid_argument] unless [0. <= q <= 1.]. *)

(** {1 Lookup} *)

val find : t -> string -> metric option
val mem : t -> string -> bool

val get_counter : t -> string -> int
(** Raises [Invalid_argument] if absent or not a counter. *)

val get_gauge : t -> string -> float
(** Raises [Invalid_argument] if absent or not a gauge. *)

val to_list : t -> (string * metric) list
(** Metrics in registration order. *)

(** {1 Export} *)

val hist_rows : string -> histogram -> (string * string * float) list
(** Flat rows [name.count/.sum/.min/.max/.p50/.p95/.p99] for one
    histogram, kind ["histogram"]. *)

val rows : t -> (string * string * float) list
(** Flat [(name, kind, value)] view used by exporters and tests;
    histograms expand via {!hist_rows}. *)

val to_csv : t -> string
(** {!rows} as CSV with header [name,kind,value]. *)

val of_csv : string -> (string * string * float) list
(** Parse {!to_csv} output back into rows; raises [Invalid_argument] on
    malformed input. *)

val to_json : t -> Json.t
(** One object keyed by metric name; histograms become sub-objects with
    count/sum/min/max/p50/p95/p99. *)
