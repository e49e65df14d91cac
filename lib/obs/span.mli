(** Host-side span tracer: where does the *simulator's* wall-clock go?

    Scopes ([begin_span]/[end_span] or {!with_span}) record monotonic
    wall-clock duration, nesting depth, the domain that ran them, and the
    GC allocation delta across the scope ([Gc.quick_stat] minor words and
    major collections, both domain-local). The tracer is process-global
    and off by default: a disabled [begin_span] is one atomic load and a
    shared immutable token, so instrumented hot paths cost ~nothing until
    {!set_enabled}[ true].

    Completed spans feed three consumers:
    - {!publish} sums them into a metrics registry as [host.*] gauges;
    - {!Trace_export.to_json}'s [?host_spans] renders them as a separate
      Chrome-trace process beside the simulated-hardware events;
    - manifests embed the raw list ({!to_json}/{!of_json}).

    Enabling also times {!Mosaic_util.Domain_pool} tasks (as
    ["pool.task"] spans) via its task hook. *)

type completed = {
  name : string;
  domain : int;  (** [Domain.self] of the domain that ran the scope *)
  depth : int;  (** nesting depth at entry; 0 = outermost *)
  start_s : float;  (** seconds since the tracer was enabled *)
  dur_s : float;  (** wall-clock duration, clamped to [>= 0.] *)
  minor_words : float;  (** minor-heap words allocated during the scope *)
  major_collections : int;  (** major GC cycles completed during the scope *)
}

val set_enabled : bool -> unit
(** Turning the tracer on resets the epoch and installs the
    {!Mosaic_util.Domain_pool} task hook; turning it off removes the hook.
    Already-open spans complete normally either way. *)

val enabled : unit -> bool

val with_enabled : bool -> (unit -> 'a) -> 'a
(** [with_enabled b f] runs [f] with the tracer on ([b]) or off, then
    puts it back as it was. The epoch moves only if [f] turns a disabled
    tracer on, so a suspended tracer resumes on its old timeline. *)

val reset : unit -> unit
(** Drop all completed spans and restart the epoch (keeps enablement). *)

type token
(** Returned by {!begin_span}; passing it to {!end_span} completes the
    scope. Tokens from a disabled tracer are inert. *)

val begin_span : string -> token

val end_span : token -> unit
(** Completing a token twice records the span twice — use {!with_span}
    unless early/multiple exits make the scoped form awkward. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Scoped form; the span completes even if [f] raises. *)

val spans : unit -> completed list
(** Completed spans in completion order (inner scopes precede outer). *)

val total_seconds : string -> float
(** Summed duration of all completed spans with that name. *)

val publish : Metrics.t -> unit
(** Find-or-create a [host.<name>_seconds] gauge per span name (dots in
    span names kept as-is: span ["sample.ff"] → [host.sample.ff_seconds])
    holding the summed duration, plus [host.gc.minor_words] /
    [host.gc.major_collections] / [host.gc.promoted_words] deltas since
    the tracer epoch. Safe to call repeatedly; gauges are overwritten. *)

val gauge_set : Metrics.t -> string -> float -> unit
(** Find-or-create gauge helper shared by the host-telemetry publishers
    (raises [Invalid_argument] if the name exists as a non-gauge). *)

val to_json : completed list -> Json.t
val of_json : Json.t -> completed list
(** Raises {!Json.Parse_error} on shape mismatch. *)
