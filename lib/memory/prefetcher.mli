(** Stream prefetcher (§V-A).

    Tracks memory requests to detect chains of accesses [k] words apart;
    once a stream is confirmed it emits prefetches for subsequent cache
    lines. Both the number of lines prefetched ([degree]) and how far ahead
    of the triggering access they sit ([distance]) are configurable, as in
    the paper. *)

type config = {
  table_size : int;  (** concurrently tracked streams *)
  degree : int;  (** prefetches emitted per trigger *)
  distance : int;  (** lines ahead of the triggering access *)
  min_confidence : int;  (** stride repetitions required to confirm *)
}

val default_config : config

type t

val create : config -> t

(** [observe t ~addr ~line_size] records a demand access and returns the
    line-aligned addresses to prefetch (empty until a stream is
    confirmed). The returned vector is scratch storage owned by [t]: read
    it before the next [observe] call, and do not retain it. *)
val observe : t -> addr:int -> line_size:int -> Mosaic_util.Int_vec.t

(** Streams currently confirmed (for tests/inspection). *)
val active_streams : t -> int
