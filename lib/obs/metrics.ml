(* Named-metric registry: counters, gauges and histograms that simulator
   components publish into, replacing ad-hoc result-record plumbing as the
   source of truth for reports and exporters. Histogram bucket counts sit
   in a Fenwick tree so quantile queries are prefix-sum searches. *)

module Fenwick = Mosaic_util.Fenwick

type counter = { mutable count : int }

type gauge = { mutable value : float }

type histogram = {
  bounds : float array;
      (** strictly increasing inclusive upper bounds; values above the last
          bound land in an implicit overflow bucket *)
  buckets : Fenwick.t;  (** one slot per bound plus the overflow bucket *)
  mutable hcount : int;
  fstate : float array;
      (** [| sum; min; max |] — a flat float array so the per-observation
          updates store unboxed floats instead of reboxing record fields *)
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = {
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list;  (** reverse registration order *)
}

let create () = { tbl = Hashtbl.create 64; order = [] }

let register t name m =
  if Hashtbl.mem t.tbl name then
    invalid_arg (Printf.sprintf "Metrics: duplicate metric %s" name);
  Hashtbl.replace t.tbl name m;
  t.order <- name :: t.order

let counter t name =
  let c = { count = 0 } in
  register t name (Counter c);
  c

let gauge t name =
  let g = { value = 0.0 } in
  register t name (Gauge g);
  g

let default_latency_bounds =
  [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 4096.; 16384. |]

let histogram ?(bounds = default_latency_bounds) t name =
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: no bounds";
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    bounds;
  let h =
    {
      bounds;
      buckets = Fenwick.create (Array.length bounds + 1);
      hcount = 0;
      fstate = [| 0.0; Float.infinity; Float.neg_infinity |];
    }
  in
  register t name (Histogram h);
  h

(* --- Updates --- *)

let incr ?(by = 1) c = c.count <- c.count + by
let counter_value c = c.count

let set g v = g.value <- v
let gauge_value g = g.value

(* First bound >= v, else the overflow bucket. A binary search in a
   while loop: a local recursive function would allocate a closure over
   [h] and [v] on every observation. Inlined, like [observe], so that
   [observe_int]'s float is never boxed for a call. *)
let[@inline] bucket_index h v =
  let lo = ref 0 and hi = ref (Array.length h.bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if h.bounds.(mid) >= v then hi := mid else lo := mid + 1
  done;
  !lo

let[@inline] observe h v =
  Fenwick.add h.buckets (bucket_index h v) 1;
  h.hcount <- h.hcount + 1;
  h.fstate.(0) <- h.fstate.(0) +. v;
  if v < h.fstate.(1) then h.fstate.(1) <- v;
  if v > h.fstate.(2) then h.fstate.(2) <- v

(* [observe] for an integer sample, converted here so that no boxed float
   crosses the call. *)
let observe_int h n = observe h (float_of_int n)

let hist_count h = h.hcount
let hist_sum h = h.fstate.(0)
let hist_mean h =
  if h.hcount = 0 then 0.0 else h.fstate.(0) /. float_of_int h.hcount
let hist_min h = if h.hcount = 0 then 0.0 else h.fstate.(1)
let hist_max h = if h.hcount = 0 then 0.0 else h.fstate.(2)

(* Quantile estimate: the upper bound of the first bucket whose cumulative
   count reaches q of the total (overflow bucket reports the observed max).
   Empty histograms report 0 rather than raising, matching Stats. *)
let hist_quantile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.hist_quantile: q out of range";
  if h.hcount = 0 then 0.0
  else begin
    let target =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.hcount)))
    in
    let n = Array.length h.bounds in
    let rec find i =
      if i > n then hist_max h
      else if Fenwick.prefix_sum h.buckets i >= target then
        if i < n then h.bounds.(i) else hist_max h
      else find (i + 1)
    in
    find 0
  end

(* --- Lookup --- *)

let find t name = Hashtbl.find_opt t.tbl name
let mem t name = Hashtbl.mem t.tbl name

let get_counter t name =
  match find t name with
  | Some (Counter c) -> c.count
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %s is not a counter" name)
  | None -> invalid_arg (Printf.sprintf "Metrics: no metric %s" name)

let get_gauge t name =
  match find t name with
  | Some (Gauge g) -> g.value
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %s is not a gauge" name)
  | None -> invalid_arg (Printf.sprintf "Metrics: no metric %s" name)

(* Metrics in registration order. *)
let to_list t =
  List.rev_map (fun name -> (name, Hashtbl.find t.tbl name)) t.order

(* --- Export --- *)

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let hist_rows name h =
  [
    (name ^ ".count", "histogram", float_of_int h.hcount);
    (name ^ ".sum", "histogram", hist_sum h);
    (name ^ ".min", "histogram", hist_min h);
    (name ^ ".max", "histogram", hist_max h);
    (name ^ ".p50", "histogram", hist_quantile h 0.5);
    (name ^ ".p95", "histogram", hist_quantile h 0.95);
    (name ^ ".p99", "histogram", hist_quantile h 0.99);
  ]

(* Flat (name, kind, value) view used by both exporters and tests. *)
let rows t =
  List.concat_map
    (fun (name, m) ->
      match m with
      | Counter c -> [ (name, "counter", float_of_int c.count) ]
      | Gauge g -> [ (name, "gauge", g.value) ]
      | Histogram h -> hist_rows name h)
    (to_list t)

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "name,kind,value\n";
  List.iter
    (fun (name, kind, v) ->
      Buffer.add_string buf name;
      Buffer.add_char buf ',';
      Buffer.add_string buf kind;
      Buffer.add_char buf ',';
      Buffer.add_string buf (float_repr v);
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf

(* Parse [to_csv] output back into rows; the round-trip partner used by
   tests and downstream tooling. *)
let of_csv text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> invalid_arg "Metrics.of_csv: empty input"
  | header :: data ->
      if header <> "name,kind,value" then
        invalid_arg "Metrics.of_csv: bad header";
      List.map
        (fun line ->
          match String.split_on_char ',' line with
          | [ name; kind; v ] -> (
              match float_of_string_opt v with
              | Some f -> (name, kind, f)
              | None ->
                  invalid_arg
                    (Printf.sprintf "Metrics.of_csv: bad value %s" v))
          | _ -> invalid_arg (Printf.sprintf "Metrics.of_csv: bad row %s" line))
        data

let to_json t =
  Json.Obj
    (List.map
       (fun (name, m) ->
         match m with
         | Counter c -> (name, Json.Int c.count)
         | Gauge g -> (name, Json.Float g.value)
         | Histogram h ->
             ( name,
               Json.Obj
                 [
                   ("count", Json.Int h.hcount);
                   ("sum", Json.Float (hist_sum h));
                   ("min", Json.Float (hist_min h));
                   ("max", Json.Float (hist_max h));
                   ("p50", Json.Float (hist_quantile h 0.5));
                   ("p95", Json.Float (hist_quantile h 0.95));
                   ("p99", Json.Float (hist_quantile h 0.99));
                 ] ))
       (to_list t))
