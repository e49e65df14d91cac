module Int_vec = Mosaic_util.Int_vec

type config = {
  table_size : int;
  degree : int;
  distance : int;
  min_confidence : int;
}

let default_config =
  { table_size = 16; degree = 4; distance = 4; min_confidence = 2 }

type stream = {
  mutable last : int;
  mutable stride : int;
  mutable confidence : int;
  mutable lru : int;
}

type t = {
  cfg : config;
  streams : stream array;
  mutable tick : int;
  scratch : Int_vec.t;
      (* prefetch candidates for the current observe call; reused so the
         per-access path allocates nothing *)
}

let create cfg =
  {
    cfg;
    streams =
      Array.init (Stdlib.max cfg.table_size 1) (fun _ ->
          { last = -1; stride = 0; confidence = 0; lru = 0 });
    tick = 0;
    scratch = Int_vec.create ~initial_capacity:8 ();
  }

let active_streams t =
  Array.fold_left
    (fun acc s -> if s.confidence >= t.cfg.min_confidence then acc + 1 else acc)
    0 t.streams

(* A stream matches when the new access continues its stride, or is a
   plausible restart near its last address. Both searches take the first
   candidate in table order, as the original Seq-based scan did. *)
let observe t ~addr ~line_size =
  t.tick <- t.tick + 1;
  let cfg = t.cfg in
  Int_vec.clear t.scratch;
  let n = Array.length t.streams in
  let matching = ref (-1) in
  let i = ref 0 in
  while !matching < 0 && !i < n do
    let s = t.streams.(!i) in
    if s.last >= 0 && s.stride <> 0 && addr = s.last + s.stride then
      matching := !i;
    incr i
  done;
  if !matching >= 0 then begin
    let s = t.streams.(!matching) in
    s.last <- addr;
    s.confidence <- s.confidence + 1;
    s.lru <- t.tick;
    if s.confidence >= cfg.min_confidence then
      for k = 0 to cfg.degree - 1 do
        let target = addr + (s.stride * (cfg.distance + k)) in
        Int_vec.push t.scratch (target land lnot (line_size - 1))
      done
  end
  else begin
    (* Try to pair with a stream whose last access is close: learn the
       stride. Otherwise steal the LRU entry. *)
    let near = ref (-1) in
    let j = ref 0 in
    while !near < 0 && !j < n do
      let s = t.streams.(!j) in
      if s.last >= 0 && addr <> s.last && abs (addr - s.last) <= 8 * line_size
      then near := !j;
      incr j
    done;
    if !near >= 0 then begin
      let s = t.streams.(!near) in
      s.stride <- addr - s.last;
      s.last <- addr;
      s.confidence <- 1;
      s.lru <- t.tick
    end
    else begin
      let victim = ref t.streams.(0) in
      for k = 1 to n - 1 do
        if t.streams.(k).lru < !victim.lru then victim := t.streams.(k)
      done;
      let v = !victim in
      v.last <- addr;
      v.stride <- 0;
      v.confidence <- 0;
      v.lru <- t.tick
    end
  end;
  t.scratch
