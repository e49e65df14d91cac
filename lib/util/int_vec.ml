(* A vector grows by doubling until it is [chunk] long; after that each
   full chunk is set aside and a fresh one started, so a long trace stream
   is never copied while it grows, and [to_array] copies it once. A chunk
   is 64 KB: below the C allocator's threshold for mapping a block of its
   own, so chunks freed by the GC are reused rather than mapped afresh and
   faulted in page by page.
   [Array.blit] and [Array.sub] would go through the write barrier element
   by element once an array lives in the major heap, so copies are loops
   over [int array]: plain loads and stores. *)

let chunk_bits = 13

let chunk = 1 lsl chunk_bits

type t = {
  mutable chunks : int array array;  (** full chunks, oldest first *)
  mutable nchunks : int;
  mutable data : int array;  (** the chunk being filled *)
  mutable fill : int;
}

let create ?(initial_capacity = 16) () =
  {
    chunks = [||];
    nchunks = 0;
    data = Array.make (Stdlib.min chunk (Stdlib.max initial_capacity 1)) 0;
    fill = 0;
  }

let length v = (v.nchunks lsl chunk_bits) + v.fill

let blit_ints src dst pos n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst (pos + i) (Array.unsafe_get src i)
  done

let grow v =
  let cap = Array.length v.data in
  if cap < chunk then begin
    let fresh = Array.make (Stdlib.min chunk (2 * cap)) 0 in
    blit_ints v.data fresh 0 v.fill;
    v.data <- fresh
  end
  else begin
    if v.nchunks = Array.length v.chunks then begin
      let chunks = Array.make (Stdlib.max 4 (2 * v.nchunks)) [||] in
      Array.blit v.chunks 0 chunks 0 v.nchunks;
      v.chunks <- chunks
    end;
    v.chunks.(v.nchunks) <- v.data;
    v.nchunks <- v.nchunks + 1;
    v.data <- Array.make chunk 0;
    v.fill <- 0
  end

(* Inlined at every call site but the rare growth, so a trace recorder
   pays a compare and two stores per entry. *)
let[@inline] push v x =
  if v.fill = Array.length v.data then grow v;
  Array.unsafe_set v.data v.fill x;
  v.fill <- v.fill + 1

let get v i =
  if i < 0 || i >= length v then invalid_arg "Int_vec.get: out of bounds";
  let c = i lsr chunk_bits in
  if c = v.nchunks then v.data.(i land (chunk - 1))
  else v.chunks.(c).(i land (chunk - 1))

let to_array v =
  let out = Array.make (length v) 0 in
  for c = 0 to v.nchunks - 1 do
    blit_ints v.chunks.(c) out (c lsl chunk_bits) chunk
  done;
  blit_ints v.data out (v.nchunks lsl chunk_bits) v.fill;
  out

let iter f v =
  for c = 0 to v.nchunks - 1 do
    Array.iter f v.chunks.(c)
  done;
  for i = 0 to v.fill - 1 do
    f v.data.(i)
  done

let clear v =
  if v.nchunks > 0 then begin
    v.chunks <- [||];
    v.nchunks <- 0
  end;
  v.fill <- 0
