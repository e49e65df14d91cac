(* Binary min-heap over (int priority, int value) pairs, stored as parallel
   int arrays so pushes and pops never allocate. A push stamp breaks
   priority ties, so equal priorities pop in push order: the tile's
   completion heap relies on that to retire same-cycle completions in
   issue order, which the issue/retire event stream makes observable. *)

type t = {
  mutable prios : int array;
  mutable values : int array;
  mutable stamps : int array;
  mutable size : int;
  mutable next_stamp : int;
}

let create ?(initial_capacity = 16) () =
  let cap = Stdlib.max initial_capacity 4 in
  {
    prios = Array.make cap 0;
    values = Array.make cap 0;
    stamps = Array.make cap 0;
    size = 0;
    next_stamp = 0;
  }

let length h = h.size
let is_empty h = h.size = 0

let grow h =
  let cap = 2 * Array.length h.prios in
  let ps = Array.make cap 0 and vs = Array.make cap 0
  and ss = Array.make cap 0 in
  Array.blit h.prios 0 ps 0 h.size;
  Array.blit h.values 0 vs 0 h.size;
  Array.blit h.stamps 0 ss 0 h.size;
  h.prios <- ps;
  h.values <- vs;
  h.stamps <- ss

let less h i j =
  h.prios.(i) < h.prios.(j)
  || (h.prios.(i) = h.prios.(j) && h.stamps.(i) < h.stamps.(j))

let swap h i j =
  let p = h.prios.(i) and v = h.values.(i) and s = h.stamps.(i) in
  h.prios.(i) <- h.prios.(j);
  h.values.(i) <- h.values.(j);
  h.stamps.(i) <- h.stamps.(j);
  h.prios.(j) <- p;
  h.values.(j) <- v;
  h.stamps.(j) <- s

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && less h l !smallest then smallest := l;
  if r < h.size && less h r !smallest then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h ~prio value =
  if h.size = Array.length h.prios then grow h;
  h.prios.(h.size) <- prio;
  h.values.(h.size) <- value;
  h.stamps.(h.size) <- h.next_stamp;
  h.next_stamp <- h.next_stamp + 1;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let min_prio h =
  if h.size = 0 then invalid_arg "Int_heap.min_prio: empty";
  h.prios.(0)

let min_value h =
  if h.size = 0 then invalid_arg "Int_heap.min_value: empty";
  h.values.(0)

let drop_min h =
  if h.size = 0 then invalid_arg "Int_heap.drop_min: empty";
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.prios.(0) <- h.prios.(h.size);
    h.values.(0) <- h.values.(h.size);
    h.stamps.(0) <- h.stamps.(h.size);
    sift_down h 0
  end

let clear h = h.size <- 0
