type t = { tree : int array; n : int }

let create n =
  if n < 0 then invalid_arg "Fenwick.create: negative size";
  { tree = Array.make (n + 1) 0; n }

let size t = t.n

let add t i delta =
  if i < 0 || i >= t.n then invalid_arg "Fenwick.add: out of bounds";
  let i = ref (i + 1) in
  while !i <= t.n do
    t.tree.(!i) <- t.tree.(!i) + delta;
    i := !i + (!i land - !i)
  done

let prefix_sum t i =
  let i = ref (Stdlib.min i (t.n - 1) + 1) in
  let acc = ref 0 in
  while !i > 0 do
    acc := !acc + t.tree.(!i);
    i := !i - (!i land - !i)
  done;
  !acc

let range_sum t ~lo ~hi =
  if hi < lo then 0 else prefix_sum t hi - prefix_sum t (lo - 1)
