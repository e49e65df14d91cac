(* Open-addressing hash table from int keys to int values.

   The simulator's per-access bookkeeping (MSHR line -> ready cycle,
   directory line -> sharer mask, interleaver (dst, chan) -> debt) used
   polymorphic [Hashtbl]s, which allocate on every [find_opt] and hash
   tuple keys with the generic hasher. This table is monomorphic and
   allocation-free on every operation except growth: lookups return a
   caller-supplied default instead of an option, and iteration walks the
   backing arrays directly.

   Linear probing over a power-of-two capacity. A removal empties its
   slot, and the tombstones just before it, when the next slot is empty
   (no probe runs through them), and leaves a tombstone otherwise. Once live entries plus tombstones pass half the
   capacity the table rehashes: it doubles only when live entries fill
   more than a quarter of it, and otherwise squeezes the tombstones out at
   the same capacity into a retained spare pair of arrays. So a table
   under insert/remove churn (the MAO's seq index, an MSHR table) stays at
   a capacity set by its live entries and, once the spare exists, churns
   without allocating. *)

(* Reserved key sentinels. Simulator keys (addresses, packed ids) are
   non-negative, so the two most negative ints are safe markers. *)
let empty_key = min_int
let deleted_key = min_int + 1

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int;  (** capacity - 1; capacity is a power of two *)
  mutable len : int;  (** live entries *)
  mutable tombs : int;  (** deleted slots awaiting rehash *)
  mutable spare_keys : int array;
      (** the pair a squeeze rehashes into: same capacity, or [[||]] until
          the first squeeze at this capacity *)
  mutable spare_vals : int array;
}

let check_key k =
  if k = empty_key || k = deleted_key then
    invalid_arg "Int_table: key out of supported range"

let rec ceil_pow2 n acc = if acc >= n then acc else ceil_pow2 n (acc * 2)

let create ?(initial_capacity = 16) () =
  let cap = ceil_pow2 (Stdlib.max initial_capacity 8) 8 in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap 0;
    mask = cap - 1;
    len = 0;
    tombs = 0;
    spare_keys = [||];
    spare_vals = [||];
  }

let length t = t.len
let capacity t = t.mask + 1

(* Fibonacci-style multiplicative mix; the multiplier is odd so low-entropy
   keys (line addresses, packed ids) still spread across the table. *)
let slot_of t k =
  let h = k * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land t.mask

(* Index of [k]'s slot, or -1 when absent. A while loop rather than a
   local recursive function: the latter costs a closure allocation per
   call (the capture of [t] and [k]), and this is the hottest function in
   the simulator. *)
let probe t k =
  let i = ref (slot_of t k) in
  let res = ref (-2) in
  while !res = -2 do
    let key = t.keys.(!i) in
    if key = k then res := !i
    else if key = empty_key then res := -1
    else i := (!i + 1) land t.mask
  done;
  !res

let value_at t slot = t.vals.(slot)
let set_at t slot v = t.vals.(slot) <- v

let mem t k =
  check_key k;
  probe t k >= 0

let find t k ~default =
  check_key k;
  let i = probe t k in
  if i < 0 then default else t.vals.(i)

(* Place the live entries of [old_keys]/[old_vals] into [t]'s arrays,
   which hold no entries yet. *)
let reinsert t old_keys old_vals =
  for i = 0 to Array.length old_keys - 1 do
    let k = old_keys.(i) in
    if k <> empty_key && k <> deleted_key then begin
      let j = ref (slot_of t k) in
      while t.keys.(!j) <> empty_key do
        j := (!j + 1) land t.mask
      done;
      t.keys.(!j) <- k;
      t.vals.(!j) <- old_vals.(i)
    end
  done

let rehash t =
  let cap = t.mask + 1 in
  let old_keys = t.keys and old_vals = t.vals in
  if t.len * 4 > cap then begin
    t.keys <- Array.make (2 * cap) empty_key;
    t.vals <- Array.make (2 * cap) 0;
    t.mask <- (2 * cap) - 1;
    t.spare_keys <- [||];
    t.spare_vals <- [||]
  end
  else begin
    if Array.length t.spare_keys = cap then
      Array.fill t.spare_keys 0 cap empty_key
    else begin
      t.spare_keys <- Array.make cap empty_key;
      t.spare_vals <- Array.make cap 0
    end;
    t.keys <- t.spare_keys;
    t.vals <- t.spare_vals;
    t.spare_keys <- old_keys;
    t.spare_vals <- old_vals
  end;
  t.tombs <- 0;
  reinsert t old_keys old_vals

(* Insert or replace. Single probe: remembers the first tombstone so a
   fresh key reuses it instead of lengthening the cluster. Loop-shaped
   for the same allocation reason as [probe]. *)
let set t k v =
  check_key k;
  let i = ref (slot_of t k) in
  let free = ref (-1) in
  let continue = ref true in
  while !continue do
    let key = t.keys.(!i) in
    if key = k then begin
      t.vals.(!i) <- v;
      continue := false
    end
    else if key = empty_key then begin
      let dest = if !free >= 0 then !free else !i in
      if !free >= 0 then t.tombs <- t.tombs - 1;
      t.keys.(dest) <- k;
      t.vals.(dest) <- v;
      t.len <- t.len + 1;
      if (t.len + t.tombs) * 2 > t.mask + 1 then rehash t;
      continue := false
    end
    else begin
      if key = deleted_key && !free < 0 then free := !i;
      i := (!i + 1) land t.mask
    end
  done

(* [add t k delta] adds [delta] to [k]'s value (absent keys count as 0),
   stores and returns the sum. One probe for the read-modify-write that
   previously took a [find_opt] plus a [replace]. *)
let add t k delta =
  check_key k;
  let i = probe t k in
  if i >= 0 then begin
    let v = t.vals.(i) + delta in
    t.vals.(i) <- v;
    v
  end
  else begin
    set t k delta;
    delta
  end

let remove t k =
  check_key k;
  let i = probe t k in
  if i >= 0 then begin
    t.len <- t.len - 1;
    if t.keys.((i + 1) land t.mask) = empty_key then begin
      (* The run ends here, so this slot and the tombstones just before it
         lie on no probe path that goes further: empty them all. *)
      t.keys.(i) <- empty_key;
      let j = ref ((i - 1) land t.mask) in
      while t.keys.(!j) = deleted_key do
        t.keys.(!j) <- empty_key;
        t.tombs <- t.tombs - 1;
        j := (!j - 1) land t.mask
      done
    end
    else begin
      t.keys.(i) <- deleted_key;
      t.tombs <- t.tombs + 1
    end
  end

let iter f t =
  let keys = t.keys in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> empty_key && k <> deleted_key then f k t.vals.(i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  t.len <- 0;
  t.tombs <- 0
