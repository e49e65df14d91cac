(* Tests for the mosaic_util substrate. *)

open Mosaic_util

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 0 to 99 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  checkb "different seeds differ" false (Rng.next a = Rng.next b)

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 0 to 999 do
    let x = Rng.int r 13 in
    checkb "in range" true (x >= 0 && x < 13)
  done

let test_rng_int_invalid () =
  let r = Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_unit_float () =
  let r = Rng.create 11 in
  for _ = 0 to 999 do
    let x = Rng.unit_float r in
    checkb "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

let test_rng_gaussian_moments () =
  let r = Rng.create 5 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Rng.gaussian r) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  checkb "mean near 0" true (Float.abs mean < 0.05);
  let var = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs /. float_of_int n in
  checkb "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

(* --- Stats --- *)

let test_stats_mean () =
  checkf "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  checkf "empty" 0.0 (Stats.mean [])

let test_stats_geomean () =
  checkf "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive input") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

(* The documented edge-case contract: empty -> 0.0, singleton -> the
   element, for every aggregator that has a neutral value. *)
let test_stats_edge_cases () =
  checkf "geomean empty" 0.0 (Stats.geomean []);
  checkf "geomean singleton" 7.5 (Stats.geomean [ 7.5 ]);
  checkf "mean singleton" 7.5 (Stats.mean [ 7.5 ]);
  checkf "stddev singleton" 0.0 (Stats.stddev [ 7.5 ]);
  checkf "percentile empty" 0.0 (Stats.percentile 50.0 []);
  checkf "percentile singleton p0" 3.0 (Stats.percentile 0.0 [ 3.0 ]);
  checkf "percentile singleton p100" 3.0 (Stats.percentile 100.0 [ 3.0 ]);
  Alcotest.check_raises "p out of range even when empty"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile 101.0 []))

let test_stats_stddev () =
  checkf "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  checkf "simple" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkf "p0" 1.0 (Stats.percentile 0.0 xs);
  checkf "p50" 3.0 (Stats.percentile 50.0 xs);
  checkf "p100" 5.0 (Stats.percentile 100.0 xs);
  checkf "p25" 2.0 (Stats.percentile 25.0 xs)

let test_stats_speedup () =
  checkf "speedup" 4.0 (Stats.speedup ~baseline:8.0 2.0);
  Alcotest.check_raises "zero denominator"
    (Invalid_argument "Stats.ratio: zero denominator") (fun () ->
      ignore (Stats.ratio 1.0 0.0))

let prop_percentile_within_range =
  QCheck.Test.make ~name:"percentile lies within [min,max]" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_range 0.0 100.0)) (float_range 0.0 100.0))
    (fun (xs, p) ->
      let v = Stats.percentile p xs in
      v >= Stats.min xs -. 1e-9 && v <= Stats.max xs +. 1e-9)

(* --- Int_vec --- *)

let test_int_vec () =
  let v = Int_vec.create () in
  for i = 0 to 99 do
    Int_vec.push v (i * i)
  done;
  check "length" 100 (Int_vec.length v);
  check "get" 81 (Int_vec.get v 9);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Int_vec.get: out of bounds")
    (fun () -> ignore (Int_vec.get v 100));
  let arr = Int_vec.to_array v in
  check "array length" 100 (Array.length arr);
  check "array content" 9801 arr.(99);
  Int_vec.clear v;
  check "cleared" 0 (Int_vec.length v)

(* A long vector keeps full chunks aside; every view of it must still read
   as one sequence, and stay usable after [clear]. *)
let test_int_vec_chunks () =
  let v = Int_vec.create ~initial_capacity:3 () in
  let n = (3 lsl 16) + 5 in
  for round = 1 to 2 do
    for i = 0 to n - 1 do
      Int_vec.push v ((i * 7) + round)
    done;
    check "length" n (Int_vec.length v);
    List.iter
      (fun i -> check "get" ((i * 7) + round) (Int_vec.get v i))
      [ 0; 8_191; 8_192; 65_535; 65_536; 131_072; n - 1 ];
    Alcotest.check_raises "past the end"
      (Invalid_argument "Int_vec.get: out of bounds") (fun () ->
        ignore (Int_vec.get v n));
    checkb "to_array" true
      (Int_vec.to_array v = Array.init n (fun i -> (i * 7) + round));
    let next = ref 0 in
    Int_vec.iter
      (fun x ->
        if x <> (!next * 7) + round then Alcotest.failf "iter at %d" !next;
        incr next)
      v;
    check "iter count" n !next;
    Int_vec.clear v
  done

(* --- Int_table --- *)

let test_int_table_basic () =
  let t = Int_table.create () in
  check "empty" 0 (Int_table.length t);
  Int_table.set t 5 50;
  Int_table.set t 9 90;
  check "find hit" 50 (Int_table.find t 5 ~default:(-1));
  check "find miss" (-1) (Int_table.find t 6 ~default:(-1));
  checkb "mem" true (Int_table.mem t 9);
  Int_table.set t 5 55;
  check "replace" 55 (Int_table.find t 5 ~default:(-1));
  check "length after replace" 2 (Int_table.length t);
  check "add fresh" 3 (Int_table.add t 7 3);
  check "add existing" 58 (Int_table.add t 5 3);
  Int_table.remove t 5;
  checkb "removed" false (Int_table.mem t 5);
  check "length after remove" 2 (Int_table.length t);
  (* Removing an absent key is a no-op. *)
  Int_table.remove t 5;
  check "idempotent remove" 2 (Int_table.length t)

let test_int_table_slots () =
  let t = Int_table.create () in
  Int_table.set t 42 1;
  let s = Int_table.probe t 42 in
  checkb "slot found" true (s >= 0);
  check "value_at" 1 (Int_table.value_at t s);
  Int_table.set_at t s 2;
  check "set_at visible" 2 (Int_table.find t 42 ~default:0);
  check "absent probe" (-1) (Int_table.probe t 43)

let test_int_table_growth () =
  let t = Int_table.create ~initial_capacity:8 () in
  for i = 0 to 999 do
    Int_table.set t (i * 17) i
  done;
  check "length" 1000 (Int_table.length t);
  for i = 0 to 999 do
    check "survives growth" i (Int_table.find t (i * 17) ~default:(-1))
  done

let test_int_table_reserved_keys () =
  let t = Int_table.create () in
  Alcotest.check_raises "min_int"
    (Invalid_argument "Int_table: key out of supported range") (fun () ->
      Int_table.set t min_int 0);
  Alcotest.check_raises "min_int+1"
    (Invalid_argument "Int_table: key out of supported range") (fun () ->
      ignore (Int_table.mem t (min_int + 1)))

(* Insert/remove churn over a bounded live set, the pattern of the MAO's
   seq index and a cache's MSHR table: a sliding window of [live] keys,
   one insert and one remove per step. The capacity must stay within 4x
   of the initial one (rehashes squeeze tombstones out instead of
   doubling), and once warm the churn must allocate nothing. *)
let test_int_table_churn () =
  let live = 64 in
  List.iter
    (fun (what, key) ->
      let t = Int_table.create ~initial_capacity:live () in
      let initial = Int_table.capacity t in
      let step i =
        if i >= live then Int_table.remove t (key (i - live));
        Int_table.set t (key i) i;
        if Int_table.capacity t > 4 * initial then
          Alcotest.failf "%s: capacity %d after %d steps" what
            (Int_table.capacity t) i
      in
      let warm = 100_000 and steps = 1_000_000 in
      for i = 0 to warm - 1 do
        step i
      done;
      let before = Gc.allocated_bytes () in
      for i = warm to warm + steps - 1 do
        step i
      done;
      let allocated = Gc.allocated_bytes () -. before in
      if allocated > 1024. then
        Alcotest.failf "%s: %.0f bytes allocated by %d warm steps" what
          allocated steps;
      check (what ^ " live") live (Int_table.length t);
      for i = warm + steps - live to warm + steps - 1 do
        check (what ^ " survivor") i (Int_table.find t (key i) ~default:(-1))
      done)
    [
      ("sequential", Fun.id);
      ("scattered", fun i -> (i * 0x2545F4914F6CDD1D) land max_int);
    ]

(* Model check against Hashtbl: insert/remove/add streams must leave both
   maps with identical contents (compared via sorted bindings, so
   iteration order never matters). *)
let int_table_agrees ~keys ops =
  let t = Int_table.create ~initial_capacity:8 () in
  let h = Hashtbl.create 8 in
  List.iter
    (fun op ->
      match op with
      | `Set (k, v) ->
          Int_table.set t k v;
          Hashtbl.replace h k v
      | `Remove k ->
          Int_table.remove t k;
          Hashtbl.remove h k
      | `Add (k, d) ->
          let model =
            (match Hashtbl.find_opt h k with None -> 0 | Some v -> v) + d
          in
          Hashtbl.replace h k model;
          if Int_table.add t k d <> model then
            QCheck.Test.fail_report "add returned a stale sum")
    ops;
  (* Also exercise the read APIs on every key ever touched. *)
  let agree k =
    Int_table.mem t k = Hashtbl.mem h k
    && Int_table.find t k ~default:(min_int + 2)
       = (match Hashtbl.find_opt h k with None -> min_int + 2 | Some v -> v)
  in
  let all_agree = List.for_all agree (List.init keys Fun.id) in
  let bindings m =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])
  in
  let table_bindings =
    List.sort compare (Int_table.fold (fun k v acc -> (k, v) :: acc) t [])
  in
  all_agree
  && Int_table.length t = Hashtbl.length h
  && table_bindings = bindings h

(* Keys are drawn from a small range to force collisions, tombstone reuse,
   and rehashes with deletions. *)
let prop_int_table_model =
  let op =
    QCheck.(
      oneof
        [
          map (fun (k, v) -> `Set (k, v)) (pair (int_range 0 40) small_int);
          map (fun k -> `Remove k) (int_range 0 40);
          map (fun (k, d) -> `Add (k, d)) (pair (int_range 0 40) small_int);
        ])
  in
  QCheck.Test.make ~name:"int_table agrees with Hashtbl" ~count:500
    QCheck.(list op)
    (int_table_agrees ~keys:41)

(* Long churn: thousands of steps that each insert a key from a wide
   range and remove the key inserted [live] steps earlier, so the live set
   stays small while tombstones pile up. This drives many same-capacity
   squeezes, which the short streams above rarely reach. *)
let prop_int_table_churn_model =
  let gen =
    QCheck.Gen.(
      int_range 2_000 20_000 >>= fun n ->
      int_range 1 48 >>= fun live ->
      array_repeat n (int_range 0 1023) >|= fun keys ->
      List.concat
        (List.init n (fun i ->
             let set = `Set (keys.(i), i) in
             if i < live then [ set ]
             else if i mod 97 = 0 then [ set; `Add (keys.(i - live), 1) ]
             else [ set; `Remove keys.(i - live) ])))
  in
  QCheck.Test.make ~name:"int_table agrees with Hashtbl under churn" ~count:40
    (QCheck.make gen)
    (int_table_agrees ~keys:1024)

(* --- Int_heap --- *)

let test_int_heap_fifo_ties () =
  let h = Int_heap.create () in
  List.iter (fun v -> Int_heap.push h ~prio:7 v) [ 10; 20; 30 ];
  Int_heap.push h ~prio:3 40;
  Int_heap.push h ~prio:7 50;
  let rec drain acc =
    if Int_heap.is_empty h then List.rev acc
    else begin
      let v = Int_heap.min_value h in
      Int_heap.drop_min h;
      drain (v :: acc)
    end
  in
  Alcotest.(check (list int)) "fifo on equal priority" [ 40; 10; 20; 30; 50 ]
    (drain [])

let test_int_heap_grows () =
  let h = Int_heap.create ~initial_capacity:4 () in
  for i = 99 downto 0 do
    Int_heap.push h ~prio:i i
  done;
  check "length" 100 (Int_heap.length h);
  let last = ref (-1) in
  while not (Int_heap.is_empty h) do
    let p = Int_heap.min_prio h in
    checkb "sorted" true (p >= !last);
    check "value rides with its priority" p (Int_heap.min_value h);
    last := p;
    Int_heap.drop_min h
  done

let test_int_heap_order () =
  let h = Int_heap.create () in
  List.iter
    (fun (p, v) -> Int_heap.push h ~prio:p v)
    [ (9, 900); (2, 200); (5, 500); (1, 100) ];
  check "min prio" 1 (Int_heap.min_prio h);
  check "min value" 100 (Int_heap.min_value h);
  Int_heap.drop_min h;
  check "next min" 2 (Int_heap.min_prio h);
  check "length" 3 (Int_heap.length h);
  Int_heap.clear h;
  checkb "cleared" true (Int_heap.is_empty h)

let prop_int_heap_sorted =
  QCheck.Test.make ~name:"int_heap drains in priority order" ~count:200
    QCheck.(list int)
    (fun prios ->
      let h = Int_heap.create () in
      List.iteri (fun i p -> Int_heap.push h ~prio:p i) prios;
      let rec drain acc =
        if Int_heap.is_empty h then List.rev acc
        else begin
          let p = Int_heap.min_prio h in
          Int_heap.drop_min h;
          drain (p :: acc)
        end
      in
      drain [] = List.sort compare prios)

(* --- Domain_pool --- *)

let test_domain_pool_ordering () =
  let tasks = Array.init 37 (fun i () -> i * i) in
  let serial = Domain_pool.run ~jobs:1 tasks in
  let par = Domain_pool.run ~jobs:4 tasks in
  Alcotest.(check (array int)) "parallel = serial" serial par;
  Alcotest.(check (array int)) "input order" (Array.init 37 (fun i -> i * i)) par

let test_domain_pool_more_jobs_than_tasks () =
  let out = Domain_pool.map ~jobs:8 (fun x -> x + 1) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "jobs > tasks" [| 2; 3; 4 |] out

let test_domain_pool_exception () =
  Alcotest.check_raises "task exception resurfaces" (Failure "task 2")
    (fun () ->
      ignore
        (Domain_pool.run ~jobs:4
           (Array.init 8 (fun i () ->
                if i = 2 then failwith "task 2" else i))))

(* --- Table --- *)

let test_table_render () =
  let out =
    Table.render
      ~columns:[ Table.column ~align:Table.Left "name"; Table.column "x" ]
      [ [ "a"; "1" ]; [ "bb"; "22" ] ]
  in
  checkb "has header" true (String.length out > 0);
  checkb "mentions bb" true
    (String.split_on_char '\n' out |> List.exists (fun l ->
         String.length l >= 2 && String.sub l 0 2 = "bb"))

let test_table_ragged_rows () =
  (* Short rows are padded, long rows truncated; must not raise. *)
  let out =
    Table.render
      ~columns:[ Table.column "a"; Table.column "b" ]
      [ [ "1" ]; [ "1"; "2"; "3" ] ]
  in
  checkb "renders" true (String.length out > 0)

let test_table_cells () =
  Alcotest.(check string) "fcell" "3.14" (Table.fcell 3.14159);
  Alcotest.(check string) "fcell decimals" "3.1" (Table.fcell ~decimals:1 3.14159);
  Alcotest.(check string) "icell" "42" (Table.icell 42)

let suite =
  [
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int invalid bound" `Quick test_rng_int_invalid;
        Alcotest.test_case "unit_float range" `Quick test_rng_unit_float;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "geomean" `Quick test_stats_geomean;
        Alcotest.test_case "empty/singleton edge cases" `Quick
          test_stats_edge_cases;
        Alcotest.test_case "stddev" `Quick test_stats_stddev;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "speedup/ratio" `Quick test_stats_speedup;
        QCheck_alcotest.to_alcotest prop_percentile_within_range;
      ] );
    ( "util.int_vec",
      [
        Alcotest.test_case "push/get/clear" `Quick test_int_vec;
        Alcotest.test_case "chunked growth" `Quick test_int_vec_chunks;
      ] );
    ( "util.int_table",
      [
        Alcotest.test_case "set/find/add/remove" `Quick test_int_table_basic;
        Alcotest.test_case "slot access" `Quick test_int_table_slots;
        Alcotest.test_case "growth keeps entries" `Quick test_int_table_growth;
        Alcotest.test_case "reserved keys rejected" `Quick
          test_int_table_reserved_keys;
        QCheck_alcotest.to_alcotest prop_int_table_model;
        QCheck_alcotest.to_alcotest prop_int_table_churn_model;
        Alcotest.test_case "churn keeps capacity, allocates nothing" `Quick
          test_int_table_churn;
      ] );
    ( "util.int_heap",
      [
        Alcotest.test_case "min ordering" `Quick test_int_heap_order;
        Alcotest.test_case "fifo ties" `Quick test_int_heap_fifo_ties;
        Alcotest.test_case "growth keeps order" `Quick test_int_heap_grows;
        QCheck_alcotest.to_alcotest prop_int_heap_sorted;
      ] );
    ( "util.domain_pool",
      [
        Alcotest.test_case "deterministic ordering" `Quick
          test_domain_pool_ordering;
        Alcotest.test_case "more jobs than tasks" `Quick
          test_domain_pool_more_jobs_than_tasks;
        Alcotest.test_case "exception propagation" `Quick
          test_domain_pool_exception;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
        Alcotest.test_case "cells" `Quick test_table_cells;
      ] );
  ]
