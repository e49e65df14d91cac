(* Tests for the future-work extensions: dynamic branch predictors and
   trace encoders. *)

open Mosaic_ir
module B = Builder
module Predictor = Mosaic_tile.Predictor
module Branch = Mosaic_tile.Branch
module Encode = Mosaic_trace.Encode
module Trace = Mosaic_trace.Trace
module TC = Mosaic_tile.Tile_config
module Soc = Mosaic.Soc

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Predictor --- *)

let cond_br taken not_taken =
  Instr.make ~id:7 ~op:(Op.Cond_br (taken, not_taken))
    ~args:[| Instr.Imm Value.zero |] ~dst:None

let test_two_bit_learns_loop () =
  let p = Predictor.create Predictor.Two_bit in
  let br = cond_br 1 2 in
  (* Train taken repeatedly: prediction converges to the taken target. *)
  for _ = 1 to 4 do
    Predictor.train p ~branch_id:7 br ~actual:1
  done;
  Alcotest.(check (option int)) "predicts taken" (Some 1)
    (Predictor.predict p ~branch_id:7 br);
  (* A couple of not-taken outcomes flip it. *)
  for _ = 1 to 4 do
    Predictor.train p ~branch_id:7 br ~actual:2
  done;
  Alcotest.(check (option int)) "re-learns" (Some 2)
    (Predictor.predict p ~branch_id:7 br)

let test_two_bit_hysteresis () =
  let p = Predictor.create Predictor.Two_bit in
  let br = cond_br 1 2 in
  for _ = 1 to 4 do
    Predictor.train p ~branch_id:7 br ~actual:1
  done;
  (* one contrary outcome must not flip a saturated counter *)
  Predictor.train p ~branch_id:7 br ~actual:2;
  Alcotest.(check (option int)) "still predicts taken" (Some 1)
    (Predictor.predict p ~branch_id:7 br)

let test_gshare_uses_history () =
  (* An alternating pattern is hard for 2-bit but learnable with history. *)
  let run kind =
    let p = Predictor.create kind in
    let br = cond_br 1 2 in
    let mispredicts = ref 0 in
    for i = 0 to 199 do
      let actual = if i mod 2 = 0 then 1 else 2 in
      (match Predictor.predict p ~branch_id:7 br with
      | Some g when g <> actual -> incr mispredicts
      | _ -> ());
      Predictor.train p ~branch_id:7 br ~actual
    done;
    !mispredicts
  in
  let two_bit = run Predictor.Two_bit in
  let gshare = run (Predictor.Gshare { history_bits = 8 }) in
  checkb "gshare beats 2-bit on alternation" true (gshare < two_bit / 2)

let test_predictor_stats () =
  let p = Predictor.create Predictor.Two_bit in
  let br = cond_br 1 2 in
  Predictor.train p ~branch_id:1 br ~actual:1;
  Predictor.train p ~branch_id:1 br ~actual:2;
  let preds, _ = Predictor.stats p in
  checki "two predictions" 2 preds

let test_dynamic_policy_in_simulation () =
  (* A branchy kernel: dynamic prediction should be at least as good as
     no speculation and close to static on loops. *)
  let mk () =
    let p = Program.create () in
    let out = Program.alloc p "out" ~elems:1 ~elem_size:8 in
    let _ =
      B.define p "branchy" ~nparams:0 (fun b ->
          let acc = B.var b (B.imm 0) in
          B.for_ b ~from:(B.imm 0) ~to_:(B.imm 300) (fun i ->
              B.if_else b
                (B.icmp b Op.Eq (B.srem b i (B.imm 2)) (B.imm 0))
                (fun () -> B.assign b ~var:acc (B.add b acc i))
                (fun () -> B.assign b ~var:acc (B.sub b acc i)));
          B.store b ~addr:(B.elem b out (B.imm 0)) acc;
          B.ret b ())
    in
    p
  in
  let run policy name =
    let p = mk () in
    let it = Mosaic_trace.Interp.create p ~kernel:"branchy" ~ntiles:1 ~args:[] in
    let trace = Mosaic_trace.Interp.run it in
    (Soc.run_homogeneous Mosaic.Presets.dae_soc ~program:p ~trace
       ~tile_config:{ TC.out_of_order with TC.branch = policy; name })
      .Soc.cycles
  in
  let none = run Branch.No_speculation "none" in
  let dynamic =
    run
      (Branch.Dynamic { kind = Predictor.Gshare { history_bits = 8 }; penalty = 12 })
      "dyn"
  in
  let static_ = run (Branch.Static { penalty = 12 }) "static" in
  checkb "dynamic beats no speculation" true (dynamic < none);
  (* The alternating if/else defeats the static taken heuristic; gshare
     learns it. *)
  checkb "dynamic beats static on alternation" true (dynamic < static_)

(* --- Encode --- *)

let test_encode_control_roundtrip () =
  let cases =
    [
      [||];
      [| 0 |];
      [| 0; 2; 3; 2; 3; 2; 3; 2; 3; 1 |];
      Array.init 500 (fun i -> i mod 4);
      [| 5; 5; 5; 5; 5; 5 |];
      Array.init 64 (fun i -> (i * 37) mod 11);
    ]
  in
  List.iter
    (fun path ->
      Alcotest.(check (array int))
        "control roundtrip" path
        (Encode.decode_control (Encode.encode_control path)))
    cases

let test_encode_control_compresses_loops () =
  let path = Array.init 10_000 (fun i -> if i = 0 then 0 else 2 + (i mod 2)) in
  let encoded = Encode.encode_control path in
  checkb "loopy path compresses well" true (Bytes.length encoded < 200)

let test_encode_addrs_roundtrip () =
  let cases =
    [
      [||];
      [| 4096 |];
      Array.init 100 (fun i -> 0x1000 + (4 * i));
      [| 100; 50; 100_000; 3; 3 |];
    ]
  in
  List.iter
    (fun addrs ->
      Alcotest.(check (array int))
        "addr roundtrip" addrs
        (Encode.decode_addrs (Encode.encode_addrs addrs)))
    cases

let test_encode_addrs_compresses_strides () =
  let addrs = Array.init 10_000 (fun i -> 0x10000 + (4 * i)) in
  let encoded = Encode.encode_addrs addrs in
  (* two-ish bytes per strided access vs 8 raw *)
  checkb "strided addresses compress" true (Bytes.length encoded < 25_000)

let prop_control_roundtrip =
  QCheck.Test.make ~name:"control encoding roundtrips" ~count:100
    QCheck.(array_of_size (QCheck.Gen.int_range 0 200) (int_range 0 30))
    (fun path -> Encode.decode_control (Encode.encode_control path) = path)

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"address encoding roundtrips" ~count:100
    QCheck.(array_of_size (QCheck.Gen.int_range 0 200) (int_range 0 1_000_000))
    (fun addrs -> Encode.decode_addrs (Encode.encode_addrs addrs) = addrs)

(* The decoders take one-byte block ids and address deltas of up to four
   bytes by a fast path; these generators also reach the general path
   (wide ids, deltas of any size, including ones that overflow zig-zag). *)
let wide_int =
  QCheck.Gen.(
    oneof [ int_range 0 127; int_range 0 (1 lsl 30); int_range (-1000) 1000; int ])

let prop_control_roundtrip_wide =
  QCheck.Test.make ~name:"control encoding roundtrips (any id)" ~count:200
    QCheck.(
      make
        Gen.(
          array_size (int_range 0 200)
            (oneof [ int_range 0 3; int_range 0 127; wide_int ])))
    (fun path -> Encode.decode_control (Encode.encode_control path) = path)

let prop_addr_roundtrip_wide =
  QCheck.Test.make ~name:"address encoding roundtrips (any delta)" ~count:200
    QCheck.(make Gen.(array_size (int_range 0 200) wide_int))
    (fun addrs -> Encode.decode_addrs (Encode.encode_addrs addrs) = addrs)

(* A frame is decoded in place: bytes either side of it, here all 0x80
   (a varint continuation), must neither be read nor change the result,
   and a frame cut short must fail rather than run on into them. *)
let test_decode_in_place () =
  let pad = Bytes.make 7 '\x80' in
  let embed b = Bytes.concat Bytes.empty [ pad; b; pad ] in
  let path = Array.init 300 (fun i -> if i mod 7 = 0 then 200 + i else i mod 3) in
  let addrs = [| 0; 1 lsl 40; 5; max_int; min_int; 64; 64 + 128 |] in
  let ctl = Encode.encode_control path and adr = Encode.encode_addrs addrs in
  Alcotest.(check (array int))
    "control in place" path
    (Encode.decode_control_sub (embed ctl) 7 (Bytes.length ctl));
  Alcotest.(check (array int))
    "addresses in place" addrs
    (Encode.decode_addrs_sub (embed adr) 7 (Bytes.length adr));
  let cut decode b =
    match decode (embed b) 7 (Bytes.length b - 1) with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  checkb "cut control frame fails" true (cut Encode.decode_control_sub ctl);
  checkb "cut address frame fails" true (cut Encode.decode_addrs_sub adr)

let test_compressed_trace_smaller () =
  let inst = Mosaic_workloads.Registry.instance "stencil" in
  let trace = Mosaic_workloads.Runner.trace inst ~ntiles:1 in
  let raw_control, raw_memory = Trace.storage_bytes trace in
  let comp_control, comp_memory = Trace.compressed_bytes trace in
  checkb "control shrinks" true (comp_control < raw_control / 4);
  checkb "memory shrinks" true (comp_memory < raw_memory / 2)

let suite =
  [
    ( "ext.predictor",
      [
        Alcotest.test_case "two-bit learns" `Quick test_two_bit_learns_loop;
        Alcotest.test_case "two-bit hysteresis" `Quick test_two_bit_hysteresis;
        Alcotest.test_case "gshare history" `Quick test_gshare_uses_history;
        Alcotest.test_case "stats" `Quick test_predictor_stats;
        Alcotest.test_case "dynamic policy end to end" `Quick
          test_dynamic_policy_in_simulation;
      ] );
    ( "ext.encode",
      [
        Alcotest.test_case "control roundtrip" `Quick test_encode_control_roundtrip;
        Alcotest.test_case "loops compress" `Quick test_encode_control_compresses_loops;
        Alcotest.test_case "addr roundtrip" `Quick test_encode_addrs_roundtrip;
        Alcotest.test_case "strides compress" `Quick test_encode_addrs_compresses_strides;
        Alcotest.test_case "whole trace shrinks" `Quick test_compressed_trace_smaller;
        QCheck_alcotest.to_alcotest prop_control_roundtrip;
        QCheck_alcotest.to_alcotest prop_addr_roundtrip;
        QCheck_alcotest.to_alcotest prop_control_roundtrip_wide;
        QCheck_alcotest.to_alcotest prop_addr_roundtrip_wide;
        Alcotest.test_case "decode in place" `Quick test_decode_in_place;
      ] );
  ]
