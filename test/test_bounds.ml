(* Tests for the compressed bounds encoding (paper 3.2.3, Fig. 3).  The
   paper checked the encoding with Sail's SMT backend; here we use
   exhaustive small-field checks plus qcheck properties. *)

open Cheriot_core
module Iters = Cheriot_proptest.Iters

(* The biased region generator lives in the property harness
   ([Cheriot_proptest.Flatgen]); counts scale with PROP_ITERS. *)
let gen_region = Cheriot_proptest.Flatgen.gen_region
let arb_region = Cheriot_proptest.Flatgen.arb_region

let prop_set_bounds_covers =
  QCheck.Test.make ~name:"set_bounds covers request"
    ~count:(Iters.count ~default:5000) arb_region
    (fun (base, length) ->
      QCheck.assume (base + length <= 0x1_0000_0000);
      match Bounds.set_bounds ~base ~length with
      | None -> false
      | Some (bounds, b', t') ->
          let db, dt = Bounds.decode bounds ~addr:base in
          b' = db && t' = dt && b' <= base && t' >= base + length)

let prop_small_exact =
  QCheck.Test.make ~name:"lengths <= 511 always exact" ~count:(Iters.count ~default:5000)
    QCheck.(
      make
        ~print:(fun (b, l) -> Printf.sprintf "base=0x%x len=%d" b l)
        QCheck.Gen.(pair (int_bound 0xFFFF_FE00) (int_bound 511)))
    (fun (base, length) ->
      match Bounds.set_bounds ~base ~length with
      | None -> false
      | Some (_, b', t') -> b' = base && t' = base + length)

let prop_exact_matches_rounding =
  QCheck.Test.make ~name:"set_bounds_exact iff no rounding" ~count:(Iters.count ~default:5000)
    arb_region (fun (base, length) ->
      QCheck.assume (base + length <= 0x1_0000_0000);
      let exact = Bounds.set_bounds_exact ~base ~length in
      match Bounds.set_bounds ~base ~length with
      | None -> exact = None
      | Some (_, b', t') ->
          if b' = base && t' = base + length then Option.is_some exact
          else exact = None)

let prop_crrl_cram_consistent =
  QCheck.Test.make ~name:"CRRL/CRAM make CSetBoundsExact succeed" ~count:(Iters.count ~default:5000)
    QCheck.(
      make
        ~print:(fun (b, l) -> Printf.sprintf "base=0x%x len=0x%x" b l)
        gen_region)
    (fun (base, length) ->
      let rlen = Bounds.crrl length in
      let mask = Bounds.cram length in
      let abase = base land mask in
      QCheck.assume (abase + rlen <= 0x1_0000_0000);
      rlen >= length
      && Option.is_some (Bounds.set_bounds_exact ~base:abase ~length:rlen))

let prop_crrl_minimal =
  QCheck.Test.make ~name:"CRRL is minimal for aligned bases" ~count:(Iters.count ~default:2000)
    QCheck.(int_bound 0xFFFFF)
    (fun length ->
      let rlen = Bounds.crrl length in
      (* Any length strictly between length and rlen must not be exactly
         representable at base 0. *)
      rlen = length
      ||
      let mid = length + ((rlen - length) / 2) in
      mid = length || mid = rlen
      || Option.is_none (Bounds.set_bounds_exact ~base:0 ~length:mid)
      || Bounds.crrl mid = mid)

let prop_representability_within =
  QCheck.Test.make ~name:"addresses within bounds are representable"
    ~count:(Iters.count ~default:5000) arb_region (fun (base, length) ->
      QCheck.assume (base + length <= 0x1_0000_0000 && length > 0);
      match Bounds.set_bounds ~base ~length with
      | None -> false
      | Some (bounds, b', t') ->
          (* CHERIoT guarantees representability only inside the decoded
             bounds (3.2.3: "in the worst case the representable range is
             equal to the object bounds"). *)
          let probe = [ b'; b' + ((t' - b') / 2); t' - 1 ] in
          List.for_all
            (fun a -> Bounds.representable bounds ~cur:base ~addr:a)
            probe)

let prop_below_base_invalid =
  QCheck.Test.make ~name:"addresses below base are never representable"
    ~count:(Iters.count ~default:5000) arb_region (fun (base, length) ->
      QCheck.assume (base + length <= 0x1_0000_0000 && base > 0);
      match Bounds.set_bounds ~base ~length with
      | None -> false
      | Some (bounds, b', _) ->
          (* With e = 24 the region 2^(e+9) exceeds the address space, so
             every address is representable (mod 2^32): that is how the
             roots span all of memory.  The below-base guarantee applies
             to ordinary exponents. *)
          Bounds.exponent bounds = 24 || b' = 0
          ||
          let a = b' - 1 in
          (* Either flagged unrepresentable, or decodes to different
             bounds (which the ISA treats identically: tag cleared). *)
          (not (Bounds.representable bounds ~cur:base ~addr:a))
          || Bounds.decode bounds ~addr:a <> Bounds.decode bounds ~addr:base)

let test_fig3_corrections () =
  (* Drive all four rows of the Fig. 3 correction table with a hand-built
     encoding: e = 4, B = 0x100, T = 0x080 (T < B, so the top sits in the
     next 2^13 region). *)
  let b = Bounds.of_raw_fields ~e:4 ~b:0x100 ~t:0x080 in
  (* Address with a_mid >= B: same region as base. *)
  let addr_hi = (0x100 lsl 4) lor 0x7 in
  let base, top = Bounds.decode b ~addr:addr_hi in
  Alcotest.(check int) "base row2" (0x100 lsl 4) base;
  Alcotest.(check int) "top row2 (ct=1)" ((0x080 lsl 4) + (1 lsl 13)) top;
  (* Address with a_mid < B but inside bounds: next region, cb = -1. *)
  let addr_lo = (1 lsl 13) lor (0x020 lsl 4) in
  let base', top' = Bounds.decode b ~addr:addr_lo in
  Alcotest.(check int) "base row4 (cb=-1)" (0x100 lsl 4) base';
  Alcotest.(check int) "top row4 (ct=0)" ((0x080 lsl 4) + (1 lsl 13)) top'

let test_whole_address_space () =
  let b = Bounds.whole_address_space in
  List.iter
    (fun addr ->
      let base, top = Bounds.decode b ~addr in
      Alcotest.(check int) "base" 0 base;
      Alcotest.(check int) "top" 0x1_0000_0000 top)
    [ 0; 1; 0xFFFF; 0x8000_0000; 0xFFFF_FFFF ]

let test_exponent_gap () =
  (* Exponents 15..23 are unencodable; a length needing e=15 jumps to
     e=24 alignment. *)
  let length = 0x1ff lsl 15 in
  match Bounds.set_bounds ~base:0 ~length with
  | None -> Alcotest.fail "should be representable"
  | Some (bounds, _, t') ->
      Alcotest.(check int) "exponent" 24 (Bounds.exponent bounds);
      Alcotest.(check bool) "top covers" true (t' >= length)

let test_fragmentation () =
  (* Paper 3.2.3: 9-bit precision gives average internal fragmentation of
     2^-9 ~ 0.19%; check the worst case for a sweep of sizes. *)
  let worst = ref 0.0 in
  for i = 1 to 4096 do
    let length = i * 97 in
    match Bounds.set_bounds ~base:0 ~length with
    | None -> Alcotest.fail "set_bounds failed"
    | Some (_, b', t') ->
        let waste = float_of_int (t' - b' - length) /. float_of_int length in
        if waste > !worst then worst := waste
  done;
  Alcotest.(check bool)
    (Printf.sprintf "worst fragmentation %.4f < 2/512" !worst)
    true
    (!worst < 2.0 /. 512.0)

let test_decode_examples () =
  (* A 64-byte object at 0x1000: e=0, exact. *)
  match Bounds.set_bounds ~base:0x1000 ~length:64 with
  | None -> Alcotest.fail "set_bounds failed"
  | Some (bounds, b', t') ->
      Alcotest.(check int) "base" 0x1000 b';
      Alcotest.(check int) "top" 0x1040 t';
      Alcotest.(check int) "exp" 0 (Bounds.exponent bounds);
      Alcotest.(check bool)
        "in_bounds" true
        (Bounds.in_bounds bounds ~addr:0x1000 ~access:0x103f ~size:1);
      Alcotest.(check bool)
        "off by one" false
        (Bounds.in_bounds bounds ~addr:0x1000 ~access:0x1040 ~size:1)

(* Exhaustive round-trip over the entire E'4/B'9/T'9 field space.

   Every encodable (E, B, T) triple is decoded at its canonical address
   [B << e] (so both Fig. 3 corrections start from cb = 0), and the
   resulting region is fed back through [set_bounds].  The encoding must
   be the identity on its own image: re-encoding a decodable region
   yields exactly that region — never widened (that would amplify
   authority), never narrowed (that would break CSetBounds's contract of
   covering the request).  Triples whose decode leaves the 32-bit
   address space are skipped: they have no canonical in-space region
   (the ISA can still hold them — decode is total — but set_bounds can
   never produce them). *)
let test_roundtrip_exhaustive () =
  let checked = ref 0 in
  for e_field = 0 to 15 do
    let e = if e_field = 15 then 24 else e_field in
    for b = 0 to 511 do
      let base = b lsl e in
      if base <= 0xFFFF_FFFF then
        for t = 0 to 511 do
          let ct = if t < b then 1 else 0 in
          let top = ((ct lsl 9) lor t) lsl e in
          if top <= 0x1_0000_0000 then begin
            incr checked;
            let bounds = Bounds.of_raw_fields ~e:e_field ~b ~t in
            let db, dt = Bounds.decode bounds ~addr:base in
            if db <> base || dt <> top then
              Alcotest.failf
                "decode e=%d B=%#x T=%#x at %#x: got [%#x,%#x), want [%#x,%#x)"
                e_field b t base db dt base top;
            (* the allocation-free single-ended decodes agree *)
            if
              Bounds.base_of bounds ~addr:base <> db
              || Bounds.top_of bounds ~addr:base <> dt
            then
              Alcotest.failf "base_of/top_of disagree with decode at e=%d B=%#x T=%#x"
                e_field b t;
            match Bounds.set_bounds ~base ~length:(top - base) with
            | None ->
                Alcotest.failf
                  "set_bounds rejected its own image [%#x,%#x) (e=%d B=%#x T=%#x)"
                  base top e_field b t
            | Some (bounds', b', t') ->
                if b' <> base || t' <> top then
                  Alcotest.failf
                    "round trip moved [%#x,%#x) to [%#x,%#x) (e=%d B=%#x T=%#x)"
                    base top b' t' e_field b t;
                let db', dt' = Bounds.decode bounds' ~addr:base in
                if db' <> base || dt' <> top then
                  Alcotest.failf "re-encoded fields decode differently at e=%d"
                    e_field
          end
        done
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d field triples checked" !checked)
    true
    (!checked > 3_000_000)

(* The invariant the emulator's fast path depends on: an address inside
   the decoded bounds is always representable, and decodes to the same
   region.  [Machine] installs jump/branch targets with a plain record
   update after an [in_bounds] check — skipping [with_address]'s
   representability test — and block translation precomputes the
   advanced PCC on the same grounds.  Exhaustive over the field space, probing
   the edges and middle of every region. *)
let test_in_bounds_implies_representable () =
  let probe bounds ~base ~top a =
    if a >= base && a < top then begin
      if not (Bounds.representable bounds ~cur:base ~addr:a) then
        Alcotest.failf "in-bounds %#x of [%#x,%#x) flagged unrepresentable" a
          base top;
      if
        Bounds.base_of bounds ~addr:a <> base
        || Bounds.top_of bounds ~addr:a <> top
      then
        Alcotest.failf "in-bounds %#x of [%#x,%#x) decodes elsewhere" a base
          top
    end
  in
  for e_field = 0 to 15 do
    let e = if e_field = 15 then 24 else e_field in
    for b = 0 to 511 do
      let base = b lsl e in
      if base <= 0xFFFF_FFFF then
        for t = 0 to 511 do
          let ct = if t < b then 1 else 0 in
          let top = ((ct lsl 9) lor t) lsl e in
          if top <= 0x1_0000_0000 && top > base then begin
            let bounds = Bounds.of_raw_fields ~e:e_field ~b ~t in
            probe bounds ~base ~top base;
            probe bounds ~base ~top (base + 1);
            probe bounds ~base ~top (base + ((top - base) / 2));
            probe bounds ~base ~top (top - 1)
          end
        done
    done
  done

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "Fig.3 correction rows" `Quick test_fig3_corrections;
    Alcotest.test_case "exhaustive E/B/T round trip" `Slow
      test_roundtrip_exhaustive;
    Alcotest.test_case "in-bounds implies representable (exhaustive)" `Slow
      test_in_bounds_implies_representable;
    Alcotest.test_case "whole address space root" `Quick
      test_whole_address_space;
    Alcotest.test_case "exponent 15..23 gap" `Quick test_exponent_gap;
    Alcotest.test_case "fragmentation < 2^-9-ish" `Quick test_fragmentation;
    Alcotest.test_case "decode examples" `Quick test_decode_examples;
    q prop_set_bounds_covers;
    q prop_small_exact;
    q prop_exact_matches_rounding;
    q prop_crrl_cram_consistent;
    q prop_crrl_minimal;
    q prop_representability_within;
    q prop_below_base_invalid;
  ]
