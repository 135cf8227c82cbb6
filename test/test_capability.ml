(* Tests for the capability type: unforgeability, monotonicity, sealing,
   word encoding (paper 2.4, 3.1, 5.3). *)

open Cheriot_core

let cap = Alcotest.testable Capability.pp Capability.equal

(* A generator of valid derived capabilities: start from a root and apply
   random guarded manipulations.  Everything it produces must remain
   encodable and monotone. *)
let gen_derived =
  let open QCheck.Gen in
  let* root =
    oneofl
      Capability.[ root_mem_rw; root_executable; root_mem_rw; root_mem_rw ]
  in
  let* steps = int_bound 6 in
  let step c =
    let* choice = int_bound 3 in
    match choice with
    | 0 ->
        let* a = int_bound 0xFFFF_FFFF in
        return (Capability.with_address c a)
    | 1 ->
        let* len = int_bound 0xFFFF in
        return (Capability.set_bounds c ~length:len ~exact:false)
    | 2 ->
        let* bits = int_bound 0xfff in
        return (Capability.and_perms c (Perm.Set.of_arch_bits bits))
    | _ ->
        let* off = int_bound 4096 in
        return (Capability.incr_address c (off - 2048))
  in
  let rec go c n = if n = 0 then return c else go c 0 >>= fun _ -> step c >>= fun c' -> go c' (n - 1) in
  go root steps

let arb_derived =
  QCheck.make ~print:(Fmt.to_to_string Capability.pp) gen_derived

let prop_word_roundtrip =
  QCheck.Test.make ~name:"to_word/of_word roundtrip" ~count:3000 arb_derived
    (fun c ->
      let c' =
        Capability.of_word ~tag:(Capability.tag c) (Capability.to_word c)
      in
      Capability.equal c c')

let prop_any_word_decodes =
  QCheck.Test.make ~name:"of_word total and re-encodable" ~count:3000
    QCheck.(map Int64.of_int int)
    (fun w ->
      (* Whatever the bit pattern, it is a capability that encodes back
         to the same word. *)
      Capability.to_word (Capability.of_word ~tag:false w) = w)

let prop_monotonic_bounds =
  QCheck.Test.make ~name:"derived caps stay within root bounds" ~count:3000
    arb_derived (fun c ->
      (not (Capability.tag c))
      || Capability.base c >= 0
         && Capability.top c <= 0x1_0000_0000
         && Capability.base c <= Capability.top c)

let prop_monotonic_perms =
  QCheck.Test.make ~name:"and_perms never adds permissions" ~count:3000
    QCheck.(pair arb_derived (int_bound 0xfff))
    (fun (c, bits) ->
      let mask = Perm.Set.of_arch_bits bits in
      let c' = Capability.and_perms c mask in
      Perm.Set.subset (Capability.perms c') (Capability.perms c))

let prop_set_bounds_monotonic =
  QCheck.Test.make ~name:"set_bounds never widens" ~count:3000
    QCheck.(pair arb_derived (int_bound 0xFFFFF))
    (fun (c, len) ->
      let c' = Capability.set_bounds c ~length:len ~exact:false in
      (not (Capability.tag c'))
      || Capability.base c' >= Capability.base c
         && Capability.top c' <= Capability.top c)

let test_null () =
  let n = Capability.null in
  Alcotest.(check bool) "untagged" false (Capability.tag n);
  Alcotest.(check int) "addr" 0 (Capability.address n);
  Alcotest.check cap "word roundtrip" n
    (Capability.of_word ~tag:false (Capability.to_word n));
  Alcotest.(check int64) "encodes to zero" 0L (Capability.to_word n)

let test_roots () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "tagged" true (Capability.tag c);
      Alcotest.(check bool) "unsealed" false (Capability.is_sealed c))
    Capability.roots;
  Alcotest.(check int) "rw covers all" 0x1_0000_0000
    (Capability.top Capability.root_mem_rw);
  Alcotest.(check bool) "no root has EX+SD" true
    (not
       Capability.(
         has_perm root_mem_rw EX || has_perm root_executable SD))

let test_narrow_then_oob () =
  (* Paper 2.3 case 2: given a valid pointer, access outside the bounds is
     impossible. *)
  let c = Capability.with_address Capability.root_mem_rw 0x2000 in
  let c = Capability.set_bounds c ~length:256 ~exact:true in
  Alcotest.(check bool) "tagged" true (Capability.tag c);
  Alcotest.(check bool) "in" true (Capability.in_bounds c ~size:1 0x20ff);
  Alcotest.(check bool) "out" false (Capability.in_bounds c ~size:1 0x2100);
  Alcotest.(check bool) "before" false (Capability.in_bounds c ~size:1 0x1fff);
  (* Widening attempt: set bounds bigger than current -> tag cleared. *)
  let widened = Capability.set_bounds c ~length:512 ~exact:false in
  Alcotest.(check bool) "widening clears tag" false (Capability.tag widened);
  (* Requests of at most 511 bytes take the exponent-0 path, exact by
     construction: they too keep the tag only inside the old bounds. *)
  let at off len =
    Capability.tag
      (Capability.set_bounds (Capability.incr_address c off) ~length:len
         ~exact:false)
  in
  Alcotest.(check bool) "short, inside" true (at 16 64);
  Alcotest.(check bool) "short, up to the top" true (at 192 64);
  Alcotest.(check bool) "short, past the top" false (at 0 300);
  Alcotest.(check bool) "short, from inside past the top" false (at 200 64)

let test_perm_shed_not_regained () =
  let c = Capability.with_address Capability.root_mem_rw 0x1000 in
  let ro = Capability.clear_perms c [ SD; SL ] in
  Alcotest.(check bool) "tag kept" true (Capability.tag ro);
  Alcotest.(check bool) "SD gone" false (Capability.has_perm ro SD);
  let rw_again =
    Capability.and_perms ro (Capability.perms Capability.root_mem_rw)
  in
  Alcotest.(check bool) "SD not regained" false (Capability.has_perm rw_again SD)

let test_seal_unseal () =
  let key = Capability.with_address Capability.root_sealing 3 in
  let c = Capability.with_address Capability.root_mem_rw 0x4000 in
  let c = Capability.set_bounds c ~length:64 ~exact:true in
  match Capability.seal c ~key with
  | Error e -> Alcotest.fail e
  | Ok sealed -> (
      Alcotest.(check bool) "sealed" true (Capability.is_sealed sealed);
      Alcotest.(check bool)
        "data otype" true
        (Otype.equal (Capability.otype sealed) (Otype.v Data 3));
      (* Sealed caps are immutable: address change clears tag. *)
      let moved = Capability.with_address sealed 0x4004 in
      Alcotest.(check bool) "sealed immutable" false (Capability.tag moved);
      (* Unseal with wrong otype fails. *)
      let wrong_key = Capability.with_address Capability.root_sealing 4 in
      (match Capability.unseal sealed ~key:wrong_key with
      | Ok _ -> Alcotest.fail "unseal with wrong key succeeded"
      | Error _ -> ());
      match Capability.unseal sealed ~key with
      | Error e -> Alcotest.fail e
      | Ok unsealed ->
          Alcotest.(check bool) "unsealed" false (Capability.is_sealed unsealed);
          Alcotest.(check int) "addr preserved" 0x4000
            (Capability.address unsealed))

let test_seal_requires_perm () =
  let no_se = Capability.clear_perms Capability.root_sealing [ SE ] in
  let key = Capability.with_address no_se 2 in
  let c = Capability.root_mem_rw in
  match Capability.seal c ~key with
  | Ok _ -> Alcotest.fail "seal without SE succeeded"
  | Error _ -> ()

let test_sentries () =
  let code = Capability.with_address Capability.root_executable 0x100 in
  match Capability.seal_sentry code Otype.Sentry_disable with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check bool) "is sentry" true (Capability.is_sentry s);
      Alcotest.(check bool)
        "kind" true
        (Capability.sentry_kind s = Some Otype.Sentry_disable);
      (* Data caps cannot become sentries. *)
      let d = Capability.root_mem_rw in
      (match Capability.seal_sentry d Otype.Sentry_enable with
      | Ok _ -> Alcotest.fail "data sentry"
      | Error _ -> ())

let test_load_attenuation () =
  (* Paper 3.1.1: loading via a cap without LG clears GL+LG; without LM
     clears LM+SD on unsealed caps. *)
  let auth_no_lg = Capability.clear_perms Capability.root_mem_rw [ LG ] in
  let auth_no_lm = Capability.clear_perms Capability.root_mem_rw [ LM ] in
  let victim = Capability.with_address Capability.root_mem_rw 0x8000 in
  let a = Capability.load_attenuate ~authority:auth_no_lg victim in
  Alcotest.(check bool) "GL cleared" false (Capability.has_perm a GL);
  Alcotest.(check bool) "LG cleared" false (Capability.has_perm a LG);
  Alcotest.(check bool) "SD kept" true (Capability.has_perm a SD);
  let b = Capability.load_attenuate ~authority:auth_no_lm victim in
  Alcotest.(check bool) "SD cleared" false (Capability.has_perm b SD);
  Alcotest.(check bool) "LM cleared" false (Capability.has_perm b LM);
  Alcotest.(check bool) "GL kept" true (Capability.has_perm b GL);
  Alcotest.(check bool) "tag kept" true (Capability.tag b);
  (* Full authority: no attenuation. *)
  let c = Capability.load_attenuate ~authority:Capability.root_mem_rw victim in
  Alcotest.check cap "unattenuated" victim c

let test_unrepresentable_clears_tag () =
  (* Move the address of a tightly-bounded large object far outside: the
     CHERIoT encoding has no guaranteed representable range beyond the
     bounds, so the tag must clear rather than bounds change. *)
  let c = Capability.with_address Capability.root_mem_rw 0x10000 in
  let c = Capability.set_bounds c ~length:(0x1ff lsl 4) ~exact:false in
  Alcotest.(check bool) "tagged" true (Capability.tag c);
  let bounds_before = Capability.(base c, top c) in
  let moved = Capability.incr_address c (1 lsl 20) in
  if (Capability.tag moved) then
    Alcotest.(check (pair int int))
      "bounds unchanged" bounds_before
      Capability.(base moved, top moved)
  else Alcotest.(check bool) "tag cleared" false (Capability.tag moved)

let test_subset () =
  let parent = Capability.with_address Capability.root_mem_rw 0x1000 in
  let parent = Capability.set_bounds parent ~length:4096 ~exact:true in
  let child = Capability.with_address parent 0x1100 in
  let child = Capability.set_bounds child ~length:16 ~exact:true in
  let child = Capability.clear_perms child [ SD ] in
  Alcotest.(check bool) "subset" true (Capability.is_subset child ~of_:parent);
  Alcotest.(check bool)
    "not superset" false
    (Capability.is_subset parent ~of_:child)

(* The value and its encoding, exhaustively over the metadata fields:
   every tag × R × p'6 × o'3 combination, each with 2048 of the 2^22
   E/B/T values, chosen by an odd multiplier so that the 2048
   combinations together visit every E/B/T value once.  For every
   value:
   - the accessors read the fields its word was built from: the tag,
     the permission set the field decodes to, the otype in the
     namespace EX chooses, the bounds (base and top at the address) and
     the address;
   - [to_word] puts the metadata word, R included, above the address,
     and [of_word] of that and the tag is the value again. *)
let test_word_record_roundtrip () =
  let bad = ref 0 and checked = ref 0 in
  for hi = 0 to 2047 do
    let tag = hi land 1 = 1 and reserved = hi land 2 <> 0 in
    let p = (hi lsr 2) land 0x3f and o = hi lsr 8 in
    let perms = Perm.decode p in
    let otype =
      if o = 0 then Otype.unsealed
      else Otype.v (if Perm.Set.mem EX perms then Exec else Data) o
    in
    for j = 0 to 2047 do
      let bounds = ((j lsl 11) lor hi) * 0x9E3779B1 land 0x3f_ffff in
      let addr = (j * 0x2F6B_3C9D) lxor (hi lsl 20) land 0xFFFF_FFFF in
      let meta =
        (if reserved then 1 lsl 31 else 0)
        lor (p lsl 25) lor (o lsl 22) lor bounds
      in
      let c =
        {
          Capability.word =
            (if tag then Capability.Word.tag_bit else 0) lor meta;
          addr;
        }
      in
      let enc =
        Int64.logor
          (Int64.shift_left (Int64.of_int meta) 32)
          (Int64.of_int addr)
      in
      let base, top = Bounds.decode (Bounds.of_bits bounds) ~addr in
      incr checked;
      if
        Capability.tag c <> tag
        || (not (Perm.Set.equal (Capability.perms c) perms))
        || (not (Otype.equal (Capability.otype c) otype))
        || Capability.is_sealed c <> (o <> 0)
        || Capability.base c <> base
        || Capability.top c <> top
        || Capability.address c <> addr
        || Capability.to_word c <> enc
        || not (Capability.equal (Capability.of_word ~tag enc) c)
      then incr bad
    done
  done;
  Alcotest.(check int) "words checked" (2048 * 2048) !checked;
  Alcotest.(check int) "values whose accessors or encoding lost a bit" 0 !bad

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "null capability" `Quick test_null;
    Alcotest.test_case "reset roots" `Quick test_roots;
    Alcotest.test_case "narrow then out-of-bounds" `Quick test_narrow_then_oob;
    Alcotest.test_case "permissions shed not regained" `Quick
      test_perm_shed_not_regained;
    Alcotest.test_case "seal/unseal" `Quick test_seal_unseal;
    Alcotest.test_case "seal requires SE" `Quick test_seal_requires_perm;
    Alcotest.test_case "sentries" `Quick test_sentries;
    Alcotest.test_case "load attenuation (LG/LM)" `Quick test_load_attenuation;
    Alcotest.test_case "unrepresentable move clears tag" `Quick
      test_unrepresentable_clears_tag;
    Alcotest.test_case "CTestSubset" `Quick test_subset;
    Alcotest.test_case "word and record round-trip exhaustively" `Quick
      test_word_record_roundtrip;
    q prop_word_roundtrip;
    q prop_any_word_decodes;
    q prop_monotonic_bounds;
    q prop_monotonic_perms;
    q prop_set_bounds_monotonic;
  ]
