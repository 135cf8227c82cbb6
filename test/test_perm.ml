(* Tests for the 6-bit compressed permission encoding (paper Fig. 2). *)

open Cheriot_core

let set = Alcotest.testable Perm.Set.pp Perm.Set.equal

let qcheck_set =
  QCheck.make
    ~print:(Fmt.to_to_string Perm.Set.pp)
    QCheck.Gen.(map Perm.Set.of_arch_bits (int_bound 0xfff))

let test_decode_total () =
  for bits = 0 to 63 do
    ignore (Perm.decode bits)
  done

let test_encode_decode_roundtrip () =
  (* Every decoded 6-bit value must re-encode to itself: the encoding has
     no redundant representations. *)
  for bits = 0 to 63 do
    let s = Perm.decode bits in
    match Perm.encode s with
    | None ->
        Alcotest.failf "decode %d = %a not re-encodable" bits Perm.Set.pp s
    | Some bits' ->
        Alcotest.(check int) (Printf.sprintf "bits %d" bits) bits bits'
  done

let test_wx () =
  (* W^X: no decodable permission set grants both EX and SD (3.1.1). *)
  for bits = 0 to 63 do
    let s = Perm.decode bits in
    if Perm.Set.mem EX s && Perm.Set.mem SD s then
      Alcotest.failf "W^X violated by bits %d: %a" bits Perm.Set.pp s
  done

let test_seal_mem_separation () =
  (* Sealing permissions never co-occur with memory permissions. *)
  for bits = 0 to 63 do
    let s = Perm.decode bits in
    let sealing = Perm.Set.(mem SE s || mem US s || mem U0 s) in
    let memory = Perm.Set.(mem LD s || mem SD s || mem MC s || mem EX s) in
    if sealing && memory then
      Alcotest.failf "seal/mem mixed in bits %d: %a" bits Perm.Set.pp s
  done

let test_formats () =
  let open Perm in
  let fmt_of l = format_of (Set.of_list l) in
  Alcotest.(check bool)
    "rw" true
    (fmt_of [ LD; SD; MC; GL; SL; LM; LG ] = Some Mem_cap_rw);
  Alcotest.(check bool) "ro" true (fmt_of [ LD; MC; LG ] = Some Mem_cap_ro);
  Alcotest.(check bool) "wo" true (fmt_of [ SD; MC ] = Some Mem_cap_wo);
  Alcotest.(check bool) "nocap" true (fmt_of [ LD; SD ] = Some Mem_no_cap);
  Alcotest.(check bool)
    "exec" true
    (fmt_of [ EX; LD; MC; SR ] = Some Executable);
  Alcotest.(check bool) "sealing" true (fmt_of [ SE; US ] = Some Sealing);
  Alcotest.(check bool) "GL alone is sealing-format" true
    (fmt_of [ GL ] = Some Sealing);
  (* EX with SD is not representable in any format. *)
  Alcotest.(check bool) "no exec+store" true (fmt_of [ EX; SD; LD; MC ] = None)

let test_legalize_examples () =
  let open Perm in
  let lg l = Set.to_list (legalize (Set.of_list l)) in
  (* Dropping SD from an rw cap leaves a ro cap; SL becomes useless and
     is dropped by the format. *)
  Alcotest.(check (list (Alcotest.testable Perm.pp ( = ))))
    "rw minus SD -> ro" [ LG; LM; LD; MC ]
    (lg [ LD; MC; SL; LM; LG ]);
  (* MC alone is meaningless: collapses to nothing. *)
  Alcotest.(check (list (Alcotest.testable Perm.pp ( = )))) "MC alone" [] (lg [ MC ])

(* [legalize] against its specification, over every one of the 4096
   permission sets and without the format search it memoizes: the result
   is representable and a subset of the input, and no representable
   subset of the input holds more permissions — 3^12 subset checks. *)
let test_legalize_exhaustive () =
  let popcount n =
    let rec go n k = if n = 0 then k else go (n land (n - 1)) (k + 1) in
    go n 0
  in
  for bits = 0 to 4095 do
    let s = Perm.Set.of_arch_bits bits in
    let l = Perm.legalize s in
    let lbits = Perm.Set.to_arch_bits l in
    if Perm.encode l = None then
      Alcotest.failf "legalize 0x%03x = 0x%03x is not representable" bits lbits;
    if not (Perm.Set.subset l s) then
      Alcotest.failf "legalize 0x%03x = 0x%03x is not a subset" bits lbits;
    (* every subset t of [bits], [bits] itself down to the empty set *)
    let rec subsets t =
      if Perm.encode (Perm.Set.of_arch_bits t) <> None
         && popcount t > popcount lbits
      then
        Alcotest.failf
          "legalize 0x%03x = 0x%03x, but its subset 0x%03x is representable \
           and larger"
          bits lbits t;
      if t > 0 then subsets ((t - 1) land bits)
    in
    subsets bits
  done

let prop_legalize_subset =
  QCheck.Test.make ~name:"legalize yields a subset" ~count:2000 qcheck_set
    (fun s -> Perm.Set.subset (Perm.legalize s) s)

let prop_legalize_idempotent =
  QCheck.Test.make ~name:"legalize idempotent" ~count:2000 qcheck_set (fun s ->
      let l = Perm.legalize s in
      Perm.Set.equal l (Perm.legalize l))

let prop_legalize_representable =
  QCheck.Test.make ~name:"legalize representable" ~count:2000 qcheck_set
    (fun s -> Option.is_some (Perm.encode (Perm.legalize s)))

let prop_representable_fixed =
  QCheck.Test.make ~name:"legalize fixes representable sets" ~count:500
    QCheck.(int_bound 63)
    (fun bits ->
      let s = Perm.decode bits in
      Perm.Set.equal s (Perm.legalize s))

let prop_arch_bits_roundtrip =
  QCheck.Test.make ~name:"arch bits roundtrip" ~count:2000 qcheck_set (fun s ->
      Perm.Set.equal s (Perm.Set.of_arch_bits (Perm.Set.to_arch_bits s)))

let test_arch_bit_order () =
  (* GL, LG, LM, SD must be the lowest architectural bits (3.2.1). *)
  let low4 = Perm.Set.of_arch_bits 0xf in
  Alcotest.check set "low bits"
    (Perm.Set.of_list [ GL; LG; LM; SD ])
    low4

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "decode total" `Quick test_decode_total;
    Alcotest.test_case "encode/decode roundtrip (all 64)" `Quick
      test_encode_decode_roundtrip;
    Alcotest.test_case "W^X in hardware" `Quick test_wx;
    Alcotest.test_case "sealing/memory separation" `Quick
      test_seal_mem_separation;
    Alcotest.test_case "format classification" `Quick test_formats;
    Alcotest.test_case "legalize examples" `Quick test_legalize_examples;
    Alcotest.test_case "legalize meets its spec on all 4096 sets" `Quick
      test_legalize_exhaustive;
    Alcotest.test_case "arch bit order" `Quick test_arch_bit_order;
    q prop_legalize_subset;
    q prop_legalize_idempotent;
    q prop_legalize_representable;
    q prop_representable_fixed;
    q prop_arch_bits_roundtrip;
  ]
