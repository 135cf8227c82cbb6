(* Tests for the static firmware auditor (lib/analysis).

   Layers:
     - every shipped image audits clean (zero findings);
     - every corpus image trips exactly its expected rule — no false
       negatives, no false positives (the corpus-exactness CI gate,
       in-tree so `dune runtest` catches rule regressions);
     - one named negative test per headline rule, asserting on the
       specific rule id so a rule rename breaks loudly;
     - regressions proving the v2 layers see what v1 provably missed:
       the helper-call image is invisible without call summaries, the
       laundering image invisible without the field-sensitive store map;
     - the Driver exit-code contract (0 clean / 1 findings / 2 error)
       and deterministic finding order;
     - pinned report digests over perfbench's catalogue and a seeded
       batch of generated scenarios, and one hand-built image for each
       rare exit of the fixpoint's warm-up loop. *)

module Rules = Cheriot_analysis.Rules
module Audit = Cheriot_analysis.Audit
module Corpus = Cheriot_analysis.Corpus
module Driver = Cheriot_analysis.Driver
module Firmware = Cheriot_workloads.Firmware
module Scenario = Cheriot_proptest.Scenario
module Loader = Cheriot_rtos.Loader
module Compartment = Cheriot_rtos.Compartment
module Asm = Cheriot_isa.Asm
module Insn = Cheriot_isa.Insn
module Capability = Cheriot_core.Capability
module Otype = Cheriot_core.Otype

let rules_of findings =
  List.sort_uniq compare (List.map (fun f -> f.Rules.rule) findings)

let check_clean name build () =
  let findings = Audit.run (build ()) in
  Alcotest.(check (list string))
    (name ^ " audits clean")
    []
    (List.map (Format.asprintf "%a" Rules.pp_finding) findings)

let check_corpus_entry (e : Corpus.entry) () =
  let findings = Audit.run (e.Corpus.build ()) in
  Alcotest.(check bool)
    (e.Corpus.name ^ " has findings")
    true (findings <> []);
  Alcotest.(check (list string))
    (e.Corpus.name ^ " trips only " ^ e.Corpus.rule)
    [ e.Corpus.rule ] (rules_of findings)

(* The corpus covers every rule in the catalogue. *)
let test_corpus_covers_catalogue () =
  let covered =
    List.sort_uniq compare (List.map (fun e -> e.Corpus.rule) Corpus.entries)
  in
  let all = List.sort_uniq compare (List.map fst Rules.catalogue) in
  Alcotest.(check (list string)) "corpus covers all rules" all covered

(* --- the four named satellite assertions --------------------------------- *)

let corpus_rule name =
  let e = List.find (fun e -> e.Corpus.name = name) Corpus.entries in
  rules_of (Audit.run (e.Corpus.build ()))

let test_leaked_store_local () =
  Alcotest.(check (list string))
    "storing the local stack capability through cgp is flagged"
    [ Rules.flow_store_local_leak ]
    (corpus_rule "store-local-via-globals")

let test_wrong_otype_entry () =
  Alcotest.(check (list string))
    "a sealed entry with a non-switcher otype is flagged"
    [ Rules.link_import_wrong_otype ]
    (corpus_rule "import-wrong-otype")

let test_out_of_bounds_import () =
  Alcotest.(check (list string))
    "an import slot past the compartment's globals is flagged"
    [ Rules.link_import_slot_range ]
    (corpus_rule "import-slot-out-of-range")

let test_mismatched_posture () =
  Alcotest.(check (list string))
    "a sentry whose posture differs from the declared one is flagged"
    [ Rules.link_export_posture ]
    (corpus_rule "export-posture-mismatch")

(* --- findings carry usable positions ------------------------------------- *)

let test_flow_finding_has_pc () =
  let e =
    List.find (fun e -> e.Corpus.name = "oob-after-setbounds") Corpus.entries
  in
  let t = e.Corpus.build () in
  let findings = Audit.run t in
  let f = List.hd findings in
  Alcotest.(check bool) "finding has a pc" true (f.Rules.pc <> None);
  Alcotest.(check string) "in the victim compartment" "victim"
    f.Rules.compartment;
  (* the pc points inside the victim's code region *)
  let b = Cheriot_rtos.Loader.find t "victim" in
  let lo = b.Cheriot_rtos.Loader.image.Cheriot_isa.Asm.origin in
  let hi = lo + Cheriot_isa.Asm.bytes_size b.Cheriot_rtos.Loader.image in
  match f.Rules.pc with
  | Some pc -> Alcotest.(check bool) "pc in code region" true (pc >= lo && pc < hi)
  | None -> Alcotest.fail "no pc"

let test_heap_escape () =
  Alcotest.(check (list string))
    "a GL-stripped heap capability parked in globals is flagged"
    [ Rules.tmp_heap_escape ]
    (corpus_rule "heap-cap-escape")

let test_unbounded_disabled_region () =
  Alcotest.(check (list string))
    "an interrupts-disabled loop is flagged as unbounded"
    [ Rules.irq_unbounded_disabled ]
    (corpus_rule "irq-spin-disabled")

(* --- the v2 layers catch what the v1 analysis provably missed ------------- *)

let corpus_build name =
  (List.find (fun e -> e.Corpus.name = name) Corpus.entries).Corpus.build ()

let test_helper_call_needs_summaries () =
  let t = corpus_build "helper-call-oob" in
  Alcotest.(check (list string))
    "without call summaries the helper-built OOB capability is invisible"
    []
    (rules_of (Audit.run ~call_summaries:false t));
  Alcotest.(check (list string))
    "with call summaries it is caught"
    [ Rules.flow_oob_access ]
    (rules_of (Audit.run t))

let test_launder_needs_field_sensitivity () =
  let t = corpus_build "launder-local-via-slot" in
  Alcotest.(check (list string))
    "without the field-sensitive store map the laundered leak is invisible"
    []
    (rules_of (Audit.run ~field_sensitive:false t));
  Alcotest.(check (list string))
    "with the store map it is caught"
    [ Rules.flow_launder_local ]
    (rules_of (Audit.run t))

(* --- Driver: exit codes and deterministic order ---------------------------- *)

let test_driver_exit_codes () =
  Alcotest.(check int) "clean shipped catalogue exits 0" 0
    (Driver.shipped ~images:Firmware.shipped ());
  Alcotest.(check int) "single-image selection exits 0" 0
    (Driver.shipped ~images:Firmware.shipped ~name:"demo" ());
  Alcotest.(check int) "findings exit 1" 1
    (Driver.shipped
       ~images:[ ("bad", fun () -> corpus_build "heap-cap-escape") ]
       ());
  Alcotest.(check int) "unknown image exits 2" 2
    (Driver.shipped ~images:Firmware.shipped ~name:"nonexistent" ());
  Alcotest.(check int) "unknown rule exits 2" 2
    (Driver.shipped ~images:Firmware.shipped ~rule:"no-such-rule" ());
  Alcotest.(check int) "analysis error exits 2" 2
    (Driver.shipped ~images:[ ("boom", fun () -> failwith "boom") ] ());
  Alcotest.(check int) "corpus detected exactly exits 0" 0 (Driver.corpus ());
  Alcotest.(check int) "corpus with unknown rule exits 2" 2
    (Driver.corpus ~rule:"no-such-rule" ())

let test_sorted_findings () =
  let f rule compartment pc = Rules.v ?pc ~compartment rule "d" in
  let shuffled =
    [
      f "b-rule" "zeta" (Some 8);
      f "a-rule" "zeta" (Some 8);
      f "z-rule" "alpha" (Some 100);
      f "m-rule" "alpha" None;
      f "a-rule" "zeta" (Some 4);
    ]
  in
  let sorted = Rules.sort_findings shuffled in
  let key (x : Rules.finding) = (x.Rules.compartment, x.Rules.pc, x.Rules.rule) in
  Alcotest.(check (list (triple string (option int) string)))
    "sorted by (compartment, pc, rule); None pc first"
    [
      ("alpha", None, "m-rule");
      ("alpha", Some 100, "z-rule");
      ("zeta", Some 4, "a-rule");
      ("zeta", Some 8, "a-rule");
      ("zeta", Some 8, "b-rule");
    ]
    (List.map key sorted);
  (* sorting is stable under re-audit: two runs of the same image agree *)
  let t () = corpus_build "helper-call-oob" in
  let a = Rules.sort_findings (Audit.run (t ())) in
  let b = Rules.sort_findings (Audit.run (t ())) in
  Alcotest.(check (list string))
    "same image, same report"
    (List.map (Format.asprintf "%a" Rules.pp_finding) a)
    (List.map (Format.asprintf "%a" Rules.pp_finding) b)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_json_report_wellformed () =
  let report =
    [ ("img", Audit.run ((List.hd Corpus.entries).Corpus.build ())) ]
  in
  let s = Rules.report_to_json report in
  Alcotest.(check bool) "names the image" true (contains ~sub:"\"img\"" s);
  Alcotest.(check bool) "mentions the rule id" true
    (contains ~sub:"\"cfg-undecodable\"" s);
  Alcotest.(check bool) "counts the findings" true
    (contains ~sub:"\"total_findings\":1" s)

(* --- pinned reports ---------------------------------------------------------- *)

(* Audits [images] one at a time and checks the MD5 of their sorted JSON
   report; a mismatch prints the whole report. *)
let check_report_digest ~what ~pinned images =
  let json =
    Rules.report_to_json
      (List.map
         (fun (name, build) ->
           (name, Rules.sort_findings (Audit.run (build ()))))
         images)
  in
  let digest = Digest.to_hex (Digest.string json) in
  if digest <> pinned then
    Alcotest.failf "%s report digest %s, pinned %s; the report:\n%s" what
      digest pinned json

(* perfbench's audit catalogue under perfbench's image names, so the
   digest equals its [Pinned.audit]. *)
let catalogue =
  Firmware.shipped
  @ List.map
      (fun (e : Corpus.entry) -> ("corpus/" ^ e.Corpus.name, e.Corpus.build))
      Corpus.entries
  @ List.init 8 (fun i ->
        (Printf.sprintf "fleet-%d" i, fun () -> Firmware.fleet ~variant:i ()))

let test_catalogue_report_pinned () =
  check_report_digest ~what:"catalogue"
    ~pinned:"984c1dff9bd9b52685d63948ee3c4502" catalogue

(* 200 generated scenarios from a fixed seed, alternating clean and
   unclean programs, each pair linked with and then without the
   instrumentation (heap and patch capabilities in globals, an ISR). *)
let generated_batch () =
  let rand = Random.State.make [| 11 |] in
  Array.to_list
    (Array.init 200 (fun i ->
         let clean = i mod 2 = 0 and instrument = i / 2 mod 2 = 0 in
         let sc = QCheck.Gen.generate1 ~rand (Scenario.gen ~clean ()) in
         ( Printf.sprintf "sc-%03d" i,
           fun () -> (Scenario.link ~instrument sc).Scenario.t )))

let test_generated_report_pinned () =
  check_report_digest ~what:"generated batch"
    ~pinned:"fa1d05c1d8c709ca64ab588f8d0fb09d" (generated_batch ())

(* --- the warm-up loop's two rare exits ---------------------------------------- *)

(* Neither exit is reached by the catalogue or by generated scenarios.
   Each image below reports different findings in its first warm-up
   round than in the round the audit keeps, so keeping the wrong round
   fails the test. *)

let pc_of (t : Loader.t) comp label =
  Asm.label (Loader.find t comp).Loader.image label

let check_flow_findings name t expected =
  Alcotest.(check (list (pair string (option int))))
    (name ^ " findings")
    (List.map (fun (rule, comp, label) -> (rule, Some (pc_of t comp label)))
       expected)
    (List.map
       (fun (f : Rules.finding) -> (f.Rules.rule, f.Rules.pc))
       (Rules.sort_findings (Audit.run t)))

let chain_slots = 12

(* Exit (a), the 8-round cap.  Slot [k + 1] of a globals chain is loaded
   from slot [k], last pair first, and [gp] is stored into slot 0 at the
   end: each load comes before, in code order, the store that feeds it,
   so the tagged value advances one slot per round and the memory
   summary still grows in round 8.  The jump through the chain's end is
   provably untagged in every round up to the cap (one
   flow-jump-not-executable finding); after the cap's fallback the end
   is unknown, the jump may succeed, and the integer dereference behind
   it is what the audit reports. *)
let cap_image () =
  let slot j = 8 * (j + 1) in
  let copies =
    List.concat
      (List.init chain_slots (fun i ->
           let k = chain_slots - 1 - i in
           [ Asm.I (Insn.Clc (Insn.reg_t0, Insn.reg_gp, slot k));
             Asm.I (Insn.Csc (Insn.reg_t0, Insn.reg_gp, slot (k + 1))) ]))
  in
  Loader.link
    [ Compartment.v ~name:"chain"
        ~globals_size:(slot (chain_slots + 1))
        ~exports:[ Corpus.export "main" ]
        ((Asm.Label "main" :: copies)
        @ [ Asm.I (Insn.Csc (Insn.reg_gp, Insn.reg_gp, slot 0));
            Asm.I (Insn.Clc (Insn.reg_t1, Insn.reg_gp, slot chain_slots));
            Asm.I (Insn.Jalr (Insn.reg_ra, Insn.reg_t1, 0));
            Asm.I (Insn.Op_imm (Insn.Add, Insn.reg_t2, 0, 5));
            Asm.Label "deref";
            Corpus.lw Insn.reg_a0 Insn.reg_t2 0;
            Asm.I Insn.Ebreak ]) ]
    ~boot:("chain", "main")

let test_cap_exit () =
  check_flow_findings "cap image" (cap_image ())
    [ (Rules.flow_untagged_deref, "chain", "deref") ]

(* Exit (b), a converged round that registered a new callee.  Export
   [b] (analyzed first) jumps through globals slot 16, which export [a]
   later fills with the sentry to [helper] that slot 24 holds from the
   image.  Round 0 finds the jump provably untagged; in round 1 it may
   succeed, and past it the intra-compartment sentry call through slot
   24 registers [helper] as a callee.  [helper]'s return block already
   ran in round 1, reached through [a]'s unknown call with a state the
   sentry call adds nothing to, so round 1 grows nothing but the
   callee set and reports no finding.  Only a re-run attributes
   [helper]'s return, and its summary (a0 = 0) makes the dereference
   after the call provably untagged. *)
let late_callee_image () =
  let t =
    Loader.link
      [ Compartment.v ~name:"late" ~globals_size:64
          ~exports:[ Corpus.export "b"; Corpus.export "a" ]
          [ Asm.Label "b";
            Asm.I (Insn.Clc (Insn.reg_t0, Insn.reg_gp, 16));
            Asm.I (Insn.Jalr (Insn.reg_ra, Insn.reg_t0, 0));
            Asm.J (0, "call");
            Asm.Label "call";
            Asm.I (Insn.Clc (Insn.reg_t1, Insn.reg_gp, 24));
            Asm.I (Insn.Jalr (Insn.reg_ra, Insn.reg_t1, 0));
            Asm.Label "deref";
            Corpus.lw Insn.reg_a1 Insn.reg_a0 0;
            Asm.I Insn.Ebreak;
            Asm.Label "a";
            Asm.I (Insn.Clc (Insn.reg_t2, Insn.reg_gp, 24));
            Asm.I (Insn.Csc (Insn.reg_t2, Insn.reg_gp, 16));
            Asm.I (Insn.Jalr (Insn.reg_ra, Insn.reg_a1, 0));
            Asm.Label "helper";
            Asm.I (Insn.Op_imm (Insn.Add, Insn.reg_a0, 0, 0));
            Asm.Ret ] ]
      ~boot:("late", "b")
  in
  let b = Loader.find t "late" in
  Corpus.write_cap t
    (b.Loader.globals_base + 24)
    (Corpus.sentry
       (Capability.with_address b.Loader.code_cap (pc_of t "late" "helper"))
       Otype.Sentry_enable);
  t

let test_late_callee_exit () =
  check_flow_findings "late-callee image" (late_callee_image ())
    [ (Rules.flow_untagged_deref, "late", "deref") ]

let suite =
  List.concat
    [
      List.map
        (fun (name, build) ->
          Alcotest.test_case ("clean: " ^ name) `Quick (check_clean name build))
        Firmware.shipped;
      List.map
        (fun (e : Corpus.entry) ->
          Alcotest.test_case ("corpus: " ^ e.Corpus.name) `Quick
            (check_corpus_entry e))
        Corpus.entries;
      [
        Alcotest.test_case "corpus covers catalogue" `Quick
          test_corpus_covers_catalogue;
        Alcotest.test_case "leaked store-local capability" `Quick
          test_leaked_store_local;
        Alcotest.test_case "wrong-otype sealed entry" `Quick
          test_wrong_otype_entry;
        Alcotest.test_case "out-of-bounds import" `Quick
          test_out_of_bounds_import;
        Alcotest.test_case "mismatched sentry posture" `Quick
          test_mismatched_posture;
        Alcotest.test_case "heap capability escape" `Quick test_heap_escape;
        Alcotest.test_case "unbounded interrupts-disabled region" `Quick
          test_unbounded_disabled_region;
        Alcotest.test_case "helper-call OOB needs call summaries" `Quick
          test_helper_call_needs_summaries;
        Alcotest.test_case "laundered leak needs field sensitivity" `Quick
          test_launder_needs_field_sensitivity;
        Alcotest.test_case "driver exit codes" `Quick test_driver_exit_codes;
        Alcotest.test_case "findings sort deterministically" `Quick
          test_sorted_findings;
        Alcotest.test_case "flow findings carry a pc" `Quick
          test_flow_finding_has_pc;
        Alcotest.test_case "json report is well-formed" `Quick
          test_json_report_wellformed;
        Alcotest.test_case "catalogue report is pinned" `Quick
          test_catalogue_report_pinned;
        Alcotest.test_case "generated-scenario report is pinned" `Quick
          test_generated_report_pinned;
        Alcotest.test_case "warm-up cap keeps the fallback round" `Quick
          test_cap_exit;
        Alcotest.test_case "late callee re-runs the converged round" `Quick
          test_late_callee_exit;
      ];
    ]
