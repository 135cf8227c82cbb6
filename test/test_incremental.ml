(* Tests for the incremental (summary-cache) audit mode (DESIGN.md §15).

   Five layers:
   - warm-cache identity: re-auditing every shipped and corpus image
     through a primed cache reuses every compartment summary and
     reproduces the cold report byte for byte;
   - key coverage: the summary key changes with the SRAM base, which the
     fixpoint reads, even when every byte sits where it was;
   - the fleet sweep: near-identical images audited through one shared
     cache reuse the common compartment's summary across images and
     still match their cold reports byte for byte;
   - the qcheck property: over random multi-compartment scenarios, a
     warm re-audit after a single-compartment code patch re-analyzes
     exactly the patched compartment and still matches a from-scratch
     audit byte for byte;
   - the [Driver.incremental] exit-code contract. *)

module Audit = Cheriot_analysis.Audit
module Summary = Cheriot_analysis.Summary
module Rules = Cheriot_analysis.Rules
module Corpus = Cheriot_analysis.Corpus
module Driver = Cheriot_analysis.Driver
module Firmware = Cheriot_workloads.Firmware
module Scenario = Cheriot_proptest.Scenario
module Iters = Cheriot_proptest.Iters
module Encode = Cheriot_isa.Encode
module Asm = Cheriot_isa.Asm
module Loader = Cheriot_rtos.Loader
module Sram = Cheriot_mem.Sram

let report name findings =
  Rules.report_to_json [ (name, Rules.sort_findings findings) ]

let all_images () =
  Firmware.shipped
  @ List.map
      (fun (e : Corpus.entry) -> (e.Corpus.name, e.Corpus.build))
      Corpus.entries

(* Re-auditing an unchanged image through a primed cache must hit for
   every compartment and reproduce the cold report exactly. *)
let test_warm_identity () =
  List.iter
    (fun (name, build) ->
      let cache = Summary.create_cache () in
      let cold, _ = Audit.run_stats ~cache (build ()) in
      let warm, st = Audit.run_stats ~cache (build ()) in
      Alcotest.(check int)
        (name ^ ": warm pass misses nothing")
        0 st.Audit.cache_misses;
      Alcotest.(check int)
        (name ^ ": every summary reused")
        st.Audit.compartments st.Audit.cache_hits;
      Alcotest.(check string)
        (name ^ ": warm report byte-identical")
        (report name cold) (report name warm))
    (all_images ())

(* A copy of [t] whose SRAM starts [delta] bytes lower, with the same
   bytes and tags at the same absolute addresses: every compartment's
   code, globals and layout are unchanged, but the switcher window the
   fixpoint derives from the SRAM base has moved. *)
let rebase_lower (t : Loader.t) delta =
  let old = t.Loader.sram in
  let lo = Sram.base old in
  let sram = Sram.create ~base:(lo - delta) ~size:(Sram.size old + delta) in
  let a = ref lo in
  while !a < lo + Sram.size old do
    Sram.write_cap sram !a (Sram.read_cap old !a);
    a := !a + 8
  done;
  { t with Loader.sram }

(* Two such images must never share a summary: every compartment gets a
   different key, and the fixpoint does see the move (a cross-call
   through the old window is no longer one). *)
let test_key_covers_sram_base () =
  let key t cb =
    Audit.summary_key ~call_summaries:true ~field_sensitive:true t cb
  in
  let analyze t cb =
    Audit.analyze_compartment ~call_summaries:true ~field_sensitive:true
      ~key:"" t cb
  in
  let moved =
    List.map
      (fun (name, build) ->
        let t = build () in
        let r = rebase_lower t 0x1000 in
        List.iter2
          (fun ((c, _) as cb) cb' ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s: key covers the SRAM base" name c)
              true
              (key t cb <> key r cb'))
          t.Loader.compartments r.Loader.compartments;
        List.exists2
          (fun cb cb' -> analyze t cb <> analyze r cb')
          t.Loader.compartments r.Loader.compartments)
      Firmware.shipped
  in
  Alcotest.(check bool) "some shipped summary depends on the SRAM base" true
    (List.mem true moved)

(* A fleet of images that share the coremark compartment and differ in
   the sensor compartment's code, audited through one cache: each image
   after the first reuses the coremark summary (one hit each) and
   re-analyzes only its own sensor, and every warm report is
   byte-identical to a cold [Audit.run] of the same image. *)
let test_fleet_shared_cache () =
  let cache = Summary.create_cache () in
  let hits =
    List.fold_left
      (fun hits variant ->
        let name = Printf.sprintf "fleet-%d" variant in
        let warm, st = Audit.run_stats ~cache (Firmware.fleet ~variant ()) in
        let cold = Audit.run (Firmware.fleet ~variant ()) in
        Alcotest.(check string)
          (name ^ ": warm report byte-identical to cold")
          (report name cold) (report name warm);
        hits + st.Audit.cache_hits)
      0 [ 0; 1; 2 ]
  in
  Alcotest.(check int) "variants 1 and 2 reuse the coremark summary" 2 hits

(* The scenario compiler places a patchable [Add a3, a3, 0] at a fixed
   offset in every compartment's prologue; bumping its immediate is the
   canonical one-compartment recompile. *)
let patch_comp (t : Loader.t) j =
  let b = Loader.find t (Scenario.comp_name j) in
  Sram.write32 t.Loader.sram
    (b.Loader.image.Asm.origin + Scenario.patch_offset)
    (Encode.encode Scenario.patch_insn_after)

let prop_incremental_equals_scratch (sc, seed) =
  let cache = Summary.create_cache () in
  let l0 = Scenario.link ~instrument:false sc in
  ignore (Audit.run_stats ~cache l0.Scenario.t);
  let j = seed mod l0.Scenario.n in
  let warm_l = Scenario.link ~instrument:false sc in
  patch_comp warm_l.Scenario.t j;
  let warm, st = Audit.run_stats ~cache warm_l.Scenario.t in
  let cold_l = Scenario.link ~instrument:false sc in
  patch_comp cold_l.Scenario.t j;
  let cold = Audit.run cold_l.Scenario.t in
  if st.Audit.cache_misses <> 1 || st.Audit.cache_hits <> l0.Scenario.n - 1
  then
    QCheck.Test.fail_reportf
      "cache stats off: %d compartments, %d hits, %d misses (patched c%d)"
      l0.Scenario.n st.Audit.cache_hits st.Audit.cache_misses j;
  let w = report "sc" warm and c = report "sc" cold in
  if not (String.equal w c) then
    QCheck.Test.fail_reportf "incremental diverged from scratch:@.%s@.vs@.%s"
      w c;
  true

let t_incremental =
  QCheck.Test.make
    ~name:
      "incremental re-audit = from-scratch under single-compartment patches"
    ~count:(Iters.count ~default:25)
    (QCheck.pair (Scenario.arb ()) QCheck.small_nat)
    prop_incremental_equals_scratch

let test_driver_contract () =
  Alcotest.(check int) "incremental: unknown image is exit 2" 2
    (Driver.incremental ~images:Firmware.shipped ~name:"nosuch" ());
  Alcotest.(check int)
    "incremental: shipped images reuse the cache and match cold (exit 0)" 0
    (Driver.incremental ~images:Firmware.shipped ())

let suite =
  [
    Alcotest.test_case "warm-cache re-audit byte-identical on every image"
      `Quick test_warm_identity;
    Alcotest.test_case "fleet audit shares one summary cache" `Quick
      test_fleet_shared_cache;
    Alcotest.test_case "summary key covers the SRAM base" `Quick
      test_key_covers_sram_base;
    QCheck_alcotest.to_alcotest t_incremental;
    Alcotest.test_case "Driver.incremental exit codes" `Quick
      test_driver_contract;
  ]
