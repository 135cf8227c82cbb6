(* Differential oracle for the dispatch tiers.

   [Machine.step] is the reference interpreter: it re-reads and
   re-decodes the instruction word at the PC on every step.  The chain
   tier ([Machine.run ~dispatch:Dispatch_chain]) executes chained
   rounds of translated blocks with interrupt checks only at round
   boundaries and bookkeeping deferred across simple instructions,
   following direct block-to-block links and re-translating hot
   fall-dominated paths into superblocks; the jit tier ([Dispatch_jit])
   runs the same rounds with per-block optimized check plans from
   [Ir.optimize].  [Machine.step_fast], the batched tiers' exact-step
   fallback, fetches through the decode cache and, on a validated hit,
   skips the fetch checks and the PC-advance representability check by
   installing precomputed results.  All must be observationally
   indistinguishable.

   The lockstep drivers, interrupt-injection schedules and the
   state-comparison predicate live in [Cheriot_proptest]
   ({!Props.flat_lockstep}, {!Props.flat_interrupt_lockstep},
   {!Obs.compare_states}); this file is the property list, plus the
   deterministic coremark lockstep.  The multi-compartment versions —
   switcher cross-calls, allocator churn, revocation sweeps and code
   patches in the loop — run in the [proptest] suite. *)

open Cheriot_isa
module Props = Cheriot_proptest.Props

(* The same oracle on a deterministic workload with a long trace:
   coremark's ISA program on all three dispatch tiers, equal retired
   counts and state hashes. *)
let test_coremark_lockstep () =
  let module Coremark = Cheriot_workloads.Coremark in
  let module Core_model = Cheriot_uarch.Core_model in
  let run ?hot_threshold dispatch =
    let m =
      Coremark.setup ~iterations:2
        (Core_model.config ~cheri:true ~load_filter:true Core_model.Ibex)
    in
    (match hot_threshold with
    | Some t ->
        m.Machine.hot_threshold <- t;
        m.Machine.hot_adaptive <- false
    | None -> ());
    let _, insns = Machine.run ~dispatch m in
    (insns, Machine.state_hash m)
  in
  let ref_insns, ref_hash = run Machine.Dispatch_ref in
  let chn_insns, chn_hash = run Machine.Dispatch_chain in
  let jit_insns, jit_hash = run Machine.Dispatch_jit in
  (* an aggressive threshold forms superblocks all over the hot loops *)
  let sb_insns, sb_hash = run ~hot_threshold:2 Machine.Dispatch_chain in
  let jsb_insns, jsb_hash = run ~hot_threshold:2 Machine.Dispatch_jit in
  Alcotest.(check int) "retired instructions (chain)" ref_insns chn_insns;
  Alcotest.(check string) "state hash (chain)" ref_hash chn_hash;
  Alcotest.(check int) "retired instructions (jit)" ref_insns jit_insns;
  Alcotest.(check string) "state hash (jit)" ref_hash jit_hash;
  Alcotest.(check int) "retired instructions (superblocks)" ref_insns sb_insns;
  Alcotest.(check string) "state hash (superblocks)" ref_hash sb_hash;
  Alcotest.(check int)
    "retired instructions (jit superblocks)" ref_insns jsb_insns;
  Alcotest.(check string) "state hash (jit superblocks)" ref_hash jsb_hash

let suite =
  List.map QCheck_alcotest.to_alcotest Props.tests
  @ [
      Alcotest.test_case "coremark trace matches across dispatch paths" `Quick
        test_coremark_lockstep;
    ]
