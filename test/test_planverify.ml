(* Tests for the plan-soundness verifier (lib/analysis/planverify).

   Layers:
     - every plan compiled from the three shipped images proves Sound
       (the `make verify-plans` gate, in-tree so `dune runtest` catches
       verifier or optimizer regressions);
     - the identity-plan contract: a jit run that leaves every block
       cold compiles nothing and leaves no plan in the cache;
     - every seeded optimizer mutant is refuted with exactly its
       expected plan-* rule, and the mutants jointly cover the whole
       plan catalogue;
     - [observable] really is the complement of [Ir.deferrable];
     - the non-entry guard-grouping pass: the stack prologue/epilogue
       shape groups accesses through a derived register version behind
       one guard whose span covers the derivation hop, the plan proves
       Sound, and a shipped workload reports [checks_hoisted_nonentry]
       > 0 end to end;
     - qcheck: the verdict is invariant under plan-irrelevant adjacent
       ALU permutations, and Sound plans stay Sound under pointwise
       check strengthening (monotonicity);
     - the Driver.plans / plan_mutants exit-code contract. *)

open Cheriot_isa
module Rules = Cheriot_analysis.Rules
module Driver = Cheriot_analysis.Driver
module Planverify = Cheriot_analysis.Planverify
module Planmutants = Cheriot_analysis.Planmutants
module Loader = Cheriot_rtos.Loader
module Firmware = Cheriot_workloads.Firmware

(* --- shipped plans all prove Sound --------------------------------------- *)

let check_shipped_sound name build () =
  let t = build () in
  let m = t.Loader.machine in
  m.Machine.hot_threshold <- 2;
  m.Machine.hot_adaptive <- false;
  let plans = Planverify.collect m in
  Alcotest.(check bool) (name ^ " compiles plans") true (plans <> []);
  List.iter
    (fun (p : Planverify.plan) ->
      match Planverify.verify_plan p with
      | Planverify.Sound -> ()
      | Planverify.Unsound cx ->
          Alcotest.failf "%s: unsound plan at 0x%x op %d: %s: %s" name
            p.Planverify.p_block.Machine.b_start cx.Planverify.cx_index
            cx.Planverify.cx_rule cx.Planverify.cx_detail)
    plans

(* --- the identity-plan contract ------------------------------------------- *)

(* A cold block runs under the shared identity plan: the jit never
   calls [compile_jit] for it and never stores that plan in a block's
   [b_jit].  Pinned at an unreachable hotness threshold, every block of
   every shipped image stays cold. *)
let test_cold_identity_plan () =
  List.iter
    (fun (name, build) ->
      let m = (build ()).Loader.machine in
      m.Machine.hot_threshold <- max_int;
      m.Machine.hot_adaptive <- false;
      ignore (Machine.run ~fuel:2_000_000 ~dispatch:Machine.Dispatch_jit m);
      Alcotest.(check int)
        (name ^ ": a cold jit compiles no plan")
        0 (Machine.block_stats m).Machine.jit_blocks_compiled;
      Decode_cache.iter
        (fun b ->
          if Option.is_some b.Machine.b_jit then
            Alcotest.failf "%s: cached block at 0x%x carries a plan" name
              b.Machine.b_start)
        m.Machine.bcache)
    Firmware.shipped

(* --- seeded mutants ------------------------------------------------------ *)

let check_mutant (e : Planmutants.entry) () =
  let cheri, insns, chks, guards, defer = e.Planmutants.pm_build () in
  match Planverify.verify ~cheri ?defer insns chks guards with
  | Planverify.Unsound cx ->
      Alcotest.(check string)
        (e.Planmutants.pm_name ^ " refuted under the expected rule")
        e.Planmutants.pm_rule cx.Planverify.cx_rule
  | Planverify.Sound ->
      Alcotest.failf "%s: mutant proved Sound (false negative)"
        e.Planmutants.pm_name

let test_mutants_cover_plan_catalogue () =
  let covered =
    List.sort_uniq compare
      (List.map (fun e -> e.Planmutants.pm_rule) Planmutants.entries)
  in
  let all = List.sort_uniq compare (List.map fst Rules.plan_catalogue) in
  Alcotest.(check (list string)) "mutants cover all plan rules" all covered

(* --- observable ≡ not deferrable ----------------------------------------- *)

let test_observable_complements_deferrable () =
  let r = Insn.reg_a0 and r2 = Insn.reg_a1 in
  let samples =
    [
      Insn.Lui (r, 1);
      Insn.Auipcc (r, 1);
      Insn.Jal (r, 8);
      Insn.Jalr (r, r2, 0);
      Insn.Branch (Insn.Eq, r, r2, 8);
      Insn.Load { signed = true; width = W; rd = r; rs1 = r2; off = 0 };
      Insn.Store { width = W; rs2 = r; rs1 = r2; off = 0 };
      Insn.Op_imm (Insn.Add, r, r2, 1);
      Insn.Op (Insn.Add, r, r2, r2);
      Insn.Mul_div (Insn.Mul, r, r2, r2);
      Insn.Ecall;
      Insn.Ebreak;
      Insn.Mret;
      Insn.Wfi;
      Insn.Csr (Insn.Csrrs, r, 0, 0xC00);
      Insn.Clc (r, r2, 0);
      Insn.Csc (r, r2, 0);
      Insn.Cincaddr (r, r2, r2);
      Insn.Cincaddrimm (r, r2, 4);
      Insn.Csetaddr (r, r2, r2);
      Insn.Csetbounds (r, r2, r2);
      Insn.Csetboundsexact (r, r2, r2);
      Insn.Csetboundsimm (r, r2, 8);
      Insn.Crrl (r, r2);
      Insn.Cram (r, r2);
      Insn.Candperm (r, r2, r2);
      Insn.Ccleartag (r, r2);
      Insn.Cmove (r, r2);
      Insn.Cseal (r, r2, r2);
      Insn.Cunseal (r, r2, r2);
      Insn.Cget (Insn.Addr, r, r2);
      Insn.Csub (r, r2, r2);
      Insn.Ctestsubset (r, r2, r2);
      Insn.Csetequalexact (r, r2, r2);
      Insn.Cspecialrw (r, Insn.MTCC, 0);
    ]
  in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Format.asprintf "observable(%a) = not deferrable" Insn.pp i)
        (not (Ir.deferrable i))
        (Planverify.observable i))
    samples

(* --- non-entry guard grouping (the ROADMAP headroom item) ---------------- *)

(* The proptest stack prologue/epilogue shape: both capability accesses
   run through the *derived* sp version (entry sp - 16), so the
   version-0-only grouping of earlier PRs could never hoist them. *)
let test_nonentry_group_hoists_and_verifies () =
  let sp = Insn.reg_sp and ra = Insn.reg_ra in
  let prog =
    [|
      Insn.Cincaddrimm (sp, sp, -16);
      Insn.Csc (ra, sp, 0);
      Insn.Clc (ra, sp, 0);
      Insn.Cincaddrimm (sp, sp, 16);
    |]
  in
  let chks, guards, st = Ir.optimize ~cheri:true prog in
  Alcotest.(check int) "one guard formed" 1 (Array.length guards);
  Alcotest.(check bool) "non-entry accesses hoisted" true
    (st.Ir.hoisted_nonentry > 0);
  let g = guards.(0) in
  Alcotest.(check int) "guard register is the entry sp" sp g.Ir.g_rs1;
  Alcotest.(check bool) "guard span covers the derivation hop at -16" true
    (g.Ir.g_lo <= -16 && g.Ir.g_hi >= -8);
  Alcotest.(check bool) "guard demands SD and MC for the Csc" true
    (g.Ir.g_need_sd && g.Ir.g_need_mc);
  match Planverify.verify ~cheri:true prog chks guards with
  | Planverify.Sound -> ()
  | Planverify.Unsound cx ->
      Alcotest.failf "non-entry plan refuted: %s: %s" cx.Planverify.cx_rule
        cx.Planverify.cx_detail

(* End to end: a shipped workload under the jit tier must actually cross
   the new pass (the acceptance criterion `hoisted_nonentry > 0`), with
   compile-time validation installed and rejecting nothing.  Coremark is
   the shipped image whose inner loops walk derived pointers. *)
let test_shipped_hoists_nonentry () =
  let t = Firmware.coremark () in
  let m = t.Loader.machine in
  m.Machine.hot_threshold <- 2;
  m.Machine.hot_adaptive <- false;
  Planverify.install m;
  ignore (Machine.run ~fuel:2_000_000 ~dispatch:Machine.Dispatch_jit m);
  let s = Machine.block_stats m in
  Alcotest.(check bool) "coremark hoists checks" true
    (s.Machine.checks_hoisted > 0);
  Alcotest.(check bool) "coremark hoists through non-entry versions" true
    (s.Machine.checks_hoisted_nonentry > 0);
  Alcotest.(check int) "the validator rejects no optimizer plan" 0
    s.Machine.jit_plans_rejected

(* --- qcheck: permutation invariance and monotonicity --------------------- *)

(* Random straight-line block bodies over three base registers (a0-a2,
   never redefined except by tracked derivations) and scratch ALU work
   on t0-t2: enough vocabulary to form guards, derived origins, copies
   and multi-access pools. *)
let gen_block : Insn.t array QCheck.Gen.t =
  let open QCheck.Gen in
  let a0 = Insn.reg_a0 and a1 = Insn.reg_a1 and a2 = Insn.reg_a2 in
  let t0 = Insn.reg_t0 and t1 = Insn.reg_t1 and t2 = Insn.reg_t2 in
  let gen_insn =
    let* k = int_bound 9 in
    let* base = oneofl [ a0; a1; a2 ] in
    let* off4 = int_bound 7 in
    let* t = oneofl [ t0; t1; t2 ] in
    match k with
    | 0 | 1 ->
        return
          (Insn.Load
             { signed = true; width = W; rd = t; rs1 = base; off = 4 * off4 })
    | 2 ->
        return (Insn.Store { width = W; rs2 = t; rs1 = base; off = 4 * off4 })
    | 3 -> return (Insn.Clc (t, base, 8 * (off4 land 3)))
    | 4 -> return (Insn.Csc (t, base, 8 * (off4 land 3)))
    | 5 ->
        (* derive a1 from a0 (or a2 from a1): a tracked non-entry hop *)
        let* d = oneofl [ (a1, a0); (a2, a1) ] in
        let dst, src = d in
        return (Insn.Cincaddrimm (dst, src, 8 * (off4 - 3)))
    | 6 -> return (Insn.Cmove (a2, base))
    | _ ->
        let* imm = int_bound 63 in
        return (Insn.Op_imm (Insn.Add, t, t, imm))
  in
  let* n = 2 -- 12 in
  array_repeat n gen_insn

let print_block b =
  String.concat "; "
    (Array.to_list (Array.map (Format.asprintf "%a" Insn.pp) b))

let arb_block_seeded =
  QCheck.make
    ~print:(fun (b, seed) -> Printf.sprintf "seed %d: %s" seed (print_block b))
    QCheck.Gen.(pair gen_block (int_bound 0x3FFF_FFFF))

let verdicts_agree v1 v2 =
  match (v1, v2) with
  | Planverify.Sound, Planverify.Sound -> true
  | Planverify.Unsound a, Planverify.Unsound b ->
      a.Planverify.cx_rule = b.Planverify.cx_rule
      && a.Planverify.cx_index = b.Planverify.cx_index
  | _ -> false

(* Swapping two adjacent plan-irrelevant ALU ops (no access, no base
   register, no bookkeeping difference) must not change the verdict —
   neither on the optimizer's plan nor on a deliberately weakened one. *)
let prop_permutation_invariant (prog, seed) =
  let is_alu i =
    match prog.(i) with Insn.Op_imm _ -> true | _ -> false
  in
  let pairs = ref [] in
  for i = 0 to Array.length prog - 2 do
    if is_alu i && is_alu (i + 1) then pairs := i :: !pairs
  done;
  match !pairs with
  | [] -> true (* no swappable pair generated: trivially invariant *)
  | pairs ->
      let i = List.nth pairs (seed mod List.length pairs) in
      let prog' = Array.copy prog in
      prog'.(i) <- prog.(i + 1);
      prog'.(i + 1) <- prog.(i);
      let chks, guards, _ = Ir.optimize ~cheri:true prog in
      let swap a =
        let a' = Array.copy a in
        a'.(i) <- a.(i + 1);
        a'.(i + 1) <- a.(i);
        a'
      in
      let check_pair chks =
        let v = Planverify.verify ~cheri:true prog chks guards in
        let v' = Planverify.verify ~cheri:true prog' (swap chks) guards in
        if not (verdicts_agree v v') then
          QCheck.Test.fail_reportf
            "verdict changed under ALU swap at %d (%s)" i (print_block prog)
      in
      check_pair chks;
      (* weaken one access's check so the Unsound side is exercised too *)
      let accesses = ref [] in
      Array.iteri
        (fun j insn ->
          match insn with
          | Insn.Load _ | Insn.Store _ | Insn.Clc _ | Insn.Csc _ ->
              accesses := j :: !accesses
          | _ -> ())
        prog;
      (match !accesses with
      | [] -> ()
      | accs ->
          let j = List.nth accs (seed / 7 mod List.length accs) in
          let weak = Array.copy chks in
          weak.(j) <- Ir.Chk_none;
          check_pair weak);
      true

let strengthen = function
  | Ir.Chk_none -> Ir.Chk_align
  | Ir.Chk_align -> Ir.Chk_bounds
  | Ir.Chk_bounds | Ir.Chk_full -> Ir.Chk_full

(* A Sound plan stays Sound when any check is strengthened: the verifier
   demands strictly less of a stronger plan (monotonicity). *)
let prop_strengthening_monotone (prog, seed) =
  let chks, guards, _ = Ir.optimize ~cheri:true prog in
  match Planverify.verify ~cheri:true prog chks guards with
  | Planverify.Unsound cx ->
      QCheck.Test.fail_reportf "optimizer plan refuted: %s: %s"
        cx.Planverify.cx_rule cx.Planverify.cx_detail
  | Planverify.Sound -> (
      let chks' = Array.copy chks in
      let j = seed mod Array.length chks' in
      chks'.(j) <- strengthen chks'.(j);
      (* and a second, independent strengthening point *)
      let j2 = seed / 11 mod Array.length chks' in
      chks'.(j2) <- strengthen chks'.(j2);
      match Planverify.verify ~cheri:true prog chks' guards with
      | Planverify.Sound -> true
      | Planverify.Unsound cx ->
          QCheck.Test.fail_reportf
            "strengthened plan refuted at op %d: %s: %s (%s)"
            cx.Planverify.cx_index cx.Planverify.cx_rule
            cx.Planverify.cx_detail (print_block prog))

(* --- the Driver exit-code contract --------------------------------------- *)

let test_driver_contract () =
  Alcotest.(check int) "plans: unknown image is exit 2" 2
    (Driver.plans ~images:Firmware.shipped ~name:"nosuch" ());
  Alcotest.(check int) "plans: unknown --rule id is exit 2" 2
    (Driver.plans ~images:Firmware.shipped ~name:"demo" ~rule:"nosuch-rule" ());
  Alcotest.(check int) "plans: known --rule filter stays clean (exit 0)" 0
    (Driver.plans ~images:Firmware.shipped ~name:"demo"
       ~rule:Rules.plan_deferral ());
  Alcotest.(check int) "plans: isolation image proves clean (exit 0)" 0
    (Driver.plans ~images:Firmware.shipped ~name:"isolation" ());
  Alcotest.(check int) "plan-mutants: all refuted exactly (exit 0)" 0
    (Driver.plan_mutants ())

let suite =
  List.map
    (fun (name, build) ->
      Alcotest.test_case
        (name ^ " shipped plans all prove Sound")
        `Quick
        (check_shipped_sound name build))
    Firmware.shipped
  @ List.map
      (fun (e : Planmutants.entry) ->
        Alcotest.test_case
          ("mutant " ^ e.Planmutants.pm_name)
          `Quick (check_mutant e))
      Planmutants.entries
  @ [
      Alcotest.test_case
        "cold jit blocks run the identity plan, compile nothing" `Quick
        test_cold_identity_plan;
      Alcotest.test_case "mutants cover the plan catalogue" `Quick
        test_mutants_cover_plan_catalogue;
      Alcotest.test_case "observable complements Ir.deferrable" `Quick
        test_observable_complements_deferrable;
      Alcotest.test_case "non-entry group hoists, covers the hop, verifies"
        `Quick test_nonentry_group_hoists_and_verifies;
      Alcotest.test_case "coremark hoists non-entry checks under validation"
        `Quick test_shipped_hoists_nonentry;
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:"verdict invariant under plan-irrelevant ALU permutations"
           ~count:300 arb_block_seeded prop_permutation_invariant);
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:"Sound plans stay Sound under check strengthening" ~count:300
           arb_block_seeded prop_strengthening_monotone);
      Alcotest.test_case "Driver.plans / plan_mutants exit codes" `Quick
        test_driver_contract;
    ]
