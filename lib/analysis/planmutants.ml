(* Seeded optimizer mutants: the plan-level analogue of the
   deliberately-bad audit corpus.  Each entry takes a plan the real
   optimizer produced for a small program and re-introduces one
   concrete optimizer bug by hand — a narrowed guard, a dropped
   alignment check, dominance across a register redefinition, a
   premature deferral — that {!Planverify} must refute with exactly the
   expected plan-* rule.  `cheriot_audit plans` and test_planverify
   both iterate [entries]; a verifier regression that stops catching
   any of these fails the gate loudly.

   Every mutant is genuinely unsound: for each there is a concrete
   register assignment on which the mutated plan retires an access (or
   replays bookkeeping) where the reference interpreter traps. *)

module Insn = Cheriot_isa.Insn
module Ir = Cheriot_isa.Ir

type entry = {
  pm_name : string;
  pm_rule : string;  (** the {!Rules.plan_catalogue} id it must trip *)
  pm_build :
    unit -> bool * Insn.t array * Ir.chk array * Ir.guard array * bool array option;
      (** (cheri, insns, chks, guards, defer override) *)
}

let a0 = Insn.reg_a0
let a1 = Insn.reg_a1
let t0 = Insn.reg_t0
let t1 = Insn.reg_t1
let t2 = Insn.reg_t2
let lw rd rs1 off = Insn.Load { signed = true; width = W; rd; rs1; off }
let sw rs2 rs1 off = Insn.Store { width = W; rs2; rs1; off }

(* The sound plan the optimizer actually emits for [prog]; mutants
   start from it so each entry re-introduces exactly one bug. *)
let opt ~cheri prog =
  let chks, guards, _ = Ir.optimize ~cheri prog in
  (chks, guards)

let entries =
  [
    {
      pm_name = "narrowed-guard-range";
      pm_rule = Rules.plan_bounds_uncovered;
      pm_build =
        (fun () ->
          (* Two loads hoisted behind one guard; shrink the guard span
             so the second footprint escapes it while its access still
             runs alignment-only. *)
          let prog = [| lw t0 a0 0; lw t1 a0 8 |] in
          let chks, guards = opt ~cheri:true prog in
          guards.(0) <- { (guards.(0)) with Ir.g_hi = 4 };
          (true, prog, chks, guards, None));
    };
    {
      pm_name = "dropped-alignment";
      pm_rule = Rules.plan_align_undischarged;
      pm_build =
        (fun () ->
          (* The word load at offset 2 sits inside the capability
             load's proven [0, 8) footprint, but 8-alignment at 0 does
             not give 4-alignment at 2. *)
          let prog = [| Insn.Clc (t0, a0, 0); lw t1 a0 2 |] in
          let chks, guards = opt ~cheri:true prog in
          chks.(1) <- Ir.Chk_none;
          (true, prog, chks, guards, None));
    };
    {
      pm_name = "cross-version-dominance";
      pm_rule = Rules.plan_meta_undominated;
      pm_build =
        (fun () ->
          (* The second load cites the register *after* Csetbounds
             redefined it; the first load's facts died at the def. *)
          let prog =
            [| lw t0 a0 0; Insn.Csetbounds (a0, a0, t1); lw t2 a0 0 |]
          in
          let chks, guards = opt ~cheri:true prog in
          chks.(2) <- Ir.Chk_bounds;
          (true, prog, chks, guards, None));
    };
    {
      pm_name = "premature-deferral";
      pm_rule = Rules.plan_deferral;
      pm_build =
        (fun () ->
          (* Auipcc reads the current PC: deferring its bookkeeping
             replays a stale PCC at the next trap or block exit. *)
          let prog = [| Insn.Auipcc (t0, 0); lw t1 a0 0 |] in
          let chks, guards = opt ~cheri:true prog in
          (true, prog, chks, guards, Some [| true; true |]));
    };
    {
      pm_name = "guard-missing-perm";
      pm_rule = Rules.plan_guard_perms;
      pm_build =
        (fun () ->
          (* The guard covers the store's footprint but never checked
             SD: a read-only capability passes it, and the store's
             permission trap is lost. *)
          let prog = [| lw t0 a0 0; sw t1 a0 4 |] in
          let chks, guards = opt ~cheri:true prog in
          guards.(0) <- { (guards.(0)) with Ir.g_need_sd = false };
          (true, prog, chks, guards, None));
    };
    {
      pm_name = "uncovered-derivation-hop";
      pm_rule = Rules.plan_meta_undominated;
      pm_build =
        (fun () ->
          (* The guard span is shrunk to the footprints alone, dropping
             the Cincaddrimm hop address: at an unrepresentable hop the
             derived register unteags and the covered access must trap,
             but alignment-only never looks at the tag. *)
          let prog =
            [| Insn.Cincaddrimm (a1, a0, -8); lw t0 a1 8; lw t2 a0 0 |]
          in
          let chks, guards = opt ~cheri:true prog in
          guards.(0) <- { (guards.(0)) with Ir.g_lo = 0 };
          (true, prog, chks, guards, None));
    };
    {
      pm_name = "undominated-first-access";
      pm_rule = Rules.plan_meta_undominated;
      pm_build =
        (fun () ->
          (* Nothing precedes the block's only access: no fact can
             justify skipping its tag/seal/permission checks. *)
          let prog = [| lw t0 a0 0 |] in
          let chks, guards = opt ~cheri:true prog in
          chks.(0) <- Ir.Chk_bounds;
          (true, prog, chks, guards, None));
    };
    {
      pm_name = "rv32-weakened";
      pm_rule = Rules.plan_rv32_weakened;
      pm_build =
        (fun () ->
          (* Rv32 accesses are DDC-authorized; register facts cover
             nothing, so any reduction is unsound by construction. *)
          let prog = [| lw t0 a0 0 |] in
          let chks, guards = opt ~cheri:false prog in
          chks.(0) <- Ir.Chk_bounds;
          (false, prog, chks, guards, None));
    };
  ]
