(* Compartment isolation on the ISA emulator (paper 2.2, 2.6, 5.2).

   Three compartments from mutually distrusting vendors are statically
   linked into one image:

     app      -- the application; imports crypto.sign
     crypto   -- holds a signing key in its private globals
     mallory  -- a malicious "driver" the app also calls

   The image definitions live in {!Cheriot_workloads.Firmware} (the
   static auditor links the same ones); this example substitutes attack
   bodies for the driver compartment and runs them on the real
   (simulated) CPU: the cross-compartment calls go through the
   machine-code switcher, and mallory's attacks are defeated by the
   architecture, not by code review.

   Run with:  dune exec examples/compartment_isolation.exe
   It exits 1 unless the benign driver and the stack scan return the
   app's expected signature and the other four attacks trap. *)

open Cheriot_core
open Cheriot_isa
module Compartment = Cheriot_rtos.Compartment
module Loader = Cheriot_rtos.Loader
module Firmware = Cheriot_workloads.Firmware

let say fmt = Format.printf (fmt ^^ "@.")
let a0 = Insn.reg_a0
let t0 = Insn.reg_t0
let t1 = Insn.reg_t1
let t2 = Insn.reg_t2
let sp = Insn.reg_sp
let gp = Insn.reg_gp
let ra = Insn.reg_ra
let lw rd rs1 off = Asm.I (Insn.Load { signed = true; width = W; rd; rs1; off })
let key = 0x1337c0de

(* The scenarios whose outcome was not the expected one. *)
let failed = ref []

(* Run the image with [mallory_body] as the driver; [expect] is whether
   the app must return its signature ([`Signs]) or an attack must trap
   ([`Traps]). *)
let run_scenario name ~expect mallory_body =
  let t = Firmware.isolation ~driver:mallory_body () in
  Firmware.patch_key t key;
  let m = t.Loader.machine in
  let outcome =
    match Loader.run t with
    | Machine.Step_halted, _ when Capability.address m.Machine.pcc < 0x1_1000
      ->
        say "  [%s] TRAPPED: mcause=%d, CHERI cause 0x%02x -- attack stopped \
             by hardware"
          name m.Machine.mcause
          (m.Machine.mtval lsr 5);
        `Traps
    | Machine.Step_halted, _ ->
        say "  [%s] returned; app's signature register: 0x%x (expected 0x%x)"
          name (Machine.reg_int m a0) (0x42 lxor key);
        if Machine.reg_int m a0 = 0x42 lxor key then `Signs else `Wrong
    | Machine.Step_double_fault, _ ->
        say "  [%s] double fault mtval=0x%x" name m.Machine.mtval;
        `Wrong
    | _ ->
        say "  [%s] did not finish" name;
        `Wrong
  in
  if outcome <> expect then failed := name :: !failed

let () =
  say "== Scenario: app + crypto + mallory, statically linked ==";
  say "   (crypto's key: 0x%x, lives in crypto's private globals)" key;
  say "";

  say "1. A well-behaved driver: everything just works.";
  run_scenario "benign" ~expect:`Signs Firmware.benign_driver;
  say "";

  say "2. Mallory tries to READ crypto's key by address.  She knows exactly";
  say "   where it is -- but has no capability to it (2.3 guarantee 1).";
  run_scenario "read key" ~expect:`Traps
    [
      Asm.Label "driver";
      (* her own cgp, moved to the key's address *)
      Asm.Li (t0, 0x1_0000);
      Asm.Label "probe";
      Asm.I (Insn.Csetaddr (t1, gp, t0));
      lw a0 t1 0;
      Asm.Ret;
    ];
  say "";

  say "3. Mallory walks off the end of her own globals toward her";
  say "   neighbour's (2.3 guarantee 2).";
  run_scenario "overflow globals" ~expect:`Traps
    [
      Asm.Label "driver";
      Asm.I (Insn.Cget (Len, t0, gp));
      Asm.I (Insn.Cincaddr (t1, gp, t0));
      lw a0 t1 0;
      Asm.Ret;
    ];
  say "";

  say "4. Mallory scans the stack the app delegated to her for leftover";
  say "   secrets: the switcher zeroed it (5.2).";
  run_scenario "scan stack" ~expect:`Signs
    [
      Asm.Label "driver";
      Asm.Li (a0, 0);
      Asm.I (Insn.Cget (Base, t0, sp));
      Asm.I (Insn.Cget (Addr, t2, sp));
      Asm.Label "scan";
      Asm.B (Insn.Geu, t0, t2, "done");
      Asm.I (Insn.Csetaddr (t1, sp, t0));
      lw t1 t1 0;
      Asm.B (Insn.Eq, t1, 0, "skip");
      Asm.I (Insn.Op_imm (Add, a0, a0, 1));
      Asm.Label "skip";
      Asm.I (Insn.Op_imm (Add, t0, t0, 4));
      Asm.J (0, "scan");
      Asm.Label "done";
      Asm.Ret;
    ];
  say "   (mallory returned without finding a single nonzero word, and the";
  say "    app's signature -- stored above the chop point -- survived)";
  say "";

  say "5. Mallory tries to smuggle the stack capability out for later";
  say "   (store-local, 2.6).";
  run_scenario "capture stack" ~expect:`Traps
    [ Asm.Label "driver"; Asm.I (Insn.Csc (sp, gp, 24)); Asm.Ret ];
  say "";

  say "6. Mallory forges an 'export' to jump into crypto's code directly";
  say "   (unforgeability, 2.4).";
  run_scenario "forge export" ~expect:`Traps
    [
      Asm.Label "driver";
      Asm.I (Insn.Cmove (t1, gp));
      Asm.I (Insn.Clc (t2, gp, Compartment.switcher_slot));
      Asm.I (Insn.Jalr (ra, t2, 0));
      Asm.Ret;
    ];
  say "";
  say "Every attack is stopped by a per-instruction architectural check --";
  say "no probabilistic defence, no code audit of mallory required (6).";
  if !failed <> [] then begin
    prerr_endline
      ("unexpected outcome: " ^ String.concat ", " (List.rev !failed));
    exit 1
  end
