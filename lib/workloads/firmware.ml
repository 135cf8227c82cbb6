(** The firmware images this repository ships, as linkable definitions.

    The compartment sources for the examples, the simulator demo and the
    CoreMark-as-a-compartment benchmark used to live inline next to the
    code that ran them; the static auditor needs to link (not run) every
    shipped image, so they are collected here.  {!shipped} is the
    catalogue the [cheriot_audit] CI gate iterates over. *)

open Cheriot_isa
module Compartment = Cheriot_rtos.Compartment
module Loader = Cheriot_rtos.Loader
module Sram = Cheriot_mem.Sram

let a0 = Insn.reg_a0
let t0 = Insn.reg_t0
let t1 = Insn.reg_t1
let t2 = Insn.reg_t2
let sp = Insn.reg_sp
let gp = Insn.reg_gp
let ra = Insn.reg_ra
let sw rs2 rs1 off = Asm.I (Insn.Store { width = W; rs2; rs1; off })
let lw rd rs1 off = Asm.I (Insn.Load { signed = true; width = W; rd; rs1; off })

let export l = { Compartment.exp_label = l; exp_posture = Interrupts_enabled }

(** Cross-compartment call through the switcher: the sealed export in
    [slot], jumped to via the cross-call sentry in slot 0. *)
let call_slot slot =
  [
    Asm.I (Insn.Clc (t1, gp, slot));
    Asm.I (Insn.Clc (t2, gp, Compartment.switcher_slot));
    Asm.I (Insn.Jalr (ra, t2, 0));
  ]

(* --- the compartment-isolation image (examples, paper 2.2/2.6/5.2) ------ *)

(** Globals offset of crypto's signing key. *)
let key_slot = 16

(** crypto: sign(a0) = a0 xor key, key private in its globals. *)
let crypto =
  Compartment.v ~name:"crypto" ~globals_size:64 ~exports:[ export "sign" ]
    [
      Asm.Label "sign";
      lw t0 gp key_slot;
      Asm.I (Insn.Op (Xor, a0, a0, t0));
      Asm.Ret;
    ]

(** A well-behaved driver: returns 0, touches nothing. *)
let benign_driver = [ Asm.Label "driver"; Asm.Li (a0, 0); Asm.Ret ]

(** [isolation ~driver ()] links the three-compartment image: app imports
    crypto.sign (slot 8) and a driver (slot 16) whose body is [driver] —
    the examples substitute malicious bodies for it. *)
let isolation ?(driver = benign_driver) () =
  let app =
    Compartment.v ~name:"app" ~globals_size:64 ~exports:[ export "main" ]
      ~imports:
        [
          { imp_compartment = "crypto"; imp_export = "sign"; imp_slot = 8 };
          { imp_compartment = "mallory"; imp_export = "driver"; imp_slot = 16 };
        ]
      (List.concat
         [
           [
             Asm.Label "main";
             Asm.I (Insn.Cincaddrimm (sp, sp, -16));
             Asm.I (Insn.Csc (ra, sp, 0));
             (* 1: ask crypto to sign a message *)
             Asm.Li (a0, 0x42);
           ];
           call_slot 8;
           [ sw a0 sp 8 (* the signature, kept in our frame *) ];
           (* 2: call the driver *)
           call_slot 16;
           [
             (* 3: our signature must be intact *)
             lw a0 sp 8;
             Asm.I (Insn.Clc (ra, sp, 0));
             Asm.I Insn.Ebreak;
           ];
         ])
  in
  let mallory =
    Compartment.v ~name:"mallory" ~globals_size:64 ~exports:[ export "driver" ]
      driver
  in
  Loader.link [ app; crypto; mallory ] ~boot:("app", "main")

(** Poke the signing key into crypto's globals (the loader does not place
    initialized data). *)
let patch_key t key =
  let crypto_b = Loader.find t "crypto" in
  Sram.write32 t.Loader.sram (crypto_b.Loader.globals_base + key_slot) key

(* --- the simulator demo -------------------------------------------------- *)

(** Two compartments: app calls svc.double(21) through the switcher. *)
let demo () =
  let app =
    Compartment.v ~name:"app" ~globals_size:64 ~exports:[ export "main" ]
      ~imports:[ { imp_compartment = "svc"; imp_export = "double"; imp_slot = 8 } ]
      (List.concat
         [
           [ Asm.Label "main"; Asm.Li (a0, 21) ];
           call_slot 8;
           [ Asm.I Insn.Ebreak ];
         ])
  in
  let svc =
    Compartment.v ~name:"svc" ~globals_size:64 ~exports:[ export "double" ]
      [ Asm.Label "double"; Asm.I (Insn.Op (Add, a0, a0, a0)); Asm.Ret ]
  in
  Loader.link [ app; svc ] ~boot:("app", "main")

(* --- CoreMark as a compartment ------------------------------------------- *)

(** The capability-mode CoreMark kernels linked as a single compartment:
    all data accesses run against the compartment's own globals, so the
    image exercises the auditor's loops/bounds machinery. *)
let coremark ?(iterations = 1) () =
  let bench =
    Compartment.v ~name:"bench" ~globals_size:0x1000 ~exports:[ export "bench" ]
      (Asm.Label "bench" :: Coremark.program Coremark.Cheriot_caps ~iterations)
  in
  Loader.link [ bench ] ~boot:("bench", "bench")

(* --- the audit-incremental fleet ------------------------------------------ *)

(** [fleet ~variant ()] is the coremark compartment plus a tiny "sensor"
    compartment calling into it.  [bench] is linked first, so its code
    and globals layout — and therefore its audit summary hash — is
    identical across variants; only the sensor's code (which embeds
    [variant]) differs.  A summary cache shared across the fleet thus
    re-analyzes the expensive coremark fixpoint exactly once, which
    [test_incremental] pins and perfbench's audit job times. *)
let fleet ?(iterations = 1) ~variant () =
  let bench =
    Compartment.v ~name:"bench" ~globals_size:0x1000 ~exports:[ export "bench" ]
      (Asm.Label "bench" :: Coremark.program Coremark.Cheriot_caps ~iterations)
  in
  let sensor =
    Compartment.v ~name:"sensor" ~globals_size:64 ~exports:[ export "main" ]
      ~imports:[ { imp_compartment = "bench"; imp_export = "bench"; imp_slot = 8 } ]
      (List.concat
         [
           [ Asm.Label "main"; Asm.Li (a0, variant land 0x7FF) ];
           call_slot 8;
           [ Asm.I Insn.Ebreak ];
         ])
  in
  Loader.link [ bench; sensor ] ~boot:("sensor", "main")

(* --- the catalogue -------------------------------------------------------- *)

(** Every image the repository ships, by name — the audit gate runs over
    all of them and requires zero findings. *)
let shipped : (string * (unit -> Loader.t)) list =
  [
    ("isolation", fun () -> isolation ());
    ("demo", demo);
    ("coremark", fun () -> coremark ());
  ]
