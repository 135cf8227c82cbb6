(* Quickstart: the CHERIoT capability model in five minutes.

   Builds capabilities from the reset roots, derives attenuated views,
   shows the 64-bit encoding, seals an object, and runs a small program
   on the ISA emulator that trips a bounds check.

   Run with:  dune exec examples/quickstart.exe *)

open Cheriot_core
open Cheriot_isa

let say fmt = Format.printf (fmt ^^ "@.")

let () =
  say "== 1. The three reset roots (paper 3.1.1) ==";
  List.iter (fun c -> say "  %a" Capability.pp c) Capability.roots;

  say "";
  say "== 2. Guarded manipulation: narrow, never widen ==";
  let obj = Capability.with_address Capability.root_mem_rw 0x2000_0000 in
  let obj = Capability.set_bounds obj ~length:64 ~exact:true in
  say "  a 64-byte object:        %a" Capability.pp obj;
  let ro = Capability.clear_perms obj [ SD; SL; LM ] in
  say "  read-only view:          %a" Capability.pp ro;
  let widened = Capability.set_bounds ro ~length:4096 ~exact:false in
  say "  widening attempt:        %a   <- tag cleared!" Capability.pp widened;

  say "";
  say "== 3. The 64-bit encoding (Fig. 1): metadata | address ==";
  say "  %a" Capability.pp obj;
  say "  encodes to 0x%Lx (tag travels out of band)" (Capability.to_word obj);
  let back = Capability.of_word ~tag:true (Capability.to_word obj) in
  say "  decodes back identically: %b" (Capability.equal obj back);

  say "";
  say "== 4. Large objects round to representable bounds (3.2.3) ==";
  List.iter
    (fun len ->
      say "  request %7d -> CRRL %7d bytes, alignment mask 0x%08x" len
        (Bounds.crrl len) (Bounds.cram len))
    [ 100; 511; 512; 5000; 1 lsl 20 ];

  say "";
  say "== 5. Sealing: opaque references (2.4) ==";
  let key = Capability.with_address Capability.root_sealing 3 in
  (match Capability.seal obj ~key with
  | Ok sealed ->
      say "  sealed with otype 3:      %a" Capability.pp sealed;
      let poked = Capability.incr_address sealed 8 in
      say "  tamper attempt:           %a   <- tag cleared!" Capability.pp
        poked;
      (match Capability.unseal sealed ~key with
      | Ok c -> say "  unsealed with the key:    %a" Capability.pp c
      | Error e -> say "  unseal failed: %s" e)
  | Error e -> say "  seal failed: %s" e);

  say "";
  say "== 6. A program on the emulator: bounds checks in hardware ==";
  let bus = Cheriot_mem.Bus.create () in
  let sram = Cheriot_mem.Sram.create ~base:0x1_0000 ~size:0x1000 in
  Cheriot_mem.Bus.add_sram bus sram;
  let program =
    [
      (* c4 (set up below) points at a 16-byte buffer; walk off its end *)
      Asm.I (Insn.Op_imm (Add, Insn.reg_t0, 0, 0));
      Asm.Label "loop";
      Asm.I
        (Insn.Store
           { width = W; rs2 = Insn.reg_t0; rs1 = 4; off = 0 });
      Asm.I (Insn.Cincaddrimm (4, 4, 4));
      Asm.I (Insn.Op_imm (Add, Insn.reg_t0, Insn.reg_t0, 1));
      Asm.J (0, "loop");
    ]
  in
  let img = Asm.assemble ~origin:0x1_0000 program in
  Asm.load img sram;
  let m = Machine.create bus in
  m.Machine.pcc <-
    Capability.(
      set_bounds (with_address root_executable 0x1_0000) ~length:0x100
        ~exact:false);
  Machine.set_reg m 4
    Capability.(
      set_bounds (with_address root_mem_rw 0x1_0800) ~length:16 ~exact:true);
  (match Machine.run ~fuel:1000 m with
  | Machine.Step_double_fault, steps ->
      say "  after %d instructions (4 stores OK), the 5th store trapped:"
        steps;
      say "  mcause=%d (CHERI fault), cause code 0x%02x = bounds violation"
        m.Machine.mcause
        (m.Machine.mtval lsr 5);
      say "  t0 reached %d -- exactly the buffer's 4 words, never a byte more"
        (Machine.reg_int m Insn.reg_t0)
  | _ ->
      say "  unexpected result";
      exit 1);
  say "";
  say "Next: examples/heap_temporal_safety.exe and \
       examples/compartment_isolation.exe"
