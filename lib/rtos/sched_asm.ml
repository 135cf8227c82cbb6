(** Preemptive multitasking in machine code (paper 2.6).

    "Multitasking scheduling facilities allow the core to change
    threads" — this module is the timer-interrupt service routine that
    does it, plus the boot-time construction of thread control blocks.

    The ISR runs from MTCC (which has SR; no compartment's PCC does) with
    interrupts disabled.  It faces the classic problem of having {e no}
    free register — every register is live user state — solved with the
    [cspecialrw] swap idiom: exchanging ct0 with MTDC yields a pointer to
    the current thread's control block while parking the user's ct0 in
    the special register.

    Thread control block (144 bytes, in scheduler-private SRAM reachable
    only through MTDC):

    {v +0    saved PCC            +8*r   saved c_r (r = 1..15)
       +128  saved mshwm          +132   saved mshwmb
       +136  capability to the next thread's block (round robin) v}

    On a machine timer interrupt the ISR saves the full register file,
    the interrupted PCC (from MEPCC) and the stack high-water-mark CSRs
    — the two extra CSRs whose save/restore cost is visible in the
    paper's Table 4 at 128 KiB — re-arms the timer, follows the
    round-robin link, restores the next thread's state and [mret]s into
    it.  Any non-timer trap falls through to [ebreak] (the system's
    fault stop). *)

open Cheriot_isa

let t0 = Insn.reg_t0
let t1 = Insn.reg_t1
let t2 = Insn.reg_t2

(* Block field offsets. *)
let off_pcc = 0
let off_reg r = 8 * r
let off_mshwm = 128
let off_mshwmb = 132
let off_next = 136
let block_size = 144

(** [isr ~quantum] is the timer ISR; assemble it at the MTCC target. *)
let isr ~quantum : Asm.item list =
  let save_regs =
    (* save c1..c15 except t0 (parked in MTDC) and t1 (saved after we
       reclaim it below) — actually t1 is still live here, so save it
       with the others; only t0 needs the special path *)
    List.concat_map
      (fun r ->
        if r = t0 then []
        else [ Asm.I (Insn.Csc (r, t0, off_reg r)) ])
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]
  in
  let restore_regs =
    (* restore from ct1: everything except t0 (done just before) and t1
       (done last, overwriting the base register in one instruction) *)
    List.concat_map
      (fun r ->
        if r = t0 || r = t1 then []
        else [ Asm.I (Insn.Clc (r, t1, off_reg r)) ])
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]
  in
  List.concat
    [
      [
        Asm.Label "isr";
        (* ct0 <-> MTDC: ct0 = current thread block, user ct0 parked *)
        Asm.I (Insn.Cspecialrw (t0, MTDC, t0));
      ];
      (* save the whole register file before touching anything else *)
      save_regs;
      [
        (* the user's t0 (read back out of MTDC without writing it) *)
        Asm.I (Insn.Cspecialrw (t1, MTDC, 0));
        Asm.I (Insn.Csc (t1, t0, off_reg t0));
        (* non-timer traps are fatal: check mcause = machine timer *)
        Asm.I (Insn.Csr (Csrrs, t1, 0, Csr.mcause));
      ];
      (* mcause for the timer = 0x80000007 *)
      [ Asm.Li (t2, 0x8000_0007) ];
      [ Asm.B (Insn.Ne, t1, t2, "isr_fatal") ];
      [
        (* interrupted PCC *)
        Asm.I (Insn.Cspecialrw (t1, MEPCC, 0));
        Asm.I (Insn.Csc (t1, t0, off_pcc));
        (* stack high-water-mark CSR pair (5.2.1) *)
        Asm.I (Insn.Csr (Csrrs, t1, 0, Csr.mshwm));
        Asm.I (Insn.Store { width = W; rs2 = t1; rs1 = t0; off = off_mshwm });
        Asm.I (Insn.Csr (Csrrs, t1, 0, Csr.mshwmb));
        Asm.I (Insn.Store { width = W; rs2 = t1; rs1 = t0; off = off_mshwmb });
        (* re-arm the timer: mtimecmp = mcycle + quantum *)
        Asm.I (Insn.Csr (Csrrs, t1, 0, Csr.mcycle));
      ];
      [ Asm.Li (t2, quantum) ];
      [
        Asm.I (Insn.Op (Add, t1, t1, t2));
        Asm.I (Insn.Csr (Csrrw, 0, t1, Csr.mtimecmp));
        (* round robin: ct1 = next block; it becomes MTDC *)
        Asm.I (Insn.Clc (t1, t0, off_next));
        Asm.I (Insn.Cspecialrw (0, MTDC, t1));
        (* restore the next thread *)
        Asm.I (Insn.Clc (t2, t1, off_pcc));
        Asm.I (Insn.Cspecialrw (0, MEPCC, t2));
        Asm.I (Insn.Load { signed = true; width = W; rd = t2; rs1 = t1; off = off_mshwm });
        Asm.I (Insn.Csr (Csrrw, 0, t2, Csr.mshwm));
        Asm.I (Insn.Load { signed = true; width = W; rd = t2; rs1 = t1; off = off_mshwmb });
        Asm.I (Insn.Csr (Csrrw, 0, t2, Csr.mshwmb));
      ];
      restore_regs;
      [
        Asm.I (Insn.Clc (t0, t1, off_reg t0));
        (* t1 last: the load overwrites its own base register *)
        Asm.I (Insn.Clc (t1, t1, off_reg t1));
        (* mret re-enables interrupts via MPIE and jumps to MEPCC *)
        Asm.I Insn.Mret;
        Asm.Label "isr_fatal";
        Asm.I Insn.Ebreak;
      ];
    ]

(** Initialize a thread control block in SRAM.  [regs] lists initial
    register values (others are NULL); [next] is the address of the
    block that follows in the round robin. *)
let write_block sram ~block ~pcc ~regs ~mshwm ~mshwmb ~next =
  let module Sram = Cheriot_mem.Sram in
  let module Capability = Cheriot_core.Capability in
  Sram.write_cap sram (block + off_pcc) pcc;
  for r = 1 to 15 do
    Sram.write_cap sram (block + off_reg r) Capability.null
  done;
  List.iter (fun (r, c) -> Sram.write_cap sram (block + off_reg r) c) regs;
  Sram.write32 sram (block + off_mshwm) mshwm;
  Sram.write32 sram (block + off_mshwmb) mshwmb;
  let next_cap =
    Capability.set_bounds
      (Capability.with_address Capability.root_mem_rw next)
      ~length:block_size ~exact:true
  in
  Sram.write_cap sram (block + off_next) next_cap
