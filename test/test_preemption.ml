(* Preemptive multitasking at machine level (paper 2.6): two threads and
   the timer ISR of Sched_asm, running on the emulator under the cycle
   model.  Nobody yields voluntarily; the timer does all the work. *)

open Cheriot_core
open Cheriot_isa
module Sram = Cheriot_mem.Sram
module Bus = Cheriot_mem.Bus
module Sched_asm = Cheriot_rtos.Sched_asm
module Core_model = Cheriot_uarch.Core_model
module Perf = Cheriot_uarch.Perf

let code_base = 0x1_0000
let isr_base = 0x1_4000
let data_base = 0x1_8000
let blocks_base = 0x1_9000
let quantum = 400

let t0 = Insn.reg_t0
let t1 = Insn.reg_t1

(* A thread that increments its counter word forever.  c4 = counter cap. *)
let spinner = function
  | `Halt_at limit ->
      [
        Asm.Label "spin";
        Asm.I (Insn.Load { signed = true; width = W; rd = t0; rs1 = 4; off = 0 });
        Asm.I (Insn.Op_imm (Add, t0, t0, 1));
        Asm.I (Insn.Store { width = W; rs2 = t0; rs1 = 4; off = 0 });
        Asm.Li (t1, limit);
        Asm.B (Insn.Lt, t0, t1, "spin");
        Asm.I Insn.Ebreak;
      ]
  | `Forever ->
      [
        Asm.Label "spin2";
        Asm.I (Insn.Load { signed = true; width = W; rd = t0; rs1 = 4; off = 0 });
        Asm.I (Insn.Op_imm (Add, t0, t0, 1));
        Asm.I (Insn.Store { width = W; rs2 = t0; rs1 = 4; off = 0 });
        Asm.J (0, "spin2");
      ]

let make () =
  let bus = Bus.create () in
  let sram = Sram.create ~base:code_base ~size:0xA000 in
  Bus.add_sram bus sram;
  let m = Machine.create bus in
  (* thread 0 halts the system once its counter reaches the limit;
     thread 1 spins forever and relies on preemption *)
  let img0 = Asm.assemble ~origin:code_base (spinner (`Halt_at 400)) in
  let img1 = Asm.assemble ~origin:(code_base + 0x1000) (spinner `Forever) in
  let isr_img = Asm.assemble ~origin:isr_base (Sched_asm.isr ~quantum) in
  Asm.load img0 sram;
  Asm.load img1 sram;
  Asm.load isr_img sram;
  let exec base len =
    Capability.set_bounds
      (Capability.with_address Capability.root_executable base)
      ~length:len ~exact:false
  in
  let mem base len =
    Capability.set_bounds
      (Capability.with_address Capability.root_mem_rw base)
      ~length:len ~exact:false
  in
  (* counters *)
  let ctr0 = mem data_base 8 and ctr1 = mem (data_base + 8) 8 in
  (* thread control blocks, round-robin linked *)
  let b0 = blocks_base and b1 = blocks_base + 256 in
  Sched_asm.write_block sram ~block:b0
    ~pcc:(exec code_base 0x100)
    ~regs:[ (4, ctr0) ] ~mshwm:0 ~mshwmb:0 ~next:b1;
  Sched_asm.write_block sram ~block:b1
    ~pcc:(exec (code_base + 0x1000) 0x100)
    ~regs:[ (4, ctr1) ] ~mshwm:0 ~mshwmb:0 ~next:b0;
  (* boot thread 0 directly *)
  m.Machine.pcc <- exec code_base 0x100;
  Machine.set_reg m 4 ctr0;
  m.Machine.mtdc <-
    Capability.set_bounds
      (Capability.with_address Capability.root_mem_rw b0)
      ~length:Sched_asm.block_size ~exact:true;
  m.Machine.mtcc <- exec isr_base 0x200;
  m.Machine.mtimecmp <- quantum;
  m.Machine.mie <- true;
  (m, sram)

let test_preemptive_interleaving () =
  let m, sram = make () in
  let perf = Perf.create ~params:(Core_model.params_of Core_model.Ibex) m in
  (match Perf.run ~fuel:2_000_000 perf with
  | Machine.Step_halted -> ()
  | Machine.Step_double_fault ->
      Alcotest.failf "double fault mtval=0x%x mcause=%d" m.Machine.mtval
        m.Machine.mcause
  | _ -> Alcotest.fail "did not halt");
  let c0 = Sram.read32 sram data_base in
  let c1 = Sram.read32 sram (data_base + 8) in
  (* thread 0 ran to its limit... *)
  Alcotest.(check int) "thread 0 finished" 400 c0;
  (* ...and thread 1 made comparable progress purely via preemption *)
  Alcotest.(check bool)
    (Printf.sprintf "thread 1 progressed (%d)" c1)
    true
    (c1 > 100);
  let ratio = float_of_int c1 /. float_of_int c0 in
  Alcotest.(check bool)
    (Printf.sprintf "round robin roughly fair (ratio %.2f)" ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

let test_state_isolation_across_switches () =
  (* Each thread's registers must survive arbitrary preemption points:
     thread 0's c4 (counter cap) and t0 are fully restored every time,
     or the counters would diverge from pure increment-by-one.  Run
     twice and check determinism too. *)
  let run () =
    let m, sram = make () in
    let perf = Perf.create ~params:(Core_model.params_of Core_model.Flute) m in
    ignore (Perf.run ~fuel:2_000_000 perf);
    (Sram.read32 sram data_base, Sram.read32 sram (data_base + 8))
  in
  let a = run () and b = run () in
  Alcotest.(check (pair int int)) "deterministic schedule" a b;
  Alcotest.(check int) "no lost increments" 400 (fst a)

let test_fatal_trap_in_isr_system () =
  (* A CHERI fault with the ISR installed reaches the isr_fatal path:
     the system stops instead of silently continuing. *)
  let m, _sram = make () in
  (* corrupt thread 0's counter cap: drop SD so its store traps *)
  Machine.set_reg m 4
    (Capability.clear_perms (Machine.reg m 4) [ SD ]);
  let perf = Perf.create ~params:(Core_model.params_of Core_model.Ibex) m in
  (match Perf.run ~fuel:100_000 perf with
  | Machine.Step_halted -> ()
  | _ -> Alcotest.fail "expected halt at isr_fatal");
  Alcotest.(check int) "mcause = CHERI fault" 28 m.Machine.mcause

(* The ISR re-arms the timer from an [mcycle] read while interrupts are
   disabled — inside a batched round on the jit tier.
   Each tier must read the per-step count there, or the whole schedule
   drifts: every tier halts on the reference's cycle with the same
   totals, timer and state.  "jit@1" pins the hotness to 1, so the ISR
   runs under compiled check plans from its first entry. *)
let test_tiers_agree () =
  let run ?(pin = ignore) dispatch =
    let m, sram = make () in
    pin m;
    let perf =
      Perf.create ~dispatch ~params:(Core_model.params_of Core_model.Ibex) m
    in
    let r = Perf.run ~fuel:2_000_000 perf in
    let s = perf.Perf.stats in
    ( r,
      [
        s.Perf.cycles;
        s.Perf.instructions;
        s.Perf.mem_busy;
        s.Perf.traps;
        m.Machine.mcycle;
        m.Machine.mtimecmp;
        Sram.read32 sram (data_base + 8);
      ],
      Machine.state_hash m )
  in
  let r0, v0, h0 = run Perf.Reference in
  Alcotest.(check bool) "reference halts" true (r0 = Machine.Step_halted);
  Alcotest.(check (list int))
    "reference: halting cycle, next deadline, thread 1's count"
    [ 10_315; 10_615; 500 ]
    [ List.nth v0 4; List.nth v0 5; List.nth v0 6 ];
  List.iter
    (fun (name, pin) ->
      let r, v, h = run ~pin Perf.Jit in
      Alcotest.(check bool) ("same stop: " ^ name) true (r = r0);
      Alcotest.(check (list int))
        ("cycles, insns, mem_busy, traps, mcycle, mtimecmp, count: " ^ name)
        v0 v;
      Alcotest.(check string) ("state hash: " ^ name) h0 h)
    [ ("jit", ignore); ("jit@1", Cheriot_proptest.Props.pin_hot 1) ]

let suite =
  [
    Alcotest.test_case "timer preemption interleaves threads" `Quick
      test_preemptive_interleaving;
    Alcotest.test_case "register state isolated across switches" `Quick
      test_state_isolation_across_switches;
    Alcotest.test_case "non-timer trap stops the system" `Quick
      test_fatal_trap_in_isr_system;
    Alcotest.test_case "every perf tier runs the same schedule" `Quick
      test_tiers_agree;
  ]
