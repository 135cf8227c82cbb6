(** The allocation microbenchmark (paper 7.2.2, Table 4, Figs. 5 & 6).

    Allocates and frees a total of 1 MiB of heap memory at a fixed
    allocation size (32 B … 128 KiB), through cross-compartment calls to
    the allocator compartment, under the four temporal-safety
    configurations (Baseline / Metadata / Software / Hardware), each with
    and without the stack high-water mark. *)

module Core_model = Cheriot_uarch.Core_model
module Revoker = Cheriot_uarch.Revoker
module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits
module Clock = Cheriot_rtos.Clock
module Allocator = Cheriot_rtos.Allocator
module Sw_revoker = Cheriot_rtos.Sw_revoker
module Switcher = Cheriot_rtos.Switcher
module Sched = Cheriot_rtos.Sched

type config = {
  core : Core_model.core;
  temporal : Allocator.temporal;
  hwm : bool;
}

let config_name c =
  Printf.sprintf "%s/%s%s"
    (Core_model.name c.core)
    (match c.temporal with
    | Allocator.Baseline -> "Baseline"
    | Metadata -> "Metadata"
    | Software -> "Software"
    | Hardware -> "Hardware")
    (if c.hwm then "(S)" else "")

type result = {
  cycles : int;
  iterations : int;
  sweeps : int;
  sweep_cycles : int;
  bytes_zeroed : int;
  quarantine_peak : int;
}

let heap_base = 0x8_0000
let heap_size = 256 * 1024
let stack_base = 0x4_0000
let stack_size = 1024

let paper_sizes =
  [ 32; 64; 128; 256; 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536;
    131072 ]

(* How deep the allocator dirties its stack per call: free-list
   manipulation and header writes touch a few hundred bytes of frame. *)
let allocator_stack_use = 208

let run ?(total = 1 lsl 20) ?threshold config ~size =
  let params = Core_model.params_of config.core in
  let clock = Clock.create params in
  let sram = Sram.create ~base:stack_base ~size:(heap_base + heap_size - stack_base) in
  let rev = Revbits.create ~heap_base ~heap_size () in
  let alloc =
    Allocator.create ~temporal:config.temporal ?quarantine_threshold:threshold
      ~flute_poll_quirk:(config.core = Core_model.Flute)
      ~sram ~rev ~clock ~heap_base ~heap_size ()
  in
  (match config.temporal with
  | Allocator.Hardware ->
      let hw = Revoker.create ~core:config.core ~sram ~rev () in
      Clock.attach_revoker clock hw;
      Allocator.attach_hw_revoker alloc hw
  | Allocator.Software ->
      Allocator.set_sw_revoker alloc (Sw_revoker.create ~sram ~rev ~clock ())
  | Allocator.Baseline | Allocator.Metadata -> ());
  let switcher = Switcher.create ~hwm_enabled:config.hwm ~sram clock in
  let sched = Sched.create ~hwm_enabled:config.hwm clock in
  let stack = Switcher.make_stack ~base:stack_base ~size:stack_size in
  (* The benchmark thread enters the allocator calls with most of its
     1 KiB stack already occupied by its own frames: the switcher hands
     (and must clear) only the portion below the current SP. *)
  stack.Switcher.sp <- stack_base + 384;
  stack.Switcher.hwm <- stack_base + 384;
  let app = Sched.spawn sched ~name:"bench" ~priority:1 ~stack in
  let idle = Sched.spawn sched ~name:"idle" ~priority:0 ~stack in
  Sched.switch_to sched app;
  (* A thread blocked on the hardware revoker is context-switched out and
     periodically back in to recheck the epoch. *)
  Allocator.set_wait_ctx_pair alloc (2 * Sched.ctx_switch_cost sched);
  let iterations = total / size in
  for _ = 1 to iterations do
    (* the application's own work between allocator calls *)
    Clock.compute clock 20;
    let ptr =
      Switcher.cross_call switcher stack ~callee_frame:96
        ~callee_stack_use:allocator_stack_use (fun () ->
          match Allocator.malloc alloc size with
          | Ok c -> c
          | Error e -> Fmt.failwith "malloc(%d): %a" size Allocator.pp_error e)
    in
    Clock.compute clock 20;
    Switcher.cross_call switcher stack ~callee_frame:96
      ~callee_stack_use:allocator_stack_use (fun () ->
        match Allocator.free alloc ptr with
        | Ok () -> ()
        | Error e -> Fmt.failwith "free(%d): %a" size Allocator.pp_error e);
  done;
  ignore idle;
  let st = Allocator.stats alloc in
  {
    cycles = Clock.cycles clock;
    iterations;
    sweeps = st.Allocator.sweeps;
    sweep_cycles = st.Allocator.sweep_cycles;
    bytes_zeroed = Switcher.bytes_zeroed switcher;
    quarantine_peak = st.Allocator.quarantine_peak;
  }

let run_with_threshold config ~size ~threshold = run ~threshold config ~size

(* Can the benchmark heap serve [size]-byte allocations?  [run] keeps at
   most one object live, and quarantine is drained whenever the heap
   runs low, so one [malloc] on an empty heap decides every iteration
   under every configuration.  The error is [run]'s failure message.
   Sizes beyond the heap are refused up front: the allocator cannot
   bound a capability that large. *)
let check_size size =
  let refuse e = Error (Fmt.str "malloc(%d): %a" size Allocator.pp_error e) in
  if size > heap_size then refuse Allocator.Out_of_memory
  else
    let clock = Clock.create (Core_model.params_of Core_model.Ibex) in
    let sram = Sram.create ~base:heap_base ~size:heap_size in
    let rev = Revbits.create ~heap_base ~heap_size () in
    let alloc =
      Allocator.create ~temporal:Allocator.Baseline ~sram ~rev ~clock
        ~heap_base ~heap_size ()
    in
    match Allocator.malloc alloc size with Ok _ -> Ok () | Error e -> refuse e

(* --- instruction-level variant for the dispatch-tier benches ----------- *)

module Machine = Cheriot_isa.Machine
module Asm = Cheriot_isa.Asm
module Insn = Cheriot_isa.Insn
module Bus = Cheriot_mem.Bus

(** The allocator's memory-access pattern as a real instruction stream on
    the emulator (the cycle-ledger benchmark above never executes
    instructions): each round carves 64 bounded 32-byte objects out of a
    bump region ([csetbounds] + header stores), parks their capabilities
    in a slot array ([csc]), then walks the slots back ([clc]), sums the
    headers and retires each capability untagged — the malloc/free shape
    that dominates Table 4.  Runs to [Ebreak]; the checksum lands in
    [a0]. *)
let isa_setup ?(rounds = 100) () =
  let code_base = 0x1_0000 and data_base = 0x2_0000 in
  let a0 = Insn.reg_a0 and a4 = Insn.reg_a4 and a5 = Insn.reg_a5 in
  let t0 = Insn.reg_t0 and t1 = Insn.reg_t1 and t2 = Insn.reg_t2 in
  let s0 = Insn.reg_s0 and s1 = Insn.reg_s1 and gp = Insn.reg_gp in
  let slots = 64 and obj_size = 32 in
  let program =
    [
      Asm.Li (a0, 0);
      Asm.Li (s1, rounds);
      Asm.Label "outer";
      (* bump pointer over the object area, above the slot array *)
      Asm.Li (t2, 0x1000);
      Asm.I (Insn.Cincaddr (s0, gp, t2));
      Asm.Li (t0, slots);
      Asm.Label "alloc";
      Asm.I (Insn.Csetboundsimm (a5, s0, obj_size));
      Asm.Li (t1, obj_size);
      Asm.I (Insn.Store { width = W; rs2 = t1; rs1 = a5; off = 0 });
      Asm.I (Insn.Store { width = W; rs2 = t0; rs1 = a5; off = 4 });
      Asm.I (Insn.Op_imm (Add, t2, t0, -1));
      Asm.I (Insn.Op_imm (Sll, t2, t2, 3));
      Asm.I (Insn.Cincaddr (a4, gp, t2));
      Asm.I (Insn.Csc (a5, a4, 0));
      Asm.I (Insn.Cincaddrimm (s0, s0, obj_size));
      Asm.I (Insn.Op_imm (Add, t0, t0, -1));
      Asm.B (Insn.Ne, t0, 0, "alloc");
      Asm.Li (t0, slots);
      Asm.Label "free";
      Asm.I (Insn.Op_imm (Add, t2, t0, -1));
      Asm.I (Insn.Op_imm (Sll, t2, t2, 3));
      Asm.I (Insn.Cincaddr (a4, gp, t2));
      Asm.I (Insn.Clc (a5, a4, 0));
      Asm.I (Insn.Load { signed = true; width = W; rd = t1; rs1 = a5; off = 0 });
      Asm.I (Insn.Op (Add, a0, a0, t1));
      Asm.I (Insn.Ccleartag (a5, a5));
      Asm.I (Insn.Csc (a5, a4, 0));
      Asm.I (Insn.Op_imm (Add, t0, t0, -1));
      Asm.B (Insn.Ne, t0, 0, "free");
      Asm.I (Insn.Op_imm (Add, s1, s1, -1));
      Asm.B (Insn.Ne, s1, 0, "outer");
      Asm.I Insn.Ebreak;
    ]
  in
  let bus = Bus.create () in
  let code = Sram.create ~base:code_base ~size:0x1000 in
  let data = Sram.create ~base:data_base ~size:0x4000 in
  Bus.add_sram bus code;
  Bus.add_sram bus data;
  let img = Asm.assemble ~origin:code_base program in
  Asm.load img code;
  let m = Machine.create bus in
  m.Machine.pcc <-
    Cheriot_core.Capability.(
      set_bounds (with_address root_executable code_base) ~length:0x1000
        ~exact:true);
  Machine.set_reg m gp
    Cheriot_core.Capability.(
      set_bounds (with_address root_mem_rw data_base) ~length:0x4000
        ~exact:true);
  m

let overhead_vs_baseline ~baseline r =
  100.0
  *. (float_of_int r.cycles -. float_of_int baseline.cycles)
  /. float_of_int baseline.cycles
