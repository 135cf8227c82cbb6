(* Tests for the cycle models and the background revoker engine
   (paper 3.3.3, 4). *)

open Cheriot_core
open Cheriot_uarch
module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits
module Bus = Cheriot_mem.Bus

let heap_base = 0x40000
let heap_size = 0x10000

let make () =
  let sram = Sram.create ~base:heap_base ~size:heap_size in
  let rev = Revbits.create ~heap_base ~heap_size () in
  (sram, rev)

let cap_at addr len =
  Capability.(
    set_bounds (with_address root_mem_rw addr) ~length:len ~exact:true)

let store_cap = Sram.write_cap

let test_sweep_invalidates_stale () =
  let sram, rev = make () in
  (* Two caps in memory: one to a freed object, one to a live object. *)
  let freed = cap_at (heap_base + 0x100) 64 in
  let live = cap_at (heap_base + 0x200) 64 in
  store_cap sram (heap_base + 0x1000) freed;
  store_cap sram (heap_base + 0x1008) live;
  Revbits.paint rev ~addr:(heap_base + 0x100) ~len:64;
  let r = Revoker.create ~core:Core_model.Flute ~sram ~rev () in
  Revoker.kick r ~start:heap_base ~stop:(heap_base + heap_size);
  Alcotest.(check bool) "epoch odd while sweeping" true
    (Revoker.epoch r mod 2 = 1);
  let cycles = Revoker.run_to_completion r in
  Alcotest.(check bool) "epoch even after" true (Revoker.epoch r mod 2 = 0);
  Alcotest.(check int) "one cap invalidated" 1 (Revoker.caps_invalidated r);
  Alcotest.(check bool) "stale tag cleared" false
    (Sram.tag_at sram (heap_base + 0x1000));
  Alcotest.(check bool) "live tag kept" true
    (Sram.tag_at sram (heap_base + 0x1008));
  (* Pipelined 2-stage engine: ~1 word/cycle over the whole heap. *)
  let words = heap_size / 8 in
  Alcotest.(check bool)
    (Printf.sprintf "throughput ~1 word/cycle (%d cycles for %d words)"
       cycles words)
    true
    (cycles < words + 16)

let test_pipelining_ablation () =
  (* The single-stage engine needs ~2 cycles per word (3.3.3). *)
  let sram, rev = make () in
  let r1 = Revoker.create ~pipelined:false ~core:Core_model.Flute ~sram ~rev () in
  Revoker.kick r1 ~start:heap_base ~stop:(heap_base + heap_size);
  let slow = Revoker.run_to_completion r1 in
  let r2 = Revoker.create ~pipelined:true ~core:Core_model.Flute ~sram ~rev () in
  Revoker.kick r2 ~start:heap_base ~stop:(heap_base + heap_size);
  let fast = Revoker.run_to_completion r2 in
  Alcotest.(check bool)
    (Printf.sprintf "2-stage ~2x faster (%d vs %d)" fast slow)
    true
    (float_of_int slow /. float_of_int fast > 1.8)

let test_ibex_bus_slower () =
  let sram, rev = make () in
  let rf = Revoker.create ~core:Core_model.Flute ~sram ~rev () in
  Revoker.kick rf ~start:heap_base ~stop:(heap_base + heap_size);
  let flute = Revoker.run_to_completion rf in
  let ri = Revoker.create ~core:Core_model.Ibex ~sram ~rev () in
  Revoker.kick ri ~start:heap_base ~stop:(heap_base + heap_size);
  let ibex = Revoker.run_to_completion ri in
  Alcotest.(check bool)
    (Printf.sprintf "Ibex 33-bit bus ~2x slower (%d vs %d)" ibex flute)
    true
    (float_of_int ibex /. float_of_int flute > 1.8)

let test_race_snoop () =
  (* Paper 3.3.3's race: revoker loads A, app stores to A, stale word must
     not be written back.  We interleave ticks with a store to the word
     the engine has in flight. *)
  let sram, rev = make () in
  let freed = cap_at (heap_base + 0x100) 64 in
  let slot = heap_base + 0x40 in
  store_cap sram slot freed;
  Revbits.paint rev ~addr:(heap_base + 0x100) ~len:64;
  let r = Revoker.create ~core:Core_model.Flute ~sram ~rev () in
  Revoker.kick r ~start:heap_base ~stop:(heap_base + 0x80);
  (* Tick until the engine has loaded the slot (9th word: 8 ticks in). *)
  for _ = 1 to 9 do
    Revoker.tick r
  done;
  (* Main pipeline overwrites the word with fresh integer data. *)
  Sram.write32 sram slot 0xdeadbeef;
  Sram.write32 sram (slot + 4) 0x12345678;
  Revoker.snoop_store r slot;
  ignore (Revoker.run_to_completion r);
  (* The fresh data must survive: the engine reloaded and found an
     untagged word, so wrote nothing back. *)
  Alcotest.(check int) "fresh low word intact" 0xdeadbeef
    (Sram.read32 sram slot);
  Alcotest.(check int) "fresh high word intact" 0x12345678
    (Sram.read32 sram (slot + 4));
  Alcotest.(check bool) "at least one reload" true (Revoker.race_reloads r >= 1)

(* [tick_n k] must be bit-identical to [k] successive [tick]s — sweep
   results, statistics and epoch transitions — including through bus
   stalls (Ibex's narrow bus inserts them on every word) and a store
   snoop landing at the same granted-cycle offset on both engines. *)
let test_tick_n_equivalence () =
  let mk core =
    let sram, rev = make () in
    let freed = cap_at (heap_base + 0x100) 64 in
    store_cap sram (heap_base + 0x1000) freed;
    store_cap sram (heap_base + 0x40) freed;
    Revbits.paint rev ~addr:(heap_base + 0x100) ~len:64;
    let r = Revoker.create ~core ~sram ~rev () in
    Revoker.kick r ~start:heap_base ~stop:(heap_base + 0x2000);
    (sram, r)
  in
  List.iter
    (fun core ->
      let sram_a, a = mk core and sram_b, b = mk core in
      (* grant the same cycle schedule: singly to [a], batched to [b],
         with a mid-sweep snoop at the same point on both *)
      let grants = [ 1; 7; 3; 64; 1; 1; 128; 513 ] in
      List.iteri
        (fun gi k ->
          for _ = 1 to k do
            Revoker.tick a
          done;
          Revoker.tick_n b k;
          if gi = 3 then begin
            Sram.write32 sram_a (heap_base + 0x40) 0xdeadbeef;
            Sram.write32 sram_b (heap_base + 0x40) 0xdeadbeef;
            Revoker.snoop_store a (heap_base + 0x40);
            Revoker.snoop_store b (heap_base + 0x40)
          end;
          Alcotest.(check bool) "sweeping state equal" (Revoker.sweeping a)
            (Revoker.sweeping b);
          Alcotest.(check int) "words swept equal" (Revoker.words_swept a)
            (Revoker.words_swept b);
          Alcotest.(check int) "busy cycles equal" (Revoker.busy_cycles a)
            (Revoker.busy_cycles b))
        grants;
      ignore (Revoker.run_to_completion a);
      Revoker.tick_n b 1_000_000;
      Alcotest.(check int) "epoch equal" (Revoker.epoch a) (Revoker.epoch b);
      Alcotest.(check int) "caps invalidated equal" (Revoker.caps_invalidated a)
        (Revoker.caps_invalidated b);
      Alcotest.(check int) "race reloads equal" (Revoker.race_reloads a)
        (Revoker.race_reloads b);
      Alcotest.(check bool) "stale tag cleared on both" false
        (Sram.tag_at sram_a (heap_base + 0x1000)
        || Sram.tag_at sram_b (heap_base + 0x1000));
      (* a non-sweeping engine must consume batched grants for free *)
      Revoker.tick_n b 1_000_000;
      Alcotest.(check int) "idle grants cost nothing" (Revoker.busy_cycles a)
        (Revoker.busy_cycles b))
    [ Core_model.Flute; Core_model.Ibex ]

let test_mmio_interface () =
  let sram, rev = make () in
  let freed = cap_at (heap_base + 0x100) 64 in
  store_cap sram (heap_base + 0x800) freed;
  Revbits.paint rev ~addr:(heap_base + 0x100) ~len:64;
  let r = Revoker.create ~core:Core_model.Flute ~sram ~rev () in
  let bus = Bus.create () in
  Bus.add_sram bus sram;
  Revoker.attach r bus ~base:0x1000_0000;
  let reg n = 0x1000_0000 + n in
  Bus.write bus ~width:4 (reg 0) heap_base;
  Bus.write bus ~width:4 (reg 4) (heap_base + 0x1000);
  let epoch0 = Bus.read bus ~width:4 (reg 8) in
  Bus.write bus ~width:4 (reg 12) 1;
  Alcotest.(check int) "epoch bumped by kick" (epoch0 + 1)
    (Bus.read bus ~width:4 (reg 8));
  (* kick while sweeping: no effect *)
  Bus.write bus ~width:4 (reg 12) 1;
  Alcotest.(check int) "double kick ignored" (epoch0 + 1)
    (Bus.read bus ~width:4 (reg 8));
  ignore (Revoker.run_to_completion r);
  Alcotest.(check int) "epoch completed" (epoch0 + 2)
    (Bus.read bus ~width:4 (reg 8));
  Alcotest.(check bool) "stale invalidated" false
    (Sram.tag_at sram (heap_base + 0x800))

let test_bus_snoop_wired () =
  (* Stores through the Bus must reach the engine's snoop. *)
  let sram, rev = make () in
  let bus = Bus.create () in
  Bus.add_sram bus sram;
  let r = Revoker.create ~core:Core_model.Flute ~sram ~rev () in
  Revoker.attach r bus ~base:0x1000_0000;
  Revoker.kick r ~start:heap_base ~stop:(heap_base + 0x100);
  Revoker.tick r;
  Revoker.tick r;
  (* The engine now has words in flight at heap_base and heap_base+8. *)
  Bus.write bus ~width:4 heap_base 42;
  Alcotest.(check bool) "snoop saw the store" true (Revoker.race_reloads r >= 1)

(* --- core model ------------------------------------------------------- *)

(* The cycles of an instruction that is neither a taken branch nor
   trapping. *)
let cycles p ~load_filter insn =
  Cheriot_isa.Machine.cost_cycles (Core_model.insn_cost p ~load_filter insn)

let test_core_model_costs () =
  let flute = Core_model.params_of Flute in
  let ibex = Core_model.params_of Ibex in
  let clc = Cheriot_isa.Insn.Clc (10, 2, 0) in
  let lw =
    Cheriot_isa.Insn.Load { signed = true; width = W; rd = 10; rs1 = 2; off = 0 }
  in
  (* Flute: 64-bit bus, filter free.  Ibex: two beats + visible filter. *)
  let c_flute_off = cycles flute ~load_filter:false clc in
  let c_flute_on = cycles flute ~load_filter:true clc in
  Alcotest.(check int) "Flute filter is free" c_flute_off c_flute_on;
  let c_ibex_off = cycles ibex ~load_filter:false clc in
  let c_ibex_on = cycles ibex ~load_filter:true clc in
  Alcotest.(check int) "Ibex filter costs one cycle" (c_ibex_off + 1) c_ibex_on;
  let w_ibex = cycles ibex ~load_filter:true lw in
  Alcotest.(check bool) "Ibex cap load dearer than word load" true
    (c_ibex_on > w_ibex);
  let w_flute = cycles flute ~load_filter:true lw in
  Alcotest.(check int) "Flute cap load same as word load" w_flute c_flute_on

(* --- Perf dispatch parity --------------------------------------------- *)

(* The cycle model must be blind to the dispatch machinery: runs of the
   same program on both tiers charge identical cycles and instructions
   and land in identical machine state.  The program mixes the event
   classes the model prices differently (loads, stores, ALU,
   taken/untaken branches) and ends in a WFI with no interrupt source,
   covering the jit's idle-round charging too. *)
module Machine = Cheriot_isa.Machine
module Asm = Cheriot_isa.Asm
module Insn = Cheriot_isa.Insn
module Coremark = Cheriot_workloads.Coremark

let code_base = 0x1_0000
let data_base = 0x1_8000

let exec_cap base len =
  Capability.set_bounds
    (Capability.with_address Capability.root_executable base)
    ~length:len ~exact:false

let mem_cap base len =
  Capability.set_bounds
    (Capability.with_address Capability.root_mem_rw base)
    ~length:len ~exact:false

let boot_perf program =
  let bus = Bus.create () in
  let sram = Sram.create ~base:code_base ~size:0xA000 in
  Bus.add_sram bus sram;
  let m = Machine.create bus in
  Asm.load (Asm.assemble ~origin:code_base program) sram;
  m.Machine.pcc <- exec_cap code_base 0x400;
  Machine.set_reg m 4 (mem_cap data_base 16);
  m

let parity_program =
  let t0 = Insn.reg_t0 and t1 = Insn.reg_t1 in
  [
    Asm.Label "top";
    Asm.I (Insn.Load { signed = true; width = W; rd = t0; rs1 = 4; off = 0 });
    Asm.I (Insn.Op_imm (Add, t0, t0, 1));
    Asm.I (Insn.Store { width = W; rs2 = t0; rs1 = 4; off = 0 });
    Asm.Li (t1, 10);
    Asm.B (Insn.Lt, t0, t1, "top");
    Asm.I Insn.Wfi;
  ]

(* The [Perf.Jit] columns checked against Reference, each with the
   hotness it pins.  These programs enter their blocks only a few times,
   so at the default threshold the jit runs its identity plan
   throughout; "jit@1" compiles every block on its first entry, so the
   timed round also runs under compiled check plans. *)
let tiers = [ ("jit", ignore); ("jit@1", Cheriot_proptest.Props.pin_hot 1) ]

let perf_run ?(fuel = 1_000_000) ?(core = Core_model.Ibex) ?(pin = ignore)
    dispatch program setup =
  let m = boot_perf program in
  setup m;
  pin m;
  let p = Perf.create ~dispatch ~params:(Core_model.params_of core) m in
  let r = Perf.run ~fuel p in
  (r, p.Perf.stats, m.Machine.mcycle, Machine.state_hash m)

(* A tier's run against Reference's: the stop, the four simulated
   totals, the final [mcycle] and the state hash. *)
let check_same_run name (r0, s0, cy0, h0) (r, s, cy, h) =
  let what w = Printf.sprintf "%s (%s)" w name in
  Alcotest.(check bool) (what "same stop") true (r = r0);
  Alcotest.(check int) (what "cycles") s0.Perf.cycles s.Perf.cycles;
  Alcotest.(check int) (what "instructions") s0.Perf.instructions
    s.Perf.instructions;
  Alcotest.(check int) (what "mem_busy") s0.Perf.mem_busy s.Perf.mem_busy;
  Alcotest.(check int) (what "traps") s0.Perf.traps s.Perf.traps;
  Alcotest.(check int) (what "mcycle") cy0 cy;
  Alcotest.(check string) (what "state hash") h0 h

(* Every tier against Reference. *)
let check_tiers_agree ?fuel ?core program setup =
  let run ?pin d = perf_run ?fuel ?core ?pin d program setup in
  let ((r0, s0, _, _) as run0) = run Perf.Reference in
  List.iter
    (fun (name, pin) -> check_same_run name run0 (run ~pin Perf.Jit))
    tiers;
  (r0, s0)

let test_perf_dispatch_parity () =
  let r_ref, _ = check_tiers_agree parity_program (fun _ -> ()) in
  Alcotest.(check bool) "all paths reach the WFI" true
    (r_ref = Machine.Step_waiting);
  (* the jit columns really ran translated blocks, the reference none *)
  let block_stats ?pin dispatch =
    let m = boot_perf parity_program in
    Option.iter (fun pin -> pin m) pin;
    ignore
      (Perf.run (Perf.create ~dispatch ~params:(Core_model.params_of Ibex) m));
    Machine.block_stats m
  in
  List.iter
    (fun (name, pin) ->
      let s = block_stats ~pin Perf.Jit in
      Alcotest.(check bool) ("blocks ran: " ^ name) true
        (s.Machine.block_hits > 0 && Machine.avg_block_len s > 1.0))
    tiers;
  let s = block_stats Perf.Reference in
  Alcotest.(check int) "no block activity on reference" 0
    (s.Machine.block_hits + s.Machine.block_misses)

(* A [Csr] read of [mcycle] in the middle of a batched round must see
   every instruction before it charged: 1 + 1 + 3 + 1 cycles on Ibex. *)
let test_perf_mcycle_read () =
  let a0 = Insn.reg_a0 and t0 = Insn.reg_t0 in
  let program =
    [
      Asm.I (Insn.Op (Add, t0, t0, t0));
      Asm.I (Insn.Op (Add, t0, t0, t0));
      Asm.I (Insn.Mul_div (Mul, t0, t0, t0));
      Asm.I (Insn.Op (Add, t0, t0, t0));
      Asm.I (Insn.Csr (Csrrs, a0, 0, Cheriot_isa.Csr.mcycle));
      Asm.I Insn.Ebreak;
    ]
  in
  ignore (check_tiers_agree program (fun _ -> ()));
  (* the state hashes agree, so every tier read what Reference read *)
  let m = boot_perf program in
  ignore (Perf.run (Perf.create ~params:(Core_model.params_of Ibex) m));
  Alcotest.(check int) "a0 = mcycle before the read" 6 (Machine.reg_int m a0)

(* [~fuel] counts instructions on every tier, including fuel that runs
   out in the middle of a block or chained round. *)
let test_perf_fuel_counts_instructions () =
  let t0 = Insn.reg_t0 in
  let program =
    [
      Asm.Label "loop";
      Asm.I (Insn.Op_imm (Add, t0, t0, 1));
      Asm.I (Insn.Op_imm (Add, t0, t0, 2));
      Asm.J (0, "loop");
    ]
  in
  List.iter
    (fun fuel ->
      let r, s = check_tiers_agree ~fuel program (fun _ -> ()) in
      Alcotest.(check bool) "fuel ran out" true (r <> Machine.Step_halted);
      Alcotest.(check int)
        (Printf.sprintf "%d instructions retired" fuel)
        fuel s.Perf.instructions)
    [ 1; 2; 100; 1000 ]

(* Point MTCC at [handler] (an [Ebreak] by default): the first trap or
   interrupt runs it. *)
let handler_base = code_base + 0x300

let install_halting_handler ?(handler = [ Asm.I Insn.Ebreak ])
    (m : Machine.t) =
  let sram =
    match Bus.sram_at m.Machine.bus ~size:4 handler_base with
    | Some s -> s
    | None -> Alcotest.fail "no sram at the handler"
  in
  Asm.load (Asm.assemble ~origin:handler_base handler) sram;
  Machine.flush_decode_cache m;
  m.Machine.mtcc <- exec_cap handler_base 0x40

(* The revoker tests' guest: an Ibex hardware revoker on the bus at
   [mmio], set to sweep 4 KiB of a heap SRAM of its own, its registers
   reached through s0, and t1 = 1 to write to [kick]. *)
let mmio = 0x1000_0000
let swept_bytes = 0x1000

let attach_revoker (m : Machine.t) =
  let sram = Sram.create ~base:heap_base ~size:heap_size in
  let rev = Revbits.create ~heap_base ~heap_size () in
  Bus.add_sram m.Machine.bus sram;
  let r = Revoker.create ~core:Core_model.Ibex ~sram ~rev () in
  Revoker.attach r m.Machine.bus ~base:mmio;
  Bus.write m.Machine.bus ~width:4 mmio heap_base;
  Bus.write m.Machine.bus ~width:4 (mmio + 4) (heap_base + swept_bytes);
  Machine.set_reg m Insn.reg_s0 (mem_cap mmio 16);
  Machine.set_reg_int m Insn.reg_t1 1;
  r

let kick =
  Asm.I (Insn.Store { width = W; rs2 = Insn.reg_t1; rs1 = Insn.reg_s0; off = 12 })

(* Every tier of [program] with a revoker attached against Reference,
   as [check_tiers_agree] checks them, and the revoker's busy cycles,
   words swept and epoch.  Returns Reference's run, its revoker's
   counts and its machine. *)
let check_revoker_tiers_agree program setup =
  let run ?(pin = ignore) dispatch =
    let m = boot_perf program in
    setup m;
    pin m;
    let r = attach_revoker m in
    let p =
      Perf.create ~revoker:r ~dispatch ~params:(Core_model.params_of Ibex) m
    in
    let stop = Perf.run p in
    ( (stop, p.Perf.stats, m.Machine.mcycle, Machine.state_hash m),
      (Revoker.busy_cycles r, Revoker.words_swept r, Revoker.epoch r),
      m )
  in
  let ((run0, (busy0, swept0, epoch0), _) as ref_run) = run Perf.Reference in
  List.iter
    (fun (name, pin) ->
      let run, (busy, swept, epoch), _ = run ~pin Perf.Jit in
      check_same_run name run0 run;
      let what w = Printf.sprintf "%s (%s)" w name in
      Alcotest.(check int) (what "busy cycles") busy0 busy;
      Alcotest.(check int) (what "words swept") swept0 swept;
      Alcotest.(check int) (what "epoch") epoch0 epoch)
    tiers;
  ref_run

(* A revoker kicked by an MMIO store in the middle of a block is only
   granted the idle cycles of the instructions after the kick: ten ALU
   ops, the kick, three more, then EBREAK on Ibex. *)
let test_perf_revoker_kick_mid_block () =
  let t0 = Insn.reg_t0 in
  let program =
    List.init 10 (fun _ -> Asm.I (Insn.Op_imm (Add, t0, t0, 1)))
    @ [ kick ]
    @ List.init 3 (fun _ -> Asm.I (Insn.Op_imm (Add, t0, t0, 1)))
    @ [ Asm.I Insn.Ebreak ]
  in
  let _, (busy, swept, _), _ = check_revoker_tiers_agree program ignore in
  Alcotest.(check (pair int int)) "reference: busy cycles, words swept" (5, 1)
    (busy, swept)

(* A WFI wait's idle cycles go to the revoker too: the guest kicks a
   sweep, arms the timer with interrupts on and waits.  The sweep runs
   in the wait's idle cycles and ends before the timer fires: the
   interrupt handler reads the revoker's epoch (even once a sweep has
   ended) into a0 and halts. *)
let test_perf_revoker_idle_grant () =
  let t0 = Insn.reg_t0 and t2 = Insn.reg_t2 and a0 = Insn.reg_a0 in
  let deadline = 4000 in
  let program =
    [
      kick;
      Asm.I (Insn.Csr (Csrrw, 0, t2, Cheriot_isa.Csr.mtimecmp));
      Asm.I (Insn.Csr (Csrrs, 0, t0, Cheriot_isa.Csr.mstatus));
      Asm.I Insn.Wfi;
    ]
  in
  let setup (m : Machine.t) =
    install_halting_handler m
      ~handler:
        [
          Asm.I
            (Insn.Load
               { signed = false; width = W; rd = a0; rs1 = Insn.reg_s0; off = 8 });
          Asm.I Insn.Ebreak;
        ];
    Machine.set_reg_int m t2 deadline;
    Machine.set_reg_int m t0 (1 lsl Cheriot_isa.Csr.mstatus_mie_bit)
  in
  let (r, s, cycles, _), (busy, swept, epoch), m =
    check_revoker_tiers_agree program setup
  in
  Alcotest.(check bool) "halts in the handler" true (r = Machine.Step_halted);
  Alcotest.(check int) "one interrupt delivered" 1 s.Perf.traps;
  Alcotest.(check bool) "the timer fired" true (cycles >= deadline);
  Alcotest.(check int) "the whole window swept" (swept_bytes / 8) swept;
  Alcotest.(check int) "one sweep begun and ended" 2 epoch;
  Alcotest.(check int) "the sweep ended before the interrupt" epoch
    (Machine.reg_int m a0);
  Alcotest.(check bool) "the sweep took idle cycles" true (busy > 0)

let spin_program =
  [ Asm.Label "spin"; Asm.I (Insn.Op_imm (Add, 5, 5, 1)); Asm.J (0, "spin") ]

(* With interrupts enabled and the timer armed, the jit tier must
   deliver the timer interrupt at exactly the same cycle as the
   reference tier (it runs reference rounds in that regime — a
   mid-block comparator crossing would otherwise be observable). *)
let test_perf_timer_parity () =
  let setup (m : Machine.t) =
    install_halting_handler m;
    m.Machine.mtimecmp <- 100;
    m.Machine.mie <- true
  in
  let r, s = check_tiers_agree spin_program setup in
  Alcotest.(check bool) "halts in the ISR" true (r = Machine.Step_halted);
  Alcotest.(check int) "one interrupt delivered" 1 s.Perf.traps

(* The same regime entered mid-round: a sentry [Jalr] enables
   interrupts with the timer already armed.  The loop runs a few times
   with interrupts off, so its blocks are translated and linked; then
   the [Jalr] jumps back to its head through an enabling sentry, over
   and over.  A batched round must stop at that edge, or it would chain
   on into the loop past the comparator crossing. *)
let test_perf_sentry_arms_timer () =
  let t0 = Insn.reg_t0 and t1 = Insn.reg_t1 and t2 = Insn.reg_t2 in
  let program =
    [ Asm.Label "head"; Asm.I (Insn.Op_imm (Add, t0, t0, 1)) ]
    @ List.init 3 (fun _ -> Asm.I (Insn.Op_imm (Add, t2, t2, 1)))
    @ [ Asm.B (Insn.Lt, t0, t1, "head"); Asm.I (Insn.Jalr (0, 8, 0)) ]
  in
  let setup (m : Machine.t) =
    install_halting_handler m;
    m.Machine.mtimecmp <- 43;
    Machine.set_reg_int m t1 3;
    let head = exec_cap code_base 0x400 in
    match Capability.seal_sentry head Cheriot_core.Otype.Sentry_enable with
    | Ok sentry -> Machine.set_reg m 8 sentry
    | Error e -> Alcotest.fail e
  in
  let r, s = check_tiers_agree program setup in
  Alcotest.(check bool) "halts in the ISR" true (r = Machine.Step_halted);
  Alcotest.(check int) "one interrupt delivered" 1 s.Perf.traps

(* --- the cycle ledger ---------------------------------------------- *)

(* A harness reports only its own runs: a second [Perf.create] on a
   machine a first harness ran zeroes the machine's ledger, and the
   first harness's published totals do not move. *)
let test_perf_ledger_per_harness () =
  List.iter
    (fun dispatch ->
      let m = boot_perf spin_program in
      let params = Core_model.params_of Ibex in
      let p1 = Perf.create ~dispatch ~params m in
      ignore (Perf.run ~fuel:1000 p1);
      let cycles1 = m.Machine.mcycle in
      let p2 = Perf.create ~dispatch ~params m in
      ignore (Perf.run ~fuel:500 p2);
      let s1 = p1.Perf.stats and s2 = p2.Perf.stats in
      Alcotest.(check (pair int int)) "first: its instructions and cycles"
        (1000, cycles1) (s1.Perf.instructions, s1.Perf.cycles);
      Alcotest.(check (pair int int)) "second: only its own"
        (500, m.Machine.mcycle - cycles1)
        (s2.Perf.instructions, s2.Perf.cycles))
    [ Perf.Reference; Perf.Jit ]

(* A reference round allocates no more under [Perf.run] than under
   [Machine.run]: CoreMark RV32E on Ibex, in minor words per
   instruction.  Any allocation per step is at least two words. *)
let test_perf_reference_allocation () =
  let config = Core_model.config ~cheri:false Ibex in
  let words_per_insn run =
    let m = Coremark.setup ~iterations:10 config in
    let before = Gc.minor_words () in
    let r = run m in
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool) "halts" true (r = Machine.Step_halted);
    words /. float_of_int m.Machine.minstret
  in
  let machine =
    words_per_insn (fun m ->
        fst (Machine.run ~fuel:20_000_000 ~dispatch:Machine.Dispatch_ref m))
  in
  let perf =
    words_per_insn (fun m ->
        Perf.run ~fuel:20_000_000
          (Perf.create ~params:(Core_model.params_of Ibex) m))
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "Perf.run %.4f, Machine.run %.4f minor words per instruction" perf
       machine)
    true
    (perf -. machine < 0.05)

(* The reference step decodes every instruction afresh and keeps what
   the decoder built: [exec] gets the decoder's own [Some insn], and an
   [OP-IMM] word's op is looked up alone, not paired with its immediate
   in an option.  CoreMark RV32E on Ibex under [Machine.run] allocates
   9.9 minor words per instruction; re-wrapping the option (2 words a
   step) and pairing the op (5 words an [addi]) made it 13.3. *)
let ref_words_bound = 10.5

let test_reference_step_allocation () =
  let m = Coremark.setup ~iterations:10 (Core_model.config ~cheri:false Ibex) in
  let before = Gc.minor_words () in
  let r, _ = Machine.run ~fuel:20_000_000 ~dispatch:Machine.Dispatch_ref m in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "halts" true (r = Machine.Step_halted);
  let per_insn = words /. float_of_int m.Machine.minstret in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words per instruction, under %.1f" per_insn
       ref_words_bound)
    true
    (per_insn < ref_words_bound)

(* --- per-block cost tables ------------------------------------------ *)

(* Every instruction kind the model prices, in straight-line runs and at
   block ends: ALU, multiply and divide, every load and store width,
   capability loads and stores, capability arithmetic, untaken and
   taken branches, both jumps, CSR and SCR reads, and a final [Ecall]
   whose handler halts. *)
let every_kind_program =
  let open Insn in
  let t0 = reg_t0 and t1 = reg_t1 and t2 = reg_t2 in
  let a0 = reg_a0 and a1 = reg_a1 and a2 = reg_a2 and a3 = reg_a3 in
  let i x = Asm.I x in
  [ i (Lui (t0, 0x12)); i (Op_imm (Add, t0, t0, 5)); i (Op (Sub, t2, t0, a0)) ]
  @ List.map
      (fun op -> i (Mul_div (op, t2, t0, t0)))
      [ Mul; Mulh; Mulhsu; Mulhu; Div; Divu; Rem; Remu ]
  @ List.map
      (fun (signed, width) -> i (Load { signed; width; rd = a0; rs1 = 4; off = 0 }))
      [ (true, B); (false, B); (true, H); (false, H); (true, W) ]
  @ List.map (fun width -> i (Store { width; rs2 = t0; rs1 = 4; off = 8 })) [ B; H; W ]
  @ [
      i (Csc (4, 4, 16));
      i (Clc (a1, 4, 16));
      i (Auipcc (t1, 0));
      i (Cmove (a2, 4));
      i (Cincaddrimm (a2, a2, 8));
      Asm.Li (a3, 8);
      i (Csetbounds (a2, a2, a3));
      i (Csetboundsexact (a2, a2, a3));
      i (Csetboundsimm (a2, a2, 4));
      i (Cincaddr (a2, a2, 0));
      i (Cget (Len, a0, a2));
      i (Cget (Tag, a0, a2));
      i (Crrl (a0, a3));
      i (Cram (a0, a3));
      i (Csub (a0, a2, 4));
      i (Ctestsubset (a0, 4, a2));
      i (Csetequalexact (a0, a2, a2));
      i (Candperm (a2, a2, a3));
      i (Ccleartag (a2, a2));
      i (Csetaddr (a2, 4, a3));
      Asm.B (Eq, t0, 0, "untaken");
      Asm.Label "untaken";
      Asm.B (Ne, t0, 0, "taken");
      Asm.Label "taken";
      Asm.J (0, "jal");
      Asm.Label "jal";
      Asm.La_int (t2, "jalr");
      i (Csetaddr (t1, t1, t2));
      i (Jalr (reg_ra, t1, 0));
      Asm.Label "jalr";
      i (Csr (Csrrs, a0, 0, Cheriot_isa.Csr.mcycle));
      i (Cspecialrw (a1, MTDC, 0));
      i Ecall;
    ]

let every_kind_setup ~load_filter (m : Machine.t) =
  install_halting_handler m;
  m.Machine.load_filter <- load_filter;
  Machine.set_reg m 4 (mem_cap data_base 64)

(* The bus beats of an instruction's data access, from its width: one
   per [bus_bytes] moved, none without an access. *)
let bus_beats (p : Core_model.params) (insn : Insn.t) =
  let bytes =
    match insn with
    | Load { width; _ } | Store { width; _ } -> (
        match width with B -> 1 | H -> 2 | W -> 4)
    | Clc _ | Csc _ -> 8
    | _ -> 0
  in
  (bytes + p.bus_bytes - 1) / p.bus_bytes

(* Prefix-sum charging equals per-instruction charging: every
   translated block's table prices each instruction at its
   [insn_cost], whose bus-busy cycles are its access's bus beats, and
   whole runs agree on every tier, for both cores with and without the
   load filter. *)
let test_cost_tables_match_events () =
  let words =
    Array.length (Asm.assemble ~origin:code_base every_kind_program).Asm.words
  in
  List.iter
    (fun core ->
      List.iter
        (fun load_filter ->
          let setup = every_kind_setup ~load_filter in
          let _, s = check_tiers_agree ~core every_kind_program setup in
          Alcotest.(check int) "only the final ecall traps" 1 s.Perf.traps;
          let p = Core_model.params_of core in
          let m = boot_perf every_kind_program in
          setup m;
          ignore (Perf.run (Perf.create ~dispatch:Perf.Jit ~params:p m));
          let priced = Hashtbl.create 64 in
          Cheriot_isa.Decode_cache.iter
            (fun b ->
              Array.iteri
                (fun k insn ->
                  let d = b.Machine.b_cost.(k + 1) - b.Machine.b_cost.(k) in
                  let what w = Format.asprintf "%s %a" w Insn.pp insn in
                  Alcotest.(check int) (what "cycles")
                    (cycles p ~load_filter insn)
                    (Machine.cost_cycles d);
                  Alcotest.(check int) (what "bus-busy cycles")
                    (bus_beats p insn) (Machine.cost_busy d);
                  Hashtbl.replace priced (b.Machine.b_start + (4 * k)) ())
                b.Machine.b_insns)
            m.Machine.bcache;
          Alcotest.(check int) "every program word and the handler priced"
            (words + 1) (Hashtbl.length priced))
        [ true; false ])
    [ Core_model.Flute; Core_model.Ibex ]

let suite =
  [
    Alcotest.test_case "sweep invalidates stale caps" `Quick
      test_sweep_invalidates_stale;
    Alcotest.test_case "pipelining ablation (1 vs 2 stage)" `Quick
      test_pipelining_ablation;
    Alcotest.test_case "Ibex narrow bus halves sweep rate" `Quick
      test_ibex_bus_slower;
    Alcotest.test_case "store race: snoop forces reload" `Quick
      test_race_snoop;
    Alcotest.test_case "tick_n bit-identical to repeated tick" `Quick
      test_tick_n_equivalence;
    Alcotest.test_case "MMIO start/end/epoch/kick" `Quick test_mmio_interface;
    Alcotest.test_case "bus store snoop wired" `Quick test_bus_snoop_wired;
    Alcotest.test_case "core model costs" `Quick test_core_model_costs;
    Alcotest.test_case "perf harness blind to dispatch path" `Quick
      test_perf_dispatch_parity;
    Alcotest.test_case "timer interrupt cycle-exact under block dispatch"
      `Quick test_perf_timer_parity;
    Alcotest.test_case "sentry enabling an armed timer ends a batched round"
      `Quick test_perf_sentry_arms_timer;
    Alcotest.test_case "mcycle read mid-round sees every charge" `Quick
      test_perf_mcycle_read;
    Alcotest.test_case "perf fuel counts instructions on every tier" `Quick
      test_perf_fuel_counts_instructions;
    Alcotest.test_case "revoker kicked mid-block: tiers agree" `Quick
      test_perf_revoker_kick_mid_block;
    Alcotest.test_case "revoker sweeps in WFI idle cycles: tiers agree"
      `Quick test_perf_revoker_idle_grant;
    Alcotest.test_case "block cost tables = per-event costs" `Quick
      test_cost_tables_match_events;
    Alcotest.test_case "a harness reports only its own runs" `Quick
      test_perf_ledger_per_harness;
    Alcotest.test_case "reference rounds allocate alike under Perf" `Quick
      test_perf_reference_allocation;
    Alcotest.test_case "a reference step keeps the decoder's allocation"
      `Quick test_reference_step_allocation;
  ]
