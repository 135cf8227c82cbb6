(* Differential oracle for the dispatch tiers.

   [Machine.step] is the reference interpreter and the machine's only
   per-instruction path: it re-reads and re-decodes the instruction
   word through the bus on every step.  The jit tier
   ([Machine.run ~dispatch:Dispatch_jit]) executes chained rounds of
   translated blocks with interrupt checks only at round boundaries and
   bookkeeping deferred across simple instructions, following direct
   block-to-block links and running hot blocks under optimized check
   plans from [Ir.optimize].  It falls back to [step] for a word it
   cannot translate.  The two must be observationally
   indistinguishable.

   The lockstep drivers, interrupt-injection schedules and the
   state-comparison predicate live in [Cheriot_proptest]
   ({!Props.flat_lockstep}, {!Props.flat_interrupt_lockstep},
   {!Obs.compare_states}); this file is the property list, plus the
   deterministic lockstep over the coremark, allocator and IoT ISA
   programs and the code-in-MMIO regression.  The multi-compartment
   versions — switcher cross-calls, allocator churn, revocation sweeps
   and code patches in the loop — run in the [proptest] suite. *)

open Cheriot_core
open Cheriot_isa
module Bus = Cheriot_mem.Bus
module Core_model = Cheriot_uarch.Core_model
module Perf = Cheriot_uarch.Perf
module Boot = Cheriot_proptest.Boot
module Props = Cheriot_proptest.Props

(* The same oracle on deterministic workloads with long traces: each
   ISA program on the reference and on the jit at its default hotness,
   again at hot threshold 2, which moves the compile to a block's
   second entry, and at hot threshold 1, which runs every block under
   its compiled plan from the first entry.  Every run must halt with
   the reference's retired count and state hash.  On coremark
   ([engages]) the jit at its default hotness must also have eliminated
   a check: an optimizer that never engages on a real workload is a
   regression, not a neutral result. *)
let lockstep_programs =
  let open Cheriot_workloads in
  [
    ( "coremark",
      true,
      fun () ->
        Coremark.setup ~iterations:2
          (Core_model.config ~cheri:true ~load_filter:true Core_model.Ibex) );
    ("alloc", false, fun () -> Alloc_bench.isa_setup ~rounds:20 ());
    ("iot", false, fun () -> Iot_app.isa_setup ~packets:20 ());
  ]

let test_lockstep ~engages build () =
  let run ?hot_threshold dispatch =
    let m = build () in
    (match hot_threshold with
    | Some t ->
        m.Machine.hot_threshold <- t;
        m.Machine.hot_adaptive <- false
    | None -> ());
    let r, insns = Machine.run ~dispatch m in
    Alcotest.(check bool) "halts" true (r = Machine.Step_halted);
    (insns, Machine.state_hash m, Machine.block_stats m)
  in
  let ref_insns, ref_hash, _ = run Machine.Dispatch_ref in
  List.iter
    (fun (what, hot_threshold) ->
      let insns, hash, s = run ?hot_threshold Machine.Dispatch_jit in
      Alcotest.(check int)
        ("retired instructions (" ^ what ^ ")")
        ref_insns insns;
      Alcotest.(check string) ("state hash (" ^ what ^ ")") ref_hash hash;
      if engages && hot_threshold = None then
        Alcotest.(check bool) "the optimizer eliminated a check" true
          (s.Machine.checks_eliminated >= 1))
    [
      ("jit", None);
      ("jit@2", Some 2);
      ("jit compiled on entry", Some 1);
    ]

(* --- code in MMIO ---------------------------------------------------- *)

(* Words fetched from a device are never translated, and device writes
   do not snoop, so every tier must re-read such a word through the bus
   each time it executes.  The program calls a two-word routine held in
   a RAM-backed device ([addi a1,a1,1; ret]), stores [addi a1,a1,100]
   over the routine's first word through the device, and calls it
   again: a1 = 1 + 100.  A tier that serves the first decode again ends
   with a1 = 2. *)
let dev_base = 0x9000
let a1 = Insn.reg_a1

let mmio_boot mode =
  let call_at pc = Insn.Jal (Insn.reg_ra, dev_base - pc) in
  let code_base = Boot.code_base in
  let m, _ =
    Boot.code_only ~mode ~device:true
      (List.map Encode.encode
         Insn.
           [
             call_at code_base;
             Store { width = W; rs2 = reg_t0; rs1 = reg_gp; off = 0 };
             call_at (code_base + 8);
             Ebreak;
           ])
  in
  List.iteri
    (fun i insn ->
      Bus.write m.Machine.bus ~width:4
        (dev_base + (4 * i))
        (Encode.encode insn))
    Insn.[ Op_imm (Add, a1, a1, 1); Jalr (reg_zero, reg_ra, 0) ];
  (* the routine lies outside the boot PCC's code-region bounds *)
  m.Machine.pcc <-
    Capability.with_address Capability.root_executable code_base;
  (match mode with
  | Machine.Cheriot ->
      Machine.set_reg m Insn.reg_gp
        (Capability.set_bounds
           (Capability.with_address Capability.root_mem_rw dev_base)
           ~length:16 ~exact:true)
  | Machine.Rv32 -> Machine.set_reg_int m Insn.reg_gp dev_base);
  Machine.set_reg_int m Insn.reg_t0
    (Encode.encode (Insn.Op_imm (Add, a1, a1, 100)));
  m

let mode_name = function
  | Machine.Cheriot -> "cheriot"
  | Machine.Rv32 -> "rv32"

let check_mmio_run ~what ~ref_m m r =
  Alcotest.(check bool) (what ^ ": halts") true (r = Machine.Step_halted);
  Alcotest.(check int) (what ^ ": a1 sees the device store") 101
    (Machine.reg_int m a1);
  Alcotest.(check int) (what ^ ": minstret") ref_m.Machine.minstret
    m.Machine.minstret;
  Alcotest.(check string) (what ^ ": state hash") (Machine.state_hash ref_m)
    (Machine.state_hash m)

(* Every tier under [Machine.run], then under [Perf.run], each checked
   against that driver's reference run ([Perf] also advances [mcycle]). *)
let test_mmio_code mode () =
  let run dispatch =
    let m = mmio_boot mode in
    (m, fst (Machine.run ~dispatch m))
  in
  let ref_m, _ = run Machine.Dispatch_ref in
  List.iter
    (fun (tier, dispatch) ->
      let m, r = run dispatch in
      check_mmio_run ~what:(mode_name mode ^ " run " ^ tier) ~ref_m m r)
    [ ("ref", Machine.Dispatch_ref); ("jit", Machine.Dispatch_jit) ];
  let params = Core_model.params_of Core_model.Ibex in
  let perf_run dispatch =
    let m = mmio_boot mode in
    let p = Perf.create ~dispatch ~params m in
    let r = Perf.run p in
    (m, r, p.Perf.stats.Perf.cycles)
  in
  let ref_m, _, ref_cycles = perf_run Perf.Reference in
  List.iter
    (fun (tier, dispatch) ->
      let m, r, cycles = perf_run dispatch in
      let what = mode_name mode ^ " Perf " ^ tier in
      check_mmio_run ~what ~ref_m m r;
      Alcotest.(check int) (what ^ ": cycles") ref_cycles cycles)
    [ ("ref", Perf.Reference); ("jit", Perf.Jit) ]

(* --- out-of-bounds direct edges -------------------------------------- *)

(* The jit builds each direct edge's taken PCC at translation, and where
   the target fails the PCC bounds check it raises the bounds trap
   instead: for such an edge, cold or compiled, that trap is its only
   path.  Two images on a PCC bounded to the 0x400-byte code region,
   each with a trap handler (an [Ebreak] at [edge_handler]):
   - [late_branch_exit]: a loop whose forward [Branch] leaves the bounds
     on the 100th iteration.  At the jit's default hotness the loop
     block is by then running under a compiled plan.
   - [oob_call]: a 100-iteration loop, then a final [Jal ra] out of
     bounds, which must leave [ra] unwritten.
   In Rv32 mode nothing is bounds-checked: the same edges are taken, and
   the fetch from unmapped memory at the target raises an instruction
   access fault instead. *)
let oob_target = 0x800
let edge_handler = 0xc
let ra_sentinel = 0x1234

let late_branch_exit =
  Insn.
    [
      Op_imm (Add, reg_t0, reg_t0, 1);
      Branch (Eq, reg_t0, 6, oob_target - 4);
      Jal (reg_zero, -8);
      Ebreak;
    ]

let oob_call =
  Insn.
    [
      Op_imm (Add, reg_t0, reg_t0, 1);
      Branch (Ne, reg_t0, 6, -4);
      Jal (reg_ra, oob_target - 8);
      Ebreak;
    ]

(* The jit columns every trap case runs beside the reference: pinned
   cold, at the default hotness, and compiling on the second and on the
   first entry. *)
let jit_columns =
  [
    ("jit cold", Some max_int);
    ("jit", None);
    ("jit@2", Some 2);
    ("jit@1", Some 1);
  ]

let pin_hotness m = function
  | Some t ->
      m.Machine.hot_threshold <- t;
      m.Machine.hot_adaptive <- false
  | None -> ()

(* [m] stopped where [ref_m] did: the same trap, at the same PCC, after
   the same instructions, in the same state. *)
let check_same_trap w (ref_m : Machine.t) (m : Machine.t) =
  Alcotest.(check int) (w ^ ": mcause") ref_m.Machine.mcause m.Machine.mcause;
  Alcotest.(check int) (w ^ ": mtval") ref_m.Machine.mtval m.Machine.mtval;
  Alcotest.(check bool) (w ^ ": mepcc") true
    (Capability.equal ref_m.Machine.mepcc m.Machine.mepcc);
  Alcotest.(check int) (w ^ ": minstret") ref_m.Machine.minstret
    m.Machine.minstret;
  Alcotest.(check string) (w ^ ": state hash") (Machine.state_hash ref_m)
    (Machine.state_hash m)

let edge_boot mode prog =
  let m, _ = Boot.code_only ~mode (List.map Encode.encode prog) in
  m.Machine.mtcc <-
    Capability.with_address m.Machine.pcc (Boot.code_base + edge_handler);
  Machine.set_reg_int m 6 100;
  Machine.set_reg_int m Insn.reg_ra ra_sentinel;
  m

let test_oob_edges mode () =
  List.iter
    (fun (name, prog, edge_pc) ->
      let what col = Printf.sprintf "%s %s (%s)" (mode_name mode) name col in
      let run ?hot_threshold col =
        let m = edge_boot mode prog in
        pin_hotness m hot_threshold;
        let dispatch =
          if col = "ref" then Machine.Dispatch_ref else Machine.Dispatch_jit
        in
        let r, _ = Machine.run ~dispatch m in
        Alcotest.(check bool) (what col ^ ": halts in the handler") true
          (r = Machine.Step_halted);
        m
      in
      let ref_m = run "ref" in
      Alcotest.(check int) (what "ref" ^ ": 100 iterations") 100
        (Machine.reg_int ref_m Insn.reg_t0);
      (match mode with
      | Machine.Cheriot ->
          Alcotest.(check int) (what "ref" ^ ": CHERI fault") 28
            ref_m.Machine.mcause;
          Alcotest.(check int) (what "ref" ^ ": bounds, PCC") ((0x01 lsl 5) lor 16)
            ref_m.Machine.mtval;
          Alcotest.(check int) (what "ref" ^ ": at the edge")
            (Boot.code_base + edge_pc)
            (Capability.address ref_m.Machine.mepcc);
          Alcotest.(check int) (what "ref" ^ ": ra unwritten") ra_sentinel
            (Machine.reg_int ref_m Insn.reg_ra)
      | Machine.Rv32 ->
          Alcotest.(check int) (what "ref" ^ ": instruction access fault") 1
            ref_m.Machine.mcause;
          Alcotest.(check int) (what "ref" ^ ": at the target")
            (Boot.code_base + oob_target)
            (Capability.address ref_m.Machine.mepcc));
      List.iter
        (fun (col, hot_threshold) ->
          let m = run ?hot_threshold col in
          let w = what col in
          check_same_trap w ref_m m;
          if prog == late_branch_exit && hot_threshold = None then
            Alcotest.(check bool) (w ^ ": under a compiled plan") true
              ((Machine.block_stats m).Machine.jit_blocks_compiled >= 1))
        jit_columns;
      let params = Core_model.params_of Core_model.Ibex in
      let perf_run dispatch =
        let m = edge_boot mode prog in
        let p = Perf.create ~dispatch ~params m in
        Alcotest.(check bool) (what "Perf" ^ ": halts") true
          (Perf.run p = Machine.Step_halted);
        (p.Perf.stats, Machine.state_hash m)
      in
      let ref_st, ref_hash = perf_run Perf.Reference in
      let st, hash = perf_run Perf.Jit in
      Alcotest.(check int) (what "Perf" ^ ": cycles") ref_st.Perf.cycles
        st.Perf.cycles;
      Alcotest.(check int) (what "Perf" ^ ": traps") ref_st.Perf.traps
        st.Perf.traps;
      Alcotest.(check int) (what "Perf" ^ ": one trap") 1 st.Perf.traps;
      Alcotest.(check string) (what "Perf" ^ ": state hash") ref_hash hash)
    [
      ("late branch exit", late_branch_exit, 4);
      ("out-of-bounds call", oob_call, 8);
    ]

(* --- fall-through off the PCC's top ------------------------------------ *)

(* The jit checks a block's fetch rules once and decodes its PCC's
   bounds once, at the entry; every further word only has to lie below
   that top.  Here straight-line code runs off the PCC's top, which lies
   at 4 MiB ([fall_top]), with the code SRAM going on past it, so only
   the bounds stop the fall-through:
   - "mid-block": from 10 words below the top, the block is cut by the
     top after 10 of its 16 instructions;
   - "block end": from 16 words below, the length cap ends the block
     exactly at the top.
   Each runs on a PCC at exponent 0 (the 128 bytes below the top) and on
   one at exponent 14 (4 MiB from address 0).  The handler (at the
   exponent-0 PCC's base) counts the traps and branches back to the
   entry [fall_passes] times, so at the jit's default hotness the cut
   block ends up under a compiled plan, then halts.  In Rv32 mode nothing
   is bounds-checked: the code SRAM ends at the top, and the fetch there
   is an instruction access fault. *)
let fall_top = 0x40_0000
let fall_code = fall_top - 0x100
let fall_handler = fall_top - 0x80
let fall_passes = 40

let fall_pccs =
  let bounded base length =
    Capability.set_bounds
      (Capability.with_address Capability.root_executable base)
      ~length ~exact:true
  in
  [
    ("exponent 0", 0, bounded (fall_top - 0x80) 0x80);
    ("exponent 14", 14, bounded 0 fall_top);
  ]

let fall_boot mode pcc entry =
  let bus = Bus.create () in
  let size = match mode with Machine.Cheriot -> 0x400 | Machine.Rv32 -> 0x100 in
  let code = Cheriot_mem.Sram.create ~base:fall_code ~size in
  Bus.add_sram bus code;
  let m = Machine.create ~mode bus in
  let t1 = Insn.reg_t1 and a0 = Insn.reg_a0 in
  for k = 0 to (size / 4) - 1 do
    let pc = fall_code + (4 * k) in
    Cheriot_mem.Sram.write32 code pc
      (Encode.encode
         (if pc = fall_handler then Insn.Op_imm (Add, t1, t1, 1)
          else if pc = fall_handler + 4 then
            Insn.Branch (Ne, t1, a0, entry - pc)
          else if pc = fall_handler + 8 then Insn.Ebreak
          else Insn.Op_imm (Add, Insn.reg_t0, Insn.reg_t0, 1)))
  done;
  Machine.flush_decode_cache m;
  m.Machine.pcc <- Capability.with_address pcc entry;
  m.Machine.mtcc <- Capability.with_address pcc fall_handler;
  Machine.set_reg_int m a0 fall_passes;
  m

let test_fall_off_top mode () =
  List.iter
    (fun (pname, exponent, pcc) ->
      Alcotest.(check int) (pname ^ ": the PCC's exponent") exponent
        (Bounds.exponent (Capability.Word.bounds pcc.Capability.word));
      Alcotest.(check int) (pname ^ ": the PCC's top") fall_top
        (Capability.top pcc);
      List.iter
        (fun (cname, words) ->
          let entry = fall_top - (4 * words) in
          let what col =
            Printf.sprintf "%s %s, %s (%s)" (mode_name mode) cname pname col
          in
          let boot ?hot_threshold () =
            let m = fall_boot mode pcc entry in
            pin_hotness m hot_threshold;
            m
          in
          let run col ?hot_threshold dispatch =
            let m = boot ?hot_threshold () in
            let r, _ = Machine.run ~dispatch m in
            Alcotest.(check bool) (what col ^ ": halts in the handler") true
              (r = Machine.Step_halted);
            m
          in
          let ref_m = run "ref" Machine.Dispatch_ref in
          Alcotest.(check int) (what "ref" ^ ": every pass trapped")
            fall_passes
            (Machine.reg_int ref_m Insn.reg_t1);
          Alcotest.(check int) (what "ref" ^ ": every word below the top ran")
            (fall_passes * words)
            (Machine.reg_int ref_m Insn.reg_t0);
          (match mode with
          | Machine.Cheriot ->
              Alcotest.(check int) (what "ref" ^ ": CHERI fault") 28
                ref_m.Machine.mcause;
              Alcotest.(check int) (what "ref" ^ ": bounds, PCC")
                ((0x01 lsl 5) lor 16)
                ref_m.Machine.mtval
          | Machine.Rv32 ->
              Alcotest.(check int) (what "ref" ^ ": instruction access fault")
                1 ref_m.Machine.mcause);
          Alcotest.(check int) (what "ref" ^ ": at the top") fall_top
            (Capability.address ref_m.Machine.mepcc);
          List.iter
            (fun (col, hot_threshold) ->
              let m = run col ?hot_threshold Machine.Dispatch_jit in
              let w = what col in
              check_same_trap w ref_m m;
              (* the block at the entry holds every word below the top,
                 up to the length cap, and no word past it *)
              let lens = ref [] in
              Decode_cache.iter
                (fun b ->
                  if b.Machine.b_start = entry then
                    lens := b.Machine.b_len :: !lens)
                m.Machine.bcache;
              Alcotest.(check (list int)) (w ^ ": the entry block's length")
                [ Int.min words Machine.max_block_len ]
                !lens;
              if hot_threshold = None then
                Alcotest.(check bool) (w ^ ": under a compiled plan") true
                  ((Machine.block_stats m).Machine.jit_blocks_compiled >= 1))
            jit_columns;
          let params = Core_model.params_of Core_model.Ibex in
          let perf_run ?hot_threshold dispatch =
            let m = boot ?hot_threshold () in
            let p = Perf.create ~dispatch ~params m in
            Alcotest.(check bool) (what "Perf" ^ ": halts") true
              (Perf.run p = Machine.Step_halted);
            (p.Perf.stats, m)
          in
          let ref_st, ref_pm = perf_run Perf.Reference in
          List.iter
            (fun (col, hot_threshold) ->
              let st, m = perf_run ?hot_threshold Perf.Jit in
              let w = what ("Perf " ^ col) in
              Alcotest.(check int) (w ^ ": cycles") ref_st.Perf.cycles
                st.Perf.cycles;
              Alcotest.(check int) (w ^ ": traps") fall_passes st.Perf.traps;
              check_same_trap w ref_pm m)
            jit_columns)
        [ ("mid-block", 10); ("block end", 16) ])
    fall_pccs

(* --- pinned program states ------------------------------------------ *)

(* The lockstep cases compare the tiers with each other, and the two
   tiers share one capability semantics ([Capability.Word]), so a
   change that moved both alike would pass them.  The four ISA kernels
   perfbench pins (CoreMark's capability build with the load filter and
   its RV32E build, 20 iterations on Ibex; the allocator and IoT
   programs) are pinned here to the same values: the retired count,
   cycles, [a0] and the state hashes under [Machine.run] and under
   [Perf.run] on the jit.  RV32E runs no capability instruction; the
   other three run every path the word register file rewrote, so a
   representation or semantics change that moves any hashed bit fails
   here, not only in perfbench. *)
type pin = {
  cycles : int;
  insns : int;
  a0 : int;
  machine_hash : string;
  perf_hash : string;
}

let test_kernel_pinned build pin () =
  let m = build () in
  let r, n = Machine.run ~fuel:50_000_000 ~dispatch:Machine.Dispatch_jit m in
  Alcotest.(check bool) "Machine.run halts" true (r = Machine.Step_halted);
  Alcotest.(check int) "Machine.run retired count" pin.insns n;
  Alcotest.(check int) "value in a0" pin.a0 (Machine.reg_int m Insn.reg_a0);
  Alcotest.(check string) "Machine.run state hash" pin.machine_hash
    (Machine.state_hash m);
  let m = build () in
  let p =
    Perf.create ~dispatch:Perf.Jit
      ~params:(Core_model.params_of Core_model.Ibex)
      m
  in
  Alcotest.(check bool) "Perf.run halts" true
    (Perf.run p = Machine.Step_halted);
  Alcotest.(check int) "Perf.run cycles" pin.cycles p.Perf.stats.Perf.cycles;
  Alcotest.(check int) "Perf.run instructions" pin.insns
    p.Perf.stats.Perf.instructions;
  Alcotest.(check string) "Perf.run state hash" pin.perf_hash
    (Machine.state_hash m)

let pinned_kernels =
  let coremark cheri () =
    Cheriot_workloads.Coremark.setup ~iterations:20
      (Core_model.config ~cheri ~load_filter:cheri Core_model.Ibex)
  in
  [
    ( "coremark RV32E",
      coremark false,
      {
        cycles = 287_244;
        insns = 209_585;
        a0 = 784_460;
        machine_hash = "31d9ffdbf184641ac97685cbf8d3e35e";
        perf_hash = "cf27806bef0421b4eebb94ab0b40e672";
      } );
    ( "coremark cap+LF",
      coremark true,
      {
        cycles = 334_284;
        insns = 224_465;
        a0 = 784_460;
        machine_hash = "568657a9eeb52e98d86bde4682737137";
        perf_hash = "6ed648dc91e1a7b8edd7c9cad35cf4ce";
      } );
    ( "alloc-isa",
      (fun () -> Cheriot_workloads.Alloc_bench.isa_setup ~rounds:200 ()),
      {
        cycles = 436_804;
        insns = 283_405;
        a0 = 409_600;
        machine_hash = "671728a786ea31b856496c58d5c3bc54";
        perf_hash = "7441e221e5c5d27f238121aa3aafde90";
      } );
    ( "iot-isa",
      (fun () -> Cheriot_workloads.Iot_app.isa_setup ~packets:400 ()),
      {
        cycles = 455_804;
        insns = 338_605;
        a0 = 3_222_954_876;
        machine_hash = "98c872aff359991678716c2d257980e0";
        perf_hash = "e3400327bfa9ef9f5dbba2ea6948e845";
      } );
  ]

let suite =
  List.map QCheck_alcotest.to_alcotest Props.tests
  @ List.map
      (fun (name, engages, build) ->
        Alcotest.test_case
          (name ^ " trace matches across dispatch paths")
          `Quick (test_lockstep ~engages build))
      lockstep_programs
  @ List.map
      (fun mode ->
        Alcotest.test_case
          (mode_name mode ^ " code in MMIO re-reads a device-patched word")
          `Quick (test_mmio_code mode))
      [ Machine.Cheriot; Machine.Rv32 ]
  @ List.map
      (fun mode ->
        Alcotest.test_case
          (mode_name mode ^ " out-of-bounds direct edges trap exactly")
          `Quick (test_oob_edges mode))
      [ Machine.Cheriot; Machine.Rv32 ]
  @ List.map
      (fun mode ->
        Alcotest.test_case
          (mode_name mode ^ " fall-through off the "
          ^ (match mode with
            | Machine.Cheriot -> "PCC's top"
            | Machine.Rv32 -> "SRAM's end")
          ^ " traps exactly")
          `Quick (test_fall_off_top mode))
      [ Machine.Cheriot; Machine.Rv32 ]
  @ List.map
      (fun (name, build, pin) ->
        Alcotest.test_case (name ^ " jit state is pinned") `Quick
          (test_kernel_pinned build pin))
      pinned_kernels
