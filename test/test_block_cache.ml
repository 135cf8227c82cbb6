(* Basic-block translation cache regressions.

   The jit tier translates straight-line runs of decoded instructions
   once and replays them with interrupt checks only at round boundaries
   and bookkeeping deferred across simple instructions.  These tests
   pin the parts the differential fuzzers are unlikely to hit
   deterministically: block formation and stats accounting,
   self-modifying-code abandonment mid-block, fuel-exact cutting, the
   invalidation channel (SRAM stores invalidate, device writes and
   bus-bypass writes do not), chaining, and the jit tier's plans. *)

open Cheriot_core
open Cheriot_isa
module Sram = Cheriot_mem.Sram
module Bus = Cheriot_mem.Bus
module Boot = Cheriot_proptest.Boot
module Scenario = Cheriot_proptest.Scenario

let code_base = Boot.code_base
let code_size = 0x400

(* the shared single-SRAM boot from the property harness *)
let boot ?device words = Boot.code_only ~code_size ?device words

let result_name = function
  | Machine.Step_ok -> "ok"
  | Machine.Step_trap _ -> "trap"
  | Machine.Step_waiting -> "waiting"
  | Machine.Step_halted -> "halted"
  | Machine.Step_double_fault -> "double fault"

(* [hot_at k] pins the hotness threshold to [k] (adaptation off): the
   jit compiles a block's plan on its [k]-th entry.  The jit plan cases
   that run their code once pin it to 1, so every block compiles on its
   first entry. *)
let hot_at k m =
  m.Machine.hot_threshold <- k;
  m.Machine.hot_adaptive <- false

(* The cache-mechanics cases run the jit with every block left cold: a
   pinned, unreachable hotness threshold compiles no plan, so every
   block runs under the identity plan. *)
let plain_blocks = hot_at max_int

let run_jit m =
  match Machine.run ~dispatch:Machine.Dispatch_jit m with
  | Machine.Step_halted, n -> n
  | r, _ -> Alcotest.failf "did not halt: %s" (result_name r)

let run_block m =
  plain_blocks m;
  run_jit m

let reset m =
  m.Machine.pcc <- Capability.with_address m.Machine.pcc code_base;
  Machine.set_reg m 1 Capability.null;
  Machine.set_reg m 2 Capability.null

(* A 3-word counting loop (4 iterations) plus the halt: the loop body
   re-executes from the cache, so the jit must show refills only
   for the distinct blocks and a hit — a validated probe or a followed
   link — for every re-entry. *)
let loop_program = Insn.[ Op_imm (Add, 1, 1, 1); Branch (Ne, 1, 6, -4); Ebreak ]

let test_formation_and_stats () =
  let mk () =
    let m, _ = boot (List.map Encode.encode loop_program) in
    Machine.set_reg_int m 6 4;
    m
  in
  let ref_m = mk () in
  let r_ref, n_ref = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  Alcotest.(check bool) "reference halts" true (r_ref = Machine.Step_halted);
  let m = mk () in
  let n_blk = run_block m in
  Alcotest.(check int) "same retired count" n_ref n_blk;
  Alcotest.(check int) "same minstret" ref_m.Machine.minstret
    m.Machine.minstret;
  Alcotest.(check string) "same state hash" (Machine.state_hash ref_m)
    (Machine.state_hash m);
  let s = Machine.block_stats m in
  (* blocks: [add; bne] at the loop head and [ebreak] after it *)
  Alcotest.(check int) "two distinct blocks" 2 s.Machine.blocks_filled;
  Alcotest.(check int) "cold misses only" 2 s.Machine.block_misses;
  Alcotest.(check int) "re-entries hit" 3
    (s.Machine.block_hits + s.Machine.chain_hits);
  Alcotest.(check bool) "multi-instruction blocks" true
    (Machine.avg_block_len s > 1.0);
  Alcotest.(check int) "nothing invalidated" 0 s.Machine.block_invalidations;
  (* the reference path must leave the block cache untouched *)
  let s_ref = Machine.block_stats ref_m in
  Alcotest.(check int) "reference path: no block activity" 0
    (s_ref.Machine.block_hits + s_ref.Machine.block_misses
   + s_ref.Machine.blocks_filled)

(* Straight-line code longer than [max_block_len] splits at the length
   cap; a terminator in the middle splits there. *)
let test_block_boundaries () =
  let n_alu = Machine.max_block_len + 4 in
  let program =
    List.init n_alu (fun _ -> Insn.Op_imm (Add, 1, 1, 1)) @ [ Insn.Ebreak ]
  in
  let m, _ = boot (List.map Encode.encode program) in
  let _ = run_block m in
  let s = Machine.block_stats m in
  Alcotest.(check int) "length cap splits the run" 2 s.Machine.blocks_filled;
  Alcotest.(check int) "every word translated once" (n_alu + 1)
    s.Machine.insns_translated

(* Self-modifying code where the store patches a {e later} word of the
   block it is itself part of.  The snoop invalidates the block
   mid-execution; the executor must notice (its remaining decoded
   entries are stale), abandon the rest of the block and re-translate,
   so the patched semantics take effect exactly as on the reference
   path.  Word 2 is patched from `add c2,c2,1` to `add c2,c2,16`
   {e before} it executes: final c2 must be 16, not 1. *)
let test_self_modifying_abandon () =
  let program =
    Insn.
      [
        Store { width = W; rs2 = 5; rs1 = 4; off = 8 };
        (* word 0: patch word 2 *)
        Op_imm (Add, 1, 1, 1);
        (* word 1: filler inside the same block *)
        Op_imm (Add, 2, 2, 1);
        (* word 2: the patch target *)
        Ebreak;
      ]
  in
  let mk () =
    let m, _ = boot (List.map Encode.encode program) in
    Machine.set_reg m 4
      (Capability.set_bounds
         (Capability.with_address Capability.root_mem_rw code_base)
         ~length:code_size ~exact:false);
    Machine.set_reg_int m 5 (Encode.encode (Insn.Op_imm (Add, 2, 2, 16)));
    m
  in
  let ref_m = mk () in
  let _ = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  Alcotest.(check int) "reference sees the patch" 16 (Machine.reg_int ref_m 2);
  let m = mk () in
  let _ = run_block m in
  Alcotest.(check int) "jit tier sees the patch" 16 (Machine.reg_int m 2);
  Alcotest.(check string) "same state hash" (Machine.state_hash ref_m)
    (Machine.state_hash m);
  let s = Machine.block_stats m in
  Alcotest.(check bool) "the block was abandoned mid-execution" true
    (s.Machine.block_aborts >= 1);
  Alcotest.(check bool) "the store invalidated the block" true
    (s.Machine.block_invalidations >= 1)

(* A capability store fires the store snoop with its granule, on both
   tiers — the snoop the hardware revoker's store race (3.3.3) and the
   block cache depend on.  The [csc] overwrites granule 1 of its own
   block: the low half (word 2, an add) becomes the integer in c5, an
   ebreak, and the high half (word 3, the old ebreak) the null metadata
   word.  A tier that missed the snoop would run the stale add and
   halt on the stale ebreak with c2 = 1. *)
let test_cap_store_snooped () =
  let program =
    Insn.[ Csc (5, 4, 8); Op_imm (Add, 1, 1, 1); Op_imm (Add, 2, 2, 1); Ebreak ]
  in
  let run dispatch =
    let m, _ = boot (List.map Encode.encode program) in
    Machine.set_reg m 4
      (Capability.set_bounds
         (Capability.with_address Capability.root_mem_rw code_base)
         ~length:code_size ~exact:false);
    Machine.set_reg_int m 5 (Encode.encode Insn.Ebreak);
    plain_blocks m;
    let seen = ref [] in
    Bus.on_store m.Machine.bus (fun a -> seen := a :: !seen);
    (match Machine.run ~dispatch m with
    | Machine.Step_halted, _ -> ()
    | r, _ -> Alcotest.failf "did not halt: %s" (result_name r));
    (m, !seen)
  in
  let ref_m, ref_seen = run Machine.Dispatch_ref in
  let m, seen = run Machine.Dispatch_jit in
  Alcotest.(check (list int)) "reference: the csc's granule is snooped"
    [ code_base + 8 ] ref_seen;
  Alcotest.(check (list int)) "jit: the csc's granule is snooped"
    [ code_base + 8 ] seen;
  Alcotest.(check int) "reference runs the stored ebreak" 0
    (Machine.reg_int ref_m 2);
  Alcotest.(check int) "jit runs the stored ebreak" 0 (Machine.reg_int m 2);
  Alcotest.(check string) "same state hash" (Machine.state_hash ref_m)
    (Machine.state_hash m);
  Alcotest.(check bool) "the csc invalidated its block" true
    ((Machine.block_stats m).Machine.block_invalidations >= 1)

(* Fuel-exact cutting: driving the jit in fuel chunks of every small
   size must retire exactly the reference count and land in the
   identical final state — blocks are cut mid-execution when fuel runs
   out and resumed at the fall-through PC.  A traced run given the same
   fuel must stop where the traced reference run stops: same entry
   count, [minstret] and state. *)
let test_fuel_cutting () =
  let mk () =
    let m, _ = boot (List.map Encode.encode loop_program) in
    Machine.set_reg_int m 6 4;
    m
  in
  let ref_m = mk () in
  let _, n_ref = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  let ref_hash = Machine.state_hash ref_m in
  let traced ~fuel dispatch =
    let m = mk () in
    plain_blocks m;
    let entries = ref 0 in
    let _ = Trace.run m ~fuel ~dispatch ~f:(fun _ -> incr entries) in
    (!entries, m.Machine.minstret, Machine.state_hash m)
  in
  for fuel = 1 to 7 do
    let m = mk () in
    plain_blocks m;
    let total = ref 0 in
    let halted = ref false in
    while not !halted do
      let r, n = Machine.run ~fuel ~dispatch:Machine.Dispatch_jit m in
      total := !total + n;
      match r with
      | Machine.Step_halted -> halted := true
      | Machine.Step_ok | Machine.Step_trap _ -> ()
      | r -> Alcotest.failf "fuel %d: unexpected %s" fuel (result_name r)
    done;
    Alcotest.(check int)
      (Printf.sprintf "fuel %d: retired count" fuel)
      n_ref !total;
    Alcotest.(check string)
      (Printf.sprintf "fuel %d: state hash" fuel)
      ref_hash (Machine.state_hash m);
    let ref_n, ref_insns, ref_h = traced ~fuel Machine.Dispatch_ref in
    let n, insns, h = traced ~fuel Machine.Dispatch_jit in
    Alcotest.(check int)
      (Printf.sprintf "fuel %d: traced entries" fuel)
      ref_n n;
    Alcotest.(check int)
      (Printf.sprintf "fuel %d: traced minstret" fuel)
      ref_insns insns;
    Alcotest.(check string)
      (Printf.sprintf "fuel %d: traced state hash" fuel)
      ref_h h
  done

(* Device writes must not invalidate cached blocks (satellite of the
   MMIO no-snoop rule): after a run has populated the cache, a write to
   a device register leaves every block valid — the re-run hits without
   a single refill — while an SRAM code store really does invalidate. *)
let test_device_write_keeps_blocks () =
  let m, _ = boot ~device:true (List.map Encode.encode loop_program) in
  Machine.set_reg_int m 6 4;
  let _ = run_block m in
  let s1 = Machine.block_stats m in
  Bus.write m.Machine.bus ~width:4 0x9004 99;
  let s2 = Machine.block_stats m in
  Alcotest.(check int) "device write invalidates nothing"
    s1.Machine.block_invalidations s2.Machine.block_invalidations;
  reset m;
  Machine.set_reg_int m 6 4;
  let _ = run_block m in
  let s3 = Machine.block_stats m in
  Alcotest.(check int) "re-run refills nothing" s1.Machine.blocks_filled
    s3.Machine.blocks_filled;
  Alcotest.(check bool) "re-run hits the cached blocks" true
    (s3.Machine.block_hits > s1.Machine.block_hits);
  (* control: an SRAM store over the code does invalidate *)
  Bus.write m.Machine.bus ~width:4 code_base 0;
  let s4 = Machine.block_stats m in
  Alcotest.(check bool) "sram code store invalidates" true
    (s4.Machine.block_invalidations > s3.Machine.block_invalidations)

(* Writes that bypass the bus (direct [Sram.write32]) are invisible to
   the snoop: the cached block is legitimately stale until
   [flush_decode_cache], which must drop translated blocks.  The stale
   read is asserted too — it proves the cache really is serving
   translations, so this would catch the snoop watching the wrong
   channel. *)
let test_bypass_needs_flush () =
  let program = Insn.[ Op_imm (Add, 2, 2, 1); Ebreak ] in
  let m, code = boot (List.map Encode.encode program) in
  let _ = run_block m in
  Alcotest.(check int) "first run, old semantics" 1 (Machine.reg_int m 2);
  Sram.write32 code code_base (Encode.encode (Insn.Op_imm (Add, 2, 2, 16)));
  reset m;
  let _ = run_block m in
  Alcotest.(check int) "bypass write unseen: stale block still served" 1
    (Machine.reg_int m 2);
  Machine.flush_decode_cache m;
  reset m;
  let _ = run_block m in
  Alcotest.(check int) "after flush, new semantics" 16 (Machine.reg_int m 2);
  let s = Machine.block_stats m in
  Alcotest.(check bool) "flush accounted" true (s.Machine.block_flushes >= 1);
  (* The reference interpreter caches nothing, so it sees the bypass
     write immediately, flush or not. *)
  let m2, code2 = boot (List.map Encode.encode program) in
  let _ = Machine.run ~dispatch:Machine.Dispatch_ref m2 in
  Alcotest.(check int) "reference, first run" 1 (Machine.reg_int m2 2);
  Sram.write32 code2 code_base (Encode.encode (Insn.Op_imm (Add, 2, 2, 16)));
  reset m2;
  let _ = Machine.run ~dispatch:Machine.Dispatch_ref m2 in
  Alcotest.(check int) "reference path sees the bypass write unflushed" 16
    (Machine.reg_int m2 2)

(* --- block chaining ---------------------------------------------------- *)

(* A two-block loop joined by a direct jal — the chain path must follow
   both the jal edge and the backedge without re-probing, and a store
   that kills a chained successor must unlink the edge {e before} the
   next transfer: after the patch, the re-run must execute the patched
   semantics, never the stale linked block. *)
let chained_loop =
  Insn.
    [
      Op_imm (Add, 1, 1, 1);
      (* head: block A *)
      Jal (0, 4);
      (* A -> B, direct *)
      Op_imm (Add, 2, 2, 1);
      (* next: block B (the patch target) *)
      Branch (Ne, 1, 6, -12);
      (* B -> A taken, B -> C fall *)
      Ebreak;
    ]

let test_chain_links_and_unlink () =
  let mk () =
    let m, _ = boot (List.map Encode.encode chained_loop) in
    Machine.set_reg_int m 6 4;
    m
  in
  let ref_m = mk () in
  let _, n_ref = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  let m = mk () in
  let n = run_block m in
  Alcotest.(check int) "same retired count" n_ref n;
  Alcotest.(check string) "same state hash" (Machine.state_hash ref_m)
    (Machine.state_hash m);
  let s = Machine.block_stats m in
  Alcotest.(check bool) "transfers chained" true (s.Machine.chain_hits > 0);
  Alcotest.(check int) "no stale links yet" 0 s.Machine.chain_unlinks;
  (* patch B's add through the bus: the snoop kills B and bumps the
     chain epoch, so A's link to the dead B must not be followed *)
  Bus.write m.Machine.bus ~width:4 (code_base + 8)
    (Encode.encode (Insn.Op_imm (Add, 2, 2, 16)));
  let s2 = Machine.block_stats m in
  Alcotest.(check bool) "the store invalidated the successor" true
    (s2.Machine.block_invalidations > s.Machine.block_invalidations);
  reset m;
  Machine.set_reg_int m 6 4;
  let _ = run_block m in
  Alcotest.(check int) "patched semantics, not the stale link" (16 * 4)
    (Machine.reg_int m 2);
  let s3 = Machine.block_stats m in
  Alcotest.(check bool) "stale edge counted as unlink" true
    (s3.Machine.chain_unlinks > 0)

(* [flush_decode_cache] must bump the chain epoch in one step — every
   link installed before the flush is stale, whatever block it lives
   in. *)
let test_chain_epoch_flush () =
  let m, _ = boot (List.map Encode.encode chained_loop) in
  Machine.set_reg_int m 6 4;
  let _ = run_block m in
  let e1 = Decode_cache.chain_epoch m.Machine.bcache in
  Machine.flush_decode_cache m;
  let e2 = Decode_cache.chain_epoch m.Machine.bcache in
  Alcotest.(check bool) "flush bumps the chain epoch" true (e2 > e1);
  reset m;
  Machine.set_reg_int m 6 4;
  let _ = run_block m in
  Alcotest.(check int) "re-run after flush still correct" (4 + 4)
    (Machine.reg_int m 1 + Machine.reg_int m 2)

(* A block re-translated at the same PC replaces the old translation,
   which chained links may still lead to.  Here the jump X links to the
   four-instruction block P under the code PCC A; a run at P under a
   PCC whose top is P + 8 misses A's ticket and refills P as a
   two-instruction block, and a bus store then patches P + 8 — outside
   the new block's span, so the snoop kills nothing.  The re-run from X
   under A must not follow X's link into the old P and its stale third
   word: the refill must have unlinked it, as an eviction does. *)
let test_same_pc_refill_unlinks () =
  let t0 = Insn.reg_t0 in
  let x = Boot.code_base in
  let p = x + 8 in
  let program =
    Insn.
      [
        Jal (reg_zero, 8);
        Ebreak;
        Op_imm (Add, t0, t0, 1);
        Op_imm (Add, t0, t0, 1);
        Op_imm (Add, t0, t0, 1);
        Ebreak;
      ]
  in
  let drive dispatch =
    let m = (Boot.flat (List.map Encode.encode program)).Boot.m in
    plain_blocks m;
    let a = m.Machine.pcc in
    let from_x () =
      m.Machine.pcc <- a;
      Machine.set_reg_int m t0 0;
      ignore (Machine.run ~dispatch m)
    in
    from_x ();
    from_x ();
    m.Machine.pcc <-
      Capability.set_bounds
        (Capability.with_address Capability.root_executable p)
        ~length:8 ~exact:true;
    ignore (Machine.run ~fuel:2 ~dispatch m);
    Bus.write m.Machine.bus ~width:4 (p + 8)
      (Encode.encode (Insn.Op_imm (Add, t0, t0, 100)));
    from_x ();
    m
  in
  let ref_m = drive Machine.Dispatch_ref in
  Alcotest.(check int) "the reference runs the patched word" 102
    (Machine.reg_int ref_m t0);
  let m = drive Machine.Dispatch_jit in
  Alcotest.(check int) "the jit runs the patched word" 102
    (Machine.reg_int m t0);
  Alcotest.(check string) "same state as the reference"
    (Machine.state_hash ref_m) (Machine.state_hash m);
  Alcotest.(check int) "X's link to the old P is found stale" 1
    (Machine.block_stats m).Machine.chain_unlinks

(* Every translation unit is one basic block: at most [max_block_len]
   instructions, with a control-flow or system instruction only in the
   last place.  The executor relies on it: a taken [Branch] always ends
   its block and leaves through the block-end edge logic.  Checked over
   the cache that CoreMark and a batch of generated scenarios leave
   behind, at a hotness low enough that their loops compile plans. *)
let test_one_basic_block_per_unit () =
  let ends_block : Insn.t -> bool = function
    | Jal _ | Jalr _ | Branch _ | Mret | Ecall | Ebreak | Wfi | Csr _
    | Cspecialrw _ ->
        true
    | _ -> false
  in
  let check ?fuel what m =
    hot_at 2 m;
    ignore (Machine.run ?fuel ~dispatch:Machine.Dispatch_jit m);
    let bad = ref [] and n = ref 0 in
    Decode_cache.iter
      (fun b ->
        incr n;
        let len = b.Machine.b_len in
        let interior = ref false in
        for k = 0 to len - 2 do
          if ends_block b.Machine.b_insns.(k) then interior := true
        done;
        if len < 1 || len > Machine.max_block_len || !interior then
          bad := Printf.sprintf "0x%x (%d insns)" b.Machine.b_start len :: !bad)
      m.Machine.bcache;
    Alcotest.(check bool) (what ^ ": blocks cached") true (!n > 0);
    Alcotest.(check (list string)) (what ^ ": no block spans an exit") []
      !bad
  in
  check "coremark"
    (Cheriot_workloads.Coremark.setup ~iterations:2
       Cheriot_uarch.Core_model.(config ~cheri:true ~load_filter:true Ibex));
  let st = Random.State.make [| 0x5eed |] in
  for k = 1 to 40 do
    let sc = QCheck.Gen.generate1 ~rand:st (Scenario.gen ()) in
    let l = Scenario.link ~instrument:true sc in
    check ~fuel:4096
      (Printf.sprintf "scenario %d" k)
      l.Scenario.t.Cheriot_rtos.Loader.machine
  done

(* --- the trace-jit tier ------------------------------------------------- *)

(* a 16-byte readable/writable window inside the code SRAM, away from
   the program words *)
let data_cap ?(len = 16) () =
  Capability.set_bounds
    (Capability.with_address Capability.root_mem_rw (code_base + 0x200))
    ~length:len ~exact:false

(* Pass-1 regression: a dominating access lets the optimizer eliminate
   the second identical access's checks, but an in-block [Csetbounds]
   redefines the register — the SSA version moves, so the access after
   it must run the full check sequence and trap exactly where the
   reference interpreter traps.  An optimizer that keyed facts to the
   register {e name} instead of the version would serve the stale
   "checked" fact and miss the trap. *)
let test_jit_csetbounds_kills_facts () =
  let program =
    Insn.
      [
        Load { signed = true; width = W; rd = 1; rs1 = 4; off = 0 };
        Load { signed = true; width = W; rd = 2; rs1 = 4; off = 0 };
        (* shrink r4 to 8 bytes: the next access is now out of bounds *)
        Csetboundsimm (4, 4, 8);
        Load { signed = true; width = W; rd = 3; rs1 = 4; off = 64 };
        Ebreak;
      ]
  in
  let mk () =
    let m, _ = boot (List.map Encode.encode program) in
    Machine.set_reg m 4 (data_cap ());
    m
  in
  let ref_m = mk () in
  let r_ref, n_ref = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  let m = mk () in
  hot_at 1 m;
  let r_jit, n_jit = Machine.run ~dispatch:Machine.Dispatch_jit m in
  Alcotest.(check string)
    "both runs end the same way" (result_name r_ref) (result_name r_jit);
  Alcotest.(check int) "same retired count" n_ref n_jit;
  Alcotest.(check int) "same minstret" ref_m.Machine.minstret
    m.Machine.minstret;
  Alcotest.(check string) "same state hash" (Machine.state_hash ref_m)
    (Machine.state_hash m);
  let s = Machine.block_stats m in
  Alcotest.(check bool) "the duplicate access was eliminated" true
    (s.Machine.checks_eliminated >= 1)

(* Pass-2 regression: a hot loop whose two static-offset loads are
   covered by one hoisted entry guard, patched {e mid-trace} — after the
   loop block's plan exists, a bus store rewrites one load of the loop
   body.  The snoop must kill the block and its plan together; the
   remaining iterations run the patched semantics, bit-identical to a
   reference machine patched at the same instruction boundary. *)
let test_jit_hoisted_guard_patch_midtrace () =
  let program =
    Insn.
      [
        Load { signed = true; width = W; rd = 1; rs1 = 4; off = 0 };
        Load { signed = true; width = W; rd = 2; rs1 = 4; off = 8 };
        Op_imm (Add, 3, 3, 1);
        Branch (Eq, 3, 6, 8);
        Jal (0, -16);
        Ebreak;
      ]
  in
  let mk () =
    let m, _ = boot (List.map Encode.encode program) in
    Machine.set_reg m 4 (data_cap ());
    Machine.set_reg_int m 6 20;
    m
  in
  let ref_m = mk () in
  let m = mk () in
  hot_at 2 m;
  (* run both machines 30 instructions in: the loop is hot and the
     guarded plan compiled and executing *)
  let r_ref0, n_ref0 = Machine.run ~fuel:30 ~dispatch:Machine.Dispatch_ref ref_m in
  let r_jit0, n_jit0 = Machine.run ~fuel:30 ~dispatch:Machine.Dispatch_jit m in
  Alcotest.(check bool)
    "both mid-trace stops agree" true
    ((r_ref0, n_ref0) = (r_jit0, n_jit0));
  let s_mid = Machine.block_stats m in
  Alcotest.(check bool) "the loads were hoisted behind a guard" true
    (s_mid.Machine.checks_hoisted >= 2);
  (* patch the second load into an immediate add, identically on both *)
  let patch = Encode.encode (Insn.Op_imm (Add, 2, 2, 16)) in
  Bus.write ref_m.Machine.bus ~width:4 (code_base + 4) patch;
  Bus.write m.Machine.bus ~width:4 (code_base + 4) patch;
  let r_ref, n_ref = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  let r_jit, n_jit = Machine.run ~dispatch:Machine.Dispatch_jit m in
  Alcotest.(check bool) "both halt" true
    (r_ref = Machine.Step_halted && r_jit = Machine.Step_halted);
  Alcotest.(check int) "same retired count after the patch" n_ref n_jit;
  Alcotest.(check string) "same state hash after the patch"
    (Machine.state_hash ref_m) (Machine.state_hash m);
  let s = Machine.block_stats m in
  Alcotest.(check bool) "the patch invalidated the planned block" true
    (s.Machine.block_invalidations > 0)

(* Counter accounting parity: a traced round ([recorded_round]) is a
   recorded round of the executor [Machine.run] drives, so at the same
   hotness the two compile the same blocks — here the two loop blocks on
   their second entry, never the halt block entered once. *)
let test_jit_counters_on_both_paths () =
  let mk () =
    let m, _ = boot (List.map Encode.encode chained_loop) in
    Machine.set_reg_int m 6 4;
    hot_at 2 m;
    m
  in
  let m = mk () in
  let _ = run_jit m in
  let s = Machine.block_stats m in
  Alcotest.(check bool) "merged executor compiled plans" true
    (s.Machine.jit_blocks_compiled > 0);
  let m2 = mk () in
  let rec drive () =
    match
      Machine.recorded_round m2 ~dispatch:Machine.Dispatch_jit
        ~fuel:Machine.round_cap
    with
    | Machine.Step_ok | Machine.Step_trap _ -> drive ()
    | _ -> ()
  in
  drive ();
  let s2 = Machine.block_stats m2 in
  Alcotest.(check int) "recording rounds compile the same blocks"
    s.Machine.jit_blocks_compiled s2.Machine.jit_blocks_compiled

(* The jit's tiering contract at a pinned hotness [k]: a block without a
   plan runs the identity plan and counts its entries, the entry that
   brings the count to [k] compiles its plan, and that plan then serves
   every later entry.  An unreachable threshold never compiles, and an
   installed validator makes the jit compile a block on its first
   entry, so plan collection sees blocks that never turn hot. *)
let test_jit_tiers_by_hotness () =
  let k = 4 in
  let mk () =
    let m, _ = boot (List.map Encode.encode loop_program) in
    Machine.set_reg_int m 6 10;
    hot_at k m;
    m
  in
  let loop_block m =
    let at_base = ref [] in
    Decode_cache.iter
      (fun b -> if b.Machine.b_start = code_base then at_base := b :: !at_base)
      m.Machine.bcache;
    match !at_base with
    | [ b ] -> b
    | _ -> Alcotest.fail "the loop block is cached"
  in
  let compiled m = (Machine.block_stats m).Machine.jit_blocks_compiled in
  let ref_m = mk () in
  let _ = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  let m = mk () in
  (* one loop iteration is one entry of the two-instruction loop block *)
  let _ = Machine.run ~fuel:(2 * (k - 1)) ~dispatch:Machine.Dispatch_jit m in
  let b = loop_block m in
  Alcotest.(check int) "k - 1 entries counted" (k - 1) b.Machine.b_entries;
  Alcotest.(check bool) "no plan after k - 1 entries" true
    (Option.is_none b.Machine.b_jit);
  Alcotest.(check int) "nothing compiled yet" 0 (compiled m);
  let _ = Machine.run ~fuel:2 ~dispatch:Machine.Dispatch_jit m in
  let plan = b.Machine.b_jit in
  Alcotest.(check bool) "compiled on entry k" true (Option.is_some plan);
  Alcotest.(check int) "one plan compiled" 1 (compiled m);
  let _ = run_jit m in
  (* the halt block is entered once: it stays cold *)
  Alcotest.(check int) "never compiled again" 1 (compiled m);
  Alcotest.(check bool) "the loop keeps its plan" true
    (loop_block m == b && b.Machine.b_jit == plan);
  Alcotest.(check string) "same state as the reference"
    (Machine.state_hash ref_m) (Machine.state_hash m);
  let c = mk () in
  let _ = run_block c in
  Alcotest.(check int) "an unreachable threshold compiles nothing" 0
    (compiled c);
  (* straight-line code entered once *)
  let once () =
    let m, _ =
      boot
        (List.map Encode.encode
           Insn.[ Op_imm (Add, 1, 1, 1); Op_imm (Add, 2, 2, 1); Ebreak ])
    in
    hot_at k m;
    m
  in
  let cold = once () in
  let _ = run_jit cold in
  Alcotest.(check int) "a block entered once stays cold" 0 (compiled cold);
  let v = once () in
  Cheriot_analysis.Planverify.install v;
  let _ = run_jit v in
  Alcotest.(check int) "validated: compiled on first entry" 1 (compiled v);
  Alcotest.(check int) "validated: no plan rejected" 0
    (Machine.block_stats v).Machine.jit_plans_rejected

(* Trace [chained_loop] under [dispatch]; [prep] configures the machine
   after boot. *)
let trace_chained_loop ?(prep = ignore) dispatch =
  let m, _ = boot (List.map Encode.encode chained_loop) in
  Machine.set_reg_int m 6 4;
  prep m;
  let entries = ref [] in
  let _ =
    Trace.run m ~fuel:10_000 ~dispatch ~f:(fun e -> entries := e :: !entries)
  in
  (m, List.rev !entries)

(* A traced jit run must emit the same per-instruction stream as the
   reference path: pc, instruction ([None] on a trapping entry) and
   result, entry for entry. *)
let check_same_stream ref_t jit_t =
  Alcotest.(check int) "same trace length" (List.length ref_t)
    (List.length jit_t);
  List.iter2
    (fun r c ->
      Alcotest.(check int) "same traced pc" r.Trace.tr_pc c.Trace.tr_pc;
      Alcotest.(check (option string)) "same traced instruction"
        (Option.map Insn.to_string r.Trace.tr_insn)
        (Option.map Insn.to_string c.Trace.tr_insn);
      Alcotest.(check string) "same traced result"
        (Fmt.str "%a" Trace.pp_result r.Trace.tr_result)
        (Fmt.str "%a" Trace.pp_result c.Trace.tr_result);
      Alcotest.(check int) "reference trace is unmarked" 0 r.Trace.tr_mark)
    ref_t jit_t

(* The reference stream again, with chained transfers carrying
   [Machine.mark_chained]: the mark is how a rendered trace
   distinguishes a linked transfer from a probe. *)
let check_trace_marks_chained ?prep () =
  let ref_m, ref_t = trace_chained_loop Machine.Dispatch_ref in
  let jit_m, jit_t = trace_chained_loop ?prep Machine.Dispatch_jit in
  Alcotest.(check string) "traced runs agree on state"
    (Machine.state_hash ref_m) (Machine.state_hash jit_m);
  check_same_stream ref_t jit_t;
  Alcotest.(check bool) "chained transfers are marked" true
    (List.exists (fun e -> e.Trace.tr_mark = Machine.mark_chained) jit_t)

(* Chaining alone: with every block left cold the jit links plain basic
   blocks under the identity plan, and the trace still marks each
   chained transfer. *)
let test_trace_marks_chained_transfers () =
  check_trace_marks_chained ~prep:plain_blocks ()

(* At the default hotness the same stream carries the same marks.  A
   block whose entry guard fails is marked [opt-side-exit] and
   deoptimizes to full checks, so the faulting access (here: a hoisted
   load past the end of a short region) traps at exactly the reference
   point. *)
let test_trace_marks_jit () =
  check_trace_marks_chained ();
  (* guard-failure rendering: two guarded loads whose union span
     overruns an 8-byte region — the plan deopts ([opt-side-exit]) and
     the second load traps exactly as on the reference path *)
  let guarded =
    Insn.
      [
        Load { signed = true; width = W; rd = 1; rs1 = 4; off = 0 };
        Load { signed = true; width = W; rd = 2; rs1 = 4; off = 8 };
        Ebreak;
      ]
  in
  let collect_g dispatch =
    let m, _ = boot (List.map Encode.encode guarded) in
    Machine.set_reg m 4 (data_cap ~len:8 ());
    hot_at 1 m;
    let entries = ref [] in
    let r, _ =
      Trace.run m ~fuel:100 ~dispatch ~f:(fun e -> entries := e :: !entries)
    in
    (m, r, List.rev !entries)
  in
  let grm, gr, grt = collect_g Machine.Dispatch_ref in
  let gjm, gj, gjt = collect_g Machine.Dispatch_jit in
  Alcotest.(check string) "guard failure ends both runs identically"
    (result_name gr) (result_name gj);
  Alcotest.(check string) "guard failure reaches the reference state"
    (Machine.state_hash grm) (Machine.state_hash gjm);
  check_same_stream grt gjt;
  Alcotest.(check bool) "the deoptimized block is marked" true
    (List.exists (fun e -> e.Trace.tr_mark = Machine.mark_opt_side_exit) gjt)

(* --- the paged slot table ------------------------------------------ *)

(* The cache's pages that hold entries: every page but the shared empty
   one. *)
let live_pages m =
  let bc = m.Machine.bcache in
  Array.to_list bc.Decode_cache.pages
  |> List.filter (fun p -> p != bc.Decode_cache.empty)

let cached_starts m =
  let acc = ref [] in
  Decode_cache.iter (fun b -> acc := b.Machine.b_start :: !acc) m.Machine.bcache;
  List.rev !acc

(* A [Jal] at [code_base] to an [Ebreak] [off] bytes on, with no-ops in
   between: two one-instruction blocks [off] bytes apart. *)
let jump_program off =
  List.init
    ((off / 4) + 1)
    (fun i ->
      Encode.encode
        (if i = 0 then Insn.Jal (0, off)
         else if i = off / 4 then Insn.Ebreak
         else Insn.Op_imm (Add, 0, 0, 0)))

(* Creating a machine allocates no page: every page index points at the
   one shared empty page, so nothing of the cache is over OCaml's
   256-word minor-heap limit and nothing lands in the major heap. *)
let test_create_allocates_no_major_words () =
  let bus = Bus.create () in
  Bus.add_sram bus (Sram.create ~base:code_base ~size:code_size);
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  let m = Machine.create bus in
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  Alcotest.(check bool)
    (Printf.sprintf "Machine.create: %.0f major-heap words, under 256" words)
    true (words < 256.);
  Alcotest.(check int) "no page allocated" 0 (List.length (live_pages m))

(* A block starting 8 bytes before a page boundary (a page holds the
   slots of 0x100 bytes of code; pc = 0xf8 mod 0x2000) runs 16 bytes
   into the next page.  A store at 0x108 lands in the next page, which
   holds no entry, so the snoop's candidate walk must cross back into
   the block's page to kill it; the re-run must then see the patched
   word. *)
let test_kill_across_page_boundary () =
  let start = 0xf8 in
  let program =
    List.init ((start / 4) + 6) (fun i ->
        Encode.encode
          (if i = 0 then Insn.Jal (0, start)
           else if i = (start / 4) + 5 then Insn.Ebreak
           else Insn.Op_imm (Add, 1, 1, 1)))
  in
  let m, _ = Boot.code_only ~code_size:0x800 program in
  let _ = run_block m in
  Alcotest.(check int) "five adds ran" 5 (Machine.reg_int m 1);
  Alcotest.(check (list int)) "the jump and the block across the boundary"
    [ code_base; code_base + start ] (cached_starts m);
  Alcotest.(check int) "only the first page holds entries" 1
    (List.length (live_pages m));
  Bus.write m.Machine.bus ~width:4 (code_base + 0x108)
    (Encode.encode (Insn.Op_imm (Add, 1, 1, 16)));
  let s = Machine.block_stats m in
  Alcotest.(check int) "the store killed the block" 1
    s.Machine.block_invalidations;
  Alcotest.(check (list int)) "only the jump is left" [ code_base ]
    (cached_starts m);
  reset m;
  let _ = run_block m in
  Alcotest.(check int) "the re-run sees the patch" (4 + 16) (Machine.reg_int m 1);
  Alcotest.(check int) "a refill at the same pc is no eviction" 0
    (Machine.block_stats m).Machine.block_evictions

(* [flush] drops every page back to the shared empty one, and the next
   fill in a page allocates a fresh one. *)
let test_flush_drops_pages () =
  let m, _ = Boot.code_only ~code_size:0x800 (jump_program 0x400) in
  let _ = run_block m in
  let before = live_pages m in
  Alcotest.(check int) "blocks in two pages fill both" 2 (List.length before);
  Machine.flush_decode_cache m;
  Alcotest.(check int) "flush drops every page" 0 (List.length (live_pages m));
  Alcotest.(check (list int)) "and every entry" [] (cached_starts m);
  reset m;
  let _ = run_block m in
  let after = live_pages m in
  Alcotest.(check int) "the re-run fills both pages again" 2
    (List.length after);
  Alcotest.(check bool) "with fresh pages" true
    (List.for_all (fun p -> not (List.memq p before)) after)

(* Two blocks 8 KiB apart share a slot (2 048 slots of 4 bytes): the
   second fill evicts the first, and each re-run refills one over the
   other. *)
let test_slot_conflict_evicts () =
  let m, _ = Boot.code_only ~code_size:0x2400 (jump_program 0x2000) in
  let _ = run_block m in
  let s = Machine.block_stats m in
  Alcotest.(check int) "both blocks filled" 2 s.Machine.blocks_filled;
  Alcotest.(check int) "the second evicted the first" 1
    s.Machine.block_evictions;
  Alcotest.(check (list int)) "one slot holds the second"
    [ code_base + 0x2000 ] (cached_starts m);
  reset m;
  let _ = run_block m in
  let s = Machine.block_stats m in
  Alcotest.(check int) "the re-run evicts each in turn" 3
    s.Machine.block_evictions;
  Alcotest.(check int) "kills are not evictions" 0
    s.Machine.block_invalidations

(* An evicted block can still be the target of a live chained link.
   Here the loop block A (linked from the jump P) is evicted by the
   exit block B 8 KiB above it; a later store patches A's code, but A
   is no longer in its slot, so the snoop cannot kill it.  The re-run
   enters through P: following P's link to the evicted A would run A's
   old code, so the eviction must have unlinked it. *)
let test_eviction_unlinks () =
  let a = 0x100 and b = 0x2100 in
  let program =
    List.init ((b / 4) + 1) (fun i ->
        Encode.encode
          (if i = 0 then Insn.Jal (0, a)
           else if i = a / 4 then Insn.Op_imm (Add, 1, 1, 1)
           else if i = (a / 4) + 1 then Insn.Branch (Lt, 1, 6, -(a + 4))
           else if i = (a / 4) + 2 then Insn.Jal (0, b - (a + 8))
           else if i = b / 4 then Insn.Ebreak
           else Insn.Op_imm (Add, 0, 0, 0)))
  in
  let mk () =
    let m, _ = Boot.code_only ~code_size:0x2400 program in
    Machine.set_reg_int m 6 3;
    plain_blocks m;
    m
  in
  let patch m =
    Bus.write m.Machine.bus ~width:4 (code_base + a)
      (Encode.encode (Insn.Op_imm (Add, 1, 1, 16)))
  in
  let ref_m = mk () in
  let _ = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  patch ref_m;
  reset ref_m;
  Machine.set_reg_int ref_m 6 3;
  let _ = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  let m = mk () in
  let _ = run_jit m in
  let s = Machine.block_stats m in
  Alcotest.(check bool) "P chained into A" true (s.Machine.chain_hits > 0);
  Alcotest.(check int) "B evicted A" 1 s.Machine.block_evictions;
  patch m;
  reset m;
  Machine.set_reg_int m 6 3;
  let _ = run_jit m in
  Alcotest.(check int) "the re-run runs the patched A" 16 (Machine.reg_int m 1);
  Alcotest.(check string) "same state as the reference"
    (Machine.state_hash ref_m) (Machine.state_hash m)

(* --- the warm jit's heap traffic ------------------------------------------ *)

(* A hot loop over the jit's deferred arms: an [Lui], an [Op_imm]
   counter, an [Op], a word [Store] and [Load] through the flat boot's
   data capability c3, and a backward [Branch] that stays taken.  Warmed
   well past [hot_threshold], the block runs its compiled plan, and
   nothing left in an iteration needs the heap: integer results are
   immediate stores into the register file, the taken branch installs its
   prebuilt target, the round's counters are locals rather than cells a
   closure captured, the bounds check takes its size unboxed and the
   store snoop walks its list without building a closure.  A round
   itself allocates nothing; a closure over the round's counters would
   add the closure and a heap cell per captured counter to every round,
   so the loop is also run as many short rounds. *)
let alloc_loop =
  Insn.
    [
      Lui (5, 0x12);
      Op_imm (Add, 1, 1, 1);
      Op (Xor, 6, 1, 5);
      Store { width = W; rs2 = 6; rs1 = 3; off = 8 };
      Load { signed = false; width = W; rd = 7; rs1 = 3; off = 8 };
      Branch (Ne, 1, 0, -20);
    ]

let warm_insns = 100_000
let measured_insns = 5_000_000

(* The bound is a constant: a per-instruction word over the measured
   run would be 5 000 000 words. *)
let alloc_bound = 1_000.

(* Short rounds: a round returns its result alone, and a closure or a
   result pair per round is 3 words or more. *)
let short_rounds = 10_000
let words_per_round_bound = 8.

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Run [warm_insns] and then [measured_insns] of [m]'s loop through
   [run], and bound the minor words of the measured part.  A [cold] loop
   must have compiled no plan; any other loop must have compiled one. *)
let check_warm_loop ?(cold = false) what m run =
  run warm_insns;
  let start = m.Machine.minstret in
  let words = minor_words_of (fun () -> run measured_insns) in
  Alcotest.(check int)
    (what ^ " retired the measured instructions")
    measured_insns
    (m.Machine.minstret - start);
  let s = Machine.block_stats m in
  if cold then
    Alcotest.(check int) (what ^ " compiled no plan") 0
      s.Machine.jit_blocks_compiled
  else
    Alcotest.(check bool) (what ^ " compiled the loop") true
      (s.Machine.jit_blocks_compiled >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f minor words over %d warm instructions, under %.0f"
       what words measured_insns alloc_bound)
    true (words < alloc_bound)

(* The two jit drivers of a machine, as [fuel -> unit] runs. *)
let machine_runner m fuel =
  match Machine.run ~fuel ~dispatch:Machine.Dispatch_jit m with
  | Machine.Step_ok, n when n = fuel -> ()
  | r, _ -> Alcotest.failf "Machine.run stopped: %s" (result_name r)

let perf_runner m =
  let p =
    Cheriot_uarch.Perf.create ~dispatch:Cheriot_uarch.Perf.Jit
      ~params:Cheriot_uarch.Core_model.(params_of Ibex)
      m
  in
  fun fuel ->
    match Cheriot_uarch.Perf.run ~fuel p with
    | Machine.Step_ok -> ()
    | r -> Alcotest.failf "Perf.run stopped: %s" (result_name r)

let test_warm_jit_allocates_nothing () =
  let words = List.map Encode.encode alloc_loop in
  let m = (Boot.flat words).Boot.m in
  check_warm_loop "Machine.run" m (machine_runner m);
  let m = (Boot.flat words).Boot.m in
  check_warm_loop "Perf.run" m (perf_runner m);
  let words =
    minor_words_of (fun () ->
        for _ = 1 to short_rounds do
          ignore
            (Machine.timed_round m ~dispatch:Machine.Dispatch_jit
               ~fuel:Machine.round_cap)
        done)
  in
  let per_round = words /. float_of_int short_rounds in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per warm round, under %.0f" per_round
       words_per_round_bound)
    true
    (per_round < words_per_round_bound)

(* The same bound over a hot loop of the capability instructions the
   word register file runs on immediates: the data capability c3 is
   moved ([Cincaddrimm]) and narrowed ([Csetboundsimm]) into c10, stored
   ([Csc]) and loaded back ([Clc]) as c11, masked ([Candperm]),
   untagged ([Ccleartag]) and copied ([Cmove]); its length ([Cget])
   goes through c11 to memory and back by a capability-mode [sw] and
   [lw].  Every capability register write is two immediate stores,
   and the load and store move the granule's halves and micro-tags
   through the SRAM window, so none of it needs the heap. *)
let cap_alloc_loop =
  Insn.
    [
      Op_imm (Add, 5, 0, 0x7f);
      Op_imm (Add, 1, 1, 1);
      Cincaddrimm (10, 3, 16);
      Csetboundsimm (10, 10, 64);
      Csc (10, 3, 32);
      Clc (11, 3, 32);
      Candperm (12, 11, 5);
      Ccleartag (13, 12);
      Cmove (14, 11);
      Cget (Len, 6, 14);
      Store { width = W; rs2 = 6; rs1 = 11; off = 0 };
      Load { signed = false; width = W; rd = 7; rs1 = 11; off = 0 };
      Branch (Ne, 1, 0, -44);
    ]

let test_warm_cap_jit_allocates_nothing () =
  let words = List.map Encode.encode cap_alloc_loop in
  let m = (Boot.flat words).Boot.m in
  check_warm_loop "capability loop, Machine.run" m (machine_runner m);
  Alcotest.(check int) "the loop stored and loaded its length" 64
    (Machine.reg_int m 7);
  let m = (Boot.flat words).Boot.m in
  check_warm_loop "capability loop, Perf.run" m (perf_runner m)

(* Loops that never turn hot, closed by a taken backward [Branch] and by
   a [Jal] that links [ra] (read back in the next iteration), in both
   modes.  Pinned at an unreachable threshold, no plan compiles, so
   every edge runs as translated: a taken edge installs its block's
   prebuilt target, and a [Jal] its prebuilt link, so the loops need
   the heap no more than the warm one. *)
let cold_loops =
  let enc = List.map Encode.encode in
  let branch_loop =
    Insn.
      [
        Lui (5, 0x12);
        Op_imm (Add, 1, 1, 1);
        Op (Xor, 6, 1, 5);
        Branch (Ne, 1, 0, -12);
      ]
  in
  let jal_loop =
    Insn.[ Op_imm (Add, 1, 1, 1); Op (Xor, 6, 1, reg_ra); Jal (reg_ra, -8) ]
  in
  let cheriot prog () = (Boot.flat (enc prog)).Boot.m in
  let rv32 prog () = fst (Boot.code_only ~mode:Machine.Rv32 (enc prog)) in
  [
    ("CHERIoT branch loop", cheriot branch_loop);
    ("Rv32 branch loop", rv32 branch_loop);
    ("CHERIoT jal loop", cheriot jal_loop);
    ("Rv32 jal loop", rv32 jal_loop);
  ]

let test_cold_edges_allocate_nothing () =
  List.iter
    (fun (what, boot) ->
      let m = boot () in
      plain_blocks m;
      check_warm_loop ~cold:true (what ^ ", Machine.run") m (machine_runner m);
      let m = boot () in
      plain_blocks m;
      check_warm_loop ~cold:true (what ^ ", Perf.run") m (perf_runner m))
    cold_loops

(* A cold batch: 100 generated multi-compartment programs (switcher
   calls, traps, allocator churn, code patches; a fixed seed), each on a
   fresh machine, run once on the jit under [Machine.run] and under
   [Perf.run].  This is the traffic of perfbench's [sim_cold] batch and
   of the lockstep suites, where most blocks run once or twice, so a
   run's heap traffic is mostly translation: the block's arrays, the
   decoder's instructions and options, its record and the PCCs of its
   end, and the cache pages its first fills allocate.  Allocation counts
   are deterministic where wall time is not.  The batch allocates about
   13.5 minor words per retired instruction under [Machine.run] and
   14.6 under [Perf.run]; a translator that built and wrapped a PCC per
   instruction and filled 256-slot pages allocated 33.8 and 34.9. *)
let cold_batch_size = 100
let cold_words_bound = 20.

let test_cold_batch_allocation () =
  let rand = Random.State.make [| 42 |] in
  let batch =
    List.init cold_batch_size (fun _ ->
        QCheck.Gen.generate1 ~rand (Scenario.gen ()))
  in
  let check what run =
    let words = ref 0. and insns = ref 0 in
    List.iter
      (fun sc ->
        let m = (Scenario.link sc).Scenario.t.Cheriot_rtos.Loader.machine in
        let f = run m in
        words := !words +. minor_words_of f;
        insns := !insns + m.Machine.minstret)
      batch;
    let per_insn = !words /. float_of_int !insns in
    Alcotest.(check bool)
      (Printf.sprintf
         "%s: %.2f minor words per retired instruction over %d, under %.0f"
         what per_insn !insns cold_words_bound)
      true
      (!insns > 0 && per_insn < cold_words_bound)
  in
  check "Machine.run" (fun m () ->
      ignore (Machine.run ~dispatch:Machine.Dispatch_jit m));
  check "Perf.run" (fun m ->
      let p =
        Cheriot_uarch.Perf.create ~dispatch:Cheriot_uarch.Perf.Jit
          ~params:Cheriot_uarch.Core_model.(params_of Ibex)
          m
      in
      fun () -> ignore (Cheriot_uarch.Perf.run p))

let suite =
  [
    Alcotest.test_case "block formation and stats accounting" `Quick
      test_formation_and_stats;
    Alcotest.test_case "length cap and terminators bound blocks" `Quick
      test_block_boundaries;
    Alcotest.test_case "self-modifying store abandons its own block" `Quick
      test_self_modifying_abandon;
    Alcotest.test_case "a capability store is snooped on both tiers" `Quick
      test_cap_store_snooped;
    Alcotest.test_case "fuel-exact block cutting" `Quick test_fuel_cutting;
    Alcotest.test_case "device writes keep cached blocks valid" `Quick
      test_device_write_keeps_blocks;
    Alcotest.test_case "bus-bypass writes need an explicit flush" `Quick
      test_bypass_needs_flush;
    Alcotest.test_case "chained edges follow and unlink on store" `Quick
      test_chain_links_and_unlink;
    Alcotest.test_case "flush bumps the chain epoch" `Quick
      test_chain_epoch_flush;
    Alcotest.test_case "a same-pc refill unlinks the replaced block" `Quick
      test_same_pc_refill_unlinks;
    Alcotest.test_case "every translation unit is one basic block" `Quick
      test_one_basic_block_per_unit;
    Alcotest.test_case "in-block csetbounds kills eliminated-check facts"
      `Quick test_jit_csetbounds_kills_facts;
    Alcotest.test_case "hoisted guard survives a mid-trace code patch" `Quick
      test_jit_hoisted_guard_patch_midtrace;
    Alcotest.test_case "jit counters account on merged and recording paths"
      `Quick test_jit_counters_on_both_paths;
    Alcotest.test_case "jit compiles a block once it is hot" `Quick
      test_jit_tiers_by_hotness;
    Alcotest.test_case "Machine.create allocates no major-heap words" `Quick
      test_create_allocates_no_major_words;
    Alcotest.test_case "store snoop kills a block across a page boundary"
      `Quick test_kill_across_page_boundary;
    Alcotest.test_case "flush drops every page, the next fill makes one"
      `Quick test_flush_drops_pages;
    Alcotest.test_case "slot conflicts count as evictions" `Quick
      test_slot_conflict_evicts;
    Alcotest.test_case "an eviction unlinks the evicted block" `Quick
      test_eviction_unlinks;
    Alcotest.test_case "traced chain runs mark chained transfers" `Quick
      test_trace_marks_chained_transfers;
    Alcotest.test_case "traced jit runs mark transfers and deoptimizations"
      `Quick test_trace_marks_jit;
    Alcotest.test_case "the warm jit allocates nothing per instruction" `Quick
      test_warm_jit_allocates_nothing;
    Alcotest.test_case "the warm jit's capability paths allocate nothing"
      `Quick test_warm_cap_jit_allocates_nothing;
    Alcotest.test_case "cold and Rv32 direct edges allocate nothing" `Quick
      test_cold_edges_allocate_nothing;
    Alcotest.test_case "a cold batch allocates under 20 words per instruction"
      `Quick test_cold_batch_allocation;
  ]
