(* Cross-layer integration: the OCaml-level allocator manages the heap
   region of a loader-built machine image, and machine code dereferences
   the capabilities it issues.  Freeing an object kills the machine-level
   access path through the architectural load filter — the full temporal
   safety story of paper 3.3 + 5.1 in one test. *)

open Cheriot_core
open Cheriot_isa
module Compartment = Cheriot_rtos.Compartment
module Loader = Cheriot_rtos.Loader
module Sram = Cheriot_mem.Sram
module Clock = Cheriot_rtos.Clock
module Allocator = Cheriot_rtos.Allocator
module Sw_revoker = Cheriot_rtos.Sw_revoker
module Core_model = Cheriot_uarch.Core_model
module Boot = Cheriot_proptest.Boot

let a0 = Insn.reg_a0
let t0 = Insn.reg_t0
let gp = Insn.reg_gp

(* The compartment loads a heap capability from its globals (slot 16,
   planted by the test) and reads through it. *)
let consumer =
  Compartment.v ~name:"consumer" ~globals_size:64
    ~exports:[ { exp_label = "main"; exp_posture = Interrupts_enabled } ]
    [
      Asm.Label "main";
      Asm.I (Insn.Clc (t0, gp, 16));
      (* report the loaded tag in a1 and, if tagged, the pointee in a0 *)
      Asm.I (Insn.Cget (Tag, Insn.reg_a1, t0));
      Asm.B (Insn.Eq, Insn.reg_a1, 0, "dead");
      Asm.I (Insn.Load { signed = true; width = W; rd = a0; rs1 = t0; off = 0 });
      Asm.I Insn.Ebreak;
      Asm.Label "dead";
      Asm.Li (a0, -1);
      Asm.I Insn.Ebreak;
    ]

let setup () =
  let t = Loader.link [ consumer ] ~boot:("consumer", "main") in
  let clock = Clock.create (Core_model.params_of Core_model.Ibex) in
  let alloc =
    Allocator.create ~temporal:Allocator.Software ~sram:t.Loader.sram
      ~rev:t.Loader.rev ~clock ~heap_base:t.Loader.heap_base
      ~heap_size:t.Loader.heap_size ()
  in
  Allocator.set_sw_revoker alloc
    (Sw_revoker.create ~sram:t.Loader.sram ~rev:t.Loader.rev ~clock ());
  (t, alloc)

let plant t cap =
  let b = Loader.find t "consumer" in
  Sram.write_cap t.Loader.sram (b.Loader.globals_base + 16) cap

let run_consumer t =
  (* restart the boot thread at its entry *)
  let b = Loader.find t "consumer" in
  let m = t.Loader.machine in
  m.Machine.pcc <- Capability.with_address b.Loader.code_cap
      (Asm.label b.Loader.image "main");
  Machine.set_reg m gp b.Loader.globals_cap;
  match Machine.run ~fuel:10_000 m with
  | Machine.Step_halted, _ ->
      (Machine.reg_int m a0, Machine.reg_int m Insn.reg_a1)
  | _ -> Alcotest.fail "consumer did not halt"

let test_live_then_freed () =
  let t, alloc = setup () in
  let obj =
    match Allocator.malloc alloc 32 with
    | Ok c -> c
    | Error e -> Alcotest.failf "malloc: %a" Allocator.pp_error e
  in
  Sram.write32 t.Loader.sram (Capability.base obj) 0xbeef;
  plant t obj;
  let v, tag = run_consumer t in
  Alcotest.(check int) "live object readable from machine code" 0xbeef v;
  Alcotest.(check int) "tag present" 1 tag;
  (* free it: the planted capability's granule is painted, so the very
     next machine-level clc strips the tag -- before any sweep runs *)
  (match Allocator.free alloc obj with
  | Ok () -> ()
  | Error e -> Alcotest.failf "free: %a" Allocator.pp_error e);
  let v2, tag2 = run_consumer t in
  Alcotest.(check int) "load filter killed the stale cap" 0 tag2;
  Alcotest.(check int) "dead path taken" 0xFFFFFFFF v2

let test_filter_off_ablation () =
  (* With the load filter disabled (the hardware ablation), the stale
     capability would still load -- quantifying what the filter buys. *)
  let t, alloc = setup () in
  t.Loader.machine.Machine.load_filter <- false;
  let obj =
    match Allocator.malloc alloc 32 with
    | Ok c -> c
    | Error e -> Alcotest.failf "malloc: %a" Allocator.pp_error e
  in
  plant t obj;
  (match Allocator.free alloc obj with Ok () -> () | Error _ -> ());
  let _, tag = run_consumer t in
  Alcotest.(check int) "without the filter the stale cap survives" 1 tag

let test_heap_cap_covers_heap () =
  let t, _ = setup () in
  let h = Loader.heap_cap t in
  Alcotest.(check bool) "tagged" true (Capability.tag h);
  Alcotest.(check int) "base" t.Loader.heap_base (Capability.base h);
  Alcotest.(check int) "len" t.Loader.heap_size (Capability.length h);
  Alcotest.(check bool) "no SL" false (Capability.has_perm h SL)

let test_trace_records () =
  let t, _ = setup () in
  let entries = ref 0 in
  let result, steps =
    Trace.run t.Loader.machine ~fuel:1000 ~f:(fun e ->
        incr entries;
        (* every entry renders *)
        ignore (Fmt.str "%a" Trace.pp_entry e))
  in
  Alcotest.(check bool) "halted" true (result = Machine.Step_halted);
  Alcotest.(check int) "one entry per step" steps !entries;
  let tiers = [ ("ref", Machine.Dispatch_ref); ("jit", Machine.Dispatch_jit) ] in
  let boot words = Boot.code_only (List.map Encode.encode words) in
  let addi_wfi_ebreak = Insn.[ Op_imm (Add, a0, a0, 1); Wfi; Ebreak ] in
  (* A delivered interrupt and a word the jit cannot translate (here an
     illegal one, which it hands to a reference step) render alike on
     both tiers: no instruction, at the pc they stopped. *)
  let rendered ~prep words dispatch =
    let m, _ = boot words in
    prep m;
    let es = ref [] in
    ignore
      (Trace.run m ~dispatch ~f:(fun e ->
           es := Fmt.str "%a" Trace.pp_entry e :: !es));
    List.rev !es
  in
  let interrupted (m : Machine.t) =
    m.Machine.mie <- true;
    m.Machine.ext_interrupt <- true;
    m.Machine.mtcc <-
      Capability.with_address m.Machine.pcc (Boot.code_base + 8)
  in
  List.iter
    (fun (name, prep, words) ->
      let r = rendered ~prep words Machine.Dispatch_ref in
      Alcotest.(check int) (name ^ ": two entries") 2 (List.length r);
      Alcotest.(check (list string)) (name ^ ": same trace on both tiers") r
        (rendered ~prep words Machine.Dispatch_jit))
    [
      ("interrupt", interrupted, addi_wfi_ebreak);
      ("illegal word", ignore, Insn.[ Op_imm (Add, a0, a0, 1) ]);
    ];
  (* A machine already in WFI steps without retiring anything: on both
     tiers the tracer renders that step as [<no retire>] at the pc after
     the [wfi], not as the previous instruction. *)
  List.iter
    (fun (name, dispatch) ->
      let m, _ = boot addi_wfi_ebreak in
      let first, _ = Trace.run m ~dispatch ~f:ignore in
      Alcotest.(check bool) (name ^ ": the first call stops in wfi") true
        (first = Machine.Step_waiting);
      let entries = ref [] in
      let _ = Trace.run m ~dispatch ~f:(fun e -> entries := e :: !entries) in
      match !entries with
      | [ e ] ->
          Alcotest.(check string)
            (name ^ ": the waiting step retires nothing")
            (Printf.sprintf "%8d  %8d  0x%08x  <no retire>  (wfi)" 0 0
               (Boot.code_base + 8))
            (Fmt.str "%a" Trace.pp_entry e)
      | es ->
          Alcotest.failf "%s: %d entries for one waiting step" name
            (List.length es))
    tiers

let suite =
  [
    Alcotest.test_case "allocator caps usable from machine code; free kills"
      `Quick test_live_then_freed;
    Alcotest.test_case "load-filter-off ablation" `Quick
      test_filter_off_ablation;
    Alcotest.test_case "loader heap capability" `Quick
      test_heap_cap_covers_heap;
    Alcotest.test_case "tracer records every step" `Quick test_trace_records;
  ]
