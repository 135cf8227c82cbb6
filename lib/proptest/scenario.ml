(** A qcheck generator of well-formed multi-compartment programs.

    A scenario is a list of compartment bodies drawn from a small op
    vocabulary, plus a seed for the injection schedule the properties
    drive between run batches.  [compile] lowers it to real
    {!Compartment.t}s — every cross-compartment call goes through the
    machine-code switcher via a sealed sentry, exactly like the shipped
    firmware images — and [link] produces a booted {!Loader.t}.

    Well-formedness is by construction: the call graph is a DAG
    (compartment [i] only calls compartments [j > i], so the switcher's
    16-frame trusted stack cannot overflow), loops are counted, and
    every body ends in [Ret] (or [Ebreak] for the boot compartment), so
    un-trapped scenarios terminate.

    The full vocabulary additionally includes definite traps, WFI,
    heap access through harness-allocated capabilities (so allocator
    churn and revocation sweeps are observable from guest code), and
    self-/cross-compartment code patching through a granted write
    capability — stores that go through the bus and hit translated
    blocks, the store-snoop cases of DESIGN.md §9–10.  [clean] restricts
    to the rule-abiding subset the auditor must accept with zero
    findings. *)

open Cheriot_core
open Cheriot_isa
module Compartment = Cheriot_rtos.Compartment
module Loader = Cheriot_rtos.Loader
module Allocator = Cheriot_rtos.Allocator
module Sw_revoker = Cheriot_rtos.Sw_revoker
module Clock = Cheriot_rtos.Clock
module Sram = Cheriot_mem.Sram
module Core_model = Cheriot_uarch.Core_model

type op =
  | Arith of int  (** a0 := a0 + k *)
  | Global_rw of int  (** store a0 to own-globals scratch slot, load back *)
  | Call of int  (** cross-compartment call; target derived, DAG-safe *)
  | Loop of int  (** counted loop whose backedge is the taken direction *)
  | Fall_loop of int
      (** fall-through-dominated counted loop: its exit branch is
          rarely taken, so the loop chains across the branch's fall
          edge *)
  | Heap_rw of int  (** store/load through the harness-allocated heap cap *)
  | Patch of int
      (** store a new instruction word over a compartment's patchable
          slot through the granted code-window capability *)
  | Trap_null  (** load through c0: a definite tag fault *)
  | Wfi_op

type t = {
  bodies : op list list;  (** compartment [i]'s body, in call-DAG order *)
  seed : int;  (** drives the injection schedule (LCG) *)
}

(* --- registers and globals layout ---------------------------------------- *)

let a0 = Insn.reg_a0
let a2 = Insn.reg_a2
let a3 = Insn.reg_a3
let a4 = Insn.reg_a4
let a5 = Insn.reg_a5
let t0 = Insn.reg_t0
let t1 = Insn.reg_t1
let t2 = Insn.reg_t2
let sp = Insn.reg_sp
let gp = Insn.reg_gp
let ra = Insn.reg_ra

let comp_name i = Printf.sprintf "c%d" i

(* Globals layout of compartment [i] in an [n]-compartment scenario:
   slot 0 the switcher sentry (reserved), one import slot per possible
   callee, then the harness-poked heap and patch-capability slots, then
   a scratch window for the data ops. *)
let slot_import j = 8 * (j + 1)
let slot_heap n = 8 * (n + 1)
let slot_patch n j = 8 * (n + 2 + j)
let scratch_base n = 8 * ((2 * n) + 3)
let globals_size n = scratch_base n + 64

(** The byte offset, within every compartment's code region, of its
    patchable instruction (right after the 2-word prologue). *)
let patch_offset = 8

let patch_insn_before = Insn.Op_imm (Add, a3, a3, 0)
let patch_insn_after = Insn.Op_imm (Add, a3, a3, 1)

(* --- compilation ---------------------------------------------------------- *)

let call_target ~n ~comp k =
  if comp >= n - 1 then None else Some (comp + 1 + (k mod (n - 1 - comp)))

let compile_op ~n ~comp op =
  match op with
  | Arith k -> [ Asm.I (Insn.Op_imm (Add, a0, a0, k land 0xFF)) ]
  | Global_rw k ->
      let off = scratch_base n + (4 * (k land 7)) in
      [
        Asm.I (Insn.Store { width = W; rs2 = a0; rs1 = gp; off });
        Asm.I (Insn.Load { signed = true; width = W; rd = a2; rs1 = gp; off });
      ]
  | Call k -> (
      match call_target ~n ~comp k with
      | None -> [ Asm.I (Insn.Op_imm (Add, a0, a0, 1)) ]
      | Some j ->
          [
            Asm.I (Insn.Clc (t1, gp, slot_import j));
            Asm.I (Insn.Clc (t2, gp, Compartment.switcher_slot));
            Asm.I (Insn.Jalr (ra, t2, 0));
          ])
  | Loop k ->
      let k = 1 + (k land 7) in
      [
        Asm.Li (t0, k);
        Asm.I (Insn.Op_imm (Add, t0, t0, -1));
        Asm.I (Insn.Branch (Ne, t0, 0, -4));
      ]
  | Fall_loop k ->
      let k = 2 + (k land 7) in
      [
        Asm.Li (t0, k);
        Asm.Li (a2, 0);
        (* head: *)
        Asm.I (Insn.Op_imm (Add, a2, a2, 1));
        Asm.I (Insn.Branch (Eq, a2, t0, 12));
        (* rarely-taken exit: the fall edge dominates *)
        Asm.I (Insn.Op_imm (Add, a0, a0, 1));
        Asm.I (Insn.Jal (0, -12));
        (* out: *)
      ]
  | Heap_rw k ->
      let off = 4 * (k land 7) in
      [
        Asm.I (Insn.Clc (a4, gp, slot_heap n));
        Asm.I (Insn.Store { width = W; rs2 = a0; rs1 = a4; off });
        Asm.I (Insn.Load { signed = true; width = W; rd = a5; rs1 = a4; off });
      ]
  | Patch k ->
      let j = k mod n in
      [
        Asm.I (Insn.Clc (a4, gp, slot_patch n j));
        Asm.Li (a5, Encode.encode patch_insn_after);
        Asm.I (Insn.Store { width = W; rs2 = a5; rs1 = a4; off = 0 });
      ]
  | Trap_null -> [ Asm.I (Insn.Clc (t0, 0, 0)) ]
  | Wfi_op -> [ Asm.I Insn.Wfi ]

let compile_body ~n ~comp ops =
  let prologue =
    [
      Asm.Label "e";
      Asm.I (Insn.Cincaddrimm (sp, sp, -16));
      Asm.I (Insn.Csc (ra, sp, 0));
      Asm.I patch_insn_before;
    ]
  in
  let epilogue =
    if comp = 0 then [ Asm.I Insn.Ebreak ]
    else
      [
        Asm.I (Insn.Clc (ra, sp, 0));
        Asm.I (Insn.Cincaddrimm (sp, sp, 16));
        Asm.Ret;
      ]
  in
  List.concat
    [ prologue; List.concat_map (compile_op ~n ~comp) ops; epilogue ]

let normalize bodies = if bodies = [] then [ [] ] else bodies

(** Lower the scenario to linkable compartments. *)
let compile sc =
  let bodies = normalize sc.bodies in
  let n = List.length bodies in
  List.mapi
    (fun comp ops ->
      let imports =
        List.sort_uniq compare
          (List.filter_map
             (function
               | Call k -> call_target ~n ~comp k
               | _ -> None)
             ops)
      in
      Compartment.v ~name:(comp_name comp) ~globals_size:(globals_size n)
        ~exports:
          [ { Compartment.exp_label = "e"; exp_posture = Interrupts_enabled } ]
        ~imports:
          (List.map
             (fun j ->
               {
                 Compartment.imp_compartment = comp_name j;
                 imp_export = "e";
                 imp_slot = slot_import j;
               })
             imports)
        (compile_body ~n ~comp ops))
    bodies

(* --- the interrupt service routine ---------------------------------------

   The loader's trap stub is a bare [Ebreak]: any trap halts the
   simulation, which is the right default for the deterministic tests
   but would make interrupt injection meaningless.  The harness installs
   a minimal ISR in the free space of the trap area instead: interrupts
   (mcause bit 31, negative as a signed word) disarm the timer and
   [Mret] back; synchronous traps still halt via [Ebreak].  The
   interrupted thread's t0 is preserved through MTDC, so the ISR is
   architecturally transparent up to the (identical on every machine)
   MTDC copy. *)

let isr_code =
  [
    Asm.Label "isr";
    (* save t0 (t0 <-> mtdc swap), then t0 := mcause *)
    Asm.I (Insn.Cspecialrw (t0, MTDC, t0));
    Asm.I (Insn.Csr (Csrrs, t0, 0, Csr.mcause));
    Asm.B (Insn.Lt, t0, 0, "isr_irq");
    Asm.I Insn.Ebreak;
    Asm.Label "isr_irq";
    (* disarm the timer so a static comparator cannot re-fire forever *)
    Asm.I (Insn.Csr (Csrrw, 0, 0, Csr.mtimecmp));
    (* restore t0 (mtdc keeps the copy; identical on every machine) *)
    Asm.I (Insn.Cspecialrw (t0, MTDC, 0));
    Asm.I Insn.Mret;
  ]

(* --- linking and instrumentation ------------------------------------------ *)

type linked = {
  t : Loader.t;
  n : int;
  alloc : Allocator.t option;
  mutable handles : Capability.t list;
      (** live harness-held heap allocations, oldest first *)
}

let heap_size = 8192

(** Link the compiled image.  [instrument] (default true) additionally:
    installs the ISR and points MTCC at it with interrupts enabled,
    creates a software-temporal allocator over the image heap, pokes one
    32-byte allocation into every compartment's heap slot, and pokes a
    write capability over every compartment's patchable instruction into
    every compartment's patch slots.  The auditor-precision property
    links with [instrument:false]: a clean image exactly as the loader
    built it. *)
let link ?(instrument = true) sc =
  let bodies = normalize sc.bodies in
  let n = List.length bodies in
  let t =
    Loader.link (compile { sc with bodies }) ~boot:(comp_name 0, "e")
      ~heap_size
  in
  if not instrument then { t; n; alloc = None; handles = [] }
  else begin
    let m = t.Loader.machine in
    let sram = t.Loader.sram in
    (* ISR into the free tail of the trap area (the stub itself is one
       word at base+0x800; compartment code starts at base+0x1000) *)
    let isr_origin = Sram.base sram + 0x880 in
    let isr_img = Asm.assemble ~origin:isr_origin isr_code in
    Asm.load isr_img sram;
    Machine.flush_decode_cache m;
    m.Machine.mtcc <-
      Capability.set_bounds
        (Capability.with_address Capability.root_executable isr_origin)
        ~length:(Asm.bytes_size isr_img) ~exact:false;
    m.Machine.mie <- true;
    (* allocator over the image heap, software temporal safety *)
    let clock = Clock.create (Core_model.params_of Core_model.Ibex) in
    let alloc =
      Allocator.create ~temporal:Allocator.Software ~sram
        ~rev:t.Loader.rev ~clock ~heap_base:t.Loader.heap_base
        ~heap_size:t.Loader.heap_size ()
    in
    Allocator.set_sw_revoker alloc
      (Sw_revoker.create ~sram ~rev:t.Loader.rev ~clock ());
    let handles = ref [] in
    let comps = List.mapi (fun i _ -> Loader.find t (comp_name i)) bodies in
    List.iter
      (fun (b : Loader.built) ->
        (match Allocator.malloc alloc 32 with
        | Ok c ->
            handles := !handles @ [ c ];
            Sram.write_cap sram (b.Loader.globals_base + slot_heap n) c
        | Error _ -> ());
        (* write capabilities over every compartment's patchable word *)
        List.iteri
          (fun j (v : Loader.built) ->
            let addr = v.Loader.image.Asm.origin + patch_offset in
            let c =
              Capability.set_bounds
                (Capability.with_address Capability.root_mem_rw addr)
                ~length:4 ~exact:false
            in
            Sram.write_cap sram (b.Loader.globals_base + slot_patch n j) c)
          comps)
      comps;
    { t; n; alloc = Some alloc; handles = !handles }
  end

(* --- generation ----------------------------------------------------------- *)

let gen_op ~clean : op QCheck.Gen.t =
  let open QCheck.Gen in
  let base =
    [
      (3, map (fun k -> Arith k) (int_bound 255));
      (2, map (fun k -> Global_rw k) (int_bound 7));
      (3, map (fun k -> Call k) (int_bound 7));
      (2, map (fun k -> Loop k) (int_bound 7));
      (2, map (fun k -> Fall_loop k) (int_bound 7));
    ]
  in
  let dirty =
    [
      (2, map (fun k -> Heap_rw k) (int_bound 7));
      (2, map (fun k -> Patch k) (int_bound 7));
      (1, return Trap_null);
      (1, return Wfi_op);
    ]
  in
  frequency (if clean then base else base @ dirty)

let gen ?(clean = false) () : t QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = 1 -- 4 in
  let* bodies =
    list_size (return n) (list_size (1 -- 6) (gen_op ~clean))
  in
  let* seed = int_bound 0x3FFF_FFFF in
  return { bodies; seed }

(* --- shrinking ------------------------------------------------------------ *)

let shrink_op op =
  let open QCheck.Iter in
  match op with
  | Arith k -> map (fun k -> Arith k) (QCheck.Shrink.int k)
  | Global_rw k -> map (fun k -> Global_rw k) (QCheck.Shrink.int k)
  | Call k -> return (Arith 1) <+> map (fun k -> Call k) (QCheck.Shrink.int k)
  | Loop k -> return (Arith 1) <+> map (fun k -> Loop k) (QCheck.Shrink.int k)
  | Fall_loop k ->
      return (Loop k) <+> map (fun k -> Fall_loop k) (QCheck.Shrink.int k)
  | Heap_rw k ->
      return (Arith 1) <+> map (fun k -> Heap_rw k) (QCheck.Shrink.int k)
  | Patch k ->
      return (Arith 1) <+> map (fun k -> Patch k) (QCheck.Shrink.int k)
  | Trap_null | Wfi_op -> empty

let shrink sc =
  let open QCheck.Iter in
  let bodies_it =
    QCheck.Shrink.list ~shrink:(QCheck.Shrink.list ~shrink:shrink_op)
      sc.bodies
  in
  map (fun bodies -> { sc with bodies }) bodies_it
  <+> map (fun seed -> { sc with seed }) (QCheck.Shrink.int sc.seed)

(* --- printing ------------------------------------------------------------- *)

let op_name = function
  | Arith k -> Printf.sprintf "arith %d" k
  | Global_rw k -> Printf.sprintf "global_rw %d" k
  | Call k -> Printf.sprintf "call %d" k
  | Loop k -> Printf.sprintf "loop %d" k
  | Fall_loop k -> Printf.sprintf "fall_loop %d" k
  | Heap_rw k -> Printf.sprintf "heap_rw %d" k
  | Patch k -> Printf.sprintf "patch %d" k
  | Trap_null -> "trap_null"
  | Wfi_op -> "wfi"

(** Shrunk-counterexample printer: the op-level scenario, the assembled
    per-compartment listings, and the head of a reference-path execution
    trace (via {!Trace}) of the instrumented image — everything needed
    to reproduce and eyeball a failure from the qcheck seed alone. *)
let print sc =
  let b = Buffer.create 1024 in
  let bodies = normalize sc.bodies in
  Buffer.add_string b
    (Printf.sprintf "scenario: %d compartment(s), injection seed %d\n"
       (List.length bodies) sc.seed);
  List.iteri
    (fun i ops ->
      Buffer.add_string b
        (Printf.sprintf "  %s: [%s]\n" (comp_name i)
           (String.concat "; " (List.map op_name ops))))
    bodies;
  (try
     let { t; _ } = link ~instrument:true sc in
     List.iteri
       (fun i _ ->
         let bt = Loader.find t (comp_name i) in
         let img = bt.Loader.image in
         Buffer.add_string b (Printf.sprintf "%s @ 0x%x:\n" (comp_name i)
           img.Asm.origin);
         Array.iteri
           (fun w word ->
             let pc = img.Asm.origin + (4 * w) in
             match Encode.decode word with
             | Some insn ->
                 Buffer.add_string b
                   (Printf.sprintf "  0x%06x  %08x  %s\n" pc word
                      (Insn.to_string insn))
             | None ->
                 Buffer.add_string b
                   (Printf.sprintf "  0x%06x  %08x  ???\n" pc word))
           img.Asm.words)
       bodies;
     Buffer.add_string b "reference trace (head):\n";
     let count = ref 0 in
     ignore
       (Trace.run t.Loader.machine ~fuel:48 ~dispatch:Machine.Dispatch_ref
          ~f:(fun e ->
            incr count;
            Buffer.add_string b (Fmt.str "%a\n" Trace.pp_entry e)))
   with e ->
     Buffer.add_string b
       (Printf.sprintf "<listing unavailable: %s>\n" (Printexc.to_string e)));
  Buffer.contents b

let arb ?(clean = false) () = QCheck.make ~print ~shrink (gen ~clean ())
