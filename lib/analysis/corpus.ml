(* Corpus of deliberately-bad images for the auditor, one per rule.

   Each entry links a small system and then (for the link-* rules)
   corrupts the image the way a malicious or buggy toolchain would —
   directly through SRAM or the boot register file, below the level the
   loader's own abstractions enforce.  The contract, enforced by
   [test_audit] and the [cheriot_audit corpus] CI gate, is that auditing
   each image yields findings for exactly its expected rule: no false
   negatives (the rule fires) and no false positives (nothing else
   does). *)

open Cheriot_core
module Sram = Cheriot_mem.Sram
open Cheriot_isa
module Loader = Cheriot_rtos.Loader
module Compartment = Cheriot_rtos.Compartment
module Switcher_asm = Cheriot_rtos.Switcher_asm

let enabled = Compartment.Interrupts_enabled

let export l = { Compartment.exp_label = l; exp_posture = enabled }

let export_p p l = { Compartment.exp_label = l; exp_posture = p }

(* single-compartment harness for the cfg-*, flow-*, irq-* and tmp-*
   rules *)
let victim_exports exports code =
  Loader.link
    [ Compartment.v ~name:"victim" ~globals_size:64 ~exports code ]
    ~boot:("victim", "main")

let victim code = victim_exports [ export "main" ] code

(* two-compartment harness for the link-* rules: "app" calls "lib.double"
   through import slot 8 and the switcher sentry in slot 0 *)
let lib ?(globals_size = 64) () =
  Compartment.v ~name:"lib" ~globals_size ~exports:[ export "double" ]
    [ Asm.Label "double";
      Asm.I (Insn.Op (Insn.Add, Insn.reg_a0, Insn.reg_a0, Insn.reg_a0));
      Asm.Ret ]

let app ?(code = None) ?(slot = 8) () =
  let code =
    match code with
    | Some c -> c
    | None ->
        [ Asm.Label "main";
          Asm.I (Insn.Clc (Insn.reg_t0, Insn.reg_gp, slot));
          Asm.I (Insn.Clc (Insn.reg_t1, Insn.reg_gp, 0));
          Asm.I (Insn.Jalr (Insn.reg_ra, Insn.reg_t1, 0));
          Asm.I Insn.Ebreak ]
  in
  Compartment.v ~name:"app" ~globals_size:64 ~exports:[ export "main" ]
    ~imports:
      [ { Compartment.imp_compartment = "lib"; imp_export = "double";
          imp_slot = slot } ]
    code

let pair () = Loader.link [ app (); lib () ] ~boot:("app", "main")

(* the canonical cross-compartment call sequence: sealed import
   descriptor from [slot] into ct0, switcher sentry from slot 0 into
   ct1, jump through the sentry *)
let call_slot slot =
  [ Asm.I (Insn.Clc (Insn.reg_t0, Insn.reg_gp, slot));
    Asm.I (Insn.Clc (Insn.reg_t1, Insn.reg_gp, 0));
    Asm.I (Insn.Jalr (Insn.reg_ra, Insn.reg_t1, 0)) ]

let import c label slot =
  { Compartment.imp_compartment = c; imp_export = label; imp_slot = slot }

let sentry c k =
  match Capability.seal_sentry c k with
  | Ok s -> s
  | Error e -> failwith ("corpus: " ^ e)

let seal c ~otype =
  match
    Capability.seal c ~key:(Capability.with_address Capability.root_sealing otype)
  with
  | Ok s -> s
  | Error e -> failwith ("corpus: " ^ e)

let write_cap (t : Loader.t) addr c = Sram.write_cap t.Loader.sram addr c

let mem_window ?(sl = false) base len =
  let c =
    Capability.set_bounds
      (Capability.with_address Capability.root_mem_rw base)
      ~length:len ~exact:false
  in
  if sl then c else Capability.clear_perms c [ SL ]

let import_slot_addr t comp slot =
  (Loader.find t comp).Loader.globals_base + slot

let desc_addr t comp label =
  Capability.base (Loader.export_descriptor (Loader.find t comp) label)

(* --- the corpus ---------------------------------------------------------- *)

type entry = { name : string; rule : string; build : unit -> Loader.t }

let e name rule build = { name; rule; build }

let lw rd rs1 off =
  Asm.I (Insn.Load { signed = true; width = Insn.W; rd; rs1; off })

let sw rs2 rs1 off = Asm.I (Insn.Store { width = Insn.W; rs2; rs1; off })

let entries =
  [
    (* --- cfg-* ----------------------------------------------------------- *)
    e "undecodable-word" Rules.cfg_undecodable (fun () ->
        victim [ Asm.Label "main"; Asm.Word 0xFFFF_FFFF ]);
    e "direct-cross-jal" Rules.cfg_direct_cross (fun () ->
        (* "victim" is laid out first; the next compartment's code begins
           0x40 past its origin, so a direct Jal +0x40 from [main] lands
           in foreign code *)
        Loader.link
          [ Compartment.v ~name:"victim" ~globals_size:64
              ~exports:[ export "main" ]
              [ Asm.Label "main"; Asm.I (Insn.Jal (0, 0x40)); Asm.I Insn.Ebreak ];
            Compartment.v ~name:"other" ~globals_size:16
              [ Asm.Label "foo"; Asm.I Insn.Ebreak ] ]
          ~boot:("victim", "main"));
    e "fallthrough-exit" Rules.cfg_fallthrough_exit (fun () ->
        victim
          [ Asm.Label "main";
            Asm.I (Insn.Op_imm (Insn.Add, Insn.reg_a0, Insn.reg_a0, 1)) ]);
    (* --- flow-* ---------------------------------------------------------- *)
    e "store-local-via-globals" Rules.flow_store_local_leak (fun () ->
        (* sp is local (no GL); cgp lacks SL: storing sp through it must
           trap on real hardware, and is a leak the auditor must flag *)
        victim
          [ Asm.Label "main";
            Asm.I (Insn.Csc (Insn.reg_sp, Insn.reg_gp, 24));
            Asm.I Insn.Ebreak ]);
    e "oob-after-setbounds" Rules.flow_oob_access (fun () ->
        victim
          [ Asm.Label "main";
            Asm.I (Insn.Cincaddrimm (Insn.reg_t0, Insn.reg_gp, 0));
            Asm.I (Insn.Csetboundsimm (Insn.reg_t0, Insn.reg_t0, 16));
            lw Insn.reg_a0 Insn.reg_t0 16;
            Asm.I Insn.Ebreak ]);
    e "jump-through-data-cap" Rules.flow_jump_not_executable (fun () ->
        victim
          [ Asm.Label "main";
            Asm.I (Insn.Jalr (Insn.reg_ra, Insn.reg_gp, 0));
            Asm.I Insn.Ebreak ]);
    e "widening-setbounds" Rules.flow_widening_derivation (fun () ->
        victim
          [ Asm.Label "main";
            Asm.I (Insn.Csetboundsimm (Insn.reg_t0, Insn.reg_gp, 16));
            Asm.I (Insn.Csetboundsimm (Insn.reg_t1, Insn.reg_t0, 64));
            Asm.I Insn.Ebreak ]);
    e "deref-cleared-tag" Rules.flow_untagged_deref (fun () ->
        victim
          [ Asm.Label "main";
            Asm.I (Insn.Ccleartag (Insn.reg_t0, Insn.reg_gp));
            lw Insn.reg_a0 Insn.reg_t0 0;
            Asm.I Insn.Ebreak ]);
    e "store-through-pcc" Rules.flow_missing_perm (fun () ->
        (* the code capability has no SD (W^X): a store through it
           provably lacks the needed permission *)
        victim
          [ Asm.Label "main";
            Asm.I (Insn.Auipcc (Insn.reg_t0, 0));
            sw Insn.reg_a0 Insn.reg_t0 0;
            Asm.I Insn.Ebreak ]);
    (* --- interprocedural / field-sensitive flow --------------------------- *)
    e "helper-call-oob" Rules.flow_oob_access (fun () ->
        (* the out-of-bounds capability is built by a helper function;
           only the call-summary analysis still knows its bounds at the
           caller's load (a clobbering analysis provably misses this —
           regression-tested) *)
        victim
          [ Asm.Label "main";
            Asm.Call "mkcap";
            lw Insn.reg_a1 Insn.reg_a0 16;
            Asm.I Insn.Ebreak;
            Asm.Label "mkcap";
            Asm.I (Insn.Cincaddrimm (Insn.reg_a0, Insn.reg_gp, 0));
            Asm.I (Insn.Csetboundsimm (Insn.reg_a0, Insn.reg_a0, 16));
            Asm.Ret ]);
    e "launder-local-via-slot" Rules.flow_launder_local (fun () ->
        (* sp is parked in a global slot through a forged SL-bearing
           window, reloaded, and re-stored through the SL-lacking cgp;
           only the field-sensitive store map keeps the slot's must-tag
           evidence across the two stores *)
        let t =
          victim
            [ Asm.Label "main";
              Asm.I (Insn.Clc (Insn.reg_t0, Insn.reg_gp, 24));
              Asm.I (Insn.Csc (Insn.reg_sp, Insn.reg_t0, 32));
              Asm.I (Insn.Clc (Insn.reg_t1, Insn.reg_gp, 32));
              Asm.I (Insn.Csc (Insn.reg_t1, Insn.reg_gp, 40));
              Asm.I Insn.Ebreak ]
        in
        let g = (Loader.find t "victim").Loader.globals_base in
        write_cap t (g + 24) (mem_window ~sl:true g 64);
        t);
    (* --- irq-* ------------------------------------------------------------ *)
    e "irq-spin-disabled" Rules.irq_unbounded_disabled (fun () ->
        victim_exports
          [ export_p Compartment.Interrupts_disabled "main" ]
          [ Asm.Label "main"; Asm.I (Insn.Jal (0, 0)) ]);
    e "irq-long-disabled" Rules.irq_over_budget (fun () ->
        victim_exports
          [ export_p Compartment.Interrupts_disabled "main" ]
          (Asm.Label "main"
           :: List.init 68 (fun _ ->
                  Asm.I (Insn.Op_imm (Insn.Add, Insn.reg_t0, Insn.reg_t0, 1)))
          @ [ Asm.I Insn.Ebreak ]));
    e "irq-posture-reentry" Rules.irq_inconsistent_reentry (fun () ->
        (* a direct goto from the interrupts-enabled entry into the
           interrupts-disabled one: the declared posture does not hold on
           internal re-entry *)
        victim_exports
          [ export "main"; export_p Compartment.Interrupts_disabled "crit" ]
          [ Asm.Label "main"; Asm.J (0, "crit");
            Asm.Label "crit"; Asm.I Insn.Ebreak ]);
    (* --- tmp-* ------------------------------------------------------------ *)
    e "heap-cap-escape" Rules.tmp_heap_escape (fun () ->
        (* a heap capability loaded from a slot, stripped of GL and
           parked in another global slot: the revoker can no longer see
           that the allocation is referenced *)
        let drop_gl =
          Perm.Set.to_arch_bits
            (Perm.Set.remove Perm.GL (Perm.Set.of_list Perm.all))
        in
        let t =
          victim
            [ Asm.Label "main";
              Asm.I (Insn.Clc (Insn.reg_t0, Insn.reg_gp, 16));
              Asm.Li (Insn.reg_t1, drop_gl);
              Asm.I (Insn.Candperm (Insn.reg_t0, Insn.reg_t0, Insn.reg_t1));
              Asm.I (Insn.Csc (Insn.reg_t0, Insn.reg_gp, 24));
              Asm.I Insn.Ebreak ]
        in
        let g = (Loader.find t "victim").Loader.globals_base in
        write_cap t (g + 16) (Loader.heap_cap t);
        t);
    e "import-into-heap" Rules.tmp_import_dangling (fun () ->
        (* the import slot is sealed with the right otype but its range
           lies in the revocable heap: a dangling cross-call target *)
        let t = pair () in
        write_cap t
          (import_slot_addr t "app" 8)
          (seal
             (mem_window t.Loader.heap_base 16)
             ~otype:Switcher_asm.export_otype);
        t);
    (* --- link-* ---------------------------------------------------------- *)
    e "import-unsealed" Rules.link_import_unsealed (fun () ->
        let t = pair () in
        write_cap t (import_slot_addr t "app" 8) (Loader.heap_cap t);
        t);
    e "import-wrong-otype" Rules.link_import_wrong_otype (fun () ->
        let t = pair () in
        let daddr = desc_addr t "lib" "double" in
        let raw = Capability.clear_perms (mem_window daddr 16) [ SD ] in
        write_cap t (import_slot_addr t "app" 8) (seal raw ~otype:2);
        t);
    e "import-slot-out-of-range" Rules.link_import_slot_range (fun () ->
        (* slot 128 is past app's 64-byte globals; the stray descriptor
           lands harmlessly inside lib's (enlarged) globals *)
        Loader.link
          [ app ~code:(Some [ Asm.Label "main"; Asm.I Insn.Ebreak ]) ~slot:128 ();
            lib ~globals_size:256 () ]
          ~boot:("app", "main"));
    e "export-posture-mismatch" Rules.link_export_posture (fun () ->
        let t = pair () in
        let b = Loader.find t "lib" in
        let entry = Asm.label b.Loader.image "double" in
        let s =
          sentry
            (Capability.with_address b.Loader.code_cap entry)
            Otype.Sentry_disable (* declared Interrupts_enabled *)
        in
        write_cap t (desc_addr t "lib" "double") s;
        t);
    e "export-entry-escape" Rules.link_export_entry_escape (fun () ->
        let t = pair () in
        let a = Loader.find t "app" in
        let s =
          sentry
            (Capability.with_address a.Loader.code_cap
               (Asm.label a.Loader.image "main"))
            Otype.Sentry_enable
        in
        write_cap t (desc_addr t "lib" "double") s;
        t);
    e "globals-cap-with-sl" Rules.link_globals_cap (fun () ->
        let t = pair () in
        let b = Loader.find t "lib" in
        write_cap t
          (desc_addr t "lib" "double" + 8)
          (mem_window ~sl:true b.Loader.globals_base 64);
        t);
    e "local-cap-in-globals" Rules.link_local_leak (fun () ->
        let t = pair () in
        let b = Loader.find t "lib" in
        let local =
          Capability.clear_perms (mem_window b.Loader.globals_base 64) [ GL ]
        in
        write_cap t (b.Loader.globals_base + 24) local;
        t);
    e "reserved-otype-reachable" Rules.link_reserved_otype (fun () ->
        let t = pair () in
        let b = Loader.find t "lib" in
        write_cap t
          (b.Loader.globals_base + 24)
          (Capability.with_address Capability.root_sealing 1);
        t);
    e "sr-bearing-export" Rules.link_sr_leak (fun () ->
        let t = pair () in
        let b = Loader.find t "lib" in
        let entry = Asm.label b.Loader.image "double" in
        let c =
          Capability.set_bounds
            (Capability.with_address Capability.root_executable
               b.Loader.image.Asm.origin)
            ~length:(Asm.bytes_size b.Loader.image)
            ~exact:false
        in
        (* SR deliberately retained *)
        let s = sentry (Capability.with_address c entry) Otype.Sentry_enable in
        write_cap t (desc_addr t "lib" "double") s;
        t);
    e "switcher-slot-unsealed" Rules.link_switcher_slot (fun () ->
        let t = pair () in
        let c =
          Capability.clear_perms
            (Capability.set_bounds
               (Capability.with_address Capability.root_executable
                  (Sram.base t.Loader.sram))
               ~length:0x800 ~exact:false)
            [ SR ]
        in
        write_cap t (import_slot_addr t "app" 0) c;
        t);
    e "global-stack-cap" Rules.link_stack_cap (fun () ->
        let t = pair () in
        (* GL retained: a global stack capability could be smuggled across
           compartment boundaries *)
        Machine.set_reg t.Loader.machine Insn.reg_sp
          (mem_window ~sl:true t.Loader.stack_base t.Loader.stack_size);
        t);
    e "heap-overlaps-stack" Rules.link_heap_layout (fun () ->
        let t = pair () in
        { t with Loader.heap_base = t.Loader.stack_base });
    (* --- xflow-* (compositional cross-compartment flow) ------------------- *)
    e "local-escape-across-return" Rules.xflow_local_escape (fun () ->
        (* lib's export hands its caller the (store-local) stack
           capability: fine intra-compartment, a leak across the
           boundary only the summary propagation sees *)
        Loader.link
          [ Compartment.v ~name:"app" ~globals_size:64
              ~exports:[ export "main" ]
              ~imports:[ import "lib" "getlocal" 8 ]
              ((Asm.Label "main" :: call_slot 8) @ [ Asm.I Insn.Ebreak ]);
            Compartment.v ~name:"lib" ~globals_size:64
              ~exports:[ export "getlocal" ]
              [ Asm.Label "getlocal";
                Asm.I (Insn.Cmove (Insn.reg_a0, Insn.reg_sp));
                Asm.Ret ] ]
          ~boot:("app", "main"));
    e "two-hop-escalation" Rules.xflow_escalation (fun () ->
        (* owner exposes its globals capability; relay passes the call
           result through untouched; app — which imports only from
           relay — transitively obtains authority over owner's globals *)
        Loader.link
          [ Compartment.v ~name:"app" ~globals_size:64
              ~exports:[ export "main" ]
              ~imports:[ import "relay" "get" 8 ]
              ((Asm.Label "main" :: call_slot 8) @ [ Asm.I Insn.Ebreak ]);
            Compartment.v ~name:"relay" ~globals_size:64
              ~exports:[ export "get" ]
              ~imports:[ import "owner" "expose" 8 ]
              ([ Asm.Label "get";
                 Asm.I (Insn.Cincaddrimm (Insn.reg_sp, Insn.reg_sp, -16));
                 Asm.I (Insn.Csc (Insn.reg_ra, Insn.reg_sp, 0)) ]
              @ call_slot 8
              @ [ Asm.I (Insn.Clc (Insn.reg_ra, Insn.reg_sp, 0));
                  Asm.I (Insn.Cincaddrimm (Insn.reg_sp, Insn.reg_sp, 16));
                  Asm.Ret ]);
            Compartment.v ~name:"owner" ~globals_size:64
              ~exports:[ export "expose" ]
              [ Asm.Label "expose";
                Asm.I (Insn.Cmove (Insn.reg_a0, Insn.reg_gp));
                Asm.Ret ] ]
          ~boot:("app", "main"));
    e "switcher-window-return" Rules.xflow_sealed_forgery (fun () ->
        (* lib's globals hold a readable window over the switcher's
           private data — the unseal key and trusted stack; its export
           returns it, so sealed-capability forgery is reachable from
           app through the export chain *)
        let t =
          Loader.link
            [ Compartment.v ~name:"app" ~globals_size:64
                ~exports:[ export "main" ]
                ~imports:[ import "lib" "peek" 8 ]
                ((Asm.Label "main" :: call_slot 8) @ [ Asm.I Insn.Ebreak ]);
              Compartment.v ~name:"lib" ~globals_size:64
                ~exports:[ export "peek" ]
                [ Asm.Label "peek";
                  Asm.I (Insn.Clc (Insn.reg_a0, Insn.reg_gp, 24));
                  Asm.Ret ] ]
            ~boot:("app", "main")
        in
        let swdata = t.Loader.machine.Machine.mscratchc in
        let lo = Capability.base swdata in
        write_cap t
          ((Loader.find t "lib").Loader.globals_base + 24)
          (mem_window lo (Capability.top swdata - lo));
        t);
    e "import-return-into-globals" Rules.xflow_import_taint (fun () ->
        (* app parks the unmodified return of its import call in its own
           globals; lib provably returns a tagged capability *)
        Loader.link
          [ Compartment.v ~name:"app" ~globals_size:64
              ~exports:[ export "main" ]
              ~imports:[ import "lib" "give" 8 ]
              ((Asm.Label "main" :: call_slot 8)
              @ [ Asm.I (Insn.Csc (Insn.reg_a0, Insn.reg_gp, 24));
                  Asm.I Insn.Ebreak ]);
            Compartment.v ~name:"lib" ~globals_size:64
              ~exports:[ export "give" ]
              [ Asm.Label "give";
                Asm.I (Insn.Cmove (Insn.reg_a0, Insn.reg_gp));
                Asm.Ret ] ]
          ~boot:("app", "main"));
  ]
