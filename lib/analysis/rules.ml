(* The audit rule catalogue and the findings report.

   Every statically-detectable violation the auditor can report has a
   stable rule id, grouped by the layer that detects it:

     cfg-*    control-flow recovery over a compartment's code region
     flow-*   the abstract capability-flow interpretation (fixpoint)
     irq-*    interrupt-posture analysis over the CFG and export sentries
     tmp-*    temporal safety (heap revocation / dangling ranges)
     link-*   structural checks on the linked image (descriptors,
              imports, reserved otypes, boot register file)
     xflow-*  compositional cross-compartment flow: the {!Linkflow} pass
              propagating per-compartment interface summaries
              ({!Summary}) over the linkage graph to fixpoint
              (DESIGN.md §15)
     plan-*   translation validation of jit check plans (Planverify);
              kept in [plan_catalogue], separate from [catalogue],
              because the audit corpus exactness gate covers the image
              rules while the seeded-mutant suite covers the plan rules

   A finding pins a rule to a compartment and, for code-level rules, a
   PC.  Findings are rendered as JSON by [report_to_json]; the schema is
   documented in the README. *)

type finding = {
  rule : string;
  compartment : string;
  pc : int option;  (** absolute address of the offending instruction *)
  detail : string;
}

(* --- rule ids ---------------------------------------------------------- *)

let cfg_undecodable = "cfg-undecodable"
let cfg_direct_cross = "cfg-direct-cross"
let cfg_fallthrough_exit = "cfg-fallthrough-exit"
let flow_store_local_leak = "flow-store-local-leak"
let flow_oob_access = "flow-oob-access"
let flow_jump_not_executable = "flow-jump-not-executable"
let flow_widening_derivation = "flow-widening-derivation"
let flow_untagged_deref = "flow-untagged-deref"
let flow_missing_perm = "flow-missing-perm"
let flow_launder_local = "flow-launder-local"
let irq_unbounded_disabled = "irq-unbounded-disabled"
let irq_over_budget = "irq-over-budget"
let irq_inconsistent_reentry = "irq-inconsistent-reentry"
let tmp_heap_escape = "tmp-heap-escape"
let tmp_import_dangling = "tmp-import-dangling"
let link_import_unsealed = "link-import-unsealed"
let link_import_wrong_otype = "link-import-wrong-otype"
let link_import_slot_range = "link-import-slot-range"
let link_export_posture = "link-export-posture"
let link_export_entry_escape = "link-export-entry-escape"
let link_globals_cap = "link-globals-cap"
let link_local_leak = "link-local-leak"
let link_reserved_otype = "link-reserved-otype"
let link_sr_leak = "link-sr-leak"
let link_switcher_slot = "link-switcher-slot"
let link_stack_cap = "link-stack-cap"
let link_heap_layout = "link-heap-layout"
let xflow_local_escape = "xflow-local-escape"
let xflow_escalation = "xflow-escalation"
let xflow_sealed_forgery = "xflow-sealed-forgery"
let xflow_import_taint = "xflow-import-taint"

let catalogue =
  [
    (cfg_undecodable, "reachable word does not decode to an instruction");
    (cfg_direct_cross, "direct jump/branch leaves the compartment's code");
    (cfg_fallthrough_exit, "execution can fall off the end of the code region");
    ( flow_store_local_leak,
      "local (non-GL) capability stored through an SL-lacking authority" );
    (flow_oob_access, "memory access provably outside capability bounds");
    ( flow_jump_not_executable,
      "indirect jump through a provably untagged, non-executable or \
       sealed non-sentry capability" );
    ( flow_widening_derivation,
      "bounds derivation provably requests authority outside the source \
       capability" );
    (flow_untagged_deref, "dereference of a provably untagged or sealed capability");
    (flow_missing_perm, "access through a capability provably lacking the permission");
    ( flow_launder_local,
      "memory-laundered local capability re-stored through an SL-lacking \
       authority" );
    ( irq_unbounded_disabled,
      "interrupts-disabled region contains a cycle: unbounded IRQ latency" );
    ( irq_over_budget,
      "interrupts-disabled instruction path exceeds the latency budget" );
    ( irq_inconsistent_reentry,
      "export entry reachable internally with the opposite interrupt posture" );
    ( tmp_heap_escape,
      "heap-derived capability stripped of GL stored to globals, escaping \
       revocation" );
    ( tmp_import_dangling,
      "import slot's range lies in the revocable heap region" );
    (link_import_unsealed, "import slot holds an untagged or unsealed capability");
    ( link_import_wrong_otype,
      "import sealed with an otype other than the switcher's export otype" );
    (link_import_slot_range, "import slot outside the compartment's globals");
    (link_export_posture, "export sentry posture differs from the declared posture");
    (link_export_entry_escape, "export entry points outside the compartment's code");
    (link_globals_cap, "compartment globals capability malformed (SL, bounds, seal)");
    (link_local_leak, "tagged local (non-GL) capability present in globals image");
    ( link_reserved_otype,
      "sealing capability covering the switcher's reserved otype reachable \
       from a compartment" );
    (link_sr_leak, "system-register permission reachable by a compartment");
    (link_switcher_slot, "globals slot 0 does not hold the switcher cross-call sentry");
    (link_stack_cap, "boot stack capability malformed (global, SL-less or unbounded)");
    (link_heap_layout, "heap region overlaps stacks or static data");
    ( xflow_local_escape,
      "store-local (non-GL) capability escapes its compartment through an \
       export return" );
    ( xflow_escalation,
      "compartment transitively obtains authority over a third \
       compartment's globals that none of its own imports grant" );
    ( xflow_sealed_forgery,
      "authority over switcher-private sealing state (the unseal key) \
       reachable through an export chain" );
    ( xflow_import_taint,
      "value received from an import call — provably a tagged capability — \
       stored into the compartment's globals" );
  ]

(* --- plan rules (Planverify, DESIGN.md §14) ----------------------------- *)

let plan_meta_undominated = "plan-meta-undominated"
let plan_bounds_uncovered = "plan-bounds-uncovered"
let plan_align_undischarged = "plan-align-undischarged"
let plan_guard_perms = "plan-guard-perms"
let plan_deferral = "plan-deferral"
let plan_rv32_weakened = "plan-rv32-weakened"

let plan_catalogue =
  [
    ( plan_meta_undominated,
      "check weakened without a dominating tag/seal/permission fact on the \
       same register version" );
    ( plan_bounds_uncovered,
      "bounds check dropped without a covering proven range, guard span or \
       derivation-hop cover" );
    ( plan_align_undischarged,
      "alignment check dropped without an alignment-compatible dominating \
       footprint" );
    ( plan_guard_perms,
      "guard covers an access's footprint but lacks a permission the access \
       requires" );
    ( plan_deferral,
      "bookkeeping deferred for an op whose PCC/minstret/event update is \
       observable at a trap or block exit" );
    ( plan_rv32_weakened,
      "Rv32 plan weakened: DDC-authorized accesses must keep full checks" );
  ]

let v ?pc ~compartment rule detail = { rule; compartment; pc; detail }

(* Deterministic report order: (compartment, pc, rule id, detail).
   [None] pcs (structural findings) sort before code-level ones. *)
let compare_finding a b =
  compare
    (a.compartment, a.pc, a.rule, a.detail)
    (b.compartment, b.pc, b.rule, b.detail)

let sort_findings fs = List.sort compare_finding fs

let pp_finding ppf f =
  match f.pc with
  | Some pc ->
      Format.fprintf ppf "%s: %s @@ 0x%x: %s" f.rule f.compartment pc f.detail
  | None -> Format.fprintf ppf "%s: %s: %s" f.rule f.compartment f.detail

(* --- JSON rendering ----------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let finding_to_json b f =
  Buffer.add_string b
    (Printf.sprintf "{\"rule\":\"%s\",\"compartment\":\"%s\",%s\"detail\":\"%s\"}"
       (json_escape f.rule)
       (json_escape f.compartment)
       (match f.pc with
       | Some pc -> Printf.sprintf "\"pc\":%d," pc
       | None -> "")
       (json_escape f.detail))

(* [report_to_json images] renders [(image_name, findings)] pairs as the
   report the CI gate consumes. *)
let report_to_json images =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"images\":[";
  List.iteri
    (fun i (name, findings) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"image\":\"%s\",\"findings\":[" (json_escape name));
      List.iteri
        (fun j f ->
          if j > 0 then Buffer.add_char b ',';
          finding_to_json b f)
        findings;
      Buffer.add_string b "]}")
    images;
  let total =
    List.fold_left (fun a (_, fs) -> a + List.length fs) 0 images
  in
  Buffer.add_string b (Printf.sprintf "],\"total_findings\":%d}" total);
  Buffer.contents b
