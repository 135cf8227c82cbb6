(* Plan-soundness verifier: translation validation for the jit
   check-plan optimizer (DESIGN.md §14).

   [Ir.optimize] removes and weakens the architectural capability
   checks of a translated block (Chk_full → Chk_bounds / Chk_align /
   Chk_none) and hoists whole groups behind block-entry guards; until
   now its soundness rested on the dynamic parity gates.  This module
   proves each compiled plan check-equivalent to the all-[Chk_full]
   plan *statically*, by a symbolic forward pass over the instruction
   array that re-derives, independently of the optimizer, what each
   residual check is allowed to assume:

   (a) dominance — a dropped or weakened check must be implied by an
       earlier *justified* check on the same register version with a
       covering footprint.  Facts live in per-register pools and die at
       the next def of the register (they transfer across [Cmove],
       whose result is the identical value, and across nothing else —
       in particular not across [Cincaddrimm], which clears the tag at
       an unrepresentable address);

   (b) guard soundness — a passing pass-2 guard proves tag, unsealed,
       the guard's permission set and in-bounds for the whole span
       [g_lo, g_hi) of the *entry* value of [g_rs1]; it extends to an
       access through a derived value [entry + delta] only when the
       access footprint (in entry coordinates) lies inside the span
       *and* every intermediate address of the derivation chain does
       too (in-bounds ⇒ representable is the codec property pinned by
       the bounds tests, so a covered hop preserves the tag).  Guard
       failure deopts the whole block execution to full checks before
       any covered access retires, so all guard-derived facts are
       conditional on "every guard passed" — which is exactly the only
       path on which the reduced plan runs;

   (c) deferral safety — an op whose PCC/minstret/event epilogue the
       executor defers must not be observable at a trap or block exit:
       it must not read the PC, not touch CSRs/SCRs, not transfer
       control and not enter a trap.  The predicate is re-derived here
       as an exhaustive match over [Insn.t] (no wildcard), so a new
       instruction forces an explicit decision in both places.

   The verdict is [Sound], or [Unsound] with a concrete symbolic
   counterexample — which register assignment passes every earlier
   check yet makes the reference plan trap where the optimized plan
   does not — rendered like an audit finding under the plan-* rules of
   {!Rules.plan_catalogue}.

   Monotonicity (the qcheck property in test_planverify) holds by
   construction: strengthening a [chk] only shrinks what the access
   needs justified, while the facts a justified access establishes are
   the same at every level — so strengthening never flips Sound to
   Unsound. *)

module Insn = Cheriot_isa.Insn
module Ir = Cheriot_isa.Ir
module Machine = Cheriot_isa.Machine

type counterexample = {
  cx_rule : string;  (** a {!Rules.plan_catalogue} id *)
  cx_index : int;  (** op index within the block (= instruction index) *)
  cx_detail : string;  (** the symbolic witness *)
}

type verdict = Sound | Unsound of counterexample

(* (c): ops whose bookkeeping epilogue is architecturally observable
   before the next sync point.  Exhaustive on purpose — adding an
   instruction must force a deferral decision here, independently of
   [Ir.deferrable]. *)
let observable (i : Insn.t) =
  match i with
  | Insn.Auipcc _ -> true (* reads the current PC *)
  | Jal _ | Jalr _ | Branch _ -> true (* control transfer reads/writes PCC *)
  | Csr _ | Cspecialrw _ -> true (* CSR/SCR traffic observes minstret/PCC *)
  | Ecall | Ebreak | Mret | Wfi -> true (* trap/system entry observes all *)
  | Lui _ | Op_imm _ | Op _ | Mul_div _ | Load _ | Store _ | Clc _ | Csc _
  | Cincaddr _ | Cincaddrimm _ | Csetaddr _ | Csetbounds _ | Csetboundsexact _
  | Csetboundsimm _ | Crrl _ | Cram _ | Candperm _ | Ccleartag _ | Cmove _
  | Cseal _ | Cunseal _ | Cget _ | Csub _ | Ctestsubset _ | Csetequalexact _ ->
      false

(* Facts proven about one register's *current* value.  [f_fp] footprints
   are (offset, size) windows proven both in-bounds and size-aligned —
   every justified access leaves one behind, whatever its residual
   level: either the level itself checked the property at run time, or
   the justification proved it statically. *)
type rfacts = {
  f_meta : bool;  (* tagged and unsealed *)
  f_ld : bool;  (* LD permission (proven by a retired load) *)
  f_sd : bool;  (* SD permission *)
  f_mc : bool;  (* MC permission *)
  f_fp : (int * int) list;
}

let no_facts = { f_meta = false; f_ld = false; f_sd = false; f_mc = false; f_fp = [] }

let chk_name = function
  | Ir.Chk_full -> "full"
  | Ir.Chk_bounds -> "bounds"
  | Ir.Chk_align -> "align"
  | Ir.Chk_none -> "none"

let pp_insn i = Format.asprintf "%a" Insn.pp i

let access_kind (a : Ir.access) =
  match (a.Ir.a_store, a.Ir.a_cap) with
  | false, false -> "load"
  | true, false -> "store"
  | false, true -> "cap-load"
  | true, true -> "cap-store"

exception Refute of counterexample

let refute cx_rule cx_index cx_detail =
  raise (Refute { cx_rule; cx_index; cx_detail })

(* [verify ~cheri ?defer insns chks guards] proves the plan
   [(chks, guards, defer)] check-equivalent to the unoptimized plan
   for the block [insns].  [defer] defaults to the executor's actual
   deferral classes ([Ir.deferrable]); the seeded-mutant suite passes
   mutated arrays. *)
let verify ~cheri ?defer (insns : Insn.t array) (chks : Ir.chk array)
    (guards : Ir.guard array) =
  let n = Array.length insns in
  if Array.length chks <> n then
    invalid_arg "Planverify.verify: chks length mismatch";
  let defer =
    match defer with Some d -> d | None -> Array.map Ir.deferrable insns
  in
  if Array.length defer <> n then
    invalid_arg "Planverify.verify: defer length mismatch";
  try
    (* (c) deferral safety — independent of the checking mode. *)
    for i = 0 to n - 1 do
      if defer.(i) && observable insns.(i) then
        refute Rules.plan_deferral i
          (Printf.sprintf
             "op %d (%s) has its bookkeeping deferred, but its \
              PCC/minstret/event update is observable before the next sync \
              point — a trap or block exit here replays stale state"
             i (pp_insn insns.(i)))
    done;
    if not cheri then begin
      (* Rv32 accesses are authorized by the DDC, not the cited
         register; no register-version fact can stand in for the DDC
         check, so any weakening is wrong by construction. *)
      Array.iteri
        (fun i c ->
          if c <> Ir.Chk_full then
            refute Rules.plan_rv32_weakened i
              (Printf.sprintf
                 "op %d (%s) runs %s checks in an Rv32 block — the access is \
                  authorized by the DDC, which no register fact covers"
                 i (pp_insn insns.(i)) (chk_name c)))
        chks;
      if Array.length guards > 0 then
        refute Rules.plan_rv32_weakened 0
          "Rv32 plan carries register guards — the DDC, not the cited \
           register, authorizes every access";
      Sound
    end
    else begin
      let facts = Array.make 16 no_facts in
      (* Static origin of each register's current value:
         [Some (root, delta, hops)] = provably [entry(root) + delta],
         derived through hops with the listed cumulative deltas.
         Mirrors the value semantics of [Cmove]/[Cincaddrimm]; it is
         *checked* here against the guard span, not trusted from the
         optimizer. *)
      let origin =
        Array.init 16 (fun r -> if r = 0 then None else Some (r, 0, []))
      in
      let guard_list = Array.to_list guards in
      for i = 0 to n - 1 do
        (match Ir.access_of insns.(i) with
        | Some a ->
            let q = a.Ir.a_rs1 in
            let f = facts.(q) in
            let off = a.Ir.a_off and size = a.Ir.a_size in
            (* Guards whose root matches this access's origin and whose
               span covers every derivation hop: these may vouch for
               the *metadata* of the current value (tag survives each
               covered hop). *)
            let applicable =
              match origin.(q) with
              | None -> []
              | Some (root, delta, hops) ->
                  List.filter_map
                    (fun (g : Ir.guard) ->
                      if
                        g.Ir.g_rs1 = root
                        && List.for_all
                             (fun h -> g.Ir.g_lo <= h && h < g.Ir.g_hi)
                             hops
                      then Some (g, delta)
                      else None)
                    guard_list
            in
            let guard_perm_ok (g : Ir.guard) =
              (if a.Ir.a_store then g.Ir.g_need_sd else g.Ir.g_need_ld)
              && ((not a.Ir.a_cap) || g.Ir.g_need_mc)
            in
            let guard_bounds_ok ((g : Ir.guard), delta) =
              g.Ir.g_lo <= delta + off && delta + off + size <= g.Ir.g_hi
            in
            let pool_meta =
              f.f_meta
              && (if a.Ir.a_store then f.f_sd else f.f_ld)
              && ((not a.Ir.a_cap) || f.f_mc)
            in
            let guard_meta =
              List.exists (fun (g, _) -> guard_perm_ok g) applicable
            in
            let meta_ok = pool_meta || guard_meta in
            let pool_bounds =
              List.exists (fun (o, s) -> o <= off && off + size <= o + s) f.f_fp
            in
            let bounds_ok =
              pool_bounds || List.exists guard_bounds_ok applicable
            in
            (* A proven footprint (o, s) has [addr + o] aligned to s;
               sizes are powers of two, so s >= size gives alignment to
               [size] and a step congruent mod [size] preserves it. *)
            let align_ok =
              List.exists
                (fun (o, s) -> s >= size && (off - o) land (size - 1) = 0)
                f.f_fp
            in
            let where =
              match origin.(q) with
              | Some (root, delta, _) when root <> q || delta <> 0 ->
                  Printf.sprintf "c%d = entry(c%d)%+d" q root delta
              | _ -> Printf.sprintf "c%d" q
            in
            let refute_meta () =
              (* Distinguish the guard that covers the footprint but
                 lacks the permission from the plain missing dominator:
                 the counterexamples differ. *)
              if
                (not pool_meta)
                && (not guard_meta)
                && List.exists guard_bounds_ok applicable
              then
                refute Rules.plan_guard_perms i
                  (Printf.sprintf
                     "op %d (%s): %s of [%d, %d) through %s relies on the \
                      guard over c%d, which never checked the %s permission \
                      — witness: entry capability tagged, unsealed, in \
                      bounds, lacking exactly that permission passes the \
                      guard yet the reference plan traps \
                      Cheri_fault(permit) here"
                     i (pp_insn insns.(i)) (access_kind a) off (off + size)
                     where
                     (match applicable with (g, _) :: _ -> g.Ir.g_rs1 | [] -> q)
                     (if a.Ir.a_store then "SD" else "LD"))
              else
                refute Rules.plan_meta_undominated i
                  (Printf.sprintf
                     "op %d (%s): %s checks on a %s of [%d, %d) through %s, \
                      but no dominating access or covering guard established \
                      tag/seal/permissions for this register version — \
                      witness: an untagged (or sealed, or \
                      permission-lacking) value here passes every earlier \
                      check yet the reference plan traps Cheri_fault"
                     i (pp_insn insns.(i)) (chk_name chks.(i)) (access_kind a)
                     off (off + size) where)
            in
            (match chks.(i) with
            | Ir.Chk_full -> ()
            | Ir.Chk_bounds -> if not meta_ok then refute_meta ()
            | Ir.Chk_align ->
                if not meta_ok then refute_meta ()
                else if not bounds_ok then
                  refute Rules.plan_bounds_uncovered i
                    (Printf.sprintf
                       "op %d (%s): bounds dropped on a %s of [%d, %d) \
                        through %s, outside every proven footprint and \
                        guard span — witness: a capability whose bounds end \
                        inside the footprint passes every earlier check and \
                        each guard yet the reference plan traps Cheri_bounds \
                        here"
                       i (pp_insn insns.(i)) (access_kind a) off (off + size)
                       where)
            | Ir.Chk_none ->
                if not meta_ok then refute_meta ()
                else if not bounds_ok then
                  refute Rules.plan_bounds_uncovered i
                    (Printf.sprintf
                       "op %d (%s): all checks dropped on a %s of [%d, %d) \
                        through %s, but the footprint is outside every \
                        proven range and guard span — witness: bounds ending \
                        inside it make the reference plan trap Cheri_bounds"
                       i (pp_insn insns.(i)) (access_kind a) off (off + size)
                       where)
                else if not align_ok then
                  refute Rules.plan_align_undischarged i
                    (Printf.sprintf
                       "op %d (%s): alignment dropped on a %s of [%d, %d) \
                        through %s with no alignment-compatible dominating \
                        footprint — witness: an address aligned for the \
                        dominator but offset by %d mod %d makes the \
                        reference plan trap misaligned"
                       i (pp_insn insns.(i)) (access_kind a) off (off + size)
                       where off size));
            (* Justified: on every path on which the reduced plan runs
               (all guards passed), this access retires having
               established tag/seal, its permission and its checked
               footprint for the current value of [q].  Register 0 is
               included: c0 is the hardwired null, so the dominating
               access always traps and any later access it justifies is
               unreachable — vacuously sound, and exactly what the
               optimizer's version-pool concludes. *)
            facts.(q) <-
              {
                f_meta = true;
                f_ld = f.f_ld || not a.Ir.a_store;
                f_sd = f.f_sd || a.Ir.a_store;
                f_mc = f.f_mc || a.Ir.a_cap;
                f_fp = (off, size) :: f.f_fp;
              }
        | None -> ());
        let d = Ir.def_of insns.(i) in
        (* Defs of register 0 are discarded by [set_reg]: the value
           stays null, so facts persist and the origin must not
           transfer (a guard on the source would otherwise vouch for
           an access through null). *)
        if d > 0 then begin
          (match insns.(i) with
          | Insn.Cmove (_, rs) ->
              (* The result is the identical value; facts transfer. *)
              facts.(d) <- facts.(rs land 15)
          | _ -> facts.(d) <- no_facts);
          origin.(d) <-
            (match insns.(i) with
            | Insn.Cmove (_, rs) -> origin.(rs land 15)
            | Insn.Cincaddrimm (_, rs, imm) -> (
                match origin.(rs land 15) with
                | Some (root, delta, hops) ->
                    Some (root, delta + imm, (delta + imm) :: hops)
                | None -> None)
            | _ -> None)
        end
      done;
      Sound
    end
  with Refute cx -> Unsound cx

(* --- wiring ------------------------------------------------------------- *)

let verify_block (b : Machine.bentry) chks guards =
  verify ~cheri:(b.Machine.b_mode = Machine.Cheriot) b.Machine.b_insns chks
    guards

(* Compile-time validation mode: a {!Machine.t.jit_validator} that
   accepts exactly the plans this module proves sound.  A rejected plan
   makes [compile_jit] install the all-full plan and bump
   [jit_plans_rejected]. *)
let machine_validator (b : Machine.bentry) chks guards =
  match verify_block b chks guards with Sound -> true | Unsound _ -> false

let install m = m.Machine.jit_validator <- Some machine_validator

(* --- plan collection (the offline gate) --------------------------------- *)

type plan = {
  p_block : Machine.bentry;
  p_chks : Ir.chk array;
  p_guards : Ir.guard array;
}

(* Every (b_start, instruction array) pair once: a block invalidated by
   a store snoop and re-translated identically would otherwise be
   verified (and reported) twice. *)
let dedupe plans =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun p ->
      let key = (p.p_block.Machine.b_start, p.p_block.Machine.b_insns) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    plans

(* [collect ?fuel m] runs [m] under the jit tier and returns every plan
   compiled along the way, deduplicated, in compile order.  Collection
   uses the validator hook — the one point every plan passes through at
   compile time — rather than a cache sweep, because the direct-mapped
   block cache evicts: a block compiled early and evicted late would be
   invisible to a post-run sweep.  The installed hook makes the jit
   compile every block on its first entry, and every cached block was
   entered when it was filled, so no block is left without a plan. *)
let collect ?(fuel = 2_000_000) (m : Machine.t) =
  let acc = ref [] in
  let saved = m.Machine.jit_validator in
  m.Machine.jit_validator <-
    Some
      (fun b chks guards ->
        acc := { p_block = b; p_chks = chks; p_guards = guards } :: !acc;
        true);
  ignore (Machine.run ~fuel ~dispatch:Machine.Dispatch_jit m);
  m.Machine.jit_validator <- saved;
  dedupe (List.rev !acc)

let verify_plan p = verify_block p.p_block p.p_chks p.p_guards

(* Render a counterexample as an audit finding: the pc is the offending
   instruction's address (op index = guest instruction index). *)
let finding_of ~compartment (p : plan) (cx : counterexample) =
  Rules.v
    ~pc:(p.p_block.Machine.b_start + (4 * cx.cx_index))
    ~compartment cx.cx_rule cx.cx_detail
