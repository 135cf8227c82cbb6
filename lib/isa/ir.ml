(** A block-local IR over translated (super)blocks and the optimizer
    passes behind [Machine.Dispatch_jit] (DESIGN.md §13).

    The IR is deliberately thin: a translated block's instruction array
    {e is} the op stream (one op per guest instruction, so op index =
    guest instruction index — the property the trap-time sync discipline
    depends on), and optimization is expressed as {e per-op check
    plans}: every memory access op carries a [chk] level describing
    which of the architectural capability checks the executor must still
    run, plus a set of block-entry [guard]s that pre-validate whole
    groups of accesses.  The passes only ever {e remove} checks whose
    outcome is implied by a dominating check (or by a guard) over the
    {e same register version} — the SSA-ish core: each register name is
    versioned by the defs that precede the op, and a fact established
    about version [v] of register [r] dies at the next def of [r].

    Nothing here reads machine state.  The module is a pure function of
    the decoded instruction array, which is what makes the passes easy
    to argue about (and to property-test): the executor supplies the
    dynamic half of each argument — "the dominating check actually ran,
    in this block execution, against the same register value".

    The two passes — redundant-check elimination and guard hoisting —
    are specified once, in DESIGN.md §13 (pass ordering,
    residual-check semantics, deopt contract); the doc comments here
    only state what each binding contributes.  A plan holds checks and
    guards only: the executor defers bookkeeping in every block, and
    translation builds every block's direct edges.  The soundness
    argument for every plan the optimizer emits is DESIGN.md §14,
    mechanized by [Planverify] in [lib/analysis]. *)

(** How much of the architectural check sequence
    (tag → seal → permissions → bounds → alignment, the order of
    [Machine.check_access]) an access op must still run. *)
type chk =
  | Chk_full  (** everything — the unoptimized plan *)
  | Chk_bounds
      (** bounds + alignment only: a dominating access through the same
          register version already passed tag/seal/permissions *)
  | Chk_align
      (** alignment only: a guard covered tag/seal/permissions and the
          whole bounds footprint *)
  | Chk_none
      (** nothing: a dominating access with the identical offset and
          size passed every check, including alignment *)

(** A block-entry guard hoisted by pass 2: one metadata + range check
    standing for every access it covers.  Offsets are relative to the
    guarded register's (entry-version) address; [g_lo, g_hi) is the
    union of the covered footprints plus, for accesses reached through
    derived register versions, every intermediate address of the
    derivation chain (see [optimize]). *)
type guard = {
  g_rs1 : int;  (** guarded register (its block-entry version) *)
  g_lo : int;  (** least covered offset (footprints and hop points) *)
  g_hi : int;  (** greatest covered offset + size (exclusive) *)
  g_need_ld : bool;  (** some covered access loads *)
  g_need_sd : bool;  (** some covered access stores *)
  g_need_mc : bool;  (** some covered access moves a capability *)
}

type stats = {
  eliminated : int;
      (** accesses whose metadata (or full) checks pass 1 removed *)
  hoisted : int;  (** accesses covered by a pass-2 guard *)
  hoisted_nonentry : int;
      (** the subset of [hoisted] reached through a {e derived} register
          version (a [Cmove]/[Cincaddrimm] chain from the entry value)
          rather than through the entry version itself *)
}

(* --- op classification ------------------------------------------------- *)

(* The memory-access footprint of an op, when it has one. *)
type access = {
  a_rs1 : int;
  a_off : int;
  a_size : int;
  a_store : bool;
  a_cap : bool;
}

(* Encoded register fields are 5 bits but the machine's register file
   aliases them mod 16 ([Machine.reg]); the IR must use the same name
   space or its version tracking splits one architectural register into
   two independent fact streams. *)
let access_of (i : Insn.t) =
  match i with
  | Load { width; rs1; off; _ } ->
      Some
        {
          a_rs1 = rs1 land 15;
          a_off = off;
          a_size = (match width with B -> 1 | H -> 2 | W -> 4);
          a_store = false;
          a_cap = false;
        }
  | Store { width; rs1; off; _ } ->
      Some
        {
          a_rs1 = rs1 land 15;
          a_off = off;
          a_size = (match width with B -> 1 | H -> 2 | W -> 4);
          a_store = true;
          a_cap = false;
        }
  | Clc (_, rs1, off) ->
      Some
        {
          a_rs1 = rs1 land 15;
          a_off = off;
          a_size = 8;
          a_store = false;
          a_cap = true;
        }
  | Csc (_, rs1, off) ->
      Some
        {
          a_rs1 = rs1 land 15;
          a_off = off;
          a_size = 8;
          a_store = true;
          a_cap = true;
        }
  | _ -> None

(* The register an op defines, or -1.  Writes to c0 are discarded by
   the machine, so a c0 def kills nothing. *)
let def_of (i : Insn.t) =
  let d =
    match i with
    | Lui (rd, _)
    | Auipcc (rd, _)
    | Jal (rd, _)
    | Jalr (rd, _, _)
    | Load { rd; _ }
    | Op_imm (_, rd, _, _)
    | Op (_, rd, _, _)
    | Mul_div (_, rd, _, _)
    | Clc (rd, _, _)
    | Cincaddr (rd, _, _)
    | Cincaddrimm (rd, _, _)
    | Csetaddr (rd, _, _)
    | Csetbounds (rd, _, _)
    | Csetboundsexact (rd, _, _)
    | Csetboundsimm (rd, _, _)
    | Crrl (rd, _)
    | Cram (rd, _)
    | Candperm (rd, _, _)
    | Ccleartag (rd, _)
    | Cmove (rd, _)
    | Cseal (rd, _, _)
    | Cunseal (rd, _, _)
    | Cget (_, rd, _)
    | Csub (rd, _, _)
    | Ctestsubset (rd, _, _)
    | Csetequalexact (rd, _, _)
    | Csr (_, rd, _, _)
    | Cspecialrw (rd, _, _) ->
        rd
    | Branch _ | Store _ | Csc _ | Ecall | Ebreak | Mret | Wfi -> -1
  in
  let d = if d < 0 then d else d land 15 in
  if d = 0 then -1 else d

(* Ops whose PCC/minstret/event epilogue the executor defers, in every
   block: everything that neither reads the PC/CSRs nor transfers
   control.  Mirrors the deferral classes of [Machine.exec_round]. *)
let deferrable (i : Insn.t) =
  match i with
  | Lui _ | Op_imm _ | Op _ | Mul_div _ | Load _ | Store _ | Clc _ | Csc _
  | Cincaddr _ | Cincaddrimm _ | Csetaddr _ | Csetbounds _ | Csetboundsexact _
  | Csetboundsimm _ | Crrl _ | Cram _ | Candperm _ | Ccleartag _ | Cmove _
  | Cseal _ | Cunseal _ | Cget _ | Csub _ | Ctestsubset _ | Csetequalexact _ ->
      true
  | _ -> false

(* --- the optimizer ----------------------------------------------------- *)

(* Per-register dataflow facts during the pass-1 scan.  [ver] is the
   SSA version counter; the remaining facts are anchored to the version
   they were established under and die when [ver] moves past it. *)
type rfacts = {
  mutable ver : int;
  mutable meta_ver : int;  (* version with tag/seal verified; -1 none *)
  mutable ld_ok : bool;  (* LD (+ which perms) verified at [meta_ver] *)
  mutable sd_ok : bool;
  mutable mc_ok : bool;
  mutable footprints : (int * int) list;
      (* (off, size) pairs fully checked (incl. bounds + align) at
         [meta_ver] *)
}

let optimize ~cheri (insns : Insn.t array) =
  let n = Array.length insns in
  let chks = Array.make n Chk_full in
  if not cheri then
    (* Rv32 accesses are authorized by the immutable DDC, not the cited
       register, so register-version reasoning does not apply; the
       baseline keeps full checks (they are two compares anyway). *)
    (chks, [||], { eliminated = 0; hoisted = 0; hoisted_nonentry = 0 })
  else begin
    let facts =
      Array.init 16 (fun _ ->
          {
            ver = 0;
            meta_ver = -1;
            ld_ok = false;
            sd_ok = false;
            mc_ok = false;
            footprints = [];
          })
    in
    let eliminated = ref 0 in
    (* Static-offset origin of each register's current value, for pass
       2: [Some (root, delta, hops)] means the value is provably
       [entry(root) + delta], derived through [Cmove]/[Cincaddrimm]
       steps whose cumulative deltas are [hops] (most recent first).
       A guard on [root] can vouch for such a value only if it also
       proves every hop address in bounds — [Capability.incr_address]
       clears the tag at an unrepresentable intermediate address, and
       in-bounds ⇒ representable is the codec property the test suite
       pins.  Any other def loses the origin. *)
    let origin = Array.init 16 (fun r -> if r = 0 then None else Some (r, 0, [])) in
    (* Per-access use records for pass 2:
       (index, origin-at-access, access). *)
    let uses = ref [] in
    (* --- pass 1: dominating-check elimination --- *)
    for i = 0 to n - 1 do
      (match access_of insns.(i) with
      | Some a ->
          let f = facts.(a.a_rs1) in
          uses := (i, origin.(a.a_rs1), a) :: !uses;
          let meta_covered =
            f.meta_ver = f.ver
            && (if a.a_store then f.sd_ok else f.ld_ok)
            && ((not a.a_cap) || f.mc_ok)
          in
          if meta_covered then begin
            if List.mem (a.a_off, a.a_size) f.footprints then
              chks.(i) <- Chk_none
            else begin
              chks.(i) <- Chk_bounds;
              f.footprints <- (a.a_off, a.a_size) :: f.footprints
            end;
            incr eliminated
          end
          else begin
            (* This access runs the full check; if it retires, every
               later same-version access knows tag/seal plus the perms
               it needed all hold.  Perms are a property of the register
               value, so facts from an earlier partial cover merge. *)
            if f.meta_ver <> f.ver then begin
              f.meta_ver <- f.ver;
              f.ld_ok <- false;
              f.sd_ok <- false;
              f.mc_ok <- false;
              f.footprints <- []
            end;
            if a.a_store then f.sd_ok <- true else f.ld_ok <- true;
            if a.a_cap then f.mc_ok <- true;
            f.footprints <- (a.a_off, a.a_size) :: f.footprints
          end
      | None -> ());
      let d = def_of insns.(i) in
      (* Writes to register 0 are discarded ([set_reg]): c0 stays the
         hardwired null, so a def of 0 changes nothing — facts survive,
         and crucially the origin must NOT transfer, or a pass-2 guard
         on the move's source would vouch for an access through null. *)
      if d > 0 then begin
        facts.(d).ver <- facts.(d).ver + 1;
        origin.(d) <-
          (match insns.(i) with
          | Cmove (_, rs) -> origin.(rs land 15)
          | Cincaddrimm (_, rs, imm) -> (
              match origin.(rs land 15) with
              | Some (root, delta, hops) ->
                  Some (root, delta + imm, (delta + imm) :: hops)
              | None -> None)
          | _ -> None)
      end
    done;
    (* --- pass 2: guard hoisting over origin groups --- *)
    (* Group accesses by the entry register their address provably
       derives from.  The guard is evaluated once at block entry,
       before any op runs, against the entry value of [root]; it can
       therefore vouch for an access through a {e derived} version
       [entry(root) + delta] as long as its range also covers every
       intermediate hop address of the derivation (tag survival, see
       [origin] above).  Footprints are expressed in root coordinates:
       [delta + a_off, delta + a_off + a_size). *)
    let uses = List.rev !uses in
    let guards = ref [] in
    let hoisted = ref 0 in
    let hoisted_nonentry = ref 0 in
    for r = 1 to 15 do
      let group =
        List.filter_map
          (fun (i, org, a) ->
            match org with
            | Some (root, delta, hops) when root = r -> Some (i, delta, hops, a)
            | _ -> None)
          uses
      in
      if List.length group >= 2 then begin
        let lo =
          List.fold_left
            (fun acc (_, delta, hops, a) ->
              List.fold_left min (min acc (delta + a.a_off)) hops)
            max_int group
        in
        let hi =
          List.fold_left
            (fun acc (_, delta, hops, a) ->
              List.fold_left
                (fun acc h -> max acc (h + 1))
                (max acc (delta + a.a_off + a.a_size))
                hops)
            min_int group
        in
        guards :=
          {
            g_rs1 = r;
            g_lo = lo;
            g_hi = hi;
            g_need_ld = List.exists (fun (_, _, _, a) -> not a.a_store) group;
            g_need_sd = List.exists (fun (_, _, _, a) -> a.a_store) group;
            g_need_mc = List.exists (fun (_, _, _, a) -> a.a_cap) group;
          }
          :: !guards;
        List.iter
          (fun (i, delta, hops, _) ->
            (* [Chk_none] facts stay — strictly stronger than the guard
               cover (and themselves guard-backed: on guard failure the
               executor reverts the whole block to full checks). *)
            if chks.(i) <> Chk_none then chks.(i) <- Chk_align;
            incr hoisted;
            if delta <> 0 || hops <> [] then incr hoisted_nonentry)
          group
      end
    done;
    ( chks,
      Array.of_list (List.rev !guards),
      {
        eliminated = !eliminated;
        hoisted = !hoisted;
        hoisted_nonentry = !hoisted_nonentry;
      } )
  end
