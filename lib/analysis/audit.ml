(* The static firmware auditor (DESIGN.md §11).

   [run] audits a linked image ([Loader.link] output) without executing
   it, in three layers:

     1. CFG recovery per compartment ({!Cfg});
     2. abstract capability-flow interpretation to fixpoint over each
        compartment's CFG, in the {!Absdom} domain, flagging flow-* rules
        on must-evidence only;
     3. structural linkage checks over descriptors, import/export tables,
        globals images, reserved otypes and the boot register file.

   The switcher and trap stub are the trusted computing base and are not
   analyzed; the linkage layer instead checks that compartments cannot
   reach switcher-private authority (SR permission, the export otype,
   slot-0 integrity).

   Soundness contract: a flow finding means every concrete execution
   reaching that instruction violates the rule; a cfg or link finding
   means the image is structurally malformed.  There are no false positives
   by construction; incompleteness (missed violations) is the price. *)

open Cheriot_core
module Sram = Cheriot_mem.Sram
open Cheriot_isa
module Loader = Cheriot_rtos.Loader
module Compartment = Cheriot_rtos.Compartment
module Switcher_asm = Cheriot_rtos.Switcher_asm
open Absdom

(* --- findings accumulator (dedupe by rule + compartment + pc) ---------- *)

(* Findings, newest first.  Every fixpoint round fills an accumulator of
   its own; [analyze_compartment] keeps the one round whose results it
   reports and copies that round's findings into the compartment's. *)
type acc = {
  mutable findings : Rules.finding list;
  seen : (string * string * int option, unit) Hashtbl.t;
}

let acc_create () = { findings = []; seen = Hashtbl.create 16 }

let emit acc ?pc ~compartment rule detail =
  if not (Hashtbl.mem acc.seen (rule, compartment, pc)) then begin
    Hashtbl.replace acc.seen (rule, compartment, pc) ();
    acc.findings <- Rules.v ?pc ~compartment rule detail :: acc.findings
  end

(* [emit] each of [findings], oldest first. *)
let emit_all acc (findings : Rules.finding list) =
  List.iter
    (fun (f : Rules.finding) ->
      emit acc ?pc:f.Rules.pc ~compartment:f.Rules.compartment f.Rules.rule
        f.Rules.detail)
    findings

(* --- per-compartment analysis context ----------------------------------- *)

type ctx = {
  comp : string;
  sram : Sram.t;
  code_cap : Capability.t;
  code_lo : int;
  code_hi : int;
  gbase : int;
  gsize : int;
  gcap : Capability.t;
  sbase : int;
  ssize : int;
  hbase : int;
  hsize : int;
  field_sensitive : bool;
  mutable soup : v;
      (* join of the initial globals image and every value the
         compartment may have stored — the coarse fallback a weak
         (non-singleton-address) capability load sees *)
  granules : (int, v) Hashtbl.t;
      (* field-sensitive store map: 8-byte globals granule -> monotone
         join of every value possibly stored there (absence = never
         stored through a singleton address).  Data stores join an
         untagged unknown: they clear the granule's tag. *)
  mutable wild : v option;
      (* join of every value stored through a non-singleton or
         non-globals address: may alias any granule *)
  fwd : (int, v) Hashtbl.t;
      (* block-local store-to-load forwarding: granule -> last value
         stored this block through a singleton address.  Strong updates
         are sound within a basic block; reset at every block entry and
         on any possibly-aliasing store. *)
  mutable mem_dirty : bool;  (* memory summary grew during this round *)
  mutable use_summaries : bool;
  summaries : (int, state) Hashtbl.t;
      (* call summaries: callee entry pc -> widened join of its return
         states, grown across warm-up rounds to a joint fixpoint with
         the memory summary *)
  callees : (int, unit) Hashtbl.t;  (* entries already summarised *)
  ret_map : (int, int list) Hashtbl.t;
      (* return-block leader -> entries of the functions it returns from
         (intraprocedural reachability, computed once per callee) *)
  mutable sum_dirty : bool;  (* a summary grew during this round *)
  sw_lo : int;
  sw_hi : int;
      (* switcher code region: a provable sentry jump into it is a
         cross-compartment call through the switcher *)
  mutable xcall_out : v option;
      (* join of the a0 argument at every cross-compartment call site,
         recomputed each round (the kept round's value feeds the
         interface summary) *)
  mutable xcall_out_pc : int option;
  mutable stored_xcall : int option;
      (* pc of a Csc provably storing an unmodified import-call return
         into this compartment's globals *)
}

let globals_region ctx (a : v) =
  let lo = a.base.Iv.lo and hi = a.top.Iv.hi in
  if lo >= ctx.gbase && hi <= ctx.gbase + ctx.gsize then `Globals
  else if lo >= ctx.sbase && hi <= ctx.sbase + ctx.ssize then `Stack
  else `Other

let read_cap_v sram a = of_cap (Sram.read_cap sram a)

(* Join of every granule in the compartment's initial globals image —
   the starting point of the store soup. *)
let initial_soup ctx =
  let acc = ref null_v in
  let a = ref ctx.gbase in
  while !a + 8 <= ctx.gbase + ctx.gsize do
    acc := join !acc (read_cap_v ctx.sram !a);
    a := !a + 8
  done;
  !acc

(* The load-side attenuation of 3.1.1, on abstract values.  Must-side
   stripping is always sound; may-side stripping needs the authority to
   provably lack the load right. *)
let attenuate ~auth v =
  let strip ps = Perm.Set.remove Perm.GL (Perm.Set.remove Perm.LG ps) in
  let strip_m ps = Perm.Set.remove Perm.SD (Perm.Set.remove Perm.LM ps) in
  let v =
    if must_perm auth Perm.LG then v
    else
      weaken_xret
        {
          v with
          pmust = strip v.pmust;
          pmay = (if may_perm auth Perm.LG then v.pmay else strip v.pmay);
        }
  in
  if must_perm auth Perm.LM then v
  else
    weaken_xret
      {
        v with
        pmust = strip_m v.pmust;
        pmay =
          (if may_perm auth Perm.LM || not (must_unsealed v) then v.pmay
           else strip_m v.pmay);
      }

(* --- abstract memory ---------------------------------------------------- *)

(* A globals granule address when the access provably hits exactly one
   8-byte-aligned slot of this compartment's globals. *)
let exact_granule ctx (auth : v) ~size =
  if Iv.is_exact auth.addr then begin
    let a = auth.addr.Iv.lo in
    if
      a land 7 = 0 && size = 8 && a >= ctx.gbase
      && a + 8 <= ctx.gbase + ctx.gsize
    then Some a
    else None
  end
  else None

(* What an exact capability load from granule [a] may observe: the
   initial image joined with everything possibly stored there.  The
   analysis never mutates SRAM, so the initial read stays valid. *)
let granule_view ctx a =
  let v = read_cap_v ctx.sram a in
  let v =
    match Hashtbl.find_opt ctx.granules a with
    | Some s -> join v s
    | None -> v
  in
  match ctx.wild with Some w -> join v w | None -> v

let load_cap ctx (auth : v) =
  let v =
    match globals_region ctx auth with
    | `Stack -> top_v
    | `Other -> top_v
    | `Globals -> (
        if not ctx.field_sensitive then attenuate ~auth ctx.soup
        else
          match exact_granule ctx auth ~size:8 with
          | Some a -> (
              match Hashtbl.find_opt ctx.fwd a with
              | Some f -> attenuate ~auth f
              | None -> attenuate ~auth (granule_view ctx a))
          | None -> attenuate ~auth ctx.soup)
  in
  { v with from_load = true }

(* An int load is exact only when its granule was provably never stored
   through: a store there makes both halves of the word unknown. *)
let load_int ctx (auth : v) =
  match globals_region ctx auth with
  | `Globals
    when ctx.field_sensitive && Iv.is_exact auth.addr
         && auth.addr.Iv.lo land 3 = 0
         && auth.addr.Iv.lo >= ctx.gbase
         && auth.addr.Iv.lo + 4 <= ctx.gbase + ctx.gsize
         && ctx.wild = None
         && not (Hashtbl.mem ctx.granules (auth.addr.Iv.lo land lnot 7)) ->
      { (int_v (Iv.exact (Sram.read32 ctx.sram auth.addr.Iv.lo))) with
        from_load = true }
  | _ -> { int_full with from_load = true }

let join_granule ctx a v =
  let v' =
    match Hashtbl.find_opt ctx.granules a with
    | None -> v
    | Some old -> join old v
  in
  (match Hashtbl.find_opt ctx.granules a with
  | Some old when equal old v' -> ()
  | _ ->
      Hashtbl.replace ctx.granules a v';
      ctx.mem_dirty <- true)

let join_wild ctx v =
  let v' = match ctx.wild with None -> v | Some w -> join w v in
  match ctx.wild with
  | Some w when equal w v' -> ()
  | _ ->
      ctx.wild <- Some v';
      ctx.mem_dirty <- true

(* The abstract value a data store leaves in a granule: untagged, bytes
   unknown (a partial overwrite clears the whole granule's tag). *)
let data_smash = int_full

let store ctx (auth : v) (value : v option) ~size =
  (* [value = None] is a data store: it cannot install a capability but
     can clear a granule's tag. *)
  match globals_region ctx auth with
  | `Stack -> ()
  | (`Globals | `Other) as region ->
      (* coarse fallback summary, always maintained *)
      let soup' =
        match value with
        | Some v -> join ctx.soup v
        | None -> { ctx.soup with tag = Tri.join ctx.soup.tag Tri.False }
      in
      if not (equal soup' ctx.soup) then begin
        ctx.soup <- soup';
        ctx.mem_dirty <- true
      end;
      if ctx.field_sensitive then
        match (region, value) with
        | `Globals, Some v when exact_granule ctx auth ~size:8 <> None ->
            let a = auth.addr.Iv.lo in
            join_granule ctx a v;
            Hashtbl.replace ctx.fwd a v
        | `Globals, None when Iv.is_exact auth.addr ->
            (* data store: smash the granule(s) the access touches *)
            let a = auth.addr.Iv.lo in
            let g0 = a land lnot 7 and g1 = (a + size - 1) land lnot 7 in
            List.iter
              (fun g ->
                if g >= ctx.gbase && g + 8 <= ctx.gbase + ctx.gsize then begin
                  join_granule ctx g data_smash;
                  Hashtbl.replace ctx.fwd g data_smash
                end
                else join_wild ctx data_smash)
              (if g0 = g1 then [ g0 ] else [ g0; g1 ])
        | _ ->
            (* may alias any granule: weaken the wild summary and drop
               all block-local forwarding *)
            join_wild ctx
              (match value with Some v -> v | None -> data_smash);
            Hashtbl.reset ctx.fwd

(* --- flow checks (must-evidence only) ----------------------------------- *)

let check_access acc ctx pc ~auth ~size ~is_store ~is_cap =
  if Tri.must_false auth.tag then
    emit acc ~pc ~compartment:ctx.comp Rules.flow_untagged_deref
      "dereference of a provably untagged value"
  else if must_sealed auth then
    emit acc ~pc ~compartment:ctx.comp Rules.flow_untagged_deref
      "dereference of a provably sealed capability"
  else if Tri.must_true auth.tag then begin
    let need = if is_store then Perm.SD else Perm.LD in
    if not (may_perm auth need) then
      emit acc ~pc ~compartment:ctx.comp Rules.flow_missing_perm
        (Printf.sprintf "access needs %s which the authority provably lacks"
           (Perm.to_string need))
    else if is_cap && not (may_perm auth Perm.MC) then
      emit acc ~pc ~compartment:ctx.comp Rules.flow_missing_perm
        "capability access needs MC which the authority provably lacks"
    else if must_out_of_bounds auth auth.addr ~size then
      emit acc ~pc ~compartment:ctx.comp Rules.flow_oob_access
        (Printf.sprintf "%d-byte access provably outside bounds" size)
  end

(* Every concretization of [value] is a capability bounded within the
   heap region — the shape only a heap allocation (or a shrink of one)
   can have. *)
let must_heap_derived ctx (value : v) =
  ctx.hsize > 0
  && value.base.Iv.lo >= ctx.hbase
  && value.top.Iv.hi <= ctx.hbase + ctx.hsize
  && value.top.Iv.hi > value.base.Iv.lo

let check_store_value acc ctx pc ~auth ~value =
  if Tri.must_true auth.tag && Tri.must_true value.tag then begin
    let non_gl = not (may_perm value Perm.GL) in
    if
      non_gl && must_heap_derived ctx value
      && globals_region ctx auth = `Globals
    then
      (* most specific first: a GL-stripped heap capability parked in
         globals outlives revocation's reach (paper 3.5) *)
      emit acc ~pc ~compartment:ctx.comp Rules.tmp_heap_escape
        "heap-derived capability without GL stored to globals: escapes \
         revocation sweeps"
    else if non_gl && not (may_perm auth Perm.SL) then
      if value.from_load then
        emit acc ~pc ~compartment:ctx.comp Rules.flow_launder_local
          "local (non-GL) capability laundered through memory and re-stored \
           through an SL-lacking authority"
      else
        emit acc ~pc ~compartment:ctx.comp Rules.flow_store_local_leak
          "local (non-GL) capability stored through an SL-lacking authority"
  end

(* Jump checks for Jalr; [`Trap] means provably trapping: no successor. *)
let check_jump acc ctx pc target off =
  if Tri.must_false target.tag then begin
    emit acc ~pc ~compartment:ctx.comp Rules.flow_jump_not_executable
      "jump through a provably untagged value";
    `Trap
  end
  else if Tri.must_true target.tag && not (may_perm target Perm.EX) then begin
    emit acc ~pc ~compartment:ctx.comp Rules.flow_jump_not_executable
      "jump target provably lacks EX";
    `Trap
  end
  else if must_sealed target then
    match sentry_kind_exact target with
    | Some _ when off = 0 -> `Ok
    | Some _ ->
        emit acc ~pc ~compartment:ctx.comp Rules.flow_jump_not_executable
          "sentry jump with a nonzero immediate";
        `Trap
    | None ->
        emit acc ~pc ~compartment:ctx.comp Rules.flow_jump_not_executable
          "jump through a sealed non-sentry capability";
        `Trap
  else `Ok

(* --- transfer function --------------------------------------------------- *)

(* Signed view of an exact interval (register offsets are 32-bit two's
   complement). *)
let signed_exact (iv : Iv.t) =
  if Iv.is_exact iv && iv.Iv.lo < Iv.limit then
    let n = iv.Iv.lo in
    Some (if n >= 1 lsl 31 then n - Iv.limit else n)
  else None

(* Address update shared by Csetaddr / Cincaddr[imm]: keeps bounds and
   perms; the tag survives only if provably unsealed and representable
   (in-bounds implies representable). *)
let with_addr (c : v) (addr : Iv.t) =
  let tag =
    match c.tag with
    | Tri.False -> Tri.False
    | _ ->
        if
          Tri.must_true c.tag && must_unsealed c
          && must_in_bounds c addr ~size:0
        then Tri.True
        else Tri.Any
  in
  weaken_xret { c with addr; tag }

(* [Csetbounds*]: traps (rather than clearing the tag) when the request
   escapes the source authority, so the success path is always tagged. *)
let set_bounds_v acc ctx pc (c : v) (len : Iv.t) ~exact =
  if
    Tri.must_true c.tag
    && (c.addr.Iv.lo + len.Iv.lo > c.top.Iv.hi || c.addr.Iv.hi < c.base.Iv.lo)
  then
    emit acc ~pc ~compartment:ctx.comp Rules.flow_widening_derivation
      "requested bounds provably escape the source capability";
  ignore exact;
  if Iv.is_exact c.addr && Iv.is_exact len && len.Iv.lo <= 511 then
    (* small objects are always exactly representable (3.2.3) *)
    weaken_xret
      {
        c with
        tag = Tri.True;
        ot = Ot_exact Otype.unsealed;
        base = Iv.exact c.addr.Iv.lo;
        top = Iv.exact (c.addr.Iv.lo + len.Iv.lo);
      }
  else
    weaken_xret
      {
        c with
        tag = Tri.True;
        ot = Ot_exact Otype.unsealed;
        base = Iv.v c.base.Iv.lo c.addr.Iv.hi;
        top = Iv.v (Iv.add c.addr len).Iv.lo c.top.Iv.hi;
      }

let step acc ctx (st : state) pc (i : Insn.t) =
  let g = get st and s = set st in
  match i with
  | Insn.Lui (rd, imm) -> s rd (int_v (Iv.exact ((imm lsl 12) land 0xFFFF_FFFF)))
  | Insn.Auipcc (rd, imm) ->
      s rd
        (of_cap
           (Capability.with_address ctx.code_cap
              ((pc + (imm lsl 12)) land 0xFFFF_FFFF)))
  | Insn.Op_imm (Insn.Add, rd, rs1, imm) ->
      s rd (int_v (Iv.add_const (g rs1).addr imm))
  | Insn.Op_imm (_, rd, _, _) -> s rd int_full
  | Insn.Op (Insn.Add, rd, rs1, rs2) ->
      s rd (int_v (Iv.add (g rs1).addr (g rs2).addr))
  | Insn.Op (Insn.Sub, rd, rs1, rs2) ->
      s rd (int_v (Iv.sub (g rs1).addr (g rs2).addr))
  | Insn.Op (_, rd, _, _) -> s rd int_full
  | Insn.Mul_div (_, rd, _, _) -> s rd int_full
  | Insn.Load { width; rd; rs1; off; _ } ->
      let size = match width with Insn.B -> 1 | Insn.H -> 2 | Insn.W -> 4 in
      let auth = with_addr (g rs1) (Iv.add_const (g rs1).addr off) in
      check_access acc ctx pc ~auth ~size ~is_store:false ~is_cap:false;
      s rd (if size = 4 then load_int ctx auth else int_full)
  | Insn.Store { width; rs2 = _; rs1; off } ->
      let size = match width with Insn.B -> 1 | Insn.H -> 2 | Insn.W -> 4 in
      let auth = with_addr (g rs1) (Iv.add_const (g rs1).addr off) in
      check_access acc ctx pc ~auth ~size ~is_store:true ~is_cap:false;
      store ctx auth None ~size
  | Insn.Clc (rd, rs1, off) ->
      let auth = with_addr (g rs1) (Iv.add_const (g rs1).addr off) in
      check_access acc ctx pc ~auth ~size:8 ~is_store:false ~is_cap:true;
      s rd (load_cap ctx auth)
  | Insn.Csc (rs2, rs1, off) ->
      let auth = with_addr (g rs1) (Iv.add_const (g rs1).addr off) in
      check_access acc ctx pc ~auth ~size:8 ~is_store:true ~is_cap:true;
      check_store_value acc ctx pc ~auth ~value:(g rs2);
      store ctx auth (Some (g rs2)) ~size:8;
      if
        Tri.must_true auth.tag && must_xret (g rs2)
        && globals_region ctx auth = `Globals
      then
        ctx.stored_xcall <-
          Some
            (match ctx.stored_xcall with None -> pc | Some p -> min p pc)
  | Insn.Cincaddrimm (rd, rs1, imm) ->
      let c = g rs1 in
      s rd (with_addr c (Iv.add_const c.addr imm))
  | Insn.Cincaddr (rd, rs1, rs2) ->
      let c = g rs1 in
      let addr =
        match signed_exact (g rs2).addr with
        | Some n -> Iv.add_const c.addr n
        | None -> Iv.full
      in
      s rd (with_addr c addr)
  | Insn.Csetaddr (rd, rs1, rs2) -> s rd (with_addr (g rs1) (g rs2).addr)
  | Insn.Csetbounds (rd, rs1, rs2) ->
      s rd (set_bounds_v acc ctx pc (g rs1) (g rs2).addr ~exact:false)
  | Insn.Csetboundsexact (rd, rs1, rs2) ->
      s rd (set_bounds_v acc ctx pc (g rs1) (g rs2).addr ~exact:true)
  | Insn.Csetboundsimm (rd, rs1, imm) ->
      s rd (set_bounds_v acc ctx pc (g rs1) (Iv.exact imm) ~exact:false)
  | Insn.Crrl (rd, _) | Insn.Cram (rd, _) -> s rd int_full
  | Insn.Candperm (rd, rs1, rs2) ->
      let c = g rs1 in
      let c =
        match signed_exact (g rs2).addr with
        | Some bits ->
            let mask = Perm.Set.of_arch_bits (bits land 0xFFF) in
            if Perm.Set.equal c.pmust c.pmay then
              let p = Perm.legalize (Perm.Set.inter c.pmust mask) in
              { c with pmust = p; pmay = p }
            else
              {
                c with
                pmust = Perm.Set.empty;
                pmay = Perm.Set.inter c.pmay mask;
              }
        | None -> { c with pmust = Perm.Set.empty }
      in
      let tag =
        match c.tag with
        | Tri.False -> Tri.False
        | _ -> if must_unsealed c then c.tag else Tri.Any
      in
      s rd (weaken_xret { c with tag })
  | Insn.Ccleartag (rd, rs1) ->
      s rd (weaken_xret { (g rs1) with tag = Tri.False })
  | Insn.Cmove (rd, rs1) -> s rd (g rs1)
  | Insn.Cseal (rd, rs1, _) ->
      (* success path: the operand was tagged and sealable *)
      s rd (weaken_xret { (g rs1) with tag = Tri.True; ot = Ot_any })
  | Insn.Cunseal (rd, rs1, rs2) ->
      let c = g rs1 and key = g rs2 in
      let c = { c with tag = Tri.True; ot = Ot_exact Otype.unsealed } in
      let c =
        if must_perm key Perm.GL then c
        else { c with pmust = Perm.Set.remove Perm.GL c.pmust }
      in
      s rd (weaken_xret c)
  | Insn.Cget (Insn.Tag, rd, _) -> s rd (int_v (Iv.v 0 1))
  | Insn.Cget (Insn.Addr, rd, rs1) -> s rd (int_v (g rs1).addr)
  | Insn.Cget (Insn.Base, rd, rs1) -> s rd (int_v (g rs1).base)
  | Insn.Cget (Insn.Top, rd, rs1) -> s rd (int_v (g rs1).top)
  | Insn.Cget (_, rd, _) -> s rd int_full
  | Insn.Csub (rd, rs1, rs2) ->
      s rd (int_v (Iv.sub (g rs1).addr (g rs2).addr))
  | Insn.Ctestsubset (rd, _, _) | Insn.Csetequalexact (rd, _, _) ->
      s rd (int_v (Iv.v 0 1))
  | Insn.Cspecialrw (rd, _, _) -> s rd top_v
  | Insn.Csr (_, rd, _, _) -> s rd int_full
  | Insn.Wfi | Insn.Ecall | Insn.Ebreak | Insn.Mret -> ()
  | Insn.Jal _ | Insn.Jalr _ | Insn.Branch _ ->
      (* terminators are handled by the successor computation *)
      ()

(* --- entry and call-boundary states -------------------------------------- *)

(* What a callee may assume about its link register: some valid sentry. *)
let sentry_like =
  {
    top_v with
    tag = Tri.True;
    pmust = Perm.Set.of_list [ Perm.GL; Perm.EX ];
  }

let stack_perms =
  Capability.perms (Capability.clear_perms Capability.root_mem_rw [ Perm.GL ])

(* The stack capability shape a compartment entry receives: local, SL,
   bounded within the boot stack; the switcher may have chopped it, so
   the top and address are intervals. *)
let stack_v ctx =
  {
    tag = Tri.True;
    ot = Ot_exact Otype.unsealed;
    pmust = stack_perms;
    pmay = stack_perms;
    base = Iv.exact ctx.sbase;
    top = Iv.v ctx.sbase (ctx.sbase + ctx.ssize);
    addr = Iv.v ctx.sbase (ctx.sbase + ctx.ssize);
    from_load = false;
    xret = Tri.False;
  }

let entry_state ctx : state =
  let st = Array.make 16 top_v in
  st.(0) <- null_v;
  (* the switcher zeroes non-argument registers on entry; arguments are
     unconstrained, so a0-a5 stay top *)
  List.iter (fun r -> st.(r) <- null_v)
    [ Insn.reg_tp; Insn.reg_t0; Insn.reg_t1; Insn.reg_t2; Insn.reg_s0;
      Insn.reg_s1 ];
  st.(Insn.reg_ra) <- sentry_like;
  st.(Insn.reg_sp) <- stack_v ctx;
  st.(Insn.reg_gp) <- of_cap ctx.gcap;
  st

(* Register state after a call returns: sp and gp are preserved (by the
   intra-compartment ABI, or restored by the switcher on cross-calls);
   everything else is clobbered. *)
let clobbered (st : state) : state =
  Array.mapi
    (fun i v ->
      if i = 0 then null_v
      else if i = Insn.reg_sp || i = Insn.reg_gp then v
      else top_v)
    st

(* The abstract a0 after a cross-compartment call: unknown authority,
   but provably *exactly* whatever the callee's export returned — the
   provenance the {!Linkflow} return substitution keys on. *)
let xcall_token = { top_v with xret = Tri.True }

let xcall_return (st : state) : state =
  let c = clobbered st in
  set c Insn.reg_a0 xcall_token;
  c

(* A Jalr operand that provably is the switcher's cross-call sentry: a
   must-tagged interrupt-disabling sentry with an exact address inside
   the switcher's code region.  (Sentry jumps with a nonzero offset
   provably trap in [check_jump], so reaching here implies off = 0.) *)
let is_cross_call ctx (target : v) =
  Tri.must_true target.tag
  && (match sentry_kind_exact target with
     | Some Otype.Sentry_disable -> Iv.is_exact target.addr
     | _ -> false)
  && target.addr.Iv.lo >= ctx.sw_lo
  && target.addr.Iv.lo < ctx.sw_hi

let record_xcall ctx pc (arg : v) =
  ctx.xcall_out <-
    Some (match ctx.xcall_out with None -> arg | Some o -> join o arg);
  ctx.xcall_out_pc <-
    Some (match ctx.xcall_out_pc with None -> pc | Some p -> min p pc)

let link_v ctx addr =
  let c = of_cap (Capability.with_address ctx.code_cap addr) in
  { c with tag = Tri.True; ot = Ot_any }

(* --- call summaries -------------------------------------------------------- *)

(* Register a callee entry: compute its intraprocedural block set (follow
   fall-throughs, branch arms, direct-goto edges and call continuations;
   stop at returns) and record which return blocks belong to it, so exit
   states can be attributed when the fixpoint reaches them. *)
let register_callee ctx (cfg : Cfg.t) entry =
  if not (Hashtbl.mem ctx.callees entry) then begin
    Hashtbl.replace ctx.callees entry ();
    let seen = Hashtbl.create 16 in
    let queue = Queue.create () in
    let push pc =
      if Cfg.node cfg pc >= 0 && not (Hashtbl.mem seen pc) then begin
        Hashtbl.replace seen pc ();
        Queue.push pc queue
      end
    in
    push entry;
    while not (Queue.is_empty queue) do
      let pc = Queue.pop queue in
      match Cfg.find cfg pc with
      | None -> ()
      | Some b ->
          if Cfg.is_return b then
            Hashtbl.replace ctx.ret_map pc
              (entry
               ::
               (match Hashtbl.find_opt ctx.ret_map pc with
               | Some l -> l
               | None -> []))
          else
            List.iter push
              (match b.Cfg.term with
              | Cfg.T_jal (rd, target) when rd <> 0 ->
                  (* a nested call: the callee body is not ours; resume
                     at the continuation *)
                  ignore target;
                  [ b.Cfg.term_pc + 4 ]
              | _ -> Cfg.block_succs b)
    done
  end

(* Record a return block's exit state against every function it can
   return from.  Widening (rather than a plain join) bounds the chains a
   recursive summary could otherwise grow across rounds. *)
let record_return ctx pc (st : state) =
  match Hashtbl.find_opt ctx.ret_map pc with
  | None -> ()
  | Some entries ->
      List.iter
        (fun f ->
          match Hashtbl.find_opt ctx.summaries f with
          | None ->
              Hashtbl.replace ctx.summaries f (copy_state st);
              ctx.sum_dirty <- true
          | Some old ->
              let nw = widen_state old st in
              if not (equal_state old nw) then begin
                Hashtbl.replace ctx.summaries f nw;
                ctx.sum_dirty <- true
              end)
        entries

(* Caller state after a summarised call returns: sp and gp are
   callee-saved by the intra-compartment ABI; everything else is what
   the callee's exit states say. *)
let merge_return (caller : state) (sum : state) : state =
  Array.init 16 (fun i ->
      if i = 0 then null_v
      else if i = Insn.reg_sp || i = Insn.reg_gp then caller.(i)
      else sum.(i))

let call_continuation ctx pc target (st : state) =
  match Hashtbl.find_opt ctx.summaries target with
  | Some s when ctx.use_summaries -> (pc, merge_return st s)
  | _ -> (pc, clobbered st)

(* A Jalr operand that provably is a forward sentry into this
   compartment's own code, at a block the CFG recovered: an
   intra-compartment indirect call the summary machinery can model. *)
let intra_sentry_target ctx (cfg : Cfg.t) (target : v) off =
  if not (ctx.use_summaries && off = 0 && Tri.must_true target.tag) then None
  else
    match sentry_kind_exact target with
    | Some (Otype.Sentry_enable | Otype.Sentry_disable | Otype.Sentry_inherit)
      when Iv.is_exact target.addr ->
        let a = target.addr.Iv.lo in
        if a >= ctx.code_lo && a < ctx.code_hi && Cfg.node cfg a >= 0
        then Some a
        else None
    | _ -> None

(* --- the fixpoint --------------------------------------------------------- *)

let successors acc ctx (cfg : Cfg.t) (b : Cfg.block) (st : state) =
  match b.Cfg.term with
  | Cfg.T_fall next -> [ (next, st) ]
  | Cfg.T_stop | Cfg.T_halt -> []
  | Cfg.T_branch target -> [ (target, st); (b.Cfg.term_pc + 4, st) ]
  | Cfg.T_jal (rd, target) ->
      let callee = copy_state st in
      if rd <> 0 then set callee rd (link_v ctx (b.Cfg.term_pc + 4));
      let succ = [ (target, callee) ] in
      if rd <> 0 then begin
        register_callee ctx cfg target;
        call_continuation ctx (b.Cfg.term_pc + 4) target st :: succ
      end
      else succ
  | Cfg.T_jalr (rd, rs1, off) -> (
      let target = get st rs1 in
      match check_jump acc ctx b.Cfg.term_pc target off with
      | `Trap -> []
      | `Ok -> (
          match intra_sentry_target ctx cfg target off with
          | Some a ->
              register_callee ctx cfg a;
              let callee = copy_state st in
              if rd <> 0 then set callee rd (link_v ctx (b.Cfg.term_pc + 4));
              let succ = [ (a, callee) ] in
              if rd <> 0 then
                call_continuation ctx (b.Cfg.term_pc + 4) a st :: succ
              else succ
          | None ->
              if rd = 0 then []
              else if is_cross_call ctx target then begin
                record_xcall ctx b.Cfg.term_pc (get st Insn.reg_a0);
                [ (b.Cfg.term_pc + 4, xcall_return st) ]
              end
              else [ (b.Cfg.term_pc + 4, clobbered st) ]))

(* One round: the worklist fixpoint from the entry states, against the
   memory and call summaries as the earlier rounds left them.  Returns
   the round's findings, oldest first.  The worklist state lives in
   arrays indexed by block number ({!Cfg.node}); the queue stays FIFO,
   because when a join widens depends on how often its block has been
   processed. *)
let run_fixpoint ctx (cfg : Cfg.t) =
  (* cross-call observations are recomputed from scratch each round; the
     kept round's values feed the interface summary *)
  let acc = acc_create () in
  ctx.xcall_out <- None;
  ctx.xcall_out_pc <- None;
  ctx.stored_xcall <- None;
  let n = Array.length cfg.Cfg.nodes in
  let in_states : state option array = Array.make n None in
  let visits = Array.make n 0 in
  let queued = Array.make n false in
  let queue = Queue.create () in
  (* A state handed to [push] is never written again (the loop below
     steps a copy of the in-state, and every successor state is that
     copy or fresh), so an in-state may be the pushed array itself. *)
  let push pc st =
    let k = Cfg.node cfg pc in
    if k >= 0 then begin
      let changed =
        match in_states.(k) with
        | None ->
            in_states.(k) <- Some st;
            true
        | Some old ->
            let joined =
              if visits.(k) > 8 then widen_state old (join_state old st)
              else join_state old st
            in
            if equal_state old joined then false
            else begin
              in_states.(k) <- Some joined;
              true
            end
      in
      if changed && not queued.(k) then begin
        queued.(k) <- true;
        Queue.push k queue
      end
    end
  in
  List.iter (fun e -> push e (entry_state ctx)) cfg.Cfg.entries;
  while not (Queue.is_empty queue) do
    let k = Queue.pop queue in
    queued.(k) <- false;
    visits.(k) <- visits.(k) + 1;
    let b = cfg.Cfg.nodes.(k) in
    Hashtbl.reset ctx.fwd;
    let st = copy_state (Option.get in_states.(k)) in
    List.iter (fun (ipc, i) -> step acc ctx st ipc i) b.Cfg.body;
    if Cfg.is_return b then record_return ctx b.Cfg.start st;
    List.iter (fun (succ, st') -> push succ st') (successors acc ctx cfg b st)
  done;
  List.rev acc.findings

(* --- per-compartment driver ------------------------------------------------ *)

(* Content hash keying a compartment's summary: every input the
   per-compartment analysis reads.  That is exactly the compartment's
   own code region (bytes + tag bits: [load_cap] returns top for any
   address outside the compartment's code and globals, so no other SRAM
   state can influence the fixpoint), its globals image (granule words +
   tags), the layout the abstract domain bakes into entry states and
   region classification, the capability roots it derives from, the
   export table (labels, postures, entry pcs), the boot entry when it
   lands in this compartment, and the analysis flags.  The layout
   includes the SRAM base: the fixpoint derives the switcher window that
   marks a cross-compartment call from it, and two images linked at
   different bases can place identical compartment bytes at the same
   addresses. *)
let summary_key ~call_summaries ~field_sensitive (t : Loader.t)
    (name, (b : Loader.built)) =
  let sram = t.Loader.sram in
  let code_lo = b.Loader.image.Asm.origin in
  let code_hi = code_lo + Asm.bytes_size b.Loader.image in
  let gbase = b.Loader.globals_base in
  let gsize = max 16 b.Loader.bc.Compartment.globals_size in
  let buf = Buffer.create (4 * (code_hi - code_lo) + 1024) in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "%s|%b|%b|" name call_summaries field_sensitive;
  addf "%d %d %d %d %d %d %d %d %d|" (Sram.base sram) code_lo code_hi gbase
    gsize t.Loader.stack_base t.Loader.stack_size t.Loader.heap_base
    t.Loader.heap_size;
  let add_cap c = addf "%b:%Lx;" (Capability.tag c) (Capability.to_word c) in
  add_cap b.Loader.code_cap;
  add_cap b.Loader.globals_cap;
  let a = ref code_lo in
  while !a + 4 <= code_hi do
    Buffer.add_int32_le buf (Int32.of_int (Sram.read32 sram !a));
    a := !a + 4
  done;
  let a = ref code_lo in
  while !a + 8 <= code_hi do
    Buffer.add_char buf (if Sram.tag_at sram !a then '1' else '0');
    a := !a + 8
  done;
  let off = ref 0 in
  while !off + 8 <= gsize do
    let c = Sram.read_cap sram (gbase + !off) in
    Buffer.add_char buf (if Capability.tag c then '1' else '0');
    Buffer.add_int64_le buf (Capability.to_word c);
    off := !off + 8
  done;
  List.iter
    (fun (e : Compartment.export) ->
      addf "|%s@%d:%s" e.Compartment.exp_label
        (Asm.label b.Loader.image e.Compartment.exp_label)
        (match e.Compartment.exp_posture with
        | Compartment.Interrupts_enabled -> "en"
        | Compartment.Interrupts_disabled -> "dis"
        | Compartment.Interrupts_inherited -> "inh"))
    b.Loader.bc.Compartment.exports;
  let boot = Capability.address t.Loader.machine.Machine.pcc in
  addf "|boot:%d" (if boot >= code_lo && boot < code_hi then boot else -1);
  Summary.digest [ Buffer.contents buf ]

let analyze_compartment ~call_summaries ~field_sensitive ~key (t : Loader.t)
    (name, (b : Loader.built)) : Summary.t =
  let acc = acc_create () in
  let code_lo = b.Loader.image.Asm.origin in
  let code_hi = code_lo + Asm.bytes_size b.Loader.image in
  let ctx =
    {
      comp = name;
      sram = t.Loader.sram;
      code_cap = b.Loader.code_cap;
      code_lo;
      code_hi;
      gbase = b.Loader.globals_base;
      gsize = max 16 b.Loader.bc.Compartment.globals_size;
      gcap = b.Loader.globals_cap;
      sbase = t.Loader.stack_base;
      ssize = t.Loader.stack_size;
      hbase = t.Loader.heap_base;
      hsize = t.Loader.heap_size;
      field_sensitive;
      soup = null_v;
      granules = Hashtbl.create 16;
      wild = None;
      fwd = Hashtbl.create 8;
      mem_dirty = false;
      use_summaries = call_summaries;
      summaries = Hashtbl.create 8;
      callees = Hashtbl.create 8;
      ret_map = Hashtbl.create 8;
      sum_dirty = false;
      sw_lo = Sram.base t.Loader.sram;
      sw_hi = Sram.base t.Loader.sram + 0x800;
      xcall_out = None;
      xcall_out_pc = None;
      stored_xcall = None;
    }
  in
  ctx.soup <- initial_soup ctx;
  let boot = Capability.address t.Loader.machine.Machine.pcc in
  let export_entries =
    List.map
      (fun (e : Compartment.export) ->
        ( Asm.label b.Loader.image e.Compartment.exp_label,
          match e.Compartment.exp_posture with
          | Compartment.Interrupts_enabled -> Some true
          | Compartment.Interrupts_disabled -> Some false
          | Compartment.Interrupts_inherited -> None ))
      b.Loader.bc.Compartment.exports
  in
  let posture_entries =
    if
      boot >= code_lo && boot < code_hi
      && not (List.mem_assoc boot export_entries)
    then (boot, Some true) :: export_entries
    else export_entries
  in
  let entries = List.sort_uniq compare (List.map fst posture_entries) in
  let cfg =
    Cfg.build ~comp:name ~sram:t.Loader.sram ~lo:code_lo ~hi:code_hi ~entries
  in
  emit_all acc cfg.Cfg.findings;
  (* Register every export entry as a summarised callee up front, so the
     fixpoint attributes return states to it and the interface summary
     can report what each export returns. *)
  List.iter
    (fun e -> if Cfg.node cfg e >= 0 then register_callee ctx cfg e)
    entries;
  (* Rounds until the memory and call summaries reach a joint fixpoint.
     Each round re-runs from scratch against the summaries the earlier
     rounds accumulated (both are monotone), which keeps findings
     independent of the order in which stores and calls were
     discovered.  The analysis reports one round: its findings, its
     cross-call observations and the summaries as it leaves them.

     The first round that grows no memory summary, no call summary and
     no callee set is that round.  It left every input of
     [run_fixpoint] as it found it, and [run_fixpoint] is
     deterministic, so running it again would replay it step for step.
     A round that grew only the callee set is run once more: the new
     callee's return blocks are attributed to it from the start of the
     re-run, including any the round reached before it registered the
     callee. *)
  let rec warm round =
    ctx.mem_dirty <- false;
    ctx.sum_dirty <- false;
    let callees = Hashtbl.length ctx.callees in
    let this_round = run_fixpoint ctx cfg in
    if ctx.mem_dirty || ctx.sum_dirty then
      if round >= 8 then begin
        (* give up on memory and call precision rather than iterating
           further: coarse but sound.  The fallback round is final as
           run: with [wild] at top every globals load reads top (an int
           load, unknown), and with summaries off no call reads one, so
           a re-run would see the same value at every load and call. *)
        ctx.soup <- top_v;
        Hashtbl.reset ctx.granules;
        ctx.wild <- Some top_v;
        Hashtbl.reset ctx.summaries;
        ctx.use_summaries <- false;
        run_fixpoint ctx cfg
      end
      else warm (round + 1)
    else if Hashtbl.length ctx.callees > callees then run_fixpoint ctx cfg
    else this_round
  in
  emit_all acc (warm 0);
  (* interrupt-posture rules over the same CFG *)
  emit_all acc (Irq.analyze ~comp:name ~cfg ~entries:posture_entries ());
  let exports =
    List.map
      (fun (e : Compartment.export) ->
        let entry = Asm.label b.Loader.image e.Compartment.exp_label in
        {
          Summary.xs_label = e.Compartment.exp_label;
          xs_entry = entry;
          xs_ret =
            (match Hashtbl.find_opt ctx.summaries entry with
            | Some st -> Some (get st Insn.reg_a0)
            | None -> None);
        })
      b.Loader.bc.Compartment.exports
  in
  {
    Summary.sm_comp = name;
    sm_key = key;
    sm_exports = exports;
    sm_xcall_out = ctx.xcall_out;
    sm_xcall_out_pc = ctx.xcall_out_pc;
    sm_stored_xcall_pc = ctx.stored_xcall;
    sm_findings = List.rev acc.findings;
  }

(* --- linkage audit ---------------------------------------------------------- *)

let switcher_export_ot = Otype.v Otype.Data Switcher_asm.export_otype

let audit_linkage acc (t : Loader.t) =
  let sram = t.Loader.sram in
  let read_cap_at = Sram.read_cap sram in
  let switcher_lo = Sram.base sram in
  let switcher_hi = switcher_lo + 0x800 in
  List.iter
    (fun (name, (b : Loader.built)) ->
      let em ?pc rule detail = emit acc ?pc ~compartment:name rule detail in
      let gbase = b.Loader.globals_base in
      let gsize = max 16 b.Loader.bc.Compartment.globals_size in
      let code_lo = b.Loader.image.Asm.origin in
      let code_hi = code_lo + Asm.bytes_size b.Loader.image in
      (* exports: descriptor sentry + globals capability *)
      List.iter
        (fun (e : Compartment.export) ->
          match
            List.assoc_opt e.Compartment.exp_label b.Loader.descriptors
          with
          | None ->
              em Rules.link_export_posture
                (Printf.sprintf "export %s has no descriptor"
                   e.Compartment.exp_label)
          | Some handle ->
              let daddr = Capability.base handle in
              let sentry = read_cap_at daddr in
              let cgp = read_cap_at (daddr + 8) in
              let expected = Loader.sentry_of_posture e.Compartment.exp_posture in
              (if not (Capability.tag sentry) then
                 em Rules.link_export_posture
                   (Printf.sprintf "export %s: entry is untagged"
                      e.Compartment.exp_label)
               else
                 match Capability.sentry_kind sentry with
                 | None ->
                     em Rules.link_export_posture
                       (Printf.sprintf "export %s: entry is not a sentry"
                          e.Compartment.exp_label)
                 | Some k when k <> expected ->
                     em Rules.link_export_posture
                       (Printf.sprintf
                          "export %s: sentry posture differs from declared \
                           posture"
                          e.Compartment.exp_label)
                 | Some _ -> ());
              let entry = Capability.address sentry in
              if
                Capability.tag sentry
                && (entry < code_lo || entry >= code_hi
                   || not (Capability.has_perm sentry Perm.EX))
              then
                em Rules.link_export_entry_escape
                  (Printf.sprintf
                     "export %s: entry 0x%x outside code region [0x%x, 0x%x)"
                     e.Compartment.exp_label entry code_lo code_hi);
              if Capability.tag sentry && Capability.has_perm sentry Perm.SR
              then
                em Rules.link_sr_leak
                  (Printf.sprintf "export %s: entry sentry carries SR"
                     e.Compartment.exp_label);
              if
                (not (Capability.tag cgp))
                || Capability.is_sealed cgp
                || Capability.has_perm cgp Perm.SL
                || Capability.base cgp < gbase
                || Capability.top cgp > gbase + gsize
              then
                em Rules.link_globals_cap
                  (Printf.sprintf
                     "export %s: globals capability malformed or escapes \
                      [0x%x, 0x%x)"
                     e.Compartment.exp_label gbase (gbase + gsize)))
        b.Loader.bc.Compartment.exports;
      (* imports *)
      List.iter
        (fun (i : Compartment.import) ->
          let slot = i.Compartment.imp_slot in
          if
            slot < Compartment.first_free_slot
            || slot land 7 <> 0
            || slot + 8 > gsize
          then
            em Rules.link_import_slot_range
              (Printf.sprintf "import %s.%s at slot %d outside globals of \
                               size %d"
                 i.Compartment.imp_compartment i.Compartment.imp_export slot
                 gsize)
          else
            let c = read_cap_at (gbase + slot) in
            if (not (Capability.tag c)) || not (Capability.is_sealed c) then
              em Rules.link_import_unsealed
                (Printf.sprintf "import slot %d holds an unsealed or untagged \
                                 capability"
                   slot)
            else if
              (* temporal: the slot's range must reference live static
                 memory, not the revocable heap or unmapped space *)
              (let lo = Capability.base c and hi = Capability.top c in
               let heap_lo = t.Loader.heap_base in
               let heap_hi = t.Loader.heap_base + t.Loader.heap_size in
               let sram_lo = Sram.base sram in
               let sram_hi = sram_lo + Sram.size sram in
               (lo < heap_hi && hi > heap_lo) || hi <= sram_lo
               || lo >= sram_hi)
            then
              em Rules.tmp_import_dangling
                (Printf.sprintf
                   "import slot %d references the revocable heap or unmapped \
                    memory"
                   slot)
            else if not (Otype.equal (Capability.otype c) switcher_export_ot)
            then
              em Rules.link_import_wrong_otype
                (Printf.sprintf "import slot %d sealed with the wrong otype"
                   slot)
            else
              let resolved =
                match
                  List.assoc_opt i.Compartment.imp_compartment
                    t.Loader.compartments
                with
                | None -> None
                | Some tgt ->
                    List.assoc_opt i.Compartment.imp_export
                      tgt.Loader.descriptors
              in
              match resolved with
              | Some d when Capability.equal d c -> ()
              | _ ->
                  em Rules.link_import_wrong_otype
                    (Printf.sprintf
                       "import slot %d does not resolve to %s.%s" slot
                       i.Compartment.imp_compartment i.Compartment.imp_export))
        b.Loader.bc.Compartment.imports;
      (* slot 0: the switcher cross-call sentry *)
      let c0 = read_cap_at (gbase + Compartment.switcher_slot) in
      let addr0 = Capability.address c0 in
      if
        (not (Capability.tag c0))
        || Capability.sentry_kind c0 <> Some Otype.Sentry_disable
        || addr0 < switcher_lo || addr0 >= switcher_hi
      then
        em Rules.link_switcher_slot
          "globals slot 0 is not the switcher's cross-call sentry";
      (* globals image scan: no local caps, no reserved-otype sealing caps *)
      let import_slots =
        Compartment.switcher_slot
        :: List.map
             (fun (i : Compartment.import) -> i.Compartment.imp_slot)
             b.Loader.bc.Compartment.imports
      in
      let off = ref 0 in
      while !off + 8 <= gsize do
        (if not (List.mem !off import_slots) then
           let c = read_cap_at (gbase + !off) in
           if Capability.tag c then
             if not (Capability.is_global c) then
               em Rules.link_local_leak
                 (Printf.sprintf "tagged local capability at globals+%d" !off)
             else if
               (Capability.has_perm c Perm.SE || Capability.has_perm c Perm.US)
               && (not (Capability.is_sealed c))
               && Capability.base c <= Switcher_asm.export_otype
               && Capability.top c > Switcher_asm.export_otype
             then
               em Rules.link_reserved_otype
                 (Printf.sprintf
                    "sealing capability at globals+%d covers the switcher's \
                     export otype"
                    !off));
        off := !off + 8
      done)
    t.Loader.compartments;
  (* boot register file and layout *)
  let em ?pc rule detail = emit acc ?pc ~compartment:"system" rule detail in
  let m = t.Loader.machine in
  if Capability.has_perm m.Machine.pcc Perm.SR then
    em Rules.link_sr_leak "boot PCC carries SR";
  let sp = Machine.reg m Insn.reg_sp in
  if
    (not (Capability.tag sp))
    || Capability.is_sealed sp
    || Capability.is_global sp
    || (not (Capability.has_perm sp Perm.SL))
    || Capability.base sp < t.Loader.stack_base
    || Capability.top sp > t.Loader.stack_base + t.Loader.stack_size
  then
    em Rules.link_stack_cap
      "boot stack capability must be tagged, local, SL and bounded to the \
       stack region";
  if t.Loader.heap_base < t.Loader.stack_base + t.Loader.stack_size then
    em Rules.link_heap_layout
      (Printf.sprintf "heap base 0x%x overlaps stacks/static data ending at \
                       0x%x"
         t.Loader.heap_base
         (t.Loader.stack_base + t.Loader.stack_size))

(* --- entry point -------------------------------------------------------------- *)

type stats = {
  compartments : int;
  cache_hits : int;  (** compartments whose summary was reused by hash *)
  cache_misses : int;  (** compartments analyzed from scratch *)
}

(** [run_stats ?cache t] audits a linked image and reports summary-cache
    reuse.  The linkage audit and the {!Linkflow} pass always run fresh
    (they are cheap and depend on cross-compartment state); only the
    per-compartment fixpoints are cached, keyed by {!summary_key}; an
    audit without a cache computes no key, and its summaries carry an
    empty [sm_key].  A warm re-audit is byte-identical to a cold one
    because a hash hit replays the exact findings and interface the
    cold analysis of the same inputs would recompute.  [call_summaries] and [field_sensitive]
    exist to let tests prove the interprocedural and store-map layers
    catch what the coarse analysis misses; production callers leave them
    on. *)
let run_stats ?(call_summaries = true) ?(field_sensitive = true)
    ?(cache : Summary.cache option) (t : Loader.t) =
  let link_acc = acc_create () in
  audit_linkage link_acc t;
  let hits = ref 0 and misses = ref 0 in
  let sums =
    List.map
      (fun cb ->
        let fresh key =
          incr misses;
          analyze_compartment ~call_summaries ~field_sensitive ~key t cb
        in
        match cache with
        | None -> fresh ""
        | Some c -> (
            let key = summary_key ~call_summaries ~field_sensitive t cb in
            match Summary.find c key with
            | Some s ->
                incr hits;
                s
            | None ->
                let s = fresh key in
                Summary.add c s;
                s))
      t.Loader.compartments
  in
  let findings =
    List.rev link_acc.findings
    @ List.concat_map (fun (s : Summary.t) -> s.Summary.sm_findings) sums
    @ Linkflow.analyze t sums
  in
  ( findings,
    {
      compartments = List.length t.Loader.compartments;
      cache_hits = !hits;
      cache_misses = !misses;
    } )

(** [run t] audits a linked image; returns the findings.  Emission order
    is stable per image; reports sort before rendering. *)
let run ?call_summaries ?field_sensitive ?cache (t : Loader.t) =
  fst (run_stats ?call_summaries ?field_sensitive ?cache t)
