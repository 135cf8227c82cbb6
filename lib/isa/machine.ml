open Cheriot_core
module Bus = Cheriot_mem.Bus
module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits

type mode = Cheriot | Rv32

(** Which fetch/decode machinery drives execution. *)
type dispatch = Dispatch_ref | Dispatch_jit

type cheri_cause =
  | Cheri_bounds
  | Cheri_tag
  | Cheri_seal
  | Cheri_permit_execute
  | Cheri_permit_load
  | Cheri_permit_store
  | Cheri_permit_load_cap
  | Cheri_permit_store_cap
  | Cheri_permit_store_local
  | Cheri_permit_access_system_registers

type cause =
  | Illegal_instruction
  | Breakpoint
  | Load_misaligned
  | Store_misaligned
  | Instruction_access_fault
  | Load_access_fault
  | Store_access_fault
  | Ecall_m
  | Cheri_fault of cheri_cause * int
  | Interrupt_timer
  | Interrupt_external

let cheri_cause_code = function
  | Cheri_bounds -> 0x01
  | Cheri_tag -> 0x02
  | Cheri_seal -> 0x03
  | Cheri_permit_execute -> 0x11
  | Cheri_permit_load -> 0x12
  | Cheri_permit_store -> 0x13
  | Cheri_permit_load_cap -> 0x14
  | Cheri_permit_store_cap -> 0x15
  | Cheri_permit_store_local -> 0x16
  | Cheri_permit_access_system_registers -> 0x18

let pp_cheri_cause fmt c =
  Format.pp_print_string fmt
    (match c with
    | Cheri_bounds -> "bounds"
    | Cheri_tag -> "tag"
    | Cheri_seal -> "seal"
    | Cheri_permit_execute -> "permit-execute"
    | Cheri_permit_load -> "permit-load"
    | Cheri_permit_store -> "permit-store"
    | Cheri_permit_load_cap -> "permit-load-cap"
    | Cheri_permit_store_cap -> "permit-store-cap"
    | Cheri_permit_store_local -> "permit-store-local"
    | Cheri_permit_access_system_registers -> "permit-access-system-registers")

let pp_cause fmt = function
  | Illegal_instruction -> Format.pp_print_string fmt "illegal instruction"
  | Breakpoint -> Format.pp_print_string fmt "breakpoint"
  | Load_misaligned -> Format.pp_print_string fmt "load misaligned"
  | Store_misaligned -> Format.pp_print_string fmt "store misaligned"
  | Instruction_access_fault ->
      Format.pp_print_string fmt "instruction access fault"
  | Load_access_fault -> Format.pp_print_string fmt "load access fault"
  | Store_access_fault -> Format.pp_print_string fmt "store access fault"
  | Ecall_m -> Format.pp_print_string fmt "ecall"
  | Cheri_fault (c, r) ->
      Format.fprintf fmt "CHERI fault: %a (reg %d)" pp_cheri_cause c r
  | Interrupt_timer -> Format.pp_print_string fmt "timer interrupt"
  | Interrupt_external -> Format.pp_print_string fmt "external interrupt"

let mcause_of = function
  | Instruction_access_fault -> 1
  | Illegal_instruction -> 2
  | Breakpoint -> 3
  | Load_misaligned -> 4
  | Load_access_fault -> 5
  | Store_misaligned -> 6
  | Store_access_fault -> 7
  | Ecall_m -> 11
  | Cheri_fault _ -> 28
  | Interrupt_timer -> 0x8000_0000 lor 7
  | Interrupt_external -> 0x8000_0000 lor 11

type event = {
  (* mutable so the per-step hot path can update one record in place
     instead of allocating a fresh one every instruction *)
  mutable ev_insn : Insn.t option;
  mutable ev_taken_branch : bool;
  mutable ev_trap : cause option;
}

let no_event =
  {
    ev_insn = None;
    ev_taken_branch = false;
    ev_trap = None;
  }

type result =
  | Step_ok
  | Step_trap of cause
  | Step_waiting
  | Step_halted
  | Step_double_fault

(* A static cycle model, installed by the timing harness ([lib/uarch]
   sits above this library, so it hands its costs down as a hook).
   [insn_cost] packs an instruction's cycles (when it is neither a taken
   branch nor trapping) with its bus-busy cycles above [cost_shift]; no
   block's sum can carry one field into the other, so prefix sums of
   packed costs are packed prefix sums. *)
type cost_model = {
  insn_cost : load_filter:bool -> Insn.t -> int;
  taken_branch_penalty : int;
  trap_cost : int;
}

type t = {
  (* The word register file (see [reg]): every register's tag and
     metadata word in [reg_metas], its address in [reg_addrs]. *)
  reg_metas : int array;
  reg_addrs : int array;
  mutable pcc : Capability.t;
  bus : Bus.t;
  mode : mode;
  ddc : Capability.t;  (* what Rv32 accesses check *)
  mutable load_filter : bool;
  mutable mie : bool;
  mutable mpie : bool;
  mutable mcause : int;
  mutable mtval : int;
  mutable mcycle : int;
  mutable minstret : int;
  mutable mshwm : int;
  mutable mshwmb : int;
  mutable mtimecmp : int;
  mutable mtcc : Capability.t;
  mutable mepcc : Capability.t;
  mutable mtdc : Capability.t;
  mutable mscratchc : Capability.t;
  mutable ext_interrupt : bool;
  mutable waiting : bool;
  mutable last_event : event;
  bcache : bentry Decode_cache.t;
  mutable blocks_filled : int;
  mutable insns_translated : int;  (* sum of fill-time block lengths *)
  mutable block_aborts : int;
      (* blocks abandoned mid-execution because one of their own stores
         invalidated the translation (self-modifying code) *)
  (* Resolved-SRAM window for the allocation-free data fast path:
     in-window scalar accesses go straight to the byte array, skipping
     the bus walk and its exception plumbing.  [fm_limit = 0] marks the
     window invalid (no address satisfies [addr >= base && addr + size
     <= 0]). *)
  mutable fm_sram : Sram.t;
  mutable fm_base : int;
  mutable fm_limit : int;
  (* Per-round retirement ring filled by a recorded round
     ([recorded_round]) so the tracer can render each unit of a round
     individually: parallel arrays of the instruction ([None] for a
     trap, an interrupt entry or an idle step), its PC and a
     control-flow mark ([mark_chained] or [mark_opt_side_exit]). *)
  block_insns : Insn.t option array;
  block_pcs : int array;
  block_marks : int array;
  mutable round_units : int;
      (* fuel units the last round used; after a recorded round, also
         the live ring entries *)
  mutable hot_threshold : int;
      (* the jit tier's hotness: the entry count at which it compiles a
         block's plan (see [block_plan]); tests lower it to fuzz the
         crossing *)
  mutable hot_adaptive : bool;
      (* drive [hot_threshold] from the chain-hit/unlink ratio (see
         [adapt_hot]); tests that pin [hot_threshold] turn this off *)
  mutable ht_resolves : int;  (* edge resolutions since the last adapt *)
  mutable ht_unlinks_mark : int;  (* chain_unlinks at the last adapt *)
  (* Dispatch_jit optimizer counters (cumulative, bumped at compile
     time per translated block, plus [opt_side_exits] at run time). *)
  mutable jit_blocks_compiled : int;
  mutable checks_eliminated : int;
  mutable checks_hoisted : int;
  mutable checks_hoisted_nonentry : int;
  mutable opt_side_exits : int;
  (* Compile-time plan validation (translation validation): when set,
     every plan [compile_jit] produces is submitted to the validator
     before installation; a rejected plan is replaced by the all-full
     plan with no guards (always sound) and counted.  The hook also
     serves as a plan collector for the offline `cheriot_audit plans`
     gate, so while it is set the jit compiles on first entry.  [None]
     (the default) installs plans unvalidated. *)
  mutable jit_validator : (bentry -> Ir.chk array -> Ir.guard array -> bool) option;
  mutable jit_plans_rejected : int;
  (* Timed rounds ([timed_round]): the installed cost model, the
     [load_filter] setting the blocks' cost tables were built under, and
     the ledger: what every timed round charged, cumulatively, since the
     harness zeroed it.  [mcycle] advances with [charged_cycles] but is
     also CSR-writable, so the ledger is the total. *)
  mutable cost : cost_model option;
  mutable cost_lf : bool;
  mutable charged_cycles : int;
  mutable charged_busy : int;
  mutable charged_insns : int;
  mutable charged_traps : int;
}

(* A translated basic block: the decoded instructions of one
   straight-line run of code, from a fetch target up to and including
   the first control-flow or interrupt-posture-changing instruction
   (or the length cap).  Every value the hot loop needs at the block's
   end — the [Some insn] event payloads, the last instruction's PCC and
   the fall-through PCC, the taken PCC of a direct edge and the link of
   a final [Jal] — is prebuilt at fill time, so executing a cached block
   allocates nothing.  A block carries a fetch "ticket": the PCC under
   which the fetch-side checks passed at fill time (see [ticket_ok]).
   Every instruction of a block is fetched under the ticket's word (see
   [translate]), so its PCCs are pure functions of that word. *)
and bentry = {
  b_insns : Insn.t array;
  b_opts : Insn.t option array;  (* the decoder's [Some b_insns.(i)] *)
  b_last_pcc : Capability.t;
      (* the PCC the last instruction runs under: the ticket's word at
         its address ([b_pcc] itself in a one-instruction block) *)
  b_fall_pcc : Capability.t;
      (* the PCC after the last instruction falls through: [next_pcc_of]
         of [b_last_pcc] *)
  b_taken_pcc : Capability.t;
      (* taken PCC of the final direct [Branch]/[Jal] (see
         [taken_pcc]), valid under the ticket like [b_fall_pcc];
         [Capability.null] (compared physically) in a block that does
         not end in one, and where the target fails the PCC bounds
         check *)
  b_link_on : int;
      (* the word of the final [Jal]'s link when [mie] is set... *)
  b_link_off : int;  (* ...and when it is clear; its address is pc + 4 *)
  b_mode : mode;
  b_pcc : Capability.t;  (* fetch ticket: the fill-time block-start PCC *)
  b_start : int;  (* address of b_insns.(0) *)
  b_len : int;
  b_cost : int array;
      (* packed prefix sums of the cost model's static costs:
         [b_cost.(k)] prices instructions [0, k).  Built at translation
         when a cost model is installed, [||] otherwise. *)
  (* Direct chain slots (the jit tier): when the block ends in a
     direct [Jal] or a [Branch], the validated successor block of each
     edge is cached here with the cache's chain epoch at link time.  A
     link whose epoch still matches is followed without probing the
     cache or re-checking the successor's ticket: the link was
     validated under a PCC value-equal to the one every later traversal
     of the same edge produces (see [chain_edge]).  [b_*_epoch = -1]
     marks an edge never linked. *)
  mutable b_taken : bentry option;
  mutable b_taken_epoch : int;
  mutable b_fall : bentry option;
  mutable b_fall_epoch : int;
  (* Indirect-target slot ([Jalr]-ended blocks): the block most recently
     reached through this block's indirect exit.  Epoch-validated like
     the direct links, but — unlike them — the successor's ticket is
     re-checked at every traversal: a [Jalr] target comes from a live
     register, so nothing pins it (or the post-jump PCC) between
     traversals. *)
  mutable b_ind : bentry option;
  mutable b_ind_epoch : int;
  (* The block's optimized execution plan, compiled by the jit tier
     once the block is hot (see [block_plan]); until then [b_entries]
     counts its entries. *)
  mutable b_jit : jit option;
  mutable b_entries : int;
}

(* A compiled plan for one block: per-instruction check levels
   and block-entry guards from [Ir.optimize]. *)
and jit = {
  j_chk : Ir.chk array;  (* per-instruction residual access checks *)
  j_guards : Ir.guard array;  (* block-entry hoisted checks *)
}

exception Trap of cause

(* Blocks are capped at 16 instructions (64 bytes): long enough that
   dispatch overhead amortises away, short enough that the store-snoop
   probe in [Decode_cache.kill_store] stays a handful of compares.  The
   cap is also the block cache's [max_span], so a store inside the
   code-span window probes 17 candidate start PCs. *)
let max_block_len = 16

(* Fuel ceiling of one recorded round ([recorded_round]): every fuel
   unit is one ring entry, so it sizes the retirement ring.  A chained
   round ends early when fuel runs out, so any cap is exact; this one is
   big enough that chaining still amortises under the tracer. *)
let round_cap = 128

let create ?(mode = Cheriot) ?(load_filter = true) bus =
  let bcache =
    Decode_cache.create ~max_span:(max_block_len * 4)
      ~start:(fun b -> b.b_start) ~len:(fun b -> b.b_len)
      ~dummy:
        {
          b_insns = [||];
          b_opts = [||];
          b_last_pcc = Capability.null;
          b_fall_pcc = Capability.null;
          b_taken_pcc = Capability.null;
          b_link_on = Capability.Word.null;
          b_link_off = Capability.Word.null;
          b_mode = mode;
          b_pcc = Capability.null;
          b_start = -1;
          b_len = 0;
          b_cost = [||];
          b_taken = None;
          b_taken_epoch = -1;
          b_fall = None;
          b_fall_epoch = -1;
          b_ind = None;
          b_ind_epoch = -1;
          b_jit = None;
          b_entries = 0;
        }
  in
  (* Stores must kill stale translations: self-modifying code and
     loader patches through the bus re-translate on the next fetch.  A
     store anywhere in a block's span stales it, not just one to its
     start granule. *)
  Bus.on_store bus (Decode_cache.kill_store bcache);
  let ddc = if mode = Rv32 then Capability.root_mem_rw else Capability.null in
  {
    reg_metas = Array.make 16 Capability.Word.null;
    reg_addrs = Array.make 16 0;
    pcc = Capability.root_executable;
    bus;
    mode;
    ddc;
    load_filter;
    mie = false;
    mpie = false;
    mcause = 0;
    mtval = 0;
    mcycle = 0;
    minstret = 0;
    mshwm = 0;
    mshwmb = 0;
    mtimecmp = 0;
    mtcc = Capability.null;
    mepcc = Capability.null;
    mtdc = Capability.null;
    mscratchc = Capability.null;
    ext_interrupt = false;
    waiting = false;
    last_event = { no_event with ev_insn = None };
    bcache;
    blocks_filled = 0;
    insns_translated = 0;
    block_aborts = 0;
    fm_sram = Sram.create ~base:0 ~size:8;
    fm_base = 0;
    fm_limit = 0;
    block_insns = Array.make round_cap None;
    block_pcs = Array.make round_cap 0;
    block_marks = Array.make round_cap 0;
    round_units = 0;
    hot_threshold = 32;
    hot_adaptive = true;
    ht_resolves = 0;
    ht_unlinks_mark = 0;
    jit_blocks_compiled = 0;
    checks_eliminated = 0;
    checks_hoisted = 0;
    checks_hoisted_nonentry = 0;
    opt_side_exits = 0;
    jit_validator = None;
    jit_plans_rejected = 0;
    cost = None;
    cost_lf = load_filter;
    charged_cycles = 0;
    charged_busy = 0;
    charged_insns = 0;
    charged_traps = 0;
  }

(* The register file holds every register as two immediates: its word
   ([Capability.Word]: the tag and the Fig. 1 metadata) in [reg_metas]
   and its address in [reg_addrs].  Both are [int array]s, so every
   register write — an integer result, a derived capability, a loaded
   one — is two immediate stores: no allocation and no write barrier.
   An integer write stores word 0 (untagged, null metadata), so the
   register reads as the untagged null-metadata capability at that
   address whichever setter wrote it.  The capability paths read and
   write the pair directly; [reg] builds the [Capability.t] of the two
   on demand, returning [Capability.null] itself for word 0 at address
   0.
   Register 0 holds that pair and no setter writes it, so the zero
   register needs no special-casing on the read side.  The masked index
   is always in [0, 15], so the bounds checks are elided. *)
let[@inline] reg_word m r = Array.unsafe_get m.reg_metas (r land 15)
let[@inline] reg_int m r = Array.unsafe_get m.reg_addrs (r land 15)

let reg m r =
  let w = reg_word m r and a = reg_int m r in
  if w = Capability.Word.null && a = 0 then Capability.null
  else { Capability.word = w; addr = a }

let mask32 = 0xFFFF_FFFF

(* Write word [w] at address [a] (already 32-bit) to register [r]. *)
let[@inline] set_reg_word m r w a =
  let r = r land 15 in
  if r <> 0 then begin
    Array.unsafe_set m.reg_metas r w;
    Array.unsafe_set m.reg_addrs r a
  end

let set_reg m r (c : Capability.t) = set_reg_word m r c.word c.addr

let[@inline] set_reg_int m r v = set_reg_word m r Capability.Word.null (v land mask32)

let timer_pending m = m.mtimecmp <> 0 && m.mcycle >= m.mtimecmp
let interrupt_pending m = timer_pending m || m.ext_interrupt

let to_signed v = (v lxor 0x8000_0000) - 0x8000_0000

(* --- memory access checks ------------------------------------------- *)

(* Top-level (not a local closure capturing [ridx]) so the check below
   allocates nothing on the no-trap path. *)
let access_fail c ridx = raise (Trap (Cheri_fault (c, ridx)))

(* An access of [size] bytes at [addr] authorized by the capability
   with word [w] at address [ca], cited as register [ridx]: tag, seal,
   permissions (SD or LD, then MC for a capability access), bounds,
   alignment, the 32-bit range, the first failing check trapping. *)
let[@inline] check_access ~w ~ca ~ridx ~addr ~size ~store ~is_cap =
  let open Capability.Word in
  if not (tag w) then access_fail Cheri_tag ridx;
  if is_sealed w then access_fail Cheri_seal ridx;
  let ps = perms w in
  if store then begin
    if not (Perm.Set.mem SD ps) then access_fail Cheri_permit_store ridx;
    if is_cap && not (Perm.Set.mem MC ps) then
      access_fail Cheri_permit_store_cap ridx
  end
  else begin
    if not (Perm.Set.mem LD ps) then access_fail Cheri_permit_load ridx;
    if is_cap && not (Perm.Set.mem MC ps) then
      access_fail Cheri_permit_load_cap ridx
  end;
  if not (in_bounds w ~addr:ca ~size addr) then access_fail Cheri_bounds ridx;
  if addr land (size - 1) <> 0 then
    raise (Trap (if store then Store_misaligned else Load_misaligned));
  if addr < 0 || addr > mask32 then
    raise (Trap (if store then Store_access_fault else Load_access_fault))

(* Stack high-water-mark tracking (5.2.1): every store whose address lies
   within [mshwmb, mshwm) lowers the mark. *)
let note_store m addr =
  if addr >= m.mshwmb && addr < m.mshwm then m.mshwm <- addr land lnot 7

(* --- SRAM window fast path -------------------------------------------- *)

(* Scalar data accesses overwhelmingly land in one SRAM region.  The
   machine keeps that region's bounds in immediate fields and, when the
   (already permission/alignment/range-checked) address fits, goes
   straight to the byte array: no bus list walk, no option, no
   exception-handler setup.  Observationally identical to [Bus.read]/
   [Bus.write] — SRAM stores still fire the snoops — and shared by
   every dispatch path. *)

let refresh_window m ~size addr =
  match Bus.sram_at m.bus ~size addr with
  | Some s ->
      m.fm_sram <- s;
      m.fm_base <- Sram.base s;
      m.fm_limit <- Sram.base s + Sram.size s;
      true
  | None -> false

let data_read_slow m ~size addr =
  if refresh_window m ~size addr then begin
    match size with
    | 1 -> Sram.read8_u m.fm_sram addr
    | 2 -> Sram.read16_u m.fm_sram addr
    | _ -> Sram.read32_u m.fm_sram addr
  end
  else
    try Bus.read m.bus ~width:size addr
    with Bus.Bus_error _ -> raise (Trap Load_access_fault)

let[@inline] data_read m ~size addr =
  if addr >= m.fm_base && addr + size <= m.fm_limit then begin
    match size with
    | 1 -> Sram.read8_u m.fm_sram addr
    | 2 -> Sram.read16_u m.fm_sram addr
    | _ -> Sram.read32_u m.fm_sram addr
  end
  else data_read_slow m ~size addr

let data_write_slow m ~size addr v =
  if refresh_window m ~size addr then begin
    (match size with
    | 1 -> Sram.write8_u m.fm_sram addr v
    | 2 -> Sram.write16_u m.fm_sram addr v
    | _ -> Sram.write32_u m.fm_sram addr v);
    Bus.snoop_store m.bus addr
  end
  else
    try Bus.write m.bus ~width:size addr v
    with Bus.Bus_error _ -> raise (Trap Store_access_fault)

let[@inline] data_write m ~size addr v =
  if addr >= m.fm_base && addr + size <= m.fm_limit then begin
    (match size with
    | 1 -> Sram.write8_u m.fm_sram addr v
    | 2 -> Sram.write16_u m.fm_sram addr v
    | _ -> Sram.write32_u m.fm_sram addr v);
    Bus.snoop_store m.bus addr
  end
  else data_write_slow m ~size addr v

(* The residual checks of one [Ir.chk] plan entry.  [Chk_full] is
   exactly [check_access] — what the reference interpreter and every
   unoptimized plan run.  The reduced levels exist only for CHERIoT-mode
   blocks (the optimizer emits [Chk_full] throughout for Rv32), so
   [(w, ca)] is the cited register there.  Check order mirrors
   [check_access] (bounds before alignment), so the first failing check
   — and therefore the trap cause — is the reference path's on every
   input the plan admits. *)
let[@inline] check_plan chk ~w ~ca ~ridx ~addr ~size ~store ~is_cap =
  match chk with
  | Ir.Chk_full -> check_access ~w ~ca ~ridx ~addr ~size ~store ~is_cap
  | Ir.Chk_bounds ->
      if not (Capability.Word.in_bounds w ~addr:ca ~size addr) then
        access_fail Cheri_bounds ridx;
      if addr land (size - 1) <> 0 then
        raise (Trap (if store then Store_misaligned else Load_misaligned))
  | Ir.Chk_align ->
      if addr land (size - 1) <> 0 then
        raise (Trap (if store then Store_misaligned else Load_misaligned))
  | Ir.Chk_none -> ()

(* The effective address always comes from [rs1]'s address field; only
   the authorizing capability differs by mode (the register itself, or
   the implicit DDC).  Its word and address are read field by field, so
   no intermediate pair is built on the per-access hot path.  [chk] is
   the access's plan entry ([Chk_full] outside a jit plan). *)

let do_load m chk ~rs1 ~off ~width ~signed ~rd =
  let size = match width with Insn.B -> 1 | H -> 2 | W -> 4 in
  let addr = (reg_int m rs1 + off) land mask32 in
  let w = match m.mode with Cheriot -> reg_word m rs1 | Rv32 -> m.ddc.word in
  let ca = match m.mode with Cheriot -> reg_int m rs1 | Rv32 -> m.ddc.addr in
  check_plan chk ~w ~ca ~ridx:rs1 ~addr ~size ~store:false ~is_cap:false;
  let v = data_read m ~size addr in
  let v =
    if signed then
      match width with
      | B -> (v lxor 0x80) - 0x80
      | H -> (v lxor 0x8000) - 0x8000
      | W -> v
    else v
  in
  set_reg_int m rd v

let do_store m chk ~rs1 ~off ~width ~rs2 =
  let size = match width with Insn.B -> 1 | H -> 2 | W -> 4 in
  let addr = (reg_int m rs1 + off) land mask32 in
  let w = match m.mode with Cheriot -> reg_word m rs1 | Rv32 -> m.ddc.word in
  let ca = match m.mode with Cheriot -> reg_int m rs1 | Rv32 -> m.ddc.addr in
  check_plan chk ~w ~ca ~ridx:rs1 ~addr ~size ~store:true ~is_cap:false;
  data_write m ~size addr (reg_int m rs2);
  note_store m addr

(* The architectural load filter (3.3.2): on every capability load the
   base of the loaded capability indexes the revocation bitmap; a set bit
   means the capability points to freed memory and its tag is stripped
   before register writeback.  [w] is the loaded word at [a]. *)
let load_filter_apply m w a =
  if (not m.load_filter) || not (Capability.Word.tag w) then w
  else
    match Bus.revbits m.bus with
    | Some rb when Revbits.is_revoked rb (Capability.Word.base w ~addr:a) ->
        Capability.Word.clear_tag w
    | Some _ | None -> w

(* A capability access goes through the SRAM window like a scalar one
   (see [data_read]), and then moves the granule's two 32-bit halves —
   the address low, the metadata word high — and its micro-tag pair.
   [cap_access] leaves the window over [addr]; outside SRAM (MMIO
   included: devices take no capability accesses) it raises [fault].
   The check plan proved the access 8-byte aligned. *)
let[@inline] cap_access m ~fault addr =
  if
    not
      ((addr >= m.fm_base && addr + 8 <= m.fm_limit)
      || refresh_window m ~size:8 addr)
  then raise (Trap fault)

let do_clc m chk ~rd ~rs1 ~off =
  if m.mode = Rv32 then raise (Trap Illegal_instruction);
  let aw = reg_word m rs1 and ca = reg_int m rs1 in
  let addr = (ca + off) land mask32 in
  check_plan chk ~w:aw ~ca ~ridx:rs1 ~addr ~size:8 ~store:false ~is_cap:true;
  cap_access m ~fault:Load_access_fault addr;
  let s = m.fm_sram in
  let a = Sram.read32_u s addr in
  let w =
    (if Sram.cap_tag_u s addr then Capability.Word.tag_bit else 0)
    lor Sram.read32_u s (addr + 4)
  in
  let w = Capability.Word.load_attenuate ~authority:aw w in
  set_reg_word m rd (load_filter_apply m w a) a

let do_csc m chk ~rs2 ~rs1 ~off =
  if m.mode = Rv32 then raise (Trap Illegal_instruction);
  let aw = reg_word m rs1 and ca = reg_int m rs1 in
  let addr = (ca + off) land mask32 in
  check_plan chk ~w:aw ~ca ~ridx:rs1 ~addr ~size:8 ~store:true ~is_cap:true;
  let vw = reg_word m rs2 in
  (* The store-local check depends on the {e stored value}, not on a
     fact any dominating access could establish: never eliminated. *)
  if
    Capability.Word.tag vw
    && (not (Capability.Word.has_perm vw GL))
    && not (Capability.Word.has_perm aw SL)
  then raise (Trap (Cheri_fault (Cheri_permit_store_local, rs2)));
  cap_access m ~fault:Store_access_fault addr;
  Sram.write_cap_u m.fm_sram addr
    ~tag:(Capability.Word.tag vw)
    ~addr_half:(reg_int m rs2)
    ~meta_half:(Capability.Word.meta vw);
  Bus.snoop_store m.bus addr;
  note_store m addr

(* A block-entry guard (pass 2): tag/seal, the union of the permissions
   the covered accesses need, and one bounds check over the union
   footprint.  Evaluated against the {e entry} value of the register —
   the optimizer only hoists over entry versions.  Failure is not a
   trap: the caller falls back to the fully-checked plan for this block
   execution, so a faulting access (if any) traps at its own
   instruction with its own cause. *)
let jit_guard_ok m (g : Ir.guard) =
  let w = reg_word m g.Ir.g_rs1 and ca = reg_int m g.Ir.g_rs1 in
  let open Capability.Word in
  tag w
  && (not (is_sealed w))
  && ((not g.Ir.g_need_ld) || has_perm w LD)
  && ((not g.Ir.g_need_sd) || has_perm w SD)
  && ((not g.Ir.g_need_mc) || has_perm w MC)
  &&
  (* One decode covers every member: if [lo, lo + span) is in bounds
     then each member's masked address lands inside it (all member
     sums collapse consistently under the 32-bit mask exactly when the
     whole span does — a span that straddles the wrap point cannot
     satisfy [access + size <= top <= 2^32] and fails the guard). *)
  let lo = (ca + g.Ir.g_lo) land mask32 in
  in_bounds w ~addr:ca ~size:(g.Ir.g_hi - g.Ir.g_lo) lo

let jit_guards_ok m (gs : Ir.guard array) =
  let ok = ref true in
  for k = 0 to Array.length gs - 1 do
    if not (jit_guard_ok m (Array.unsafe_get gs k)) then ok := false
  done;
  !ok

(* --- CSRs ------------------------------------------------------------ *)

let require_sr m =
  if m.mode = Cheriot && not (Capability.has_perm m.pcc SR) then
    raise (Trap (Cheri_fault (Cheri_permit_access_system_registers, 16)))

let csr_read m n =
  if n = Csr.mstatus then
    ((if m.mie then 1 else 0) lsl Csr.mstatus_mie_bit)
    lor ((if m.mpie then 1 else 0) lsl Csr.mstatus_mpie_bit)
  else if n = Csr.mcause then m.mcause
  else if n = Csr.mtval then m.mtval
  else if n = Csr.mcycle then m.mcycle land mask32
  else if n = Csr.mcycleh then (m.mcycle lsr 32) land mask32
  else if n = Csr.minstret then m.minstret land mask32
  else if n = Csr.mshwm then m.mshwm
  else if n = Csr.mshwmb then m.mshwmb
  else if n = Csr.mtimecmp then m.mtimecmp land mask32
  else raise (Trap Illegal_instruction)

let csr_write m n v =
  let v = v land mask32 in
  if n = Csr.mstatus then begin
    m.mie <- v land (1 lsl Csr.mstatus_mie_bit) <> 0;
    m.mpie <- v land (1 lsl Csr.mstatus_mpie_bit) <> 0
  end
  else if n = Csr.mcause then m.mcause <- v
  else if n = Csr.mtval then m.mtval <- v
  else if n = Csr.mcycle then m.mcycle <- v
  else if n = Csr.minstret then m.minstret <- v
  else if n = Csr.mshwm then m.mshwm <- v
  else if n = Csr.mshwmb then m.mshwmb <- v
  else if n = Csr.mtimecmp then m.mtimecmp <- v
  else raise (Trap Illegal_instruction)

let csr_is_counter n = n = Csr.mcycle || n = Csr.mcycleh || n = Csr.minstret

let do_csr m op rd rs1 n =
  (* Counter reads are unprivileged; everything else needs PCC.SR. *)
  let pure_read = op <> Insn.Csrrw && rs1 = 0 in
  if not (pure_read && csr_is_counter n) then require_sr m;
  let old = csr_read m n in
  (match op with
  | Insn.Csrrw -> csr_write m n (reg_int m rs1)
  | Insn.Csrrs -> if rs1 <> 0 then csr_write m n (old lor reg_int m rs1)
  | Insn.Csrrc ->
      if rs1 <> 0 then csr_write m n (old land lnot (reg_int m rs1)));
  set_reg_int m rd old

let scr_read m = function
  | Insn.MTCC -> m.mtcc
  | MTDC -> m.mtdc
  | MScratchC -> m.mscratchc
  | MEPCC -> m.mepcc

let scr_write m scr c =
  match scr with
  | Insn.MTCC -> m.mtcc <- c
  | MTDC -> m.mtdc <- c
  | MScratchC -> m.mscratchc <- c
  | MEPCC -> m.mepcc <- c

(* --- control flow ----------------------------------------------------- *)

let apply_sentry_posture m = function
  | Otype.Sentry_inherit -> ()
  | Sentry_enable | Sentry_ret_enable -> m.mie <- true
  | Sentry_disable | Sentry_ret_disable -> m.mie <- false

(* The link register receives a return sentry recording the interrupt
   posture [mie] at the call site (3.1.2): the word of the caller's
   [pcc] at [pc + 4], sealed, or untagged where it cannot be sealed
   ([Capability.Word.link]).  The link's address is [pc + 4]. *)
let[@inline] link_word (pcc : Capability.t) ~mie =
  Capability.Word.link pcc.word ~cur:pcc.addr ~next:(pcc.addr + 4) ~mie

let do_jal m rd off =
  let pc = Capability.address m.pcc in
  let target = (pc + off) land mask32 in
  match m.mode with
  | Rv32 ->
      set_reg_int m rd (pc + 4);
      m.pcc <- Capability.{ root_executable with addr = target }
  | Cheriot ->
      if not (Capability.in_bounds m.pcc ~size:4 target) then
        raise (Trap (Cheri_fault (Cheri_bounds, 16)));
      set_reg_word m rd (link_word m.pcc ~mie:m.mie) ((pc + 4) land mask32);
      (* In-bounds addresses are always representable (the concentrate
         encoding's defining invariant, checked exhaustively by
         test_bounds), and the PCC is tagged and unsealed here — so
         [with_address] would always succeed; skip its redundant bounds
         decode. *)
      m.pcc <- { m.pcc with Capability.addr = target }

let do_jalr m rd rs1 off =
  let pc = Capability.address m.pcc in
  match m.mode with
  | Rv32 ->
      let target = (reg_int m rs1 + off) land mask32 land lnot 1 in
      set_reg_int m rd (pc + 4);
      m.pcc <- Capability.{ root_executable with addr = target }
  | Cheriot ->
      let open Capability.Word in
      let w = reg_word m rs1 and ca = reg_int m rs1 in
      if not (tag w) then raise (Trap (Cheri_fault (Cheri_tag, rs1)));
      (* the link records the posture before a sentry changes it *)
      let link = link_word m.pcc ~mie:m.mie in
      let w =
        if is_sealed w then begin
          match Otype.sentry_of_otype (otype w) with
          | Some kind when off = 0 ->
              apply_sentry_posture m kind;
              set_reg_word m rd link ((pc + 4) land mask32);
              with_otype_bits w 0
          | Some _ | None -> raise (Trap (Cheri_fault (Cheri_seal, rs1)))
        end
        else begin
          set_reg_word m rd link ((pc + 4) land mask32);
          w
        end
      in
      if not (has_perm w EX) then
        raise (Trap (Cheri_fault (Cheri_permit_execute, rs1)));
      let target = (ca + off) land mask32 land lnot 1 in
      if not (in_bounds w ~addr:ca ~size:4 target) then
        raise (Trap (Cheri_fault (Cheri_bounds, rs1)));
      (* [w] is tagged, unsealed and in bounds at [target] here, so
         [with_address] would always keep it (in-bounds implies
         representable). *)
      m.pcc <- { Capability.word = w; addr = target }

let[@inline always] alu_exec op a b =
  let open Insn in
  match op with
  | Add -> (a + b) land mask32
  | Sub -> (a - b) land mask32
  | Sll -> (a lsl (b land 31)) land mask32
  | Slt -> if to_signed a < to_signed b then 1 else 0
  | Sltu -> if a < b then 1 else 0
  | Xor -> a lxor b
  | Srl -> a lsr (b land 31)
  | Sra -> (to_signed a asr (b land 31)) land mask32
  | Or -> a lor b
  | And -> a land b

let muldiv_exec op a b =
  let open Insn in
  let sa = to_signed a and sb = to_signed b in
  match op with
  | Mul -> (a * b) land mask32
  | Mulh -> (sa * sb) asr 32 land mask32
  | Mulhsu -> (sa * b) asr 32 land mask32
  | Mulhu -> (a * b) lsr 32 land mask32
  | Div ->
      if sb = 0 then mask32
      else if sa = -0x8000_0000 && sb = -1 then 0x8000_0000
      else to_signed a / to_signed b land mask32 land mask32
  | Divu -> if b = 0 then mask32 else a / b
  | Rem ->
      if sb = 0 then a
      else if sa = -0x8000_0000 && sb = -1 then 0
      else Stdlib.( mod ) sa sb land mask32
  | Remu -> if b = 0 then a else a mod b

let[@inline always] branch_taken cond a b =
  let open Insn in
  match cond with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> to_signed a < to_signed b
  | Ge -> to_signed a >= to_signed b
  | Ltu -> a < b
  | Geu -> a >= b

(* --- capability instructions ----------------------------------------- *)

(* [CIncAddr]/[CSetAddr]: register [cs1] moved to [addr]. *)
let[@inline] move_addr m cd cs1 addr =
  let addr = addr land mask32 in
  set_reg_word m cd
    (Capability.Word.with_address (reg_word m cs1) ~cur:(reg_int m cs1) addr)
    addr

(* [CSetBounds*]: a tagged, unsealed [cs1] whose narrowing keeps its
   tag, or the trap. *)
let[@inline] set_bounds m cd cs1 ~length ~exact =
  let open Capability.Word in
  let w = reg_word m cs1 and a = reg_int m cs1 in
  if not (tag w) then raise (Trap (Cheri_fault (Cheri_tag, cs1)));
  if is_sealed w then raise (Trap (Cheri_fault (Cheri_seal, cs1)));
  let r = set_bounds w ~addr:a ~length ~exact in
  if not (tag r) then raise (Trap (Cheri_fault (Cheri_bounds, cs1)));
  set_reg_word m cd r a

let exec_cap m (i : Insn.t) =
  if m.mode = Rv32 then raise (Trap Illegal_instruction);
  match i with
  | Cincaddr (cd, cs1, rs2) -> move_addr m cd cs1 (reg_int m cs1 + reg_int m rs2)
  | Cincaddrimm (cd, cs1, imm) -> move_addr m cd cs1 (reg_int m cs1 + imm)
  | Csetaddr (cd, cs1, rs2) -> move_addr m cd cs1 (reg_int m rs2)
  | Csetbounds (cd, cs1, rs2) ->
      set_bounds m cd cs1 ~length:(reg_int m rs2) ~exact:false
  | Csetboundsimm (cd, cs1, imm) -> set_bounds m cd cs1 ~length:imm ~exact:false
  | Csetboundsexact (cd, cs1, rs2) ->
      set_bounds m cd cs1 ~length:(reg_int m rs2) ~exact:true
  | Crrl (rd, rs1) -> set_reg_int m rd (Bounds.crrl (reg_int m rs1))
  | Cram (rd, rs1) -> set_reg_int m rd (Bounds.cram (reg_int m rs1))
  | Candperm (cd, cs1, rs2) ->
      let mask = Perm.Set.of_arch_bits (reg_int m rs2) in
      set_reg_word m cd
        (Capability.Word.and_perms (reg_word m cs1) mask)
        (reg_int m cs1)
  | Ccleartag (cd, cs1) ->
      set_reg_word m cd
        (Capability.Word.clear_tag (reg_word m cs1))
        (reg_int m cs1)
  | Cmove (cd, cs1) -> set_reg_word m cd (reg_word m cs1) (reg_int m cs1)
  | Cseal (cd, cs1, cs2) -> (
      match
        Capability.Word.seal (reg_word m cs1) ~key:(reg_word m cs2)
          ~key_addr:(reg_int m cs2)
      with
      | Ok w -> set_reg_word m cd w (reg_int m cs1)
      | Error _ -> raise (Trap (Cheri_fault (Cheri_seal, cs2))))
  | Cunseal (cd, cs1, cs2) -> (
      match
        Capability.Word.unseal (reg_word m cs1) ~key:(reg_word m cs2)
          ~key_addr:(reg_int m cs2)
      with
      | Ok w -> set_reg_word m cd w (reg_int m cs1)
      | Error _ -> raise (Trap (Cheri_fault (Cheri_seal, cs2))))
  | Cget (g, rd, cs1) ->
      let open Capability.Word in
      let w = reg_word m cs1 and a = reg_int m cs1 in
      let v =
        match g with
        | Addr -> a
        | Base -> base w ~addr:a
        | Top -> Int.min (top w ~addr:a) mask32
        | Len -> Int.min (Int.max 0 (top w ~addr:a - base w ~addr:a)) mask32
        | Perm -> Perm.Set.to_arch_bits (perms w)
        | Type -> otype_bits w
        | Tag -> if tag w then 1 else 0
      in
      set_reg_int m rd v
  | Csub (rd, cs1, cs2) ->
      set_reg_int m rd (reg_int m cs1 - reg_int m cs2)
  | Ctestsubset (rd, cs1, cs2) ->
      set_reg_int m rd
        (if Capability.is_subset (reg m cs2) ~of_:(reg m cs1) then 1 else 0)
  | Csetequalexact (rd, cs1, cs2) ->
      set_reg_int m rd
        (if Capability.equal (reg m cs1) (reg m cs2) then 1 else 0)
  | Cspecialrw (cd, scr, cs1) ->
      require_sr m;
      let old = scr_read m scr in
      if cs1 <> 0 then scr_write m scr (reg m cs1);
      set_reg m cd old
  | _ -> raise (Trap Illegal_instruction)

(* --- trap entry ------------------------------------------------------- *)

let enter_trap m cause =
  m.mcause <- mcause_of cause;
  (m.mtval <-
     (match cause with
     | Cheri_fault (c, r) -> (cheri_cause_code c lsl 5) lor r
     | _ -> 0));
  m.mepcc <- m.pcc;
  m.mpie <- m.mie;
  m.mie <- false;
  if Capability.tag m.mtcc then begin
    m.pcc <- m.mtcc;
    Step_trap cause
  end
  else Step_double_fault

(* --- fetch/execute ---------------------------------------------------- *)

(* The fetch rules of the live PCC at [pc].  [translate] checks the same
   rules once per block. *)
let fetch_check m pc =
  let pcc = m.pcc in
  if m.mode = Cheriot then begin
    if not (Capability.tag pcc) then raise (Trap (Cheri_fault (Cheri_tag, 16)));
    if Capability.is_sealed pcc then
      raise (Trap (Cheri_fault (Cheri_seal, 16)));
    if not (Capability.has_perm pcc EX) then
      raise (Trap (Cheri_fault (Cheri_permit_execute, 16)));
    if not (Capability.in_bounds pcc ~size:4 pc) then
      raise (Trap (Cheri_fault (Cheri_bounds, 16)))
  end;
  if pc land 3 <> 0 then raise (Trap Illegal_instruction)

let fetch_word m pc =
  try Bus.read m.bus ~width:4 pc
  with Bus.Bus_error _ -> raise (Trap Instruction_access_fault)

let fetch m =
  let pc = Capability.address m.pcc in
  fetch_check m pc;
  fetch_word m pc

(* The step-advanced PCC.  A pure function of the current PCC and mode:
   [Capability.with_address p (pc + 4)] in CHERIoT mode, a plain
   program counter in Rv32 mode. *)
let next_pcc_of mode (p : Capability.t) =
  let addr = (p.addr + 4) land mask32 in
  match mode with
  | Cheriot ->
      {
        Capability.word = Capability.Word.with_address p.word ~cur:p.addr addr;
        addr;
      }
  | Rv32 -> { p with addr }

let next_pcc m = next_pcc_of m.mode m.pcc

let next m = m.pcc <- next_pcc m

(* [step]'s fall-through argument to [exec]: no PCC is prebuilt, so
   [advance] derives it from the live one ([next]).  Compared
   physically and never installed. *)
let derive_next = { Capability.word = Capability.Word.null; addr = -1 }

(* Fall-through PC advance.  The round executor passes its block's
   prebuilt PCC ([pcc_at]), valid because the block ticket validated —
   [next_pcc] depends only on the ticket-compared word, so installing
   the prebuilt value is observationally identical to recomputing it
   (and costs one store).  [step] passes [derive_next]. *)
let[@inline] advance m nextc =
  if nextc == derive_next then next m else m.pcc <- nextc

(* The plain-arm epilogue ([advance] + flagless [finish]) as one call —
   most instructions end exactly this way. *)
let advance_finish m nextc opt =
  advance m nextc;
  m.minstret <- m.minstret + 1;
  let ev = m.last_event in
  ev.ev_insn <- opt;
  ev.ev_taken_branch <- false;
  ev.ev_trap <- None;
  Step_ok

let finish m ~taken opt =
  m.minstret <- m.minstret + 1;
  let ev = m.last_event in
  ev.ev_insn <- opt;
  ev.ev_taken_branch <- taken;
  ev.ev_trap <- None;
  Step_ok

(* One instruction's semantics, shared verbatim by the reference
   interpreter and the round executor's generic arm: they differ only
   in how [insn] was obtained. *)
let exec m insn opt nextc =
  match insn with
  | Insn.Lui (rd, imm20) ->
      set_reg_int m rd (imm20 lsl 12);
      advance_finish m nextc opt
  | Auipcc (rd, imm20) ->
      let v = (Capability.address m.pcc + (imm20 lsl 12)) land mask32 in
      (match m.mode with
      | Cheriot -> set_reg m rd (Capability.with_address m.pcc v)
      | Rv32 -> set_reg_int m rd v);
      advance_finish m nextc opt
  | Jal (rd, off) ->
      do_jal m rd off;
      finish m ~taken:true opt
  | Jalr (rd, rs1, off) ->
      do_jalr m rd rs1 off;
      finish m ~taken:true opt
  | Branch (cond, rs1, rs2, off) ->
      let taken = branch_taken cond (reg_int m rs1) (reg_int m rs2) in
      if taken then begin
        let pc = Capability.address m.pcc in
        let target = (pc + off) land mask32 in
        if m.mode = Cheriot && not (Capability.in_bounds m.pcc ~size:4 target)
        then raise (Trap (Cheri_fault (Cheri_bounds, 16)));
        (* Bounds just checked (Cheriot) or irrelevant (Rv32): in-bounds
           implies representable, so the plain address update matches
           [with_address] exactly. *)
        m.pcc <- { m.pcc with Capability.addr = target }
      end
      else advance m nextc;
      finish m ~taken opt
  | Load { signed; width; rd; rs1; off } ->
      do_load m Ir.Chk_full ~rs1 ~off ~width ~signed ~rd;
      advance_finish m nextc opt
  | Store { width; rs2; rs1; off } ->
      do_store m Ir.Chk_full ~rs1 ~off ~width ~rs2;
      advance_finish m nextc opt
  | Clc (rd, rs1, off) ->
      do_clc m Ir.Chk_full ~rd ~rs1 ~off;
      advance_finish m nextc opt
  | Csc (rs2, rs1, off) ->
      do_csc m Ir.Chk_full ~rs2 ~rs1 ~off;
      advance_finish m nextc opt
  | Op_imm (op, rd, rs1, imm) ->
      set_reg_int m rd (alu_exec op (reg_int m rs1) (imm land mask32));
      advance_finish m nextc opt
  | Op (op, rd, rs1, rs2) ->
      set_reg_int m rd (alu_exec op (reg_int m rs1) (reg_int m rs2));
      advance_finish m nextc opt
  | Mul_div (op, rd, rs1, rs2) ->
      set_reg_int m rd (muldiv_exec op (reg_int m rs1) (reg_int m rs2));
      advance_finish m nextc opt
  | Ecall -> raise (Trap Ecall_m)
  | Ebreak ->
      m.last_event <- { no_event with ev_insn = opt };
      Step_halted
  | Mret ->
      require_sr m;
      let target = m.mepcc in
      let target =
        match Capability.sentry_kind target with
        | Some kind ->
            apply_sentry_posture m kind;
            {
              target with
              Capability.word = Capability.Word.with_otype_bits target.word 0;
            }
        | None ->
            m.mie <- m.mpie;
            target
      in
      m.mpie <- true;
      m.pcc <- target;
      finish m ~taken:true opt
  | Wfi ->
      if not (interrupt_pending m) then m.waiting <- true;
      advance m nextc;
      if m.waiting then begin
        m.minstret <- m.minstret + 1;
        m.last_event <- { no_event with ev_insn = opt };
        Step_waiting
      end
      else finish m ~taken:false opt
  | Csr (op, rd, rs1, n) ->
      do_csr m op rd rs1 n;
      advance_finish m nextc opt
  | Cincaddr _ | Cincaddrimm _ | Csetaddr _ | Csetbounds _
  | Csetboundsexact _ | Csetboundsimm _ | Crrl _ | Cram _
  | Candperm _ | Ccleartag _ | Cmove _ | Cseal _ | Cunseal _
  | Cget _ | Csub _ | Ctestsubset _ | Csetequalexact _
  | Cspecialrw _ ->
      exec_cap m insn;
      advance_finish m nextc opt

let step m =
  if m.waiting then
    if interrupt_pending m then m.waiting <- false else ()
  else ();
  if m.waiting then Step_waiting
  else if m.mie && interrupt_pending m then begin
    let cause =
      if timer_pending m then Interrupt_timer else Interrupt_external
    in
    m.last_event <- { no_event with ev_trap = Some cause };
    enter_trap m cause
  end
  else
    (* The reference fetch: re-read and re-decode the word at the PC on
       every step, and hand [exec] the decoder's own option.  This path
       is the observational oracle the jit tier is differentially tested
       against. *)
    try
      match Encode.decode (fetch m) with
      | Some insn as opt -> exec m insn opt derive_next
      | None -> raise (Trap Illegal_instruction)
    with Trap cause ->
      m.last_event <- { no_event with ev_trap = Some cause };
      enter_trap m cause

(* --- timed rounds: per-block cycle accounting -------------------------- *)

(* A timed round charges the installed cost model to the ledger as it
   executes.  A reference round prices its step's event
   ([charge_event]); a jit round prices one block segment at a time: a
   run of retired instructions is priced by two lookups in its block's
   prefix-sum table.  Segments are charged before any instruction that
   can observe [mcycle] (the generic arm: [Csr], [Wfi]'s pending test)
   and at every block exit, so every observation sees the per-step
   count.  Only a taken [Branch] (its penalty) and a trap are priced
   beyond the table, and a WFI wait is one idle cycle, busy 0, on
   either kind of round. *)

let cost_shift = 32
let[@inline] cost_cycles c = c land ((1 lsl cost_shift) - 1)
let[@inline] cost_busy c = c lsr cost_shift

let cost_table m (insns : Insn.t array) =
  match m.cost with
  | None -> [||]
  | Some cm ->
      let n = Array.length insns in
      let t = Array.make (n + 1) 0 in
      for k = 0 to n - 1 do
        t.(k + 1) <- t.(k) + cm.insn_cost ~load_filter:m.load_filter insns.(k)
      done;
      t

let[@inline] charge_cycles m c =
  m.mcycle <- m.mcycle + c;
  m.charged_cycles <- m.charged_cycles + c

(* [n] retired instructions whose packed costs sum to [c]. *)
let[@inline] charge_packed m c n =
  charge_cycles m (cost_cycles c);
  m.charged_busy <- m.charged_busy + cost_busy c;
  m.charged_insns <- m.charged_insns + n

(* Instructions [a, b) of a block retired, none of them a taken branch.
   (Checked reads: a block without a table fails loudly.) *)
let charge_seg m (cost : int array) a b =
  if b > a then charge_packed m (cost.(b) - cost.(a)) (b - a)

let charge_taken m =
  match m.cost with
  | Some cm -> charge_cycles m cm.taken_branch_penalty
  | None -> ()

let charge_branch m (insn : Insn.t) ~taken =
  match insn with Branch _ when taken -> charge_taken m | _ -> ()

let charge_trap m =
  match m.cost with
  | Some cm ->
      charge_cycles m cm.trap_cost;
      m.charged_traps <- m.charged_traps + 1
  | None -> ()

(* Instruction [k] left the generic arm with [r]: a WFI that went to
   sleep is an idle cycle, not a retirement. *)
let charge_generic m cost k r =
  match r with
  | Step_waiting -> charge_cycles m 1
  | _ -> charge_seg m cost k (k + 1)

(* The one per-event price: a reference step's event.  Every step that
   does not wait retires an instruction or traps, so an event with
   neither is never charged. *)
let charge_event m ev =
  match (m.cost, ev.ev_trap, ev.ev_insn) with
  | None, _, _ | Some _, None, None -> ()
  | Some _, Some _, _ -> charge_trap m
  | Some cm, None, Some insn ->
      charge_packed m (cm.insn_cost ~load_filter:m.load_filter insn) 1;
      charge_branch m insn ~taken:ev.ev_taken_branch

(* --- basic-block translation ------------------------------------------ *)

(* A block may contain, as non-final entries, only instructions that
   (when they do not trap — traps are handled at runtime) fall through
   to PC+4 and leave the interrupt-delivery predicate
   ([mie && interrupt_pending], i.e. mie/mtimecmp/mcycle/ext_interrupt/
   waiting) untouched.  Everything below ends a block: the jumps and
   Mret redirect the PCC, sentry Jalr and Mret toggle mie, Csr can
   write mstatus/mtimecmp/mcycle, Wfi sets waiting, Ecall/Ebreak never
   fall through.  Cspecialrw is fenced out of caution (system class).
   With that invariant, checking interrupts only at block boundaries is
   {e exactly} per-step equivalent — there is no reachable machine
   state in which the reference interpreter would deliver an interrupt
   between two instructions of the same block. *)
let block_terminator (i : Insn.t) =
  match i with
  | Insn.Jal _ | Jalr _ | Branch _ | Mret | Ecall | Ebreak | Wfi | Csr _
  | Cspecialrw _ ->
      true
  | _ -> false

(* The decoder's option for the word at [pc] where a block may hold it:
   [pc + 4 <= top] (the block's fetch bound, see [translate]), in SRAM
   (lookahead past the current PC must not replay MMIO read side
   effects) and legal.  [None] means "this word cannot join a block":
   the caller cuts the block there (or, for the first word, falls back
   to one reference [step], which is the exact trap / MMIO-fetch
   behaviour). *)
let fetch_at m ~top pc =
  if pc + 4 > top then None
  else
    match Bus.sram_at m.bus ~size:4 pc with
    | None -> None
    | Some s -> Encode.decode (Sram.read32_u s pc)

(* The rest of a block from instruction [k], decoded as [i] (the
   decoder's option [o]) at [pc]: it stops at its first
   [block_terminator] or at [max_block_len] instructions, so only its
   last instruction can leave it other than by falling through.
   Returns the block's [b_opts], allocated once the length is known. *)
let rec grow m ~top pc k i o =
  let len = k + 1 in
  let next =
    if block_terminator i || len >= max_block_len then None
    else fetch_at m ~top (pc + 4)
  in
  let opts =
    match next with
    | Some i' as o' -> grow m ~top (pc + 4) len i' o'
    | None -> Array.make len o
  in
  Array.unsafe_set opts k o;
  opts

(* A block's direct edges, derived once at translation from the PCC
   [pcc] the edge instruction was fetched under, whose bounds are
   [[base, top)].  Every execution of the block reaches that
   instruction under a PCC value-equal to [pcc]: the entry PCC passed
   the ticket compare ([ticket_ok]), and every instruction of a block
   runs under the entry word.  So what is built here is value-equal to
   what the per-step path ([exec]'s [Branch] arm, [do_jal]) builds from
   the live PCC.  [taken_pcc] is the PCC a taken [Branch] or a [Jal]
   installs, or [Capability.null] where the target fails the CHERIoT
   bounds check and the edge traps.  [jal_link] is the word of a
   [Jal]'s link under posture [mie] (its address is [pc + 4]); in Rv32
   mode it is word 0, what [set_reg_int] writes. *)
let taken_pcc mode ~base ~top pcc (i : Insn.t) =
  match i with
  | Branch (_, _, _, off) | Jal (_, off) -> (
      let target = (pcc.Capability.addr + off) land mask32 in
      match (mode, i) with
      | Rv32, Jal _ -> Capability.{ root_executable with addr = target }
      | Rv32, _ -> { pcc with Capability.addr = target }
      | Cheriot, _ ->
          (* in bounds implies representable, so the address update is
             [with_address] *)
          if target >= base && target + 4 <= top then
            { pcc with Capability.addr = target }
          else Capability.null)
  | _ -> Capability.null

let jal_link mode pcc ~mie =
  match mode with
  | Cheriot -> link_word pcc ~mie
  | Rv32 -> Capability.Word.null

(* Translate the basic block at the PCC [pcc0], or return the cache's
   [dummy] (a probe's miss) when its first word is untranslatable.  The
   reference fetch checks every
   instruction under the step-advanced PCC ([fetch_check], [next_pcc]);
   here the fetch rules (tag, unsealed, EX) are checked once, the
   bounds are decoded once at the entry, and each further instruction
   only needs [pc + 4 <= top].  That is exact: an in-bounds address is
   representable and decodes to the same region ([test_bounds] checks
   this exhaustively), so every interior fetch runs under the entry
   word, and the first address past the bounds fails — unrepresentable
   (untagged) or against the same top.  A fetch rule that fails makes
   [top] -1, which no word passes.  The PCCs of the block's end are
   built from the entry word: the last instruction's, its fall-through
   ([next_pcc_of]) and a final direct edge's. *)
let translate m (pcc0 : Capability.t) =
  let pc0 = pcc0.addr and w = pcc0.word in
  let cheriot = match m.mode with Cheriot -> true | Rv32 -> false in
  let fetchable =
    Capability.Word.(tag w && (not (is_sealed w)) && has_perm w EX)
  in
  let base = if cheriot then Capability.Word.base w ~addr:pc0 else 0 in
  let top =
    if not cheriot then max_int
    else if fetchable then Capability.Word.top w ~addr:pc0
    else -1
  in
  if pc0 < base || pc0 land 3 <> 0 then m.bcache.Decode_cache.dummy
  else
    match fetch_at m ~top pc0 with
    | None -> m.bcache.Decode_cache.dummy
    | Some first as o ->
        let opts = grow m ~top pc0 0 first o in
        let len = Array.length opts in
        let insns = Array.map Option.get opts in
        let last_pcc =
          if len = 1 then pcc0
          else { Capability.word = w; addr = pc0 + (4 * (len - 1)) }
        in
        (* a direct edge is a terminator, so only the last instruction
           can be one *)
        let last = insns.(len - 1) in
        let jal = match last with Insn.Jal _ -> true | _ -> false in
        {
          b_insns = insns;
          b_opts = opts;
          b_last_pcc = last_pcc;
          b_fall_pcc = next_pcc_of m.mode last_pcc;
          b_taken_pcc = taken_pcc m.mode ~base ~top last_pcc last;
          b_link_on =
            (if jal then jal_link m.mode last_pcc ~mie:true
             else Capability.Word.null);
          b_link_off =
            (if jal then jal_link m.mode last_pcc ~mie:false
             else Capability.Word.null);
          b_mode = m.mode;
          b_pcc = pcc0;
          b_start = pc0;
          b_len = len;
          b_cost = cost_table m insns;
          b_taken = None;
          b_taken_epoch = -1;
          b_fall = None;
          b_fall_epoch = -1;
          b_ind = None;
          b_ind_epoch = -1;
          b_jit = None;
          b_entries = 0;
        }

(* Translate and install the block at the current PC (the caller just
   missed in the block cache); [dummy] where [translate] found nothing
   to install. *)
let fill_block m =
  let b = translate m m.pcc in
  if b != m.bcache.Decode_cache.dummy then begin
    m.blocks_filled <- m.blocks_filled + 1;
    m.insns_translated <- m.insns_translated + b.b_len;
    Decode_cache.fill m.bcache b
  end;
  b

(* Is a cached block's fetch ticket still good?  The fetch-side checks
   are a pure function of (mode, PCC, pc), and the mode never changes
   after [create], so a hit under a PCC whose word equals the ticket's
   can skip them wholesale — same result, no bounds decode.  The
   compare is used in {e both} modes: the block's prebuilt PCCs copy
   the fill-time PCC's word verbatim, so an Rv32 hit must pin it too.
   A re-derived but identical PCC — e.g. after returning through a link
   sentry, which builds a new value — still hits, where a physical
   compare alone would force a full re-translation of every block after
   every return.  Observational behaviour depends only on the word and
   the address, so installing the fill-time PCCs under an equal word is
   exact; and since a fall-through {e is} a fill-time value, the very
   next compare is physical again.  The probe's full-PC start match
   pinned the address. *)
let[@inline always] ticket_ok m (b : bentry) =
  let tp = b.b_pcc and cp = m.pcc in
  tp == cp || tp.word = cp.word

(* The block-cache probe, written out here rather than called, because
   every dispatch point runs it (the slot layout is [Decode_cache]'s:
   slot (pc lsr 2) land 2047 in 32 pages of 64, at [page_index] and
   [offset]).  [probe] is the entry translated at exactly [pc] if its
   ticket holds under the live PCC, else [dummy] (whose start, -1,
   matches no PC); the caller counts the hit. *)
let[@inline always] bc_page bc pc =
  Array.unsafe_get bc.Decode_cache.pages (Decode_cache.page_index pc)

let[@inline always] bc_offset pc = Decode_cache.offset pc

let[@inline always] probe m bc pc =
  let e = Array.unsafe_get (bc_page bc pc) (bc_offset pc) in
  if e.b_start = pc && ticket_ok m e then e else bc.Decode_cache.dummy

(* Rebuild [last_event] for an instruction that retired without
   trapping, what [finish] writes: for everything the round executor
   defers or runs inline, the event is the decoded instruction and the
   branch direction. *)
let retire_event m opt ~taken =
  let ev = m.last_event in
  ev.ev_insn <- opt;
  ev.ev_taken_branch <- taken;
  ev.ev_trap <- None

(* Control-flow marks attached to ring entries for trace rendering. *)
let mark_chained = 1
let mark_opt_side_exit = 2

(* A recorded round's ring write for instructions [0, k) of a block
   execution, at their PCs from ring entry [n] on: the first keeps the
   mark written when the block was entered, the rest are plain. *)
let ring_block m (b : bentry) n k =
  for j = 0 to k - 1 do
    m.block_pcs.(n + j) <- b.b_start + (4 * j);
    m.block_insns.(n + j) <- Array.unsafe_get b.b_opts j;
    if j > 0 then m.block_marks.(n + j) <- 0
  done

(* Adaptive hotness: every 1024 edge resolutions, compare the unlink
   rate against a fixed budget.  Lots of unlinks means translations are
   being invalidated faster than compiled plans pay off (code churn,
   patch-heavy phases): back the threshold off so compile work is not
   wasted.  A quiet epoch halves it, down to a floor that still filters
   one-shot paths.  Purely a performance heuristic — the threshold only
   decides {e when} a block compiles its check plan, never what
   executes. *)
let adapt_hot m =
  if m.hot_adaptive then begin
    m.ht_resolves <- m.ht_resolves + 1;
    if m.ht_resolves >= 1024 then begin
      m.ht_resolves <- 0;
      let unl = m.bcache.Decode_cache.chain_unlinks - m.ht_unlinks_mark in
      m.ht_unlinks_mark <- m.bcache.Decode_cache.chain_unlinks;
      if unl >= 128 then m.hot_threshold <- Int.min 512 (m.hot_threshold * 2)
      else m.hot_threshold <- Int.max 8 (m.hot_threshold / 2)
    end
  end

(* [b] just ran to completion and fell through (edge 0), or its direct
   [Jal]/[Branch] terminator redirected the PCC (edge 1): resolve the
   successor block of the edge that was taken, preferring the chained
   link.

   A valid link is followed {e without} probing the cache or ticket-
   checking the successor — the exactness argument, in two halves:

   - The link was installed at a traversal where the successor passed
     the full probe + [ticket_ok] under the then-live PCC.
     Both edge targets are static (Jal offset / branch target /
     fall-through), and [exec] derives the post-edge PCC from the
     pre-edge PCC by changing only the address, so every later
     traversal of the same edge from a ticket-valid [b] produces a PCC
     whose word is {e equal} to link time ([ticket_ok] accepts exactly
     an equal word, so skipping the re-compare loses nothing).  The
     mode never changes after [create].
   - Validity over time is the chain epoch: anything that can stale
     any translation (store-kill, flush, a fill over a live entry)
     bumps it, and a link is only followed while its recorded epoch
     matches.

   On a stale or absent link the successor is re-resolved with the
   full probe + ticket check at the live PC and the link is
   (re)installed under the current epoch; a cache miss (or a
   non-chainable terminator) returns the cache's dummy entry — a
   physical-equality sentinel instead of an [option], so the per-edge
   hot path never allocates — and the caller falls back to the normal
   dispatch path. *)
let chain_edge m (b : bentry) edge =
  adapt_hot m;
  let bc = m.bcache in
  let epoch = bc.Decode_cache.chain_epoch in
  let link = if edge = 1 then b.b_taken else b.b_fall in
  let lep = if edge = 1 then b.b_taken_epoch else b.b_fall_epoch in
  match link with
  | Some succ when lep = epoch ->
      bc.Decode_cache.chain_hits <- bc.Decode_cache.chain_hits + 1;
      succ
  | _ ->
      if lep >= 0 && lep <> epoch then
        bc.Decode_cache.chain_unlinks <- bc.Decode_cache.chain_unlinks + 1;
      let succ = probe m bc (Capability.address m.pcc) in
      if succ != bc.Decode_cache.dummy then begin
        bc.Decode_cache.hits <- bc.Decode_cache.hits + 1;
        if edge = 1 then begin
          b.b_taken <- Some succ;
          b.b_taken_epoch <- epoch
        end
        else begin
          b.b_fall <- Some succ;
          b.b_fall_epoch <- epoch
        end
      end;
      (* [dummy] is a miss: the caller's fill path counts it and fills *)
      succ

(* [b]'s terminator was a [Jalr] that completed (edge 2): resolve the
   successor at the live post-jump PC through the 1-entry indirect-
   target slot.  Unlike the direct edges, the prediction must be
   {e verified} on every traversal — the target address comes from a
   register and the post-jump PCC from that register's metadata, so
   nothing links one traversal's validation to the next: the slot only
   saves the cache probe, [ticket_ok] always runs.  The epoch
   check mirrors the direct links (a stale slot counts as an unlink); a
   wrong prediction under a live epoch is just re-resolved and
   overwritten, the way a BTB entry is. *)
let chain_edge_ind m (b : bentry) =
  adapt_hot m;
  let bc = m.bcache in
  let epoch = bc.Decode_cache.chain_epoch in
  let pc = Capability.address m.pcc in
  match b.b_ind with
  | Some succ
    when b.b_ind_epoch = epoch && succ.b_start = pc
         && ticket_ok m succ ->
      bc.Decode_cache.chain_hits <- bc.Decode_cache.chain_hits + 1;
      succ
  | _ ->
      if b.b_ind_epoch >= 0 && b.b_ind_epoch <> epoch then
        bc.Decode_cache.chain_unlinks <- bc.Decode_cache.chain_unlinks + 1;
      let succ = probe m bc pc in
      if succ != bc.Decode_cache.dummy then begin
        bc.Decode_cache.hits <- bc.Decode_cache.hits + 1;
        b.b_ind <- Some succ;
        b.b_ind_epoch <- epoch
      end;
      succ

(* A completed [Jalr] may have entered through a sentry that enabled
   interrupts, so its edge chains only when the delivery predicate is
   still false — the same check the next round would run first (and
   [mcycle]/[ext_interrupt] cannot move inside an untimed round, so
   checking it at the edge is exactly per-step equivalent).  A timed
   round advances [mcycle], so it stops as soon as interrupts are
   enabled with the timer armed: a charge could then cross the
   comparator between two instructions. *)
let jalr_edge_stops m ~timed =
  m.mie && (interrupt_pending m || (timed && m.mtimecmp <> 0))

(* Compile [b]'s optimized execution plan: the [Ir] pass results. *)
let compile_jit m (b : bentry) =
  let chks, guards, (st : Ir.stats) =
    Ir.optimize ~cheri:(b.b_mode = Cheriot) b.b_insns
  in
  (* Translation validation: an installed validator must accept the
     plan; otherwise install the unoptimized (always sound) plan. *)
  let chks, guards, st =
    match m.jit_validator with
    | Some validate when not (validate b chks guards) ->
        m.jit_plans_rejected <- m.jit_plans_rejected + 1;
        ( Array.make b.b_len Ir.Chk_full,
          [||],
          { Ir.eliminated = 0; hoisted = 0; hoisted_nonentry = 0 } )
    | _ -> (chks, guards, st)
  in
  m.jit_blocks_compiled <- m.jit_blocks_compiled + 1;
  m.checks_eliminated <- m.checks_eliminated + st.Ir.eliminated;
  m.checks_hoisted <- m.checks_hoisted + st.Ir.hoisted;
  m.checks_hoisted_nonentry <-
    m.checks_hoisted_nonentry + st.Ir.hoisted_nonentry;
  let t = { j_chk = chks; j_guards = guards } in
  b.b_jit <- Some t;
  t

(* The identity plan: every access [Chk_full], no guards — the plan a
   cold block runs under.  One shared static value sized for the
   longest block; it is never installed in a block's [b_jit], which
   holds only compiled plans. *)
let identity_plan =
  { j_chk = Array.make max_block_len Ir.Chk_full; j_guards = [||] }

(* The plan a block runs under on this entry: its compiled plan once
   it has one.  A block without one counts its entries and runs the
   identity plan until the count reaches [hot_threshold], and only then
   pays for [compile_jit].  Cold code (a block entered once or twice)
   never compiles.  A machine with a [jit_validator] compiles on
   first entry, so plan collection and compile-time validation see
   every block the run enters, whatever its hotness. *)
let block_plan m (b : bentry) =
  match b.b_jit with
  | Some t -> t
  | None ->
      b.b_entries <- b.b_entries + 1;
      if b.b_entries >= m.hot_threshold || Option.is_some m.jit_validator
      then compile_jit m b
      else identity_plan

(* The PCC instruction [i] of [b] runs under, for [1 <= i <= b_len],
   where [b_len] means the fall-through: the block's prebuilt pair at
   its end, and elsewhere the entry word at the instruction's address.
   Only a mid-block trap, fuel cut or own-store abort and a mid-block
   [Auipcc] (the one non-terminator the generic arm runs) need such an
   interior PCC. *)
let pcc_at (b : bentry) i =
  if i = b.b_len then b.b_fall_pcc
  else if i = b.b_len - 1 then b.b_last_pcc
  else { Capability.word = b.b_pcc.word; addr = b.b_start + (4 * i) }

(* Replay the deferred bookkeeping of [exec_round]: [pending]
   instructions ending at instruction [i - 1] of block [b] retired
   without touching the PCC or [minstret].  Returns the new pending
   count, 0.  A top-level function rather than a closure in
   [exec_round], so that the round's counters stay unboxed locals (see
   there). *)
let sync m b i pending =
  if pending > 0 then begin
    m.minstret <- m.minstret + pending;
    m.pcc <- pcc_at b i
  end;
  0

(* The round executor behind the jit round ([block_round]): one loop
   that runs block after block of a round, each under the check plan
   [block_plan] picks — the block's compiled plan once it is hot, the
   identity plan while it is cold.  Block-to-block transfers are
   resolved {e inside} the loop ([chain_edge] / [chain_edge_ind]), so
   one set of loop state — its counters and its result — serves the
   whole round, which in a hot loop is thousands of instructions.  The
   round returns its result and leaves its fuel units in
   [round_units].  The function holds no local closure: a ref that a
   closure captures is a heap cell, so every [incr] of the
   per-instruction counters would go through memory, while an
   uncaptured ref compiles to a plain local variable.

   PCC / minstret / retirement-event bookkeeping is deferred across
   runs of simple instructions.  The ALU arms (Lui, Op_imm, Op,
   Mul_div) only read and write integer registers, cannot trap (the
   helpers are total) and fall through; the memory and register-pure
   capability arms may trap but read neither the PCC nor [minstret].
   Both run with the architectural state left stale, counted in
   [pending].  [sync] replays the deferred bookkeeping in one step:
   minstret jumps by the run length and the PCC installs the PCC after
   the {e last} deferred instruction ([pcc_at]: at the block's end a
   prebuilt one) — bitwise the value the per-step path would have
   left.  A trap [sync]s before
   [enter_trap] ([pending] covers only instructions before the raiser,
   so the PCC points exactly at it), and a round that ends on a
   deferred run materializes the last instruction's event (a function
   of the decoded instruction alone for every deferred class).
   Everything else [sync]s and takes the generic [exec] arm, except the
   edge instructions ([Jal], [Branch]): in chained execution every block
   ends in one, so they run inline and write their event only when the
   round actually ends on them.  Each has one path, in every block: a
   taken edge installs the block's prebuilt target ([b_taken_pcc], and
   for a [Jal] the link of the live posture), or raises the PCC bounds trap
   where translation found the target out of bounds — no bounds decode
   or allocation at run time.

   The plan specializes two things, none architecturally observable:
   - the memory arms run only the {e residual} checks of their [Ir.chk]
     entry — the elided checks are exactly those a dominating check or a
     block-entry guard already proved would pass;
   - the block-entry guards run once per block execution; if any fails,
     this execution runs with full checks (the opt side exit:
     deoptimization in place — the faulting access, if any, traps at its
     own instruction with its own cause).

   A store that kills the running block abandons it: the remaining
   decoded entries are stale, so the round ends and the next one
   re-translates from the live bytes.  Abandonment at {e block}
   granularity is conservative — the store may have patched an
   already-executed word — but always correct, and self-modifying code
   is rare.

   A [timed] round charges the cost model one block segment at a time —
   [seg] is the current block's first uncharged instruction — and also
   stops at a [Jalr] edge that leaves interrupts enabled with the timer
   armed: from there on the harness must run reference rounds.  A
   [record] round (the tracer's, [recorded_round]) writes each block
   execution's retired instructions to the retirement ring, from entry
   [!base] on, when it leaves the block or traps in it, and marks them
   from state the loop holds anyway: the first entry
   [mark_opt_side_exit] when the guards failed, else [mark_chained]
   when the block was entered by a transfer inside the round
   ([!base > 0]).  Recording adds no work to the per-instruction loop;
   outside a recorded round each block only tests [record]. *)
let exec_round m (b0 : bentry) ~fuel ~timed ~record =
  let bc = m.bcache in
  let dummy = bc.Decode_cache.dummy in
  let b = ref b0 in
  let base = ref 0 in  (* retired in completed earlier blocks *)
  let i = ref 0 in
  let seg = ref 0 in
  let pending = ref 0 in
  let result = ref Step_ok in
  let stop = ref false in
  (* direction of the last executed [Branch] (the inline arm bypasses
     [last_event], so the chain point cannot read [ev_taken_branch]) *)
  let br_taken = ref false in
  (try
     while not !stop do
       (* per-block: bind the block's arrays as immutables so the inner
          per-instruction loop is register-local — an extra indirection
          per field access would give back the per-block savings *)
       let blk = !b in
       let insns = blk.b_insns in
       let opts = blk.b_opts in
       let cost = blk.b_cost in
       let b_start = blk.b_start in
       let b_len = blk.b_len in
       (* the block's own slot, for the own-kill check after a store.
          A block runs only while its slot holds it: it came from a
          probe, or from a link, which a kill, a fill over it or a flush
          would have unlinked.  So after a store the block is dead
          exactly when its slot no longer holds it — one load, as no
          fill (which could replace the page) happens mid-block. *)
       let page = bc_page bc b_start in
       let slot_off = bc_offset b_start in
       let rem = fuel - !base in
       let n = if rem < b_len then rem else b_len in
       let t = block_plan m blk in
       (* Guards run against the entry register values, before any op:
          all pass → the reduced plan is licensed for this execution;
          any failure → deoptimize this execution to full checks. *)
       let full =
         Array.length t.j_guards > 0 && not (jit_guards_ok m t.j_guards)
       in
       if full then m.opt_side_exits <- m.opt_side_exits + 1;
       (* the first ring entry's mark is written now: a trap leaves the
          loop, and [full] with it, before the block's exit *)
       if record then
         m.block_marks.(!base) <-
           (if full then mark_opt_side_exit
            else if !base > 0 then mark_chained
            else 0);
       let chks = if full then identity_plan.j_chk else t.j_chk in
       i := 0;
       seg := 0;
       while (not !stop) && !i < n do
         (match Array.unsafe_get insns !i with
         | Insn.Lui (rd, imm20) ->
             set_reg_int m rd (imm20 lsl 12);
             incr pending
         | Insn.Op_imm (op, rd, rs1, imm) ->
             set_reg_int m rd (alu_exec op (reg_int m rs1) (imm land mask32));
             incr pending
         | Insn.Op (op, rd, rs1, rs2) ->
             set_reg_int m rd (alu_exec op (reg_int m rs1) (reg_int m rs2));
             incr pending
         | Insn.Mul_div (op, rd, rs1, rs2) ->
             set_reg_int m rd (muldiv_exec op (reg_int m rs1) (reg_int m rs2));
             incr pending
         | Insn.Load { signed; width; rd; rs1; off } ->
             do_load m (Array.unsafe_get chks !i) ~rs1 ~off ~width ~signed ~rd;
             incr pending
         | Insn.Store { width; rs2; rs1; off } ->
             do_store m (Array.unsafe_get chks !i) ~rs1 ~off ~width ~rs2;
             incr pending;
             if Array.unsafe_get page slot_off != blk then begin
               m.block_aborts <- m.block_aborts + 1;
               stop := true
             end
         | Insn.Clc (rd, rs1, off) ->
             do_clc m (Array.unsafe_get chks !i) ~rd ~rs1 ~off;
             incr pending
         | Insn.Csc (rs2, rs1, off) ->
             do_csc m (Array.unsafe_get chks !i) ~rs2 ~rs1 ~off;
             incr pending;
             if Array.unsafe_get page slot_off != blk then begin
               m.block_aborts <- m.block_aborts + 1;
               stop := true
             end
         (* the edge instructions, inline, each installing its prebuilt
            target; where translation found the target out of the PCC's
            bounds, the bounds trap (the handler [sync]s, so the trap is
            taken at the edge instruction, before [rd] is written) *)
         | Insn.Jal (rd, _) ->
             let tgt = blk.b_taken_pcc in
             if tgt == Capability.null then
               raise (Trap (Cheri_fault (Cheri_bounds, 16)));
             (* the [Jal] is the block's last instruction *)
             set_reg_word m rd
               (if m.mie then blk.b_link_on else blk.b_link_off)
               ((b_start + (4 * b_len)) land mask32);
             m.minstret <- m.minstret + !pending + 1;
             pending := 0;
             m.pcc <- tgt
         | Insn.Branch (cond, rs1, rs2, _) ->
             (* a [Branch] ends its block: taken, it leaves through the
                block-end edge logic below, as a [Jal] does *)
             if branch_taken cond (reg_int m rs1) (reg_int m rs2) then begin
               let tgt = blk.b_taken_pcc in
               if tgt == Capability.null then
                 raise (Trap (Cheri_fault (Cheri_bounds, 16)));
               m.minstret <- m.minstret + !pending + 1;
               pending := 0;
               m.pcc <- tgt;
               if timed then charge_taken m;
               br_taken := true
             end
             else begin
               (* not taken: fully deferred, like any plain insn (the
                  block's prebuilt [b_fall_pcc] is the fall-through) *)
               br_taken := false;
               incr pending
             end
         | ( Insn.Cincaddr _ | Insn.Cincaddrimm _ | Insn.Csetaddr _
           | Insn.Csetbounds _ | Insn.Csetboundsexact _ | Insn.Csetboundsimm _
           | Insn.Crrl _ | Insn.Cram _ | Insn.Candperm _ | Insn.Ccleartag _
           | Insn.Cmove _ | Insn.Cseal _ | Insn.Cunseal _ | Insn.Cget _
           | Insn.Csub _ | Insn.Ctestsubset _ | Insn.Csetequalexact _ ) as insn
           ->
             (* register-pure capability arithmetic ([Cspecialrw], which
                reads CSR state, takes the generic arm) *)
             exec_cap m insn;
             incr pending
         | insn -> (
             (* Auipcc, Jalr, Ecall, Ebreak, Mret, Wfi, Csr, Cspecialrw:
                none stores to memory or is a [Branch], and the two that
                redirect the PCC (Jalr, Mret) are block terminators, so
                this arm needs no own-store abort or taken-branch
                charge *)
             pending := sync m blk !i !pending;
             if timed then begin
               charge_seg m cost !seg !i;
               seg := !i
             end;
             let r =
               exec m insn (Array.unsafe_get opts !i) (pcc_at blk (!i + 1))
             in
             if timed then begin
               charge_generic m cost !i r;
               seg := !i + 1
             end;
             match r with
             | Step_ok -> ()
             | (Step_trap _ | Step_waiting | Step_halted | Step_double_fault)
               as r ->
                 result := r;
                 stop := true));
         incr i
       done;
       if timed then charge_seg m cost !seg !i;
       if record && !i > 0 then ring_block m blk !base !i;
       if not !stop then
         if !i = b_len then begin
           let edge =
             match Array.unsafe_get insns (b_len - 1) with
             | Insn.Jal _ -> 1
             | Insn.Branch _ -> if !br_taken then 1 else 0
             | Insn.Jalr _ -> 2
             | ti -> if block_terminator ti then -1 else 0
           in
           if edge < 0 then
             (* posture-changing terminator (Mret/Csr/…): its [exec]
                arm left the event exact *)
             stop := true
           else begin
             (* the fall edge may still be deferred: materialize PCC
                (and retire counts) before the probe below or a stop *)
             pending := sync m blk !i !pending;
             if edge = 2 && jalr_edge_stops m ~timed then
               (* a sentry [Jalr] re-enabled interrupts: stop exactly
                  where a reference round would deliver (or, timed,
                  where the harness must take over); the [exec] arm's
                  event stands *)
               stop := true
             else begin
               let succ =
                 if !base + !i >= fuel then dummy
                 else if edge = 2 then chain_edge_ind m blk
                 else chain_edge m blk edge
               in
               if succ == dummy then begin
                 if edge <> 2 then
                   retire_event m
                     (Array.unsafe_get opts (b_len - 1))
                     ~taken:(edge = 1);
                 stop := true
               end
               else begin
                 base := !base + !i;
                 b := succ
               end
             end
           end
         end
         else stop := true
     done;
     if !pending > 0 then begin
       pending := sync m !b !i !pending;
       retire_event m (Array.unsafe_get (!b).b_opts (!i - 1)) ~taken:false
     end
   with Trap cause ->
     pending := sync m !b !i !pending;
     if timed then begin
       charge_seg m (!b).b_cost !seg !i;
       charge_trap m
     end;
     m.last_event <- { no_event with ev_trap = Some cause };
     incr i;
     if record then begin
       ring_block m !b !base !i;
       (* the trapping instruction retired nothing *)
       m.block_insns.(!base + !i - 1) <- None
     end;
     result := enter_trap m cause);
  m.round_units <- !base + !i;
  !result

(* The reference round: one [step], which takes a pending interrupt
   and waits in WFI itself.  A [timed] round prices it from its event
   ([charge_event]), a WFI wait as one idle cycle.  A [record] round
   puts it in the ring, with no instruction when none retired: a trap,
   a delivered interrupt, or a machine already waiting, whose
   [last_event] is still the previous step's. *)
let[@inline] step_round m ~timed ~record =
  let pc = Capability.address m.pcc in
  let idle = m.waiting in
  let r = step m in
  if record then begin
    m.block_pcs.(0) <- pc;
    m.block_insns.(0) <-
      (match r with
      | Step_waiting when idle -> None
      | _ -> m.last_event.ev_insn);
    m.block_marks.(0) <- 0
  end;
  (if timed then
     match r with
     | Step_waiting -> charge_cycles m 1
     | _ -> charge_event m m.last_event);
  m.round_units <- 1;
  r

(* The jit round: one [exec_round] of up to [fuel] units starting from
   the block at the PC and chaining across block edges while fuel
   remains — sound without re-running the boundary interrupt check,
   because no edge instruction can change the delivery predicate (the
   instructions that can still terminate every translation unit and end
   the chain; the one chained exception, a completed [Jalr], re-checks
   the predicate at its edge).  The block-cache probe is hand-inlined.
   Everything else is one reference round: a WFI wait, a deliverable
   interrupt, and an untranslatable first word (MMIO-backed code, an
   illegal word, failing fetch checks), which [step] re-reads through
   the bus every time. *)
let block_round m ~fuel ~timed ~record =
  if m.waiting && interrupt_pending m then m.waiting <- false;
  if m.waiting || (m.mie && interrupt_pending m) then
    step_round m ~timed ~record
  else begin
    let bc = m.bcache in
    let pc = Capability.address m.pcc in
    let b = probe m bc pc in
    if b != bc.Decode_cache.dummy then begin
      bc.Decode_cache.hits <- bc.Decode_cache.hits + 1;
      exec_round m b ~fuel ~timed ~record
    end
    else begin
      bc.Decode_cache.misses <- bc.Decode_cache.misses + 1;
      let b = fill_block m in
      if b != bc.Decode_cache.dummy then exec_round m b ~fuel ~timed ~record
      else step_round m ~timed ~record
    end
  end

(* The one unit every driver loops over. *)
let[@inline] round m ~dispatch ~fuel ~timed ~record =
  match dispatch with
  | Dispatch_ref -> step_round m ~timed ~record
  | Dispatch_jit -> block_round m ~fuel ~timed ~record

(* The tracer's round: at most [round_cap] units, each in the ring. *)
let recorded_round m ~dispatch ~fuel =
  round m ~dispatch ~fuel:(Int.min fuel round_cap) ~timed:false ~record:true

(* Installing a cost model drops every translated block: blocks
   translated without it (or under another) carry no (or stale) cost
   tables.  A machine that never translated has nothing to drop. *)
let set_cost_model m cm =
  m.cost <- Some cm;
  m.cost_lf <- m.load_filter;
  if m.blocks_filled > 0 then Decode_cache.flush m.bcache

let timed_round m ~dispatch ~fuel =
  if Option.is_none m.cost then invalid_arg "Machine.timed_round: no cost model";
  (* the tables price capability loads under one load-filter setting *)
  if m.load_filter <> m.cost_lf then begin
    m.cost_lf <- m.load_filter;
    Decode_cache.flush m.bcache
  end;
  round m ~dispatch ~fuel ~timed:true ~record:false

(* Each retired instruction, delivered interrupt, trap or idle step is
   one fuel unit on either tier, and a jit round is cut when the
   remaining fuel runs out inside it, so chunked runs resume exactly
   where a reference run would. *)
let run ?(fuel = 10_000_000) ?(dispatch = Dispatch_ref) m =
  let rec go n =
    if n >= fuel then (Step_ok, n)
    else
      let r = round m ~dispatch ~fuel:(fuel - n) ~timed:false ~record:false in
      let n = n + m.round_units in
      match r with
      | Step_ok | Step_trap _ -> go n
      | Step_waiting | Step_halted | Step_double_fault -> (r, n)
  in
  go 0

(* --- block cache management -------------------------------------------- *)

(* Writers that bypass the bus must drop every translated block. *)
let flush_decode_cache m = Decode_cache.flush m.bcache

type block_stats = {
  block_hits : int;
  block_misses : int;
  block_invalidations : int;  (* blocks killed by store snoops *)
  block_evictions : int;  (* fills over a live block at another pc *)
  block_flushes : int;
  blocks_filled : int;
  insns_translated : int;  (* sum of fill-time block lengths *)
  block_aborts : int;  (* self-modifying mid-block abandonments *)
  chain_hits : int;  (* transfers that followed a chained link *)
  chain_unlinks : int;  (* stale links observed at traversal *)
  (* Always 0: every translation unit is one basic block, so no
     superblock forms and no block has an interior exit.  perfbench
     still reports both as its [machine.*] layer keys. *)
  superblocks_formed : int;
  side_exits : int;
  (* Dispatch_jit optimizer counters. *)
  jit_blocks_compiled : int;
  checks_eliminated : int;  (* pass 1: accesses with reduced checks *)
  checks_hoisted : int;  (* pass 2: accesses covered by entry guards *)
  checks_hoisted_nonentry : int;
      (* the subset of [checks_hoisted] reached through derived
         (non-entry) register versions *)
  opt_side_exits : int;  (* block executions deoptimized by a guard *)
  jit_plans_rejected : int;  (* plans the installed validator refused *)
}

let block_stats m =
  let s = Decode_cache.stats m.bcache in
  {
    block_hits = s.Decode_cache.hits;
    block_misses = s.Decode_cache.misses;
    block_invalidations = s.Decode_cache.invalidations;
    block_evictions = s.Decode_cache.evictions;
    block_flushes = s.Decode_cache.flushes;
    blocks_filled = m.blocks_filled;
    insns_translated = m.insns_translated;
    block_aborts = m.block_aborts;
    chain_hits = s.Decode_cache.chain_hits;
    chain_unlinks = s.Decode_cache.chain_unlinks;
    superblocks_formed = 0;
    side_exits = 0;
    jit_blocks_compiled = m.jit_blocks_compiled;
    checks_eliminated = m.checks_eliminated;
    checks_hoisted = m.checks_hoisted;
    checks_hoisted_nonentry = m.checks_hoisted_nonentry;
    opt_side_exits = m.opt_side_exits;
    jit_plans_rejected = m.jit_plans_rejected;
  }

let avg_block_len (s : block_stats) =
  if s.blocks_filled = 0 then 0.0
  else float_of_int s.insns_translated /. float_of_int s.blocks_filled

(* --- observational state hash ----------------------------------------- *)

(* A digest of every architecturally visible bit: registers (with tags),
   PCC, SCRs, CSR state, and the full contents + tag bits of every SRAM
   on the bus.  Two runs that agree on this hash and on [minstret] are
   observationally identical — the bench uses it to hold the fast
   dispatch path to the reference interpreter. *)
let state_hash m =
  let buf = Buffer.create 512 in
  let add_cap c =
    Buffer.add_string buf
      (Printf.sprintf "%c%Lx;"
         (if Capability.tag c then 't' else 'u')
         (Capability.to_word c))
  in
  for r = 0 to 15 do
    add_cap (reg m r)
  done;
  add_cap m.pcc;
  add_cap m.ddc;
  add_cap m.mtcc;
  add_cap m.mepcc;
  add_cap m.mtdc;
  add_cap m.mscratchc;
  Buffer.add_string buf
    (Printf.sprintf "%B%B%d/%d/%d/%d/%d/%d/%d/%B%B"
       m.mie m.mpie m.mcause m.mtval m.minstret m.mshwm m.mshwmb m.mtimecmp
       m.mcycle m.ext_interrupt m.waiting);
  List.iter
    (fun s -> Buffer.add_string buf (Cheriot_mem.Sram.digest s))
    (Bus.srams m.bus);
  Digest.to_hex (Digest.string (Buffer.contents buf))
