(** The CHERIoT machine: architectural state and single-step semantics —
    a Sail-style executable model of the ISA (paper 3).

    The same machine runs in two modes:

    - [Cheriot]: registers hold capabilities, memory accesses are
      authorized by the capability in the cited register, jumps unseal
      sentries, the load filter strips tags from loaded capabilities whose
      base points into freed memory.
    - [Rv32]: the Table 3 baseline.  Registers are used as plain 32-bit
      integers and memory accesses are authorized by an implicit
      full-authority default data capability.  Capability instructions
      trap as illegal. *)

type mode = Cheriot | Rv32

(** Which machinery drives execution.  [Dispatch_ref] is the
    reference interpreter ({!step}: re-read and re-decode every
    instruction).  [Dispatch_jit] is the one batched tier: a round
    executor over the basic-block translation cache, linking blocks
    across direct [Jal]/[Branch] edges (and fall-throughs and completed
    [Jalr]s).  Every block's direct edges are prebuilt at translation
    (see {!bentry}).  A cold block runs under the identity plan (every access
    fully checked); once the block has been entered [hot_threshold]
    times (on first entry when a [jit_validator] is installed) it runs
    under its plan compiled by {!Ir} — redundant capability checks
    eliminated, bounds checks hoisted into block-entry guards.  The two
    are observationally identical per retired instruction (enforced by
    [test/test_differential.ml] and the ref/jit lockstep properties). *)
type dispatch = Dispatch_ref | Dispatch_jit

(** CHERI exception causes (reported via [mcause = 28] with the cause and
    the faulting register index in [mtval], as in CHERI RISC-V). *)
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
  | Instruction_access_fault  (** a bus error on instruction fetch *)
  | Load_access_fault
  | Store_access_fault
  | Ecall_m
  | Cheri_fault of cheri_cause * int  (** cause, faulting register (16 = PCC) *)
  | Interrupt_timer
  | Interrupt_external

val pp_cause : Format.formatter -> cause -> unit
val mcause_of : cause -> int
(** The value written to [mcause] (interrupt bit in bit 31). *)

(** What [step] observed — consumed by a timed reference round's
    pricing, the machine's one per-event price: the retired
    instruction's static cost, a taken branch's penalty or a trap's.
    The fields are mutable because the machine reuses one record across
    steps on the hot path: read [last_event] before stepping again,
    don't retain it. *)
type event = {
  mutable ev_insn : Insn.t option;  (** None when no instruction retired *)
  mutable ev_taken_branch : bool;
  mutable ev_trap : cause option;
}

type result =
  | Step_ok
  | Step_trap of cause  (** trap taken; PCC redirected to MTCC *)
  | Step_waiting  (** WFI with no pending interrupt *)
  | Step_halted  (** EBREAK: simulation terminated *)
  | Step_double_fault  (** trap with an untagged MTCC: unrecoverable *)

(** A static cycle model, handed down by a timing harness (the cycle
    models live above this library) for {!timed_round} to charge. *)
type cost_model = {
  insn_cost : load_filter:bool -> Insn.t -> int;
      (** the packed cost of an instruction that is neither a taken
          branch nor trapping: its cycles plus its bus-busy cycles
          shifted left by {!cost_shift} *)
  taken_branch_penalty : int;  (** extra cycles of a taken [Branch] *)
  trap_cost : int;  (** cycles of a trap or interrupt entry *)
}

val cost_shift : int

val cost_cycles : int -> int
(** The cycles of a packed cost. *)

val cost_busy : int -> int
(** The bus-busy cycles of a packed cost. *)

type t = {
  reg_metas : int array;
      (** every register's word ({!Cheriot_core.Capability.Word}: the
          tag in bit 32, the Fig. 1 metadata word in bits 31–0); 0 for
          an integer.  Read registers through {!reg} *)
  reg_addrs : int array;
      (** every register's address field (what {!reg_int} reads) *)
  mutable pcc : Cheriot_core.Capability.t;
  bus : Cheriot_mem.Bus.t;
  mode : mode;
  ddc : Cheriot_core.Capability.t;
      (** the Rv32-mode authority: its word is what every Rv32 access
          checks; immutable, like [mode] *)
  mutable load_filter : bool;
  (* CSR state *)
  mutable mie : bool;
  mutable mpie : bool;
  mutable mcause : int;
  mutable mtval : int;
  mutable mcycle : int;
      (** advanced by {!timed_round} as it charges the ledger *)
  mutable minstret : int;
  mutable mshwm : int;
  mutable mshwmb : int;
  mutable mtimecmp : int;
  (* Special capability registers *)
  mutable mtcc : Cheriot_core.Capability.t;
  mutable mepcc : Cheriot_core.Capability.t;
  mutable mtdc : Cheriot_core.Capability.t;
  mutable mscratchc : Cheriot_core.Capability.t;
  mutable ext_interrupt : bool;  (** external interrupt line *)
  mutable waiting : bool;  (** inside WFI *)
  mutable last_event : event;
  bcache : bentry Decode_cache.t;
      (** basic-block translation cache backing the jit tier;
          store snoops kill any block whose span the store hits *)
  mutable blocks_filled : int;
  mutable insns_translated : int;  (** sum of fill-time block lengths *)
  mutable block_aborts : int;
      (** blocks abandoned mid-execution after one of their own stores
          invalidated the translation (self-modifying code) *)
  mutable fm_sram : Cheriot_mem.Sram.t;
      (** resolved-SRAM window for the allocation-free data fast path *)
  mutable fm_base : int;
  mutable fm_limit : int;  (** 0 = window invalid *)
  block_insns : Insn.t option array;
      (** retirement ring filled by {!recorded_round}: one entry per
          fuel unit of the last round, the instruction it retired
          ([None] for a trap, a delivered interrupt or an idle step) *)
  block_pcs : int array;  (** PCs parallel to [block_insns] *)
  block_marks : int array;
      (** control-flow marks parallel to [block_insns]: 0 = plain,
          1 ({!mark_chained}) = first instruction of a block entered by
          a transfer inside the round, 2 ({!mark_opt_side_exit}) = first
          instruction of a block execution whose entry guard failed *)
  mutable round_units : int;
      (** fuel units the last round used ({!run}, {!timed_round},
          {!recorded_round}); after a recorded round, also the live
          entries in the ring *)
  mutable hot_threshold : int;
      (** the jit tier's hotness (default 32, adapted within 8–512
          unless [hot_adaptive] is off): the entry count at which a
          block compiles its check plan, and nothing else.  Tests lower
          it to fuzz the crossing; at 1 the jit compiles every block on
          first entry; pinned at [max_int] it compiles nothing. *)
  mutable hot_adaptive : bool;
      (** adapt [hot_threshold] to the chain-hit/unlink ratio (default
          [true]; tests that pin [hot_threshold] set it to [false]) *)
  mutable ht_resolves : int;  (** edge resolutions since the last adapt *)
  mutable ht_unlinks_mark : int;
      (** [chain_unlinks] snapshot at the last adapt *)
  mutable jit_blocks_compiled : int;  (** blocks compiled by the jit tier *)
  mutable checks_eliminated : int;
      (** pass-1 count: accesses whose metadata (or full) checks a
          dominating check covers *)
  mutable checks_hoisted : int;
      (** pass-2 count: accesses covered by a block-entry guard *)
  mutable checks_hoisted_nonentry : int;
      (** the subset of [checks_hoisted] reached through derived
          (non-entry) register versions *)
  mutable opt_side_exits : int;
      (** block executions deoptimized to full checks by a failed
          guard *)
  mutable jit_validator :
    (bentry -> Ir.chk array -> Ir.guard array -> bool) option;
      (** compile-time plan validation hook: when set, {!compile_jit}
          submits every plan before installing it; a rejected plan is
          replaced by the all-[Chk_full] no-guard plan (always sound)
          and counted in [jit_plans_rejected].  While set, the jit tier
          compiles every block on first entry, whatever its hotness.
          Doubles as the plan collector of the offline
          [cheriot_audit plans] gate. *)
  mutable jit_plans_rejected : int;
      (** plans the installed validator refused *)
  mutable cost : cost_model option;
      (** the cost model {!timed_round} charges (see {!set_cost_model}) *)
  mutable cost_lf : bool;
      (** the [load_filter] setting the blocks' cost tables price *)
  mutable charged_cycles : int;
      (** the ledger: cycles every timed round charged, cumulatively,
          since the harness zeroed it ([Perf.create] does; [mcycle]
          advances alongside, but is also CSR-writable) *)
  mutable charged_busy : int;  (** bus-busy cycles among them *)
  mutable charged_insns : int;  (** instructions charged *)
  mutable charged_traps : int;  (** traps and interrupts charged *)
}

(** A translated basic block — the jit's only translation unit:
    decoded instructions of one straight-line run of code, ending at
    (and including) the first control-flow or interrupt-posture-changing
    instruction ({!max_block_len} at most), so only the last instruction
    can leave the block other than by falling through.  Every
    instruction of a block is fetched under the entry PCC's word, so its
    fetch rules are checked and its bounds decoded once per block.  The
    per-instruction event payloads, the PCC pair of the block's end (the
    last instruction's PCC and the fall-through), the final direct
    edge's taken PCC and a final [Jal]'s link pair are prebuilt at fill
    time, so a cached block executes without allocating. *)
and bentry = {
  b_insns : Insn.t array;
  b_opts : Insn.t option array;
      (** the decoder's [Some b_insns.(i)], kept at fill *)
  b_last_pcc : Cheriot_core.Capability.t;
      (** the PCC the last instruction runs under: the entry word at its
          address ([b_pcc] itself in a one-instruction block) *)
  b_fall_pcc : Cheriot_core.Capability.t;
      (** the PCC after the last instruction falls through (untagged
          where its address is not representable); an interior
          instruction's PCC is the entry word at its address *)
  b_taken_pcc : Cheriot_core.Capability.t;
      (** the PCC the block's final direct [Branch] or [Jal] installs
          when taken; [Cheriot_core.Capability.null] (compared
          physically) in a block that does not end in one, and where the
          target fails the PCC bounds check, so the edge traps *)
  b_link_on : int;
      (** the word of the final [Jal]'s link when [mie] is set (a return
          sentry; in [Rv32] mode word 0, the integer [pc + 4])… *)
  b_link_off : int;
      (** …and when it is clear; the link's address is the [Jal]'s
          [pc + 4] *)
  b_mode : mode;
  b_pcc : Cheriot_core.Capability.t;
      (** fetch "ticket": the fill-time block-start PCC.  A hit under a
          PCC whose word equals the ticket's skips the fetch-side
          checks — they are a pure function of (mode, PCC, pc), and the
          mode never changes. *)
  b_start : int;  (** address of [b_insns.(0)] *)
  b_len : int;
  b_cost : int array;
      (** packed prefix sums of the cost model's static costs
          ([b_cost.(k)] prices instructions [0, k)); [[||]] when no
          cost model was installed at translation *)
  mutable b_taken : bentry option;
      (** chained successor of the taken [Jal]/[Branch] edge, valid
          while [b_taken_epoch] equals the cache's chain epoch
          (jit tier only; [-1] = never linked) *)
  mutable b_taken_epoch : int;
  mutable b_fall : bentry option;  (** not-taken-edge successor *)
  mutable b_fall_epoch : int;
  mutable b_ind : bentry option;
      (** 1-entry indirect-target slot of a [Jalr]-ended block: the
          predicted successor, epoch-validated like the direct links
          but ticket-rechecked on every traversal (the target comes
          from a live register) *)
  mutable b_ind_epoch : int;
  mutable b_jit : jit option;
      (** compiled execution plan, built by the jit tier on the entry
          that makes the block hot ([b_entries] reaching
          [hot_threshold]), or on first entry under a [jit_validator];
          [None] while the block is cold *)
  mutable b_entries : int;
      (** entries of the block while it has no plan *)
}

(** A compiled block plan: the {!Ir} optimization results, checks and
    guards only. *)
and jit = {
  j_chk : Ir.chk array;  (** per-instruction residual access checks *)
  j_guards : Ir.guard array;  (** block-entry hoisted checks *)
}

val create : ?mode:mode -> ?load_filter:bool -> Cheriot_mem.Bus.t -> t
(** A machine at reset: PCC is the executable root at address 0, all other
    registers NULL.  The harness (bootloader) installs the roots where it
    needs them, as early-boot software does (paper 3.1.1). *)

val reg : t -> int -> Cheriot_core.Capability.t
(** Read a register: its word and its address as one value, and
    [Capability.null] itself for word 0 at address 0 (c0 always).  A
    register last written by {!set_reg_int} reads as
    [{ null with addr }]. *)

val set_reg : t -> int -> Cheriot_core.Capability.t -> unit
(** Write a register: the value's word and address.  Writes to c0 are
    discarded.  Allocates nothing. *)

val reg_int : t -> int -> int
(** The 32-bit address field of a register.  Allocates nothing. *)

val set_reg_int : t -> int -> int -> unit
(** Write an integer result, masked to 32 bits: the register then reads
    as an untagged capability with that address and null metadata.
    Allocates nothing. *)

val timer_pending : t -> bool
val interrupt_pending : t -> bool

val step : t -> result
(** Execute one instruction (or take a pending interrupt).  Updates
    [last_event] for the cycle models and [minstret].  This is the
    {e reference interpreter} and the machine's only per-instruction
    path: it re-reads and re-decodes the instruction word through the
    bus on every step, so it never sees a stale decode.  One step is
    the reference round; the jit round runs one for a WFI wait, a
    deliverable interrupt and a word it cannot translate (code in MMIO,
    an illegal word, a failing fetch check). *)

(** {1 Rounds}

    A round is the one unit every driver loops over, of either tier:
    the {e reference round} is one {!step}; the {e jit round} runs
    chained blocks under their plans (interrupt and WFI handling exactly
    as {!step}, by running one reference round for them).  Each retired
    instruction, delivered interrupt, trap or idle WFI step is one fuel
    unit; a round leaves the units it used in [round_units]. *)

val recorded_round : t -> dispatch:dispatch -> fuel:int -> result
(** The tracer's round: one round of at most [fuel] units (clamped to
    {!round_cap}) that records every unit in the
    [block_insns]/[block_pcs]/[block_marks] ring, at least one
    ([round_units] live entries), so [Trace.run] can render each. *)

val set_cost_model : t -> cost_model -> unit
(** Install the cost model {!timed_round} charges.  Drops every
    translated block, so each is re-translated with its cost table. *)

val timed_round : t -> dispatch:dispatch -> fuel:int -> result
(** One round of at most [fuel] units that also charges the installed
    cost model to the ledger: [mcycle] and the cumulative [charged_*]
    counters advance.  A reference round is priced from its step's
    event; a jit round one block segment at a time, and always before
    an instruction that can read [mcycle], so every observation sees
    the per-step count.  A WFI wait is one idle cycle, bus-busy 0, on
    either tier.  The jit round also stops at a [Jalr] edge that leaves
    interrupts enabled with the timer armed: while they are, the caller
    must run reference rounds, because a jit round's charge could cross
    the comparator between two instructions of a block.  Raises
    [Invalid_argument] without a cost model. *)

val compile_jit : t -> bentry -> jit
(** Compile (and install) [bentry]'s optimized execution plan: the
    {!Ir.optimize} passes' checks and guards.  The jit tier calls it on
    the entry that makes a block hot (see [hot_threshold]), or on first
    entry while a [jit_validator] is installed.  Consults
    [jit_validator] when installed. *)

val max_block_len : int
(** Upper bound on instructions per translated block (16); four times
    it is the block cache's [max_span]. *)

val round_cap : int
(** Fuel ceiling of one recorded round (128), which sizes the
    retirement ring. *)

val mark_chained : int
(** [block_marks] value on the first instruction of a block entered by
    a transfer inside the round. *)

val mark_opt_side_exit : int
(** [block_marks] value on the first instruction of a block execution
    whose entry guard failed (deoptimized to full checks). *)

val run : ?fuel:int -> ?dispatch:dispatch -> t -> result * int
(** Run rounds of the [dispatch] tier (default [Dispatch_ref]) until
    halt/double-fault/waiting or [fuel] (default 10M) units; returns
    the final result and the units used.  Traps are not stopping events
    (the handler runs).  A jit round is cut when the remaining fuel
    runs out inside it, so chunked runs resume exactly where a
    reference run would. *)

type block_stats = {
  block_hits : int;
  block_misses : int;
  block_invalidations : int;  (** blocks killed by store snoops *)
  block_evictions : int;
      (** fills that overwrote a live block starting at another PC
          (slot conflicts) *)
  block_flushes : int;
  blocks_filled : int;
  insns_translated : int;  (** sum of fill-time block lengths *)
  block_aborts : int;  (** self-modifying mid-block abandonments *)
  chain_hits : int;
      (** transfers that followed a chained link, skipping the probe
          and ticket re-check *)
  chain_unlinks : int;  (** stale links observed at traversal time *)
  superblocks_formed : int;
      (** always 0: every translation unit is one basic block, so no
          superblock forms; kept because perfbench reports it as a
          layer key *)
  side_exits : int;
      (** always 0: no block has an interior exit; kept because
          perfbench reports it as a layer key *)
  jit_blocks_compiled : int;
  checks_eliminated : int;
      (** pass 1: accesses with a dominating check, run reduced *)
  checks_hoisted : int;
      (** pass 2: accesses covered by a block-entry guard *)
  checks_hoisted_nonentry : int;
      (** the subset of [checks_hoisted] reached through derived
          (non-entry) register versions *)
  opt_side_exits : int;
      (** block executions deoptimized by a failed entry guard *)
  jit_plans_rejected : int;
      (** plans refused by the installed [jit_validator] *)
}

val block_stats : t -> block_stats
val avg_block_len : block_stats -> float
(** Mean fill-time block length ([insns_translated / blocks_filled]). *)

val flush_decode_cache : t -> unit
(** Drop every translated block — required before running the jit
    tier after rewriting code with direct SRAM writes that bypass the
    bus store snoop (e.g. [Asm.load]).  {!step} needs no flush: it
    never caches a decode. *)

val state_hash : t -> string
(** Hex digest of all architecturally visible state: registers and tags,
    PCC, SCRs, CSRs, and the contents + tag bits of every SRAM on the
    bus.  Equal hashes (plus equal [minstret]) mean two runs are
    observationally identical. *)
