(** Cycle-level core models (paper 4).

    Two design points are modelled:

    - {b Flute}: a five-stage single-issue in-order pipeline with a 65-bit
      (64 + tag) memory bus.  Capability loads/stores take a single bus
      beat, and the load filter's revocation-bit lookup is hidden in the
      MEM→WB stages (Fig. 4), costing no extra cycles.
    - {b Ibex}: a small 2/3-stage core optimized for area with a 33-bit
      data bus: a capability transfer takes two bus beats, and the load
      filter's extra load-to-use delay is visible (paper 7.2.1).

    The model prices each instruction statically ({!insn_cost}): its
    cycles and the bus beats of its data access.  {!cost_model} hands
    these prices and the dynamic penalties (taken branch, trap entry)
    down to the machine, whose timed rounds charge them where a taken
    branch or a trap happens.  There is one per-event pricing function,
    in the machine: a reference round prices its step's
    {!Cheriot_isa.Machine.event} with it, and a jit round charges the
    same prices one block segment at a time.  All costs are
    deterministic — the real-time requirement of 2.1. *)

type core = Flute | Ibex

type params = {
  base : int;  (** cycles for a simple ALU instruction *)
  mul : int;
  div : int;
  taken_branch_penalty : int;  (** extra cycles on a taken branch *)
  jump_penalty : int;
  trap_penalty : int;  (** pipeline flush on trap/interrupt entry *)
  mem_extra : int;  (** extra cycles for a data load/store beyond base *)
  bus_bytes : int;  (** data-bus width: 8 (Flute) or 4 (Ibex) *)
  load_filter_extra : int;
      (** extra load-to-use cycles on a capability load when the load
          filter is enabled (0 on Flute, 1 on Ibex) *)
}

val params_of : core -> params
val name : core -> string

(** A full machine configuration of Table 3 / Table 4. *)
type config = {
  core : core;
  cheri : bool;  (** capability mode vs RV32E baseline *)
  load_filter : bool;
  hw_revoker : bool;
  stack_hwm : bool;  (** stack high-water-mark assist (5.2.1) *)
}

val config : ?cheri:bool -> ?load_filter:bool -> ?hw_revoker:bool ->
  ?stack_hwm:bool -> core -> config
val config_name : config -> string

val insn_cost : params -> load_filter:bool -> Cheriot_isa.Insn.t -> int
(** The static cost of an instruction that is neither a taken branch
    nor trapping, packed as {!Cheriot_isa.Machine.cost_model} describes:
    its cycles and, of those, the cycles it keeps the data bus busy.
    The one static price behind both of the machine's charges: its
    per-event price on a reference round and the per-block cost tables
    of a jit round. *)

val cost_model : params -> Cheriot_isa.Machine.cost_model
(** {!insn_cost} plus the dynamic penalties, for
    {!Cheriot_isa.Machine.set_cost_model}. *)
