(** The performance harness: runs the ISA emulator in timed rounds
    ([Machine.timed_round]), which charge the core model to the
    machine's cycle ledger and advance [mcycle], feeding each round's
    idle memory cycles to the background revoker, and publishing the
    ledger's totals. *)

(** Which dispatch tier drives the machine.  [Reference] runs reference
    rounds: one [Machine.step] each, priced from its event.  [Jit] runs
    jit rounds — chained translated blocks, each under the identity
    plan while cold and its optimized check plan once hot, the executor
    [Machine.run] uses — priced one block segment at a time.  [Jit]
    chooses the reference round instead in the exact regime: whenever
    interrupts are enabled with the timer armed, where a comparator
    crossing between two instructions of a block could otherwise be
    missed, and whenever a revoker is attached, which is granted each
    instruction's idle cycles as they pass.  Both produce identical
    architectural traces and cycle counts — simulator-speed
    optimizations, invisible to the modelled hardware. *)
type dispatch = Reference | Jit

(** The ledger's totals ([Machine.t]'s [charged_*]) since the last
    {!create} on the machine.  Block-cache activity is in
    [Machine.block_stats]. *)
type stats = {
  cycles : int;
  instructions : int;
  mem_busy : int;  (** cycles the data bus was busy with CPU traffic *)
  traps : int;  (** traps and delivered interrupts *)
}

type t = {
  machine : Cheriot_isa.Machine.t;
  revoker : Revoker.t option;
  dispatch : dispatch;
  mutable stats : stats;
      (** published from the ledger at the end of each {!run} *)
}

val create : ?revoker:Revoker.t -> ?dispatch:dispatch ->
  params:Core_model.params -> Cheriot_isa.Machine.t -> t
(** [dispatch] defaults to [Reference].  Installs the core model's
    static costs on the machine ([Machine.set_cost_model]) and zeroes
    its ledger, so the harness reports only the runs after it was
    created, not those of an earlier harness on the machine. *)

val run : ?fuel:int -> t -> Cheriot_isa.Machine.result
(** Run rounds until halt / double fault / WFI-with-no-interrupt-source,
    or [fuel] units (default 50M), counted as [Machine.run] counts them
    on every tier: each retired instruction, delivered interrupt, trap
    or idle WFI step is one.  After each round an attached revoker is
    granted the round's ledger cycles minus its bus-busy cycles. *)
