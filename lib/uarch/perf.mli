(** The performance harness: runs the ISA emulator under a cycle model,
    advancing [mcycle], feeding idle memory cycles to the background
    revoker, and collecting statistics. *)

(** Which dispatch tier drives the machine.  [Reference] re-decodes
    every instruction ([Machine.step]) and charges each step from its
    event.  [Jit] runs chained rounds of translated blocks — each block
    under the identity plan while cold, under its optimized check plan
    once hot — each round as one [Machine.timed_round], the executor
    [Machine.run] uses, charging the cost model one block segment at a
    time.  [Jit] falls back to exact reference steps ([Machine.step])
    whenever interrupts are enabled with the timer armed, where a
    comparator crossing between two instructions of a block could
    otherwise be missed, and whenever a revoker is attached, which is
    granted each instruction's idle cycles as they pass.  Both produce
    identical architectural traces and cycle counts — simulator-speed
    optimizations, invisible to the modelled hardware. *)
type dispatch = Reference | Jit

type stats = {
  cycles : int;
  instructions : int;
  mem_busy : int;  (** cycles the data bus was busy with CPU traffic *)
  traps : int;
  block_hits : int;  (** block-cache hits (cumulative) *)
  block_misses : int;
  block_invalidations : int;  (** blocks killed by store snoops *)
  avg_block_len : float;  (** mean fill-time block length *)
}

type t = {
  machine : Cheriot_isa.Machine.t;
  params : Core_model.params;
  revoker : Revoker.t option;
  dispatch : dispatch;
  mutable stats : stats;
      (** published from the running counters below at the end of
          {!run} *)
  mutable cycles : int;
  mutable instructions : int;
  mutable mem_busy : int;
  mutable traps : int;
}

val create : ?revoker:Revoker.t -> ?dispatch:dispatch ->
  params:Core_model.params -> Cheriot_isa.Machine.t -> t
(** [dispatch] defaults to [Reference].  Installs the core model's
    static costs on the machine ([Machine.set_cost_model]). *)

val run : ?fuel:int -> t -> Cheriot_isa.Machine.result
(** Run until halt / double fault / WFI-with-no-interrupt-source, or
    [fuel] instructions (default 50M), counted as [Machine.run] counts
    them on every tier: each retired instruction, delivered interrupt,
    trap or idle WFI step is one. *)

