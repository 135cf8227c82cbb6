module Machine = Cheriot_isa.Machine

type dispatch = Reference | Jit

type stats = {
  cycles : int;
  instructions : int;
  mem_busy : int;
  traps : int;
  block_hits : int;
  block_misses : int;
  block_invalidations : int;
  avg_block_len : float;
}

type t = {
  machine : Machine.t;
  params : Core_model.params;
  revoker : Revoker.t option;
  dispatch : dispatch;
  mutable stats : stats;
  mutable cycles : int;
  mutable instructions : int;
  mutable mem_busy : int;
  mutable traps : int;
}

let zero_stats =
  {
    cycles = 0;
    instructions = 0;
    mem_busy = 0;
    traps = 0;
    block_hits = 0;
    block_misses = 0;
    block_invalidations = 0;
    avg_block_len = 0.0;
  }

let create ?revoker ?(dispatch = Reference) ~params machine =
  Machine.set_cost_model machine (Core_model.cost_model params);
  {
    machine;
    params;
    revoker;
    dispatch;
    stats = zero_stats;
    cycles = 0;
    instructions = 0;
    mem_busy = 0;
    traps = 0;
  }

(* The running counters become [stats], with the machine-side block
   cache counters as they stand now. *)
let publish t =
  let bs = Machine.block_stats t.machine in
  t.stats <-
    {
      cycles = t.cycles;
      instructions = t.instructions;
      mem_busy = t.mem_busy;
      traps = t.traps;
      block_hits = bs.Machine.block_hits;
      block_misses = bs.Machine.block_misses;
      block_invalidations = bs.Machine.block_invalidations;
      avg_block_len = Machine.avg_block_len bs;
    }

(* [cycles] pass, [busy] of them with the data bus in use.  The
   background engine steals the load-store unit whenever the main
   pipeline is not using it (3.3.3): grant it the rest in one call. *)
let spend t cycles ~busy =
  let m = t.machine in
  m.Machine.mcycle <- m.Machine.mcycle + cycles;
  t.cycles <- t.cycles + cycles;
  t.mem_busy <- t.mem_busy + busy;
  match t.revoker with
  | Some r -> Revoker.tick_n r (Int.max 0 (cycles - busy))
  | None -> ()

let charge t (ev : Machine.event) =
  let p = t.params in
  match (ev.ev_trap, ev.ev_insn) with
  | Some _, _ ->
      t.traps <- t.traps + 1;
      spend t p.trap_penalty ~busy:0
  | None, None -> spend t p.base ~busy:0
  | None, Some insn ->
      t.instructions <- t.instructions + 1;
      let c =
        Core_model.insn_cost p ~load_filter:t.machine.Machine.load_filter insn
      in
      let taken =
        match insn with
        | Branch _ when ev.ev_taken_branch -> p.taken_branch_penalty
        | _ -> 0
      in
      spend t (Machine.cost_cycles c + taken) ~busy:(Machine.cost_busy c)

(* WFI idle: one cycle passes, fully available to the revoker. *)
let idle_cycle t =
  let m = t.machine in
  m.Machine.mcycle <- m.Machine.mcycle + 1;
  t.cycles <- t.cycles + 1;
  match t.revoker with Some rv -> Revoker.tick rv | None -> ()

(* One exact reference step, charged from its event. *)
let step_exact t =
  let m = t.machine in
  let r = Machine.step m in
  (match r with
  | Machine.Step_waiting -> idle_cycle t
  | Machine.Step_ok | Machine.Step_trap _ | Machine.Step_halted
  | Machine.Step_double_fault ->
      charge t m.Machine.last_event);
  r

(* The jit tier runs timed rounds, which charge per block segment,
   except in two regimes that need a charge per instruction.  With
   interrupts enabled and the timer armed, a comparator crossing could
   become deliverable between two instructions of a block, a boundary
   a round does not check.  And a revoker must be granted each
   instruction's idle cycles as they pass: a kick in the middle of a
   block must not see the cycles before it. *)
let per_step t =
  match t.dispatch with
  | Reference -> true
  | Jit ->
      let m = t.machine in
      Option.is_some t.revoker || (m.Machine.mie && m.Machine.mtimecmp <> 0)

(* One timed round of at most [fuel] units; a round ending in a WFI
   wait then idles one cycle, as the per-step loop does. *)
let timed_round t ~fuel =
  let m = t.machine in
  m.Machine.charged_cycles <- 0;
  m.Machine.charged_busy <- 0;
  m.Machine.charged_insns <- 0;
  m.Machine.charged_traps <- 0;
  let ((r, _) as round) = Machine.timed_round m ~fuel in
  t.cycles <- t.cycles + m.Machine.charged_cycles;
  t.mem_busy <- t.mem_busy + m.Machine.charged_busy;
  t.instructions <- t.instructions + m.Machine.charged_insns;
  t.traps <- t.traps + m.Machine.charged_traps;
  (match r with Machine.Step_waiting -> idle_cycle t | _ -> ());
  round

let run ?(fuel = 50_000_000) t =
  let m = t.machine in
  let rec go n last =
    if n >= fuel then last
    else if per_step t then next (step_exact t) (n + 1)
    else
      let r, used = timed_round t ~fuel:(fuel - n) in
      next r (n + used)
  and next r n =
    match r with
    | Machine.Step_ok | Machine.Step_trap _ -> go n r
    | Machine.Step_waiting
      when m.Machine.mtimecmp <> 0 || Machine.interrupt_pending m ->
        (* a pending or future timer interrupt can end the WFI *)
        go n r
    | Machine.Step_waiting | Machine.Step_halted | Machine.Step_double_fault
      ->
        r
  in
  let r = go 0 Machine.Step_ok in
  publish t;
  r
