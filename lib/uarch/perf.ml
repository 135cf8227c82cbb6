module Machine = Cheriot_isa.Machine

type dispatch = Reference | Jit

type stats = {
  cycles : int;
  instructions : int;
  mem_busy : int;
  traps : int;
}

type t = {
  machine : Machine.t;
  revoker : Revoker.t option;
  dispatch : dispatch;
  mutable stats : stats;
}

let create ?revoker ?(dispatch = Reference) ~params machine =
  Machine.set_cost_model machine (Core_model.cost_model params);
  machine.Machine.charged_cycles <- 0;
  machine.Machine.charged_busy <- 0;
  machine.Machine.charged_insns <- 0;
  machine.Machine.charged_traps <- 0;
  {
    machine;
    revoker;
    dispatch;
    stats = { cycles = 0; instructions = 0; mem_busy = 0; traps = 0 };
  }

(* The tier of the next round.  [Jit] runs jit rounds, which charge per
   block segment, except in the exact regime, which runs reference
   rounds.  With interrupts enabled and the timer armed, a comparator
   crossing could become deliverable between two instructions of a
   block, a boundary a jit round does not check.  And a revoker must be
   granted each instruction's idle cycles as they pass: a kick in the
   middle of a block must not see the cycles before it. *)
let tier t =
  match t.dispatch with
  | Reference -> Machine.Dispatch_ref
  | Jit ->
      let m = t.machine in
      if Option.is_some t.revoker || (m.Machine.mie && m.Machine.mtimecmp <> 0)
      then Machine.Dispatch_ref
      else Machine.Dispatch_jit

let run ?(fuel = 50_000_000) t =
  let m = t.machine in
  let rec go n last =
    if n >= fuel then last
    else begin
      let cycles = m.Machine.charged_cycles and busy = m.Machine.charged_busy in
      let r = Machine.timed_round m ~dispatch:(tier t) ~fuel:(fuel - n) in
      (* the background engine steals the load-store unit whenever the
         main pipeline is not using it (3.3.3): the round's cycles
         without the bus *)
      (match t.revoker with
      | Some rv ->
          Revoker.tick_n rv
            (m.Machine.charged_cycles - cycles - (m.Machine.charged_busy - busy))
      | None -> ());
      let n = n + m.Machine.round_units in
      match r with
      | Machine.Step_ok | Machine.Step_trap _ -> go n r
      | Machine.Step_waiting
        when m.Machine.mtimecmp <> 0 || Machine.interrupt_pending m ->
          (* a pending or future timer interrupt can end the WFI *)
          go n r
      | Machine.Step_waiting | Machine.Step_halted | Machine.Step_double_fault
        ->
          r
    end
  in
  let r = go 0 Machine.Step_ok in
  t.stats <-
    {
      cycles = m.Machine.charged_cycles;
      instructions = m.Machine.charged_insns;
      mem_busy = m.Machine.charged_busy;
      traps = m.Machine.charged_traps;
    };
  r
