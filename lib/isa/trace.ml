(** Execution tracing: single-step a machine and render each retired
    instruction with its disassembly and effects — the simulator's
    equivalent of a waveform viewer, used by [bin/cheriot_sim]. *)

open Cheriot_core

type entry = {
  tr_index : int;
  tr_pc : int;
  tr_insn : Insn.t option;
  tr_result : Machine.result;
  tr_cycles : int;  (** cumulative, if a perf harness drives the clock *)
  tr_mark : int;
      (** control-flow mark of a jit round: a [Machine.block_marks]
          value ([mark_chained] or [mark_opt_side_exit]); 0 on a plain
          entry and always on [Dispatch_ref] *)
}

let pp_result fmt = function
  | Machine.Step_ok -> ()
  | Machine.Step_trap c -> Format.fprintf fmt "  !! trap: %a" Machine.pp_cause c
  | Machine.Step_waiting -> Format.fprintf fmt "  (wfi)"
  | Machine.Step_halted -> Format.fprintf fmt "  == halted =="
  | Machine.Step_double_fault -> Format.fprintf fmt "  ** double fault **"

(* Chained transfers and guard deoptimizations render distinctly so a
   chained trace can be eyeballed against a per-step one: the
   instruction stream is identical, only the annotations differ. *)
let pp_mark fmt m =
  if m = Machine.mark_chained then Format.fprintf fmt "  [chain]"
  else if m = Machine.mark_opt_side_exit then
    Format.fprintf fmt "  [opt-side-exit]"

let pp_entry fmt e =
  (match e.tr_insn with
  | Some i -> Format.fprintf fmt "%8d  %8d  0x%08x  %a" e.tr_index e.tr_cycles e.tr_pc Insn.pp i
  | None -> Format.fprintf fmt "%8d  %8d  0x%08x  <no retire>" e.tr_index e.tr_cycles e.tr_pc);
  pp_mark fmt e.tr_mark;
  pp_result fmt e.tr_result

(** Step [m] up to [fuel] instructions, calling [f] per retired
    instruction with a trace entry.  Returns the final result and step
    count.  [dispatch] picks the execution machinery; the jit tier
    emits one entry per instruction of each executed round (from the
    machine's retirement ring), each round cut to the fuel left, so the
    rendered trace is the same stream the reference path produces —
    chained transfers and guard deoptimizations carry a [tr_mark]. *)
let run ?(fuel = 1_000_000) ?(dispatch = Machine.Dispatch_ref) m ~f =
  match dispatch with
  | Machine.Dispatch_ref ->
      let rec go i =
        if i >= fuel then (Machine.Step_ok, i)
        else begin
          let pc = Capability.address m.Machine.pcc in
          let retired = m.Machine.minstret in
          let r = Machine.step m in
          f
            {
              tr_index = i;
              tr_pc = pc;
              tr_insn =
                (* a machine already in WFI steps without retiring, and
                   leaves the previous step's event in place *)
                (if r = Machine.Step_waiting && m.Machine.minstret = retired
                 then None
                 else m.Machine.last_event.Machine.ev_insn);
              tr_result = r;
              tr_cycles = m.Machine.mcycle;
              tr_mark = 0;
            };
          match r with
          | Machine.Step_ok | Machine.Step_trap _ -> go (i + 1)
          | Machine.Step_waiting | Machine.Step_halted
          | Machine.Step_double_fault ->
              (r, i + 1)
        end
      in
      go 0
  | Machine.Dispatch_jit ->
      let rec go i =
        if i >= fuel then (Machine.Step_ok, i)
        else begin
          let pc = Capability.address m.Machine.pcc in
          let r = Machine.step_jit m ~fuel:(fuel - i) in
          let n = m.Machine.block_ev_n in
          let i =
            if n = 0 then begin
              (* a round that retired nothing (WFI idle) *)
              f
                {
                  tr_index = i;
                  tr_pc = pc;
                  tr_insn = None;
                  tr_result = r;
                  tr_cycles = m.Machine.mcycle;
                  tr_mark = 0;
                };
              i + 1
            end
            else begin
              for k = 0 to n - 1 do
                f
                  {
                    tr_index = i + k;
                    tr_pc = m.Machine.block_pcs.(k);
                    tr_insn = m.Machine.block_insns.(k);
                    (* intermediate instructions of a round all retired
                       normally; only the round's last entry carries the
                       round result *)
                    tr_result = (if k = n - 1 then r else Machine.Step_ok);
                    tr_cycles = m.Machine.mcycle;
                    tr_mark = m.Machine.block_marks.(k);
                  }
              done;
              i + n
            end
          in
          match r with
          | Machine.Step_ok | Machine.Step_trap _ -> go i
          | Machine.Step_waiting | Machine.Step_halted
          | Machine.Step_double_fault ->
              (r, i)
        end
      in
      go 0
