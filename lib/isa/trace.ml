(** Execution tracing: run a machine in recorded rounds and render each
    retired instruction with its disassembly and effects — the
    simulator's equivalent of a waveform viewer, used by
    [bin/cheriot_sim]. *)

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

(** Run [m] up to [fuel] units, calling [f] per unit with a trace
    entry.  Returns the final result and unit count.  Each round of the
    [dispatch] tier is a recorded round: a reference round is one step,
    a jit round every instruction of the chained blocks it ran, each
    round cut to the fuel left, so the rendered trace is the same
    stream on both tiers — chained transfers and guard deoptimizations
    carry a [tr_mark]. *)
let run ?(fuel = 1_000_000) ?(dispatch = Machine.Dispatch_ref) m ~f =
  let rec go i =
    if i >= fuel then (Machine.Step_ok, i)
    else begin
      let r = Machine.recorded_round m ~dispatch ~fuel:(fuel - i) in
      let n = m.Machine.round_units in
      for k = 0 to n - 1 do
        f
          {
            tr_index = i + k;
            tr_pc = m.Machine.block_pcs.(k);
            tr_insn = m.Machine.block_insns.(k);
            (* the units before a round's last all retired normally;
               only the last carries the round result *)
            tr_result = (if k = n - 1 then r else Machine.Step_ok);
            tr_cycles = m.Machine.mcycle;
            tr_mark = m.Machine.block_marks.(k);
          }
      done;
      match r with
      | Machine.Step_ok | Machine.Step_trap _ -> go (i + n)
      | Machine.Step_waiting | Machine.Step_halted | Machine.Step_double_fault
        ->
          (r, i + n)
    end
  in
  go 0
