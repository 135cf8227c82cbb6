(** Observational equality of machines — the equivalence the whole
    property family is phrased in.

    Two dispatch paths are observationally identical when, after every
    retired instruction (or delivered interrupt), the full architectural
    state agrees: step result, PCC, all registers, special capability
    registers, CSRs, interrupt/wait state, and the retired-event record
    the cycle models consume.  Memory divergence is caught by
    {!Machine.state_hash} (which also covers tag bits); per step it
    could only arise via a store, which the event compare pins to the
    same step. *)

open Cheriot_core
open Cheriot_isa

let event_eq (a : Machine.event) (b : Machine.event) =
  a.ev_insn = b.ev_insn
  && a.ev_taken_branch = b.ev_taken_branch
  && a.ev_trap = b.ev_trap

(** [compare_states ~what step (ref_m, other)] fails (via
    [QCheck.Test.fail_reportf], so qcheck shrinks and reports the seed)
    naming the first diverging component.  [what] labels the compared
    path in the failure message. *)
let compare_states ?(what = "paths") step_no (ref_m : Machine.t)
    (fast_m : Machine.t) =
  let fail component =
    QCheck.Test.fail_reportf "%s diverged at step %d: %s" what step_no
      component
  in
  if not (Capability.equal ref_m.pcc fast_m.pcc) then fail "pcc";
  for r = 1 to 15 do
    if not (Capability.equal (Machine.reg ref_m r) (Machine.reg fast_m r)) then
      fail (Printf.sprintf "c%d" r)
  done;
  List.iter
    (fun (name, a, b) -> if not (Capability.equal a b) then fail name)
    [
      ("mtcc", ref_m.mtcc, fast_m.mtcc);
      ("mepcc", ref_m.mepcc, fast_m.mepcc);
      ("mtdc", ref_m.mtdc, fast_m.mtdc);
      ("mscratchc", ref_m.mscratchc, fast_m.mscratchc);
    ];
  List.iter
    (fun (name, a, b) -> if a <> b then fail name)
    [
      ("mcause", ref_m.mcause, fast_m.mcause);
      ("mtval", ref_m.mtval, fast_m.mtval);
      ("minstret", ref_m.minstret, fast_m.minstret);
      ("mshwm", ref_m.mshwm, fast_m.mshwm);
      ("mshwmb", ref_m.mshwmb, fast_m.mshwmb);
    ];
  if ref_m.mie <> fast_m.mie then fail "mie";
  if ref_m.mpie <> fast_m.mpie then fail "mpie";
  if ref_m.waiting <> fast_m.waiting then fail "waiting";
  if not (event_eq ref_m.last_event fast_m.last_event) then fail "event"

(** Check all machines in [others] against [ref_m] and require equal
    state hashes — the end-of-batch memory check. *)
let require_hashes_equal ?(what = "paths") step_no ref_m others =
  let h = Machine.state_hash ref_m in
  List.iter
    (fun m ->
      if Machine.state_hash m <> h then
        QCheck.Test.fail_reportf "%s: state hashes diverged after %d insns"
          what step_no)
    others
