type core = Flute | Ibex

type params = {
  base : int;
  mul : int;
  div : int;
  taken_branch_penalty : int;
  jump_penalty : int;
  trap_penalty : int;
  mem_extra : int;
  bus_bytes : int;
  load_filter_extra : int;
}

(* The constants reflect the two design points: Flute hides memory and
   filter latency in its longer pipeline but pays more for redirects;
   Ibex has cheap branches but a narrow bus and a visible filter delay. *)
let params_of = function
  | Flute ->
      {
        base = 1;
        mul = 1;
        div = 17;
        taken_branch_penalty = 3;
        jump_penalty = 3;
        trap_penalty = 5;
        mem_extra = 0;
        bus_bytes = 8;
        load_filter_extra = 0;
      }
  | Ibex ->
      {
        base = 1;
        mul = 3;
        div = 37;
        taken_branch_penalty = 1;
        jump_penalty = 1;
        trap_penalty = 3;
        mem_extra = 1;
        bus_bytes = 4;
        load_filter_extra = 1;
      }

let name = function Flute -> "Flute" | Ibex -> "Ibex"

type config = {
  core : core;
  cheri : bool;
  load_filter : bool;
  hw_revoker : bool;
  stack_hwm : bool;
}

let config ?(cheri = true) ?(load_filter = true) ?(hw_revoker = false)
    ?(stack_hwm = false) core =
  { core; cheri; load_filter; hw_revoker; stack_hwm }

let config_name c =
  Printf.sprintf "%s/%s%s%s%s" (name c.core)
    (if c.cheri then "CHERIoT" else "RV32E")
    (if c.cheri && c.load_filter then "+filter" else "")
    (if c.hw_revoker then "+hwrev" else "")
    (if c.stack_hwm then "+hwm" else "")

(* Bus beats needed for an access of [bytes] on a [bus_bytes]-wide bus. *)
let beats ~bus_bytes bytes = (bytes + bus_bytes - 1) / bus_bytes

module Machine = Cheriot_isa.Machine

(* A data access of [bytes]: the base cycle, the memory stage, one cycle
   per extra bus beat; every beat keeps the bus busy. *)
let mem_cost p bytes =
  let n = beats ~bus_bytes:p.bus_bytes bytes in
  (p.base + p.mem_extra + n - 1) lor (n lsl Machine.cost_shift)

let insn_cost p ~load_filter (i : Cheriot_isa.Insn.t) =
  match i with
  | Lui _ | Auipcc _ | Op_imm _ | Op _ | Branch _ -> p.base
  | Mul_div ((Mul | Mulh | Mulhsu | Mulhu), _, _, _) -> p.mul
  | Mul_div ((Div | Divu | Rem | Remu), _, _, _) -> p.div
  | Jal _ | Jalr _ -> p.base + p.jump_penalty
  | Load { width; _ } | Store { width; _ } ->
      mem_cost p (match width with B -> 1 | H -> 2 | W -> 4)
  | Csc _ -> mem_cost p 8
  | Clc _ -> mem_cost p 8 + if load_filter then p.load_filter_extra else 0
  | Ecall | Ebreak | Mret | Wfi | Csr _ | Cspecialrw _ | Cincaddr _
  | Cincaddrimm _ | Csetaddr _ | Csetbounds _ | Csetboundsexact _
  | Csetboundsimm _ | Crrl _ | Cram _ | Candperm _ | Ccleartag _ | Cmove _
  | Cseal _ | Cunseal _ | Cget _ | Csub _ | Ctestsubset _ | Csetequalexact _
    ->
      p.base

let cost_model p =
  {
    Machine.insn_cost = insn_cost p;
    taken_branch_penalty = p.taken_branch_penalty;
    trap_cost = p.trap_penalty;
  }
