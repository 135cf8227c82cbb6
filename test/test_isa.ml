(* ISA tests: binary encode/decode roundtrip, and executable semantics of
   the CHERIoT extensions (paper 3): sentries, the load filter, the stack
   high-water mark, store-local, attenuating loads. *)

open Cheriot_core
open Cheriot_isa
module Sram = Cheriot_mem.Sram
module Bus = Cheriot_mem.Bus
module Revbits = Cheriot_mem.Revbits

(* --- encode/decode roundtrip ---------------------------------------- *)

let gen_insn : Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = int_bound 15 in
  let imm12 = map (fun n -> n - 2048) (int_bound 4095) in
  let uimm12 = int_bound 4095 in
  let imm20 = int_bound 0xfffff in
  let boff = map (fun n -> (n - 2048) * 2) (int_bound 4095) in
  let joff = map (fun n -> (n - 262144) * 2) (int_bound 524287) in
  let shamt = int_bound 31 in
  let branch_cond = oneofl Insn.[ Eq; Ne; Lt; Ge; Ltu; Geu ] in
  let alu_i = oneofl Insn.[ Add; Slt; Sltu; Xor; Or; And ] in
  let alu_r = oneofl Insn.[ Add; Sub; Sll; Slt; Sltu; Xor; Srl; Sra; Or; And ] in
  let muldiv =
    oneofl Insn.[ Mul; Mulh; Mulhsu; Mulhu; Div; Divu; Rem; Remu ]
  in
  let width = oneofl Insn.[ B; H; W ] in
  let getter = oneofl Insn.[ Addr; Base; Top; Len; Perm; Type; Tag ] in
  let scr = oneofl Insn.[ MTCC; MTDC; MScratchC; MEPCC ] in
  let csr_num = oneofl [ 0x300; 0x342; 0xB00; 0x7C1; 0x7C2 ] in
  oneof
    [
      map2 (fun rd i -> Insn.Lui (rd, i)) reg imm20;
      map2 (fun rd i -> Insn.Auipcc (rd, i)) reg imm20;
      map2 (fun rd o -> Insn.Jal (rd, o)) reg joff;
      map3 (fun rd rs o -> Insn.Jalr (rd, rs, o)) reg reg imm12;
      (let* c = branch_cond and* a = reg and* b = reg and* o = boff in
       return (Insn.Branch (c, a, b, o)));
      (let* s = bool and* w = width and* rd = reg and* rs1 = reg
       and* off = imm12 in
       let s = if w = Insn.W then true else s in
       return (Insn.Load { signed = s; width = w; rd; rs1; off }));
      (let* w = width and* rs2 = reg and* rs1 = reg and* off = imm12 in
       return (Insn.Store { width = w; rs2; rs1; off }));
      map3 (fun op rd rs1 -> Insn.Op_imm (op, rd, rs1, 7)) alu_i reg reg;
      (let* op = alu_i and* rd = reg and* rs1 = reg and* i = imm12 in
       return (Insn.Op_imm (op, rd, rs1, i)));
      (let* op = oneofl Insn.[ Sll; Srl; Sra ] and* rd = reg and* rs1 = reg
       and* sh = shamt in
       return (Insn.Op_imm (op, rd, rs1, sh)));
      (let* op = alu_r and* rd = reg and* rs1 = reg and* rs2 = reg in
       return (Insn.Op (op, rd, rs1, rs2)));
      (let* op = muldiv and* rd = reg and* rs1 = reg and* rs2 = reg in
       return (Insn.Mul_div (op, rd, rs1, rs2)));
      oneofl Insn.[ Ecall; Ebreak; Mret; Wfi ];
      (let* op = oneofl Insn.[ Csrrw; Csrrs; Csrrc ] and* rd = reg
       and* rs1 = reg and* n = csr_num in
       return (Insn.Csr (op, rd, rs1, n)));
      map3 (fun rd rs1 off -> Insn.Clc (rd, rs1, off)) reg reg imm12;
      map3 (fun rs2 rs1 off -> Insn.Csc (rs2, rs1, off)) reg reg imm12;
      map3 (fun a b c -> Insn.Cincaddr (a, b, c)) reg reg reg;
      map3 (fun a b i -> Insn.Cincaddrimm (a, b, i)) reg reg imm12;
      map3 (fun a b c -> Insn.Csetaddr (a, b, c)) reg reg reg;
      map3 (fun a b c -> Insn.Csetbounds (a, b, c)) reg reg reg;
      map3 (fun a b c -> Insn.Csetboundsexact (a, b, c)) reg reg reg;
      map3 (fun a b i -> Insn.Csetboundsimm (a, b, i)) reg reg uimm12;
      map2 (fun a b -> Insn.Crrl (a, b)) reg reg;
      map2 (fun a b -> Insn.Cram (a, b)) reg reg;
      map3 (fun a b c -> Insn.Candperm (a, b, c)) reg reg reg;
      map2 (fun a b -> Insn.Ccleartag (a, b)) reg reg;
      map2 (fun a b -> Insn.Cmove (a, b)) reg reg;
      map3 (fun a b c -> Insn.Cseal (a, b, c)) reg reg reg;
      map3 (fun a b c -> Insn.Cunseal (a, b, c)) reg reg reg;
      map3 (fun g a b -> Insn.Cget (g, a, b)) getter reg reg;
      map3 (fun a b c -> Insn.Csub (a, b, c)) reg reg reg;
      map3 (fun a b c -> Insn.Ctestsubset (a, b, c)) reg reg reg;
      map3 (fun a b c -> Insn.Csetequalexact (a, b, c)) reg reg reg;
      map3 (fun a s b -> Insn.Cspecialrw (a, s, b)) reg scr reg;
    ]

let prop_encode_decode =
  QCheck.Test.make ~name:"insn encode/decode roundtrip" ~count:5000
    (QCheck.make ~print:Insn.to_string gen_insn)
    (fun i ->
      match Encode.decode (Encode.encode i) with
      | Some i' -> i = i'
      | None -> false)

let prop_decode_total =
  QCheck.Test.make ~name:"decode never raises" ~count:5000
    QCheck.(int_bound 0xFFFFFFF)
    (fun w ->
      ignore (Encode.decode w);
      ignore (Encode.decode (w lor 0x5B));
      true)

(* --- exhaustive encode/decode roundtrip -------------------------------- *)

(* Deterministic companion to the random property above: every
   constructor of [Insn.t], with every register value in every register
   field and boundary values in every immediate field.  ~150k
   instructions; constructor coverage is asserted via [ctor_index], whose
   match the compiler keeps exhaustive against [Insn.t]. *)

let ctor_index : Insn.t -> int = function
  | Lui _ -> 0
  | Auipcc _ -> 1
  | Jal _ -> 2
  | Jalr _ -> 3
  | Branch _ -> 4
  | Load _ -> 5
  | Store _ -> 6
  | Op_imm _ -> 7
  | Op _ -> 8
  | Mul_div _ -> 9
  | Ecall -> 10
  | Ebreak -> 11
  | Mret -> 12
  | Wfi -> 13
  | Csr _ -> 14
  | Clc _ -> 15
  | Csc _ -> 16
  | Cincaddr _ -> 17
  | Cincaddrimm _ -> 18
  | Csetaddr _ -> 19
  | Csetbounds _ -> 20
  | Csetboundsexact _ -> 21
  | Csetboundsimm _ -> 22
  | Crrl _ -> 23
  | Cram _ -> 24
  | Candperm _ -> 25
  | Ccleartag _ -> 26
  | Cmove _ -> 27
  | Cseal _ -> 28
  | Cunseal _ -> 29
  | Cget _ -> 30
  | Csub _ -> 31
  | Ctestsubset _ -> 32
  | Csetequalexact _ -> 33
  | Cspecialrw _ -> 34

let n_ctors = 35

let exhaustive_insns () =
  let acc = ref [] in
  let add i = acc := i :: !acc in
  let regs = List.init 16 (fun r -> r) in
  let iter1 f = List.iter f regs in
  let iter2 f = iter1 (fun a -> iter1 (fun b -> f a b)) in
  let iter3 f = iter2 (fun a b -> iter1 (fun c -> f a b c)) in
  let imm12 = [ -2048; -1; 0; 1; 7; 2047 ] in
  let uimm12 = [ 0; 1; 511; 4095 ] in
  let imm20 = [ 0; 1; 0xABCDE; 0xFFFFF ] in
  let boff = [ -4096; -2; 0; 2; 4094 ] in
  let joff = [ -1048576; -2; 0; 2; 1048574 ] in
  let shamt = [ 0; 1; 31 ] in
  let csrs = [ 0x300; 0x342; 0xB00; 0x7C1; 0x7C2 ] in
  List.iter
    (fun i ->
      iter1 (fun rd ->
          add (Insn.Lui (rd, i));
          add (Insn.Auipcc (rd, i))))
    imm20;
  List.iter (fun o -> iter1 (fun rd -> add (Insn.Jal (rd, o)))) joff;
  List.iter (fun o -> iter2 (fun rd rs -> add (Insn.Jalr (rd, rs, o)))) imm12;
  List.iter
    (fun o ->
      List.iter
        (fun c -> iter2 (fun a b -> add (Insn.Branch (c, a, b, o))))
        Insn.[ Eq; Ne; Lt; Ge; Ltu; Geu ])
    boff;
  List.iter
    (fun off ->
      List.iter
        (fun (signed, width) ->
          iter2 (fun rd rs1 -> add (Insn.Load { signed; width; rd; rs1; off })))
        Insn.[ (true, B); (false, B); (true, H); (false, H); (true, W) ];
      List.iter
        (fun width ->
          iter2 (fun rs2 rs1 -> add (Insn.Store { width; rs2; rs1; off })))
        Insn.[ B; H; W ];
      iter2 (fun rd rs1 ->
          add (Insn.Clc (rd, rs1, off));
          add (Insn.Csc (rd, rs1, off));
          add (Insn.Cincaddrimm (rd, rs1, off)));
      List.iter
        (fun op -> iter2 (fun rd rs1 -> add (Insn.Op_imm (op, rd, rs1, off))))
        Insn.[ Add; Slt; Sltu; Xor; Or; And ])
    imm12;
  List.iter
    (fun sh ->
      List.iter
        (fun op -> iter2 (fun rd rs1 -> add (Insn.Op_imm (op, rd, rs1, sh))))
        Insn.[ Sll; Srl; Sra ])
    shamt;
  List.iter
    (fun op -> iter3 (fun rd rs1 rs2 -> add (Insn.Op (op, rd, rs1, rs2))))
    Insn.[ Add; Sub; Sll; Slt; Sltu; Xor; Srl; Sra; Or; And ];
  List.iter
    (fun op -> iter3 (fun rd rs1 rs2 -> add (Insn.Mul_div (op, rd, rs1, rs2))))
    Insn.[ Mul; Mulh; Mulhsu; Mulhu; Div; Divu; Rem; Remu ];
  List.iter add Insn.[ Ecall; Ebreak; Mret; Wfi ];
  List.iter
    (fun n ->
      List.iter
        (fun op -> iter2 (fun rd rs1 -> add (Insn.Csr (op, rd, rs1, n))))
        Insn.[ Csrrw; Csrrs; Csrrc ])
    csrs;
  iter3 (fun a b c ->
      add (Insn.Cincaddr (a, b, c));
      add (Insn.Csetaddr (a, b, c));
      add (Insn.Csetbounds (a, b, c));
      add (Insn.Csetboundsexact (a, b, c));
      add (Insn.Candperm (a, b, c));
      add (Insn.Cseal (a, b, c));
      add (Insn.Cunseal (a, b, c));
      add (Insn.Csub (a, b, c));
      add (Insn.Ctestsubset (a, b, c));
      add (Insn.Csetequalexact (a, b, c)));
  List.iter
    (fun i -> iter2 (fun a b -> add (Insn.Csetboundsimm (a, b, i))))
    uimm12;
  iter2 (fun a b ->
      add (Insn.Crrl (a, b));
      add (Insn.Cram (a, b));
      add (Insn.Ccleartag (a, b));
      add (Insn.Cmove (a, b));
      List.iter
        (fun g -> add (Insn.Cget (g, a, b)))
        Insn.[ Addr; Base; Top; Len; Perm; Type; Tag ];
      List.iter
        (fun s -> add (Insn.Cspecialrw (a, s, b)))
        Insn.[ MTCC; MTDC; MScratchC; MEPCC ]);
  !acc

let test_exhaustive_roundtrip () =
  let insns = exhaustive_insns () in
  let seen = Array.make n_ctors false in
  List.iter
    (fun i ->
      seen.(ctor_index i) <- true;
      match Encode.decode (Encode.encode i) with
      | Some i' when i = i' -> ()
      | Some i' ->
          Alcotest.failf "roundtrip changed %s into %s" (Insn.to_string i)
            (Insn.to_string i')
      | None -> Alcotest.failf "%s does not decode back" (Insn.to_string i))
    insns;
  Array.iteri
    (fun k covered ->
      if not covered then Alcotest.failf "constructor %d not enumerated" k)
    seen;
  Alcotest.(check bool) "enumeration is substantial" true
    (List.length insns > 100_000)

(* --- machine harness -------------------------------------------------- *)

let code_base = 0x10000
let data_base = 0x20000
let stack_base = 0x30000
let stack_size = 0x1000
let heap_base = 0x40000
let heap_size = 0x10000

type sys = { m : Machine.t; sram : Sram.t; rev : Revbits.t }

let make_sys ?(mode = Machine.Cheriot) ?(load_filter = true) () =
  let bus = Bus.create () in
  let sram = Sram.create ~base:code_base ~size:0x48000 in
  Bus.add_sram bus sram;
  let rev = Revbits.create ~heap_base ~heap_size () in
  Bus.set_revbits bus rev;
  let m = Machine.create ~mode ~load_filter bus in
  { m; sram; rev }

(* Standard register setup: c2 = stack cap (with SL, local), c3 = data cap,
   c4 = heap cap. *)
let setup_regs sys =
  let open Capability in
  let m = sys.m in
  m.Machine.pcc <-
    (let c = with_address root_executable code_base in
     set_bounds c ~length:0x8000 ~exact:false);
  let stack =
    let c = with_address root_mem_rw stack_base in
    let c = set_bounds c ~length:stack_size ~exact:true in
    clear_perms c [ GL ]
  in
  Machine.set_reg m 2 stack;
  let data =
    let c = with_address root_mem_rw data_base in
    let c = set_bounds c ~length:0x8000 ~exact:true in
    clear_perms c [ SL ]
  in
  Machine.set_reg m 3 data;
  let heap =
    let c = with_address root_mem_rw heap_base in
    set_bounds c ~length:heap_size ~exact:true
  in
  Machine.set_reg m 4 heap;
  Machine.set_reg m 2 Capability.(incr_address stack stack_size)

let run_items ?(mode = Machine.Cheriot) ?(load_filter = true) ?(fuel = 100000)
    items =
  let sys = make_sys ~mode ~load_filter () in
  let img = Asm.assemble ~origin:code_base items in
  Asm.load img sys.sram;
  if mode = Machine.Cheriot then setup_regs sys
  else sys.m.Machine.pcc <- Capability.{ root_executable with addr = code_base };
  let result, steps = Machine.run ~fuel sys.m in
  (sys, result, steps)

let check_halted result =
  match result with
  | Machine.Step_halted -> ()
  | r ->
      Alcotest.failf "expected halt, got %s"
        (match r with
        | Machine.Step_ok -> "ok"
        | Step_trap _ -> "trap"
        | Step_waiting -> "waiting"
        | Step_halted -> "halted"
        | Step_double_fault -> "double fault")

let a0 = Insn.reg_a0
let a1 = Insn.reg_a1
let a2 = Insn.reg_a2
let t0 = Insn.reg_t0
let sp = Insn.reg_sp
let gp = Insn.reg_gp

(* --- semantics tests -------------------------------------------------- *)

let test_alu_loop () =
  (* sum of 1..10 via a branch loop *)
  let items =
    [
      Asm.I (Insn.Op_imm (Add, a0, 0, 0));
      Asm.I (Insn.Op_imm (Add, t0, 0, 10));
      Asm.Label "loop";
      Asm.I (Insn.Op (Add, a0, a0, t0));
      Asm.I (Insn.Op_imm (Add, t0, t0, -1));
      Asm.B (Insn.Ne, t0, 0, "loop");
      Asm.I Insn.Ebreak;
    ]
  in
  let sys, result, _ = run_items items in
  check_halted result;
  Alcotest.(check int) "sum" 55 (Machine.reg_int sys.m a0)

let test_muldiv () =
  let items =
    [
      Asm.Li (a0, 1234567);
      Asm.Li (a1, 891);
      Asm.I (Insn.Mul_div (Mul, a2, a0, a1));
      Asm.I (Insn.Mul_div (Div, t0, a0, a1));
      Asm.I (Insn.Mul_div (Rem, a1, a0, a1));
      Asm.I Insn.Ebreak;
    ]
  in
  let sys, result, _ = run_items items in
  check_halted result;
  Alcotest.(check int) "mul" (1234567 * 891 land 0xFFFFFFFF)
    (Machine.reg_int sys.m a2);
  Alcotest.(check int) "div" (1234567 / 891) (Machine.reg_int sys.m t0);
  Alcotest.(check int) "rem" (1234567 mod 891) (Machine.reg_int sys.m a1)

let test_loads_stores () =
  let items =
    [
      (* Derive a pointer into the data region from cgp. *)
      Asm.I (Insn.Cmove (t0, gp));
      Asm.Li (a0, 0xfedcba98);
      Asm.I (Insn.Store { width = W; rs2 = a0; rs1 = t0; off = 16 });
      Asm.I (Insn.Load { signed = true; width = W; rd = a1; rs1 = t0; off = 16 });
      Asm.I (Insn.Load { signed = true; width = B; rd = a2; rs1 = t0; off = 19 });
      Asm.I (Insn.Load { signed = false; width = H; rd = a0; rs1 = t0; off = 16 });
      Asm.I Insn.Ebreak;
    ]
  in
  let sys, result, _ = run_items items in
  check_halted result;
  Alcotest.(check int) "lw" 0xfedcba98 (Machine.reg_int sys.m a1);
  Alcotest.(check int) "lb sign" 0xFFFFFFFE (Machine.reg_int sys.m a2);
  Alcotest.(check int) "lhu" 0xba98 (Machine.reg_int sys.m a0)

let test_cap_roundtrip_and_tag_clobber () =
  let items =
    [
      (* store csp through the data cap (csp is local: use stack instead) *)
      Asm.I (Insn.Csc (gp, sp, -8));
      Asm.I (Insn.Clc (a0, sp, -8));
      Asm.I (Insn.Cget (Tag, a1, a0));
      (* clobber half the granule with a data write, reload: tag gone *)
      Asm.Li (t0, 0x1234);
      Asm.I (Insn.Store { width = W; rs2 = t0; rs1 = sp; off = -8 });
      Asm.I (Insn.Clc (a2, sp, -8));
      Asm.I (Insn.Cget (Tag, a2, a2));
      Asm.I Insn.Ebreak;
    ]
  in
  let sys, result, _ = run_items items in
  check_halted result;
  Alcotest.(check int) "tag preserved" 1 (Machine.reg_int sys.m a1);
  Alcotest.(check int) "tag cleared by data write" 0 (Machine.reg_int sys.m a2)

let test_oob_load_traps () =
  (* A load outside the data cap bounds must trap; with no handler
     installed this is a double fault and mcause records the CHERI code. *)
  let items =
    [
      Asm.I (Insn.Cmove (t0, gp));
      Asm.I (Insn.Csetboundsimm (t0, t0, 16));
      Asm.I (Insn.Load { signed = true; width = W; rd = a0; rs1 = t0; off = 16 });
      Asm.I Insn.Ebreak;
    ]
  in
  let sys, result, _ = run_items items in
  (match result with
  | Machine.Step_double_fault -> ()
  | _ -> Alcotest.fail "expected double fault (no handler)");
  Alcotest.(check int) "mcause = CHERI" 28 sys.m.Machine.mcause;
  Alcotest.(check int) "cheri cause = bounds" 0x01 (sys.m.Machine.mtval lsr 5)

(* A [CSetBounds] of at most 511 bytes is exact at exponent 0, so its
   rounded region is the requested one: it must still lie within the
   old bounds.  Narrowed to 16 bytes, a 32-byte request traps with the
   bounds cause, and so does a 16-byte one from 8 bytes in. *)
let test_short_setbounds_traps () =
  List.iter
    (fun (what, off, len) ->
      let items =
        [
          Asm.I (Insn.Csetboundsimm (t0, gp, 16));
          Asm.I (Insn.Cincaddrimm (t0, t0, off));
          Asm.I (Insn.Csetboundsimm (a1, t0, len));
          Asm.I Insn.Ebreak;
        ]
      in
      let sys, result, _ = run_items items in
      (match result with
      | Machine.Step_double_fault -> ()
      | _ -> Alcotest.failf "%s: expected a double fault (no handler)" what);
      Alcotest.(check int) (what ^ ": mcause = CHERI") 28 sys.m.Machine.mcause;
      Alcotest.(check int) (what ^ ": cheri cause = bounds") 0x01
        (sys.m.Machine.mtval lsr 5))
    [ ("past the top", 0, 32); ("from inside, past the top", 8, 16) ]

let test_untagged_deref_traps () =
  let items =
    [
      Asm.Li (t0, data_base);
      Asm.I (Insn.Load { signed = true; width = W; rd = a0; rs1 = t0; off = 0 });
      Asm.I Insn.Ebreak;
    ]
  in
  let sys, result, _ = run_items items in
  (match result with
  | Machine.Step_double_fault -> ()
  | _ -> Alcotest.fail "expected double fault");
  Alcotest.(check int) "cheri cause = tag" 0x02 (sys.m.Machine.mtval lsr 5)

let test_wx_enforcement () =
  (* Storing through the PCC (executable) must fail: permit-store. *)
  let items =
    [
      Asm.I (Insn.Auipcc (t0, 0));
      Asm.I (Insn.Store { width = W; rs2 = a0; rs1 = t0; off = 0 });
      Asm.I Insn.Ebreak;
    ]
  in
  let sys, result, _ = run_items items in
  (match result with
  | Machine.Step_double_fault -> ()
  | _ -> Alcotest.fail "expected double fault");
  Alcotest.(check int) "cheri cause = permit-store" 0x13
    (sys.m.Machine.mtval lsr 5)

let test_store_local_check () =
  (* csp is local (no GL).  Storing it through the data cap (no SL) must
     trap permit-store-local; storing through the stack cap (has SL) is
     fine — that is the scoped-delegation mechanism of 5.2. *)
  let items =
    [ Asm.I (Insn.Csc (sp, gp, 0)); Asm.I Insn.Ebreak ]
  in
  let sys, result, _ = run_items items in
  (match result with
  | Machine.Step_double_fault -> ()
  | _ -> Alcotest.fail "expected double fault");
  Alcotest.(check int) "cheri cause = store-local" 0x16
    (sys.m.Machine.mtval lsr 5);
  let items2 = [ Asm.I (Insn.Csc (sp, sp, -8)); Asm.I Insn.Ebreak ] in
  let _, result2, _ = run_items items2 in
  check_halted result2

let test_load_attenuation_lg () =
  (* Drop LG from the stack cap, store a global cap, reload through the
     attenuated authority: the loaded cap must have lost GL and LG. *)
  let items =
    [
      Asm.I (Insn.Csc (gp, sp, -8));
      (* t0 = csp without LG: perm mask = all minus LG(bit1) *)
      Asm.Li (a0, 0xfff land lnot 0x2);
      Asm.I (Insn.Candperm (t0, sp, a0));
      Asm.I (Insn.Clc (a1, t0, -8));
      Asm.I (Insn.Cget (Perm, a2, a1));
      Asm.I Insn.Ebreak;
    ]
  in
  let sys, result, _ = run_items items in
  check_halted result;
  let perms = Perm.Set.of_arch_bits (Machine.reg_int sys.m a2) in
  Alcotest.(check bool) "GL cleared" false (Perm.Set.mem GL perms);
  Alcotest.(check bool) "LG cleared" false (Perm.Set.mem LG perms);
  Alcotest.(check bool) "LD kept" true (Perm.Set.mem LD perms)

let test_load_filter () =
  (* Paint the revocation bit under a heap object; loading a cap to it
     strips the tag (3.3.2). *)
  let items =
    [
      (* store heap cap (c4, bounded to one object) to stack *)
      Asm.I (Insn.Csetboundsimm (t0, 4, 64));
      Asm.I (Insn.Csc (t0, sp, -8));
      Asm.I (Insn.Clc (a0, sp, -8));
      Asm.I (Insn.Cget (Tag, a0, a0));
      Asm.I Insn.Ebreak;
    ]
  in
  (* First run: not revoked, tag survives. *)
  let sys, result, _ = run_items items in
  check_halted result;
  Alcotest.(check int) "tag before revocation" 1 (Machine.reg_int sys.m a0);
  (* Second run: paint the granule first. *)
  let sys2 = make_sys () in
  let img = Asm.assemble ~origin:code_base items in
  Asm.load img sys2.sram;
  setup_regs sys2;
  Revbits.paint sys2.rev ~addr:heap_base ~len:64;
  let result2, _ = Machine.run sys2.m in
  check_halted result2;
  Alcotest.(check int) "tag stripped" 0 (Machine.reg_int sys2.m a0);
  (* Third run: filter disabled -> stale cap survives (the ablation). *)
  let sys3 = make_sys ~load_filter:false () in
  Asm.load img sys3.sram;
  setup_regs sys3;
  Revbits.paint sys3.rev ~addr:heap_base ~len:64;
  let result3, _ = Machine.run sys3.m in
  check_halted result3;
  Alcotest.(check int) "no filter: tag survives" 1 (Machine.reg_int sys3.m a0);
  (* The filter indexes the bitmap with the loaded capability's base,
     not its address: an interior pointer into a freed object loses its
     tag though its address's granule is not painted, and a pointer
     into a live object keeps it though its address's granule is. *)
  let interior =
    Asm.assemble ~origin:code_base
      (Asm.I (Insn.Csetboundsimm (t0, 4, 64))
      :: Asm.I (Insn.Cincaddrimm (t0, t0, 32))
      :: List.tl items)
  in
  let run_painted addr =
    let sys = make_sys () in
    Asm.load interior sys.sram;
    setup_regs sys;
    Revbits.paint sys.rev ~addr ~len:8;
    let result, _ = Machine.run sys.m in
    check_halted result;
    Machine.reg_int sys.m a0
  in
  Alcotest.(check int) "interior pointer, base granule painted: stripped" 0
    (run_painted heap_base);
  Alcotest.(check int) "interior pointer, address granule painted: kept" 1
    (run_painted (heap_base + 32))

let test_sentry_interrupt_control () =
  (* Jump through a disable-interrupts sentry; check MIE drops and the
     link register is a return sentry; returning restores posture. *)
  let items =
    [
      (* enable interrupts via mstatus *)
      Asm.Li (t0, 8);
      Asm.I (Insn.Csr (Csrrs, 0, t0, Csr.mstatus));
      (* build a disabling sentry for "func" by asking the harness: the
         switcher would do this; here we jump to an address-only target
         through a pre-sealed cap in c5 (installed below). *)
      Asm.I (Insn.Jalr (Insn.reg_ra, 9, 0));
      Asm.I Insn.Ebreak;
      Asm.Label "func";
      (* record mstatus inside the callee *)
      Asm.I (Insn.Csr (Csrrs, a0, 0, Csr.mstatus));
      Asm.Ret;
    ]
  in
  let sys = make_sys () in
  let img = Asm.assemble ~origin:code_base items in
  Asm.load img sys.sram;
  setup_regs sys;
  let func = Asm.label img "func" in
  let target = Capability.with_address sys.m.Machine.pcc func in
  (match Capability.seal_sentry target Otype.Sentry_disable with
  | Ok s -> Machine.set_reg sys.m 9 s
  | Error e -> Alcotest.fail e);
  let result, _ = Machine.run sys.m in
  check_halted result;
  Alcotest.(check int) "interrupts disabled in callee" 0
    (Machine.reg_int sys.m a0 land 8);
  Alcotest.(check bool) "posture restored on return" true sys.m.Machine.mie

let test_sentry_untagged_jalr_traps () =
  let items = [ Asm.I (Insn.Jalr (Insn.reg_ra, 9, 0)); Asm.I Insn.Ebreak ] in
  let sys, result, _ = run_items items in
  (match result with
  | Machine.Step_double_fault -> ()
  | _ -> Alcotest.fail "expected double fault");
  Alcotest.(check int) "cheri cause = tag" 0x02 (sys.m.Machine.mtval lsr 5)

let test_stack_high_water_mark () =
  (* Program the HWM CSRs, do stores at descending addresses, check the
     mark tracks the lowest store (5.2.1). *)
  let items =
    [
      Asm.Li (t0, stack_base);
      Asm.I (Insn.Csr (Csrrw, 0, t0, Csr.mshwmb));
      Asm.Li (t0, stack_base + stack_size);
      Asm.I (Insn.Csr (Csrrw, 0, t0, Csr.mshwm));
      Asm.I (Insn.Store { width = W; rs2 = a0; rs1 = sp; off = -64 });
      Asm.I (Insn.Store { width = W; rs2 = a0; rs1 = sp; off = -256 });
      Asm.I (Insn.Store { width = W; rs2 = a0; rs1 = sp; off = -128 });
      Asm.I (Insn.Csr (Csrrs, a1, 0, Csr.mshwm));
      Asm.I Insn.Ebreak;
    ]
  in
  let sys, result, _ = run_items items in
  check_halted result;
  Alcotest.(check int) "hwm = lowest store (8-aligned)"
    ((stack_base + stack_size - 256) land lnot 7)
    (Machine.reg_int sys.m a1)

let test_csr_requires_sr () =
  (* Drop SR from the PCC: CSR writes must trap. *)
  let items =
    [
      Asm.Li (t0, 0xfff land lnot 0x100);
      (* can't candperm the PCC directly; jump through an attenuated cap *)
      Asm.I (Insn.Auipcc (a0, 0));
      Asm.I (Insn.Candperm (a0, a0, t0));
      Asm.I (Insn.Cincaddrimm (a0, a0, 16));
      Asm.I (Insn.Jalr (0, a0, 0));
      Asm.Label "nosr";
      Asm.I (Insn.Csr (Csrrw, 0, t0, Csr.mshwmb));
      Asm.I Insn.Ebreak;
    ]
  in
  let sys, result, _ = run_items items in
  (match result with
  | Machine.Step_double_fault -> ()
  | _ -> Alcotest.fail "expected double fault");
  Alcotest.(check int) "cause = access-system-registers" 0x18
    (sys.m.Machine.mtval lsr 5)

let test_seal_unseal_insns () =
  let items =
    [
      (* c5 := sealing key with otype 3 (installed by harness) *)
      Asm.I (Insn.Csetboundsimm (t0, 4, 32));
      Asm.I (Insn.Cseal (a0, t0, 9));
      Asm.I (Insn.Cget (Type, a1, a0));
      (* dereferencing a sealed cap must trap; just unseal and load *)
      Asm.I (Insn.Cunseal (a2, a0, 9));
      Asm.I (Insn.Cget (Type, Insn.reg_a3, a2));
      Asm.I Insn.Ebreak;
    ]
  in
  let sys = make_sys () in
  let img = Asm.assemble ~origin:code_base items in
  Asm.load img sys.sram;
  setup_regs sys;
  Machine.set_reg sys.m 9 (Capability.with_address Capability.root_sealing 3);
  let result, _ = Machine.run sys.m in
  check_halted result;
  Alcotest.(check int) "sealed otype" 3 (Machine.reg_int sys.m a1);
  Alcotest.(check int) "unsealed otype" 0 (Machine.reg_int sys.m Insn.reg_a3)

let test_timer_interrupt () =
  (* Install a trap handler that halts; enable timer; spin.  The handler
     must run with interrupts disabled and mepcc pointing at the loop. *)
  let items =
    [
      Asm.Li (t0, 50);
      Asm.I (Insn.Csr (Csrrw, 0, t0, Csr.mtimecmp));
      Asm.Li (t0, 8);
      Asm.I (Insn.Csr (Csrrs, 0, t0, Csr.mstatus));
      Asm.Label "spin";
      Asm.J (0, "spin");
      Asm.Label "handler";
      Asm.I Insn.Ebreak;
    ]
  in
  let sys = make_sys () in
  let img = Asm.assemble ~origin:code_base items in
  Asm.load img sys.sram;
  setup_regs sys;
  sys.m.Machine.mtcc <-
    Capability.with_address sys.m.Machine.pcc (Asm.label img "handler");
  (* The timer compares against mcycle, which the perf harness advances;
     here advance it manually per step. *)
  let rec go fuel =
    if fuel = 0 then Alcotest.fail "timer never fired"
    else begin
      sys.m.Machine.mcycle <- sys.m.Machine.mcycle + 1;
      match Machine.step sys.m with
      | Machine.Step_halted -> ()
      | Machine.Step_double_fault -> Alcotest.fail "double fault"
      | _ -> go (fuel - 1)
    end
  in
  go 1000;
  Alcotest.(check bool) "interrupts off in handler" false sys.m.Machine.mie;
  Alcotest.(check int) "mcause = timer" (0x8000_0000 lor 7)
    sys.m.Machine.mcause

let test_rv32_mode () =
  (* The baseline mode runs the same binary encodings with integer
     semantics and an implicit DDC. *)
  let items =
    [
      Asm.Li (t0, data_base);
      Asm.Li (a0, 42);
      Asm.I (Insn.Store { width = W; rs2 = a0; rs1 = t0; off = 0 });
      Asm.I (Insn.Load { signed = true; width = W; rd = a1; rs1 = t0; off = 0 });
      Asm.I Insn.Ebreak;
    ]
  in
  let sys, result, _ = run_items ~mode:Machine.Rv32 items in
  check_halted result;
  Alcotest.(check int) "rv32 load/store" 42 (Machine.reg_int sys.m a1)

let test_rv32_rejects_cap_insns () =
  let items = [ Asm.I (Insn.Cmove (t0, gp)); Asm.I Insn.Ebreak ] in
  let sys, result, _ = run_items ~mode:Machine.Rv32 items in
  (match result with
  | Machine.Step_double_fault -> ()
  | _ -> Alcotest.fail "expected double fault");
  Alcotest.(check int) "illegal instruction" 2 sys.m.Machine.mcause

let test_mret_roundtrip () =
  (* Take an ecall trap, handler mrets back; resumed code runs. *)
  let items =
    [
      Asm.I Insn.Ecall;
      Asm.I (Insn.Op_imm (Add, a0, 0, 7));
      Asm.I Insn.Ebreak;
      Asm.Label "handler";
      (* skip the ecall: mepcc += 4 *)
      Asm.I (Insn.Cspecialrw (t0, MEPCC, 0));
      Asm.I (Insn.Cincaddrimm (t0, t0, 4));
      Asm.I (Insn.Cspecialrw (0, MEPCC, t0));
      Asm.I Insn.Mret;
    ]
  in
  let sys = make_sys () in
  let img = Asm.assemble ~origin:code_base items in
  Asm.load img sys.sram;
  setup_regs sys;
  sys.m.Machine.mtcc <-
    Capability.with_address sys.m.Machine.pcc (Asm.label img "handler");
  let result, _ = Machine.run sys.m in
  check_halted result;
  Alcotest.(check int) "resumed after mret" 7 (Machine.reg_int sys.m a0)

(* --- the word register file ----------------------------------------- *)

(* The machine holds every register as two immediates — its word (the
   tag and the Fig. 1 metadata) and its address — and runs the
   capability instructions on them.  The property drives random
   interleavings over all 16 registers — [set_reg] with tagged,
   untagged-with-metadata and null capabilities, [set_reg_int] with
   values far outside 32 bits, runs of the register-writing
   instructions the jit executes inline (ALU, [Lui], [Cmove],
   [Cincaddr], [Cincaddrimm], [Csetaddr], [Candperm], [Ccleartag],
   [Cget]), and a word load, a capability load and store, and a bounds
   narrowing through a freshly installed authority — against a plain
   [Capability.t array] model that runs the [Capability] API, beside a model
   of the capability slots in memory.  After every step [reg] and
   [reg_int] must read the model, c0 must read [Capability.null]
   itself, and [state_hash] must equal the hash of a second machine
   whose registers were all written from the model with [set_reg] and
   whose capability slots were written from the memory model. *)

module Boot = Cheriot_proptest.Boot

type rf_step =
  | Set_cap of int * Capability.t
  | Set_int of int * int
  | Run of Insn.t list  (** executed by the jit as one run *)
  | Load_via of int * int * int
      (** [(rb, rd, k)]: install the data capability in [rb], then the
          jit runs [lw rd, 4k(rb)] *)
  | Clc_via of int * int * int * int
      (** [(rb, rd, k, a)]: install slot authority [a] in [rb], then
          the jit runs [clc rd, 8k(rb)] *)
  | Csc_via of int * int * int
      (** [(rb, rs2, k)]: install the slot authority in [rb], then the
          jit runs [csc rs2, 8k(rb)] *)
  | Bounds_via of int * int * int * int
      (** [(rb, cd, off, len)]: install the data capability in [rb],
          then the jit runs [cincaddrimm rb, rb, off] and
          [csetboundsimm cd, rb, len], which stays within its bounds *)

let rf_words = 64
let rf_pattern k = (0x9E37_79B9 * (k + 1)) land 0xFFFF_FFFF

let rf_data_cap =
  Capability.set_bounds
    (Capability.with_address Capability.root_mem_rw Boot.data_base)
    ~length:(4 * rf_words) ~exact:false

(* Sixteen capability slots after the word pattern, and the
   authorities a load may go through: without LG and without LM, a
   load attenuates what it loads. *)
let rf_slots = 16
let rf_slot_base = Boot.data_base + 0x400
let rf_slot_addr k = rf_slot_base + (8 * k)

let rf_slot_cap =
  Capability.set_bounds
    (Capability.with_address Capability.root_mem_rw rf_slot_base)
    ~length:(8 * rf_slots) ~exact:false

let rf_authorities =
  [|
    rf_slot_cap;
    Capability.clear_perms rf_slot_cap [ LG ];
    Capability.clear_perms rf_slot_cap [ LM ];
    Capability.clear_perms rf_slot_cap [ LG; LM ];
  |]

let rf_slot_init k =
  let ok = function Ok c -> c | Error e -> failwith e in
  match k mod 8 with
  | 0 -> rf_data_cap
  | 1 -> Capability.with_address Capability.root_executable (0x100 * k)
  | 2 ->
      ok
        (Capability.seal rf_data_cap
           ~key:(Capability.with_address Capability.root_sealing 3))
  | 3 ->
      ok
        (Capability.seal_sentry
           (Capability.with_address Capability.root_executable 0x40)
           Otype.Sentry_enable)
  | 4 -> Capability.clear_tag rf_data_cap
  | 5 -> { Capability.null with addr = 0x1234 * k }
  | 6 -> Capability.clear_perms rf_data_cap [ GL ]
  | _ -> Capability.null

let rf_load rb rd k =
  Insn.Load { signed = false; width = W; rd; rs1 = rb; off = 4 * k }

let rf_step_insns = function
  | Run is -> is
  | Load_via (rb, rd, k) -> [ rf_load rb rd k ]
  | Clc_via (rb, rd, k, _) -> [ Insn.Clc (rd, rb, 8 * k) ]
  | Csc_via (rb, rs2, k) -> [ Insn.Csc (rs2, rb, 8 * k) ]
  | Bounds_via (rb, cd, off, len) ->
      [ Insn.Cincaddrimm (rb, rb, off); Insn.Csetboundsimm (cd, rb, len) ]
  | Set_cap _ | Set_int _ -> []

let gen_rf_cap =
  let open QCheck.Gen in
  let tagged =
    let* root =
      oneofl Capability.[ root_mem_rw; root_executable; root_sealing ]
    and* base = int_bound 0xFFFF
    and* length = int_bound 0x1000
    and* off = int_bound 0x40 in
    let c =
      Capability.set_bounds
        (Capability.with_address root (base * 16))
        ~length ~exact:false
    in
    return (Capability.incr_address c off)
  in
  frequency
    [
      (3, tagged);
      (2, map Capability.clear_tag tagged);
      (1, return Capability.null);
      ( 1,
        map (fun addr -> { Capability.null with addr }) (int_bound 0xFFFF_FFFF)
      );
    ]

let gen_rf_int =
  let open QCheck.Gen in
  oneof
    [
      int_bound 0xFFFF_FFFF;
      map (fun v -> v lsl 24) (int_bound 0xFFFF_FFFF);
      map (fun v -> -v) (int_bound 0xFFFF);
      oneofl [ -1; min_int; max_int; 0x1_0000_0000 ];
    ]

let gen_rf_insn =
  let open QCheck.Gen in
  let reg = int_bound 15 in
  let imm12 = map (fun n -> n - 2048) (int_bound 4095) in
  oneof
    [
      map2 (fun rd i -> Insn.Lui (rd, i)) reg (int_bound 0xfffff);
      (let* op = oneofl Insn.[ Add; Xor; Or; And ] and* rd = reg
       and* rs1 = reg and* i = imm12 in
       return (Insn.Op_imm (op, rd, rs1, i)));
      (let* op = oneofl Insn.[ Add; Sub; Xor; Or; And ] and* rd = reg
       and* rs1 = reg and* rs2 = reg in
       return (Insn.Op (op, rd, rs1, rs2)));
      map2 (fun cd cs1 -> Insn.Cmove (cd, cs1)) reg reg;
      map3 (fun cd cs1 i -> Insn.Cincaddrimm (cd, cs1, i)) reg reg imm12;
      map3 (fun cd cs1 rs2 -> Insn.Cincaddr (cd, cs1, rs2)) reg reg reg;
      map3 (fun cd cs1 rs2 -> Insn.Csetaddr (cd, cs1, rs2)) reg reg reg;
      map3 (fun cd cs1 rs2 -> Insn.Candperm (cd, cs1, rs2)) reg reg reg;
      map2 (fun cd cs1 -> Insn.Ccleartag (cd, cs1)) reg reg;
      (let* g = oneofl Insn.[ Addr; Base; Top; Len; Perm; Type; Tag ]
       and* rd = reg and* cs1 = reg in
       return (Insn.Cget (g, rd, cs1)));
    ]

let gen_rf_step =
  let open QCheck.Gen in
  let reg = int_bound 15 and rb = int_range 1 15 in
  frequency
    [
      (3, map2 (fun r c -> Set_cap (r, c)) reg gen_rf_cap);
      (3, map2 (fun r v -> Set_int (r, v)) reg gen_rf_int);
      (4, map (fun is -> Run is) (list_size (int_range 1 4) gen_rf_insn));
      (1, map3 (fun rb rd k -> Load_via (rb, rd, k)) rb reg
            (int_bound (rf_words - 1)));
      ( 1,
        let* rb = rb and* rd = reg and* k = int_bound (rf_slots - 1)
        and* a = int_bound (Array.length rf_authorities - 1) in
        return (Clc_via (rb, rd, k, a)) );
      (1, map3 (fun rb rs2 k -> Csc_via (rb, rs2, k)) rb reg
            (int_bound (rf_slots - 1)));
      ( 1,
        let* rb = rb and* cd = reg and* off = int_bound (4 * rf_words - 1) in
        let* len = int_bound (4 * rf_words - off) in
        return (Bounds_via (rb, cd, off, len)) );
    ]

let print_rf_step = function
  | Set_cap (r, c) -> Fmt.str "set_reg c%d %a" r Capability.pp c
  | Set_int (r, v) -> Printf.sprintf "set_reg_int c%d %d" r v
  | Clc_via (_, _, _, a) as st ->
      Printf.sprintf "authority %d: %s" a
        (String.concat "; " (List.map Insn.to_string (rf_step_insns st)))
  | st -> "run [" ^ String.concat "; " (List.map Insn.to_string (rf_step_insns st)) ^ "]"

(* What an integer write leaves in a register, in the model. *)
let rf_int v = { Capability.null with addr = v land 0xFFFF_FFFF }

(* The model's semantics of each instruction the steps run, over the
   register model and the slot model [mem] (slot authority [auth] for
   a capability load). *)
let rf_model_exec ?(auth = rf_slot_cap) (model : Capability.t array) mem
    (i : Insn.t) =
  let a r = model.(r).Capability.addr in
  let alu op x y =
    match op with
    | Insn.Add -> x + y
    | Sub -> x - y
    | Xor -> x lxor y
    | Or -> x lor y
    | And -> x land y
    | _ -> invalid_arg "rf_model_exec"
  in
  let write rd c = if rd <> 0 then model.(rd) <- c in
  match i with
  | Insn.Lui (rd, imm) -> write rd (rf_int (imm lsl 12))
  | Op_imm (op, rd, rs1, imm) ->
      write rd (rf_int (alu op (a rs1) (imm land 0xFFFF_FFFF)))
  | Op (op, rd, rs1, rs2) -> write rd (rf_int (alu op (a rs1) (a rs2)))
  | Cmove (cd, cs1) -> write cd model.(cs1)
  | Cincaddrimm (cd, cs1, imm) ->
      write cd (Capability.incr_address model.(cs1) imm)
  | Cincaddr (cd, cs1, rs2) ->
      write cd (Capability.incr_address model.(cs1) (a rs2))
  | Csetaddr (cd, cs1, rs2) ->
      write cd (Capability.with_address model.(cs1) (a rs2))
  | Candperm (cd, cs1, rs2) ->
      write cd
        (Capability.and_perms model.(cs1) (Perm.Set.of_arch_bits (a rs2)))
  | Ccleartag (cd, cs1) -> write cd (Capability.clear_tag model.(cs1))
  | Csetboundsimm (cd, cs1, len) ->
      write cd (Capability.set_bounds model.(cs1) ~length:len ~exact:false)
  | Cget (g, rd, cs1) ->
      let c = model.(cs1) in
      write rd
        (rf_int
           (match g with
           | Addr -> Capability.address c
           | Base -> Capability.base c
           | Top -> Int.min (Capability.top c) 0xFFFF_FFFF
           | Len -> Int.min (Capability.length c) 0xFFFF_FFFF
           | Perm -> Perm.Set.to_arch_bits (Capability.perms c)
           | Type -> Otype.value (Capability.otype c)
           | Tag -> if (Capability.tag c) then 1 else 0))
  | Load { rd; off; _ } -> write rd (rf_int (rf_pattern (off / 4)))
  | Clc (rd, _, off) ->
      write rd (Capability.load_attenuate ~authority:auth mem.(off / 8))
  | Csc (rs2, _, off) -> mem.(off / 8) <- model.(rs2)
  | _ -> invalid_arg "rf_model_exec"

let prop_word_register_file =
  QCheck.Test.make ~name:"word register file reads as a capability array"
    ~count:(Cheriot_proptest.Iters.count ~default:200)
    (QCheck.make
       ~print:(fun steps -> String.concat "\n" (List.map print_rf_step steps))
       QCheck.Gen.(list_size (int_range 1 40) gen_rf_step))
    (fun steps ->
      let code = List.concat_map rf_step_insns steps in
      let write_slot (f : Boot.flat) k c =
        Sram.write_cap f.Boot.data (rf_slot_addr k) c
      in
      let boot () =
        let f = Boot.flat (List.map Encode.encode (code @ [ Insn.Ebreak ])) in
        for k = 0 to rf_words - 1 do
          Sram.write32 f.Boot.data (Boot.data_base + (4 * k)) (rf_pattern k)
        done;
        for k = 0 to rf_slots - 1 do
          write_slot f k (rf_slot_init k)
        done;
        f
      in
      let f = boot () and shadow = boot () in
      let m = f.Boot.m in
      m.Machine.hot_threshold <- 1;
      m.Machine.hot_adaptive <- false;
      let model = Array.init 16 (fun r -> Machine.reg m r) in
      let mem = Array.init rf_slots rf_slot_init in
      let run ?auth is =
        let n = List.length is in
        match Machine.run ~fuel:n ~dispatch:Machine.Dispatch_jit m with
        | Machine.Step_ok, used when used = n ->
            List.iter (rf_model_exec ?auth model mem) is
        | _ ->
            QCheck.Test.fail_report
              "the jit run did not retire its instructions"
      in
      let install rb c =
        Machine.set_reg m rb c;
        model.(rb) <- c
      in
      List.for_all
        (fun step ->
          (match step with
          | Set_cap (r, c) ->
              Machine.set_reg m r c;
              if r <> 0 then model.(r) <- c
          | Set_int (r, v) ->
              Machine.set_reg_int m r v;
              if r <> 0 then model.(r) <- rf_int v
          | Run is -> run is
          | Load_via (rb, _, _) | Bounds_via (rb, _, _, _) ->
              install rb rf_data_cap;
              run (rf_step_insns step)
          | Clc_via (rb, _, _, a) ->
              install rb rf_authorities.(a);
              run ~auth:rf_authorities.(a) (rf_step_insns step)
          | Csc_via (rb, _, _) ->
              install rb rf_slot_cap;
              run (rf_step_insns step));
          for r = 1 to 15 do
            Machine.set_reg shadow.Boot.m r model.(r)
          done;
          Array.iteri (write_slot shadow) mem;
          shadow.Boot.m.Machine.pcc <- m.Machine.pcc;
          shadow.Boot.m.Machine.minstret <- m.Machine.minstret;
          Machine.reg m 0 == Capability.null
          && Machine.reg_int m 0 = 0
          && List.for_all
               (fun r ->
                 Capability.equal (Machine.reg m r) model.(r)
                 && Machine.reg_int m r = model.(r).Capability.addr)
               (List.init 16 Fun.id)
          && Machine.state_hash m = Machine.state_hash shadow.Boot.m)
        steps)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    q prop_encode_decode;
    q prop_decode_total;
    Alcotest.test_case "exhaustive encode/decode roundtrip" `Quick
      test_exhaustive_roundtrip;
    Alcotest.test_case "ALU + branch loop" `Quick test_alu_loop;
    Alcotest.test_case "mul/div" `Quick test_muldiv;
    Alcotest.test_case "loads/stores + sign extension" `Quick
      test_loads_stores;
    Alcotest.test_case "cap store/load + tag clobber" `Quick
      test_cap_roundtrip_and_tag_clobber;
    Alcotest.test_case "out-of-bounds load traps" `Quick test_oob_load_traps;
    Alcotest.test_case "short csetbounds beyond the old bounds traps" `Quick
      test_short_setbounds_traps;
    Alcotest.test_case "untagged dereference traps" `Quick
      test_untagged_deref_traps;
    Alcotest.test_case "W^X: store via PCC traps" `Quick test_wx_enforcement;
    Alcotest.test_case "store-local enforcement" `Quick test_store_local_check;
    Alcotest.test_case "LG load attenuation" `Quick test_load_attenuation_lg;
    Alcotest.test_case "hardware load filter" `Quick test_load_filter;
    Alcotest.test_case "sentry interrupt control" `Quick
      test_sentry_interrupt_control;
    Alcotest.test_case "jalr of untagged cap traps" `Quick
      test_sentry_untagged_jalr_traps;
    Alcotest.test_case "stack high water mark" `Quick
      test_stack_high_water_mark;
    Alcotest.test_case "CSR access requires SR" `Quick test_csr_requires_sr;
    Alcotest.test_case "cseal/cunseal instructions" `Quick
      test_seal_unseal_insns;
    Alcotest.test_case "timer interrupt + handler" `Quick test_timer_interrupt;
    Alcotest.test_case "rv32 baseline mode" `Quick test_rv32_mode;
    Alcotest.test_case "rv32 rejects cap instructions" `Quick
      test_rv32_rejects_cap_insns;
    Alcotest.test_case "ecall trap + mret" `Quick test_mret_roundtrip;
    q prop_word_register_file;
  ]
