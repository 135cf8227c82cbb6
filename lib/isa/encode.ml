(** Binary instruction encoding.

    The RV32EM base uses the standard RISC-V encodings.  The CHERIoT
    capability extension lives in major opcode [0x5B] (the CHERI opcode
    space); the paper does not specify encodings, so the funct7/funct3
    assignments below are this implementation's (documented, stable, and
    round-trip tested):

    - funct3=0, R-type, funct7 selects the three-register operation;
      funct7=0x7f is the one-operand group with the selector in rs2.
    - funct3=1: [Cincaddrimm] (signed 12-bit immediate).
    - funct3=2: [Csetboundsimm] (unsigned 12-bit immediate).
    - [Clc]/[Csc] use the LOAD/STORE major opcodes with funct3=3 (the
      RV64 ld/sd slots, free on RV32).

    All encoders raise [Invalid_argument] when an immediate does not fit;
    the assembler is responsible for range-legal code. *)

let mask n v = v land ((1 lsl n) - 1)

let check_signed name bits v =
  if v < -(1 lsl (bits - 1)) || v >= 1 lsl (bits - 1) then
    invalid_arg (Printf.sprintf "%s: immediate %d out of %d-bit range" name v bits)

let check_unsigned name bits v =
  if v < 0 || v >= 1 lsl bits then
    invalid_arg (Printf.sprintf "%s: immediate %d out of %d-bit range" name v bits)

let r_type ~funct7 ~rs2 ~rs1 ~funct3 ~rd ~opcode =
  (funct7 lsl 25) lor (mask 5 rs2 lsl 20) lor (mask 5 rs1 lsl 15)
  lor (funct3 lsl 12) lor (mask 5 rd lsl 7) lor opcode

let i_type ~imm ~rs1 ~funct3 ~rd ~opcode =
  (mask 12 imm lsl 20) lor (mask 5 rs1 lsl 15) lor (funct3 lsl 12)
  lor (mask 5 rd lsl 7) lor opcode

let s_type ~imm ~rs2 ~rs1 ~funct3 ~opcode =
  (mask 7 (imm asr 5) lsl 25)
  lor (mask 5 rs2 lsl 20) lor (mask 5 rs1 lsl 15) lor (funct3 lsl 12)
  lor (mask 5 imm lsl 7) lor opcode

let b_type ~imm ~rs2 ~rs1 ~funct3 ~opcode =
  (mask 1 (imm asr 12) lsl 31)
  lor (mask 6 (imm asr 5) lsl 25)
  lor (mask 5 rs2 lsl 20) lor (mask 5 rs1 lsl 15) lor (funct3 lsl 12)
  lor (mask 4 (imm asr 1) lsl 8)
  lor (mask 1 (imm asr 11) lsl 7)
  lor opcode

let u_type ~imm20 ~rd ~opcode = (mask 20 imm20 lsl 12) lor (mask 5 rd lsl 7) lor opcode

let j_type ~imm ~rd ~opcode =
  (mask 1 (imm asr 20) lsl 31)
  lor (mask 10 (imm asr 1) lsl 21)
  lor (mask 1 (imm asr 11) lsl 20)
  lor (mask 8 (imm asr 12) lsl 12)
  lor (mask 5 rd lsl 7) lor opcode

let op_lui = 0x37
let op_auipc = 0x17
let op_jal = 0x6F
let op_jalr = 0x67
let op_branch = 0x63
let op_load = 0x03
let op_store = 0x23
let op_imm = 0x13
let op_op = 0x33
let op_system = 0x73
let op_cheri = 0x5B

let branch_funct3 : Insn.branch_cond -> int = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 4
  | Ge -> 5
  | Ltu -> 6
  | Geu -> 7

let alu_funct3 : Insn.alu -> int = function
  | Add | Sub -> 0
  | Sll -> 1
  | Slt -> 2
  | Sltu -> 3
  | Xor -> 4
  | Srl | Sra -> 5
  | Or -> 6
  | And -> 7

let muldiv_funct3 : Insn.muldiv -> int = function
  | Mul -> 0
  | Mulh -> 1
  | Mulhsu -> 2
  | Mulhu -> 3
  | Div -> 4
  | Divu -> 5
  | Rem -> 6
  | Remu -> 7

let scr_index : Insn.scr -> int = function
  | MTCC -> 1
  | MTDC -> 2
  | MScratchC -> 3
  | MEPCC -> 4

let scr_of_index = function
  | 1 -> Some Insn.MTCC
  | 2 -> Some Insn.MTDC
  | 3 -> Some Insn.MScratchC
  | 4 -> Some Insn.MEPCC
  | _ -> None

let getter_index : Insn.getter -> int = function
  | Perm -> 0
  | Type -> 1
  | Base -> 2
  | Len -> 3
  | Tag -> 4
  | Top -> 5
  | Addr -> 6

let getter_of_index = function
  | 0 -> Some Insn.Perm
  | 1 -> Some Insn.Type
  | 2 -> Some Insn.Base
  | 3 -> Some Insn.Len
  | 4 -> Some Insn.Tag
  | 5 -> Some Insn.Top
  | 6 -> Some Insn.Addr
  | _ -> None

(* funct7 assignments for the three-register CHERI group. *)
let f7_cspecialrw = 0x01
let f7_csetbounds = 0x08
let f7_csetboundsexact = 0x09
let f7_cseal = 0x0b
let f7_cunseal = 0x0c
let f7_candperm = 0x0d
let f7_csetaddr = 0x10
let f7_cincaddr = 0x11
let f7_csub = 0x14
let f7_ctestsubset = 0x20
let f7_csetequalexact = 0x21
let f7_one_operand = 0x7f

(* rs2 selectors within the one-operand group, above the getters. *)
let sel_crrl = 8
let sel_cram = 9
let sel_cmove = 10
let sel_ccleartag = 11

let encode (i : Insn.t) =
  match i with
  | Lui (rd, imm20) ->
      check_unsigned "lui" 20 imm20;
      u_type ~imm20 ~rd ~opcode:op_lui
  | Auipcc (rd, imm20) ->
      check_unsigned "auipcc" 20 imm20;
      u_type ~imm20 ~rd ~opcode:op_auipc
  | Jal (rd, off) ->
      check_signed "jal" 21 off;
      if off land 1 <> 0 then invalid_arg "jal: misaligned offset";
      j_type ~imm:off ~rd ~opcode:op_jal
  | Jalr (rd, rs1, off) ->
      check_signed "jalr" 12 off;
      i_type ~imm:off ~rs1 ~funct3:0 ~rd ~opcode:op_jalr
  | Branch (c, rs1, rs2, off) ->
      check_signed "branch" 13 off;
      if off land 1 <> 0 then invalid_arg "branch: misaligned offset";
      b_type ~imm:off ~rs2 ~rs1 ~funct3:(branch_funct3 c) ~opcode:op_branch
  | Load { signed; width; rd; rs1; off } ->
      check_signed "load" 12 off;
      let funct3 =
        match (width, signed) with
        | B, true -> 0
        | H, true -> 1
        | W, _ -> 2
        | B, false -> 4
        | H, false -> 5
      in
      i_type ~imm:off ~rs1 ~funct3 ~rd ~opcode:op_load
  | Store { width; rs2; rs1; off } ->
      check_signed "store" 12 off;
      let funct3 = match width with B -> 0 | H -> 1 | W -> 2 in
      s_type ~imm:off ~rs2 ~rs1 ~funct3 ~opcode:op_store
  | Clc (rd, rs1, off) ->
      check_signed "clc" 12 off;
      i_type ~imm:off ~rs1 ~funct3:3 ~rd ~opcode:op_load
  | Csc (rs2, rs1, off) ->
      check_signed "csc" 12 off;
      s_type ~imm:off ~rs2 ~rs1 ~funct3:3 ~opcode:op_store
  | Op_imm (op, rd, rs1, imm) -> (
      match op with
      | Sub -> invalid_arg "subi does not exist"
      | Sll ->
          check_unsigned "slli" 5 imm;
          i_type ~imm ~rs1 ~funct3:1 ~rd ~opcode:op_imm
      | Srl ->
          check_unsigned "srli" 5 imm;
          i_type ~imm ~rs1 ~funct3:5 ~rd ~opcode:op_imm
      | Sra ->
          check_unsigned "srai" 5 imm;
          i_type ~imm:(imm lor 0x400) ~rs1 ~funct3:5 ~rd ~opcode:op_imm
      | Add | Slt | Sltu | Xor | Or | And ->
          check_signed "op-imm" 12 imm;
          i_type ~imm ~rs1 ~funct3:(alu_funct3 op) ~rd ~opcode:op_imm)
  | Op (op, rd, rs1, rs2) ->
      let funct7 = match op with Sub | Sra -> 0x20 | _ -> 0 in
      r_type ~funct7 ~rs2 ~rs1 ~funct3:(alu_funct3 op) ~rd ~opcode:op_op
  | Mul_div (op, rd, rs1, rs2) ->
      r_type ~funct7:1 ~rs2 ~rs1 ~funct3:(muldiv_funct3 op) ~rd ~opcode:op_op
  | Ecall -> i_type ~imm:0 ~rs1:0 ~funct3:0 ~rd:0 ~opcode:op_system
  | Ebreak -> i_type ~imm:1 ~rs1:0 ~funct3:0 ~rd:0 ~opcode:op_system
  | Mret -> i_type ~imm:0x302 ~rs1:0 ~funct3:0 ~rd:0 ~opcode:op_system
  | Wfi -> i_type ~imm:0x105 ~rs1:0 ~funct3:0 ~rd:0 ~opcode:op_system
  | Csr (op, rd, rs1, csr) ->
      check_unsigned "csr" 12 csr;
      let funct3 =
        match op with Csrrw -> 1 | Csrrs -> 2 | Csrrc -> 3
      in
      i_type ~imm:csr ~rs1 ~funct3 ~rd ~opcode:op_system
  | Cincaddrimm (cd, cs1, imm) ->
      check_signed "cincaddrimm" 12 imm;
      i_type ~imm ~rs1:cs1 ~funct3:1 ~rd:cd ~opcode:op_cheri
  | Csetboundsimm (cd, cs1, imm) ->
      check_unsigned "csetboundsimm" 12 imm;
      i_type ~imm ~rs1:cs1 ~funct3:2 ~rd:cd ~opcode:op_cheri
  | Cspecialrw (cd, scr, cs1) ->
      r_type ~funct7:f7_cspecialrw ~rs2:(scr_index scr) ~rs1:cs1 ~funct3:0
        ~rd:cd ~opcode:op_cheri
  | Csetbounds (cd, cs1, rs2) ->
      r_type ~funct7:f7_csetbounds ~rs2 ~rs1:cs1 ~funct3:0 ~rd:cd
        ~opcode:op_cheri
  | Csetboundsexact (cd, cs1, rs2) ->
      r_type ~funct7:f7_csetboundsexact ~rs2 ~rs1:cs1 ~funct3:0 ~rd:cd
        ~opcode:op_cheri
  | Cseal (cd, cs1, cs2) ->
      r_type ~funct7:f7_cseal ~rs2:cs2 ~rs1:cs1 ~funct3:0 ~rd:cd
        ~opcode:op_cheri
  | Cunseal (cd, cs1, cs2) ->
      r_type ~funct7:f7_cunseal ~rs2:cs2 ~rs1:cs1 ~funct3:0 ~rd:cd
        ~opcode:op_cheri
  | Candperm (cd, cs1, rs2) ->
      r_type ~funct7:f7_candperm ~rs2 ~rs1:cs1 ~funct3:0 ~rd:cd
        ~opcode:op_cheri
  | Csetaddr (cd, cs1, rs2) ->
      r_type ~funct7:f7_csetaddr ~rs2 ~rs1:cs1 ~funct3:0 ~rd:cd
        ~opcode:op_cheri
  | Cincaddr (cd, cs1, rs2) ->
      r_type ~funct7:f7_cincaddr ~rs2 ~rs1:cs1 ~funct3:0 ~rd:cd
        ~opcode:op_cheri
  | Csub (rd, cs1, cs2) ->
      r_type ~funct7:f7_csub ~rs2:cs2 ~rs1:cs1 ~funct3:0 ~rd ~opcode:op_cheri
  | Ctestsubset (rd, cs1, cs2) ->
      r_type ~funct7:f7_ctestsubset ~rs2:cs2 ~rs1:cs1 ~funct3:0 ~rd
        ~opcode:op_cheri
  | Csetequalexact (rd, cs1, cs2) ->
      r_type ~funct7:f7_csetequalexact ~rs2:cs2 ~rs1:cs1 ~funct3:0 ~rd
        ~opcode:op_cheri
  | Cget (g, rd, cs1) ->
      r_type ~funct7:f7_one_operand ~rs2:(getter_index g) ~rs1:cs1 ~funct3:0
        ~rd ~opcode:op_cheri
  | Crrl (rd, rs1) ->
      r_type ~funct7:f7_one_operand ~rs2:sel_crrl ~rs1 ~funct3:0 ~rd
        ~opcode:op_cheri
  | Cram (rd, rs1) ->
      r_type ~funct7:f7_one_operand ~rs2:sel_cram ~rs1 ~funct3:0 ~rd
        ~opcode:op_cheri
  | Cmove (cd, cs1) ->
      r_type ~funct7:f7_one_operand ~rs2:sel_cmove ~rs1:cs1 ~funct3:0 ~rd:cd
        ~opcode:op_cheri
  | Ccleartag (cd, cs1) ->
      r_type ~funct7:f7_one_operand ~rs2:sel_ccleartag ~rs1:cs1 ~funct3:0
        ~rd:cd ~opcode:op_cheri

(* Field extraction for decode. *)
let sign_extend bits v =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

let dec_rd w = (w lsr 7) land 0x1f
let dec_rs1 w = (w lsr 15) land 0x1f
let dec_rs2 w = (w lsr 20) land 0x1f
let dec_funct3 w = (w lsr 12) land 0x7
let dec_funct7 w = (w lsr 25) land 0x7f
let dec_i_imm w = sign_extend 12 ((w lsr 20) land 0xfff)

let dec_s_imm w =
  sign_extend 12 ((((w lsr 25) land 0x7f) lsl 5) lor ((w lsr 7) land 0x1f))

let dec_b_imm w =
  sign_extend 13
    ((((w lsr 31) land 1) lsl 12)
    lor (((w lsr 7) land 1) lsl 11)
    lor (((w lsr 25) land 0x3f) lsl 5)
    lor (((w lsr 8) land 0xf) lsl 1))

let dec_j_imm w =
  sign_extend 21
    ((((w lsr 31) land 1) lsl 20)
    lor (((w lsr 12) land 0xff) lsl 12)
    lor (((w lsr 20) land 1) lsl 11)
    lor (((w lsr 21) land 0x3ff) lsl 1))

(* The op of an [OP-IMM] word that is not a shift.  [decode] takes the
   shifts (funct3 1 and 5) first, with their funct7, so every funct3
   left names an op. *)
let alu_of_funct3_i funct3 : Insn.alu =
  match funct3 with
  | 0 -> Add
  | 2 -> Slt
  | 3 -> Sltu
  | 4 -> Xor
  | 6 -> Or
  | _ -> And

let decode w : Insn.t option =
  let opcode = w land 0x7f in
  let rd = dec_rd w and rs1 = dec_rs1 w and rs2 = dec_rs2 w in
  let funct3 = dec_funct3 w and funct7 = dec_funct7 w in
  match opcode with
  | o when o = op_lui -> Some (Lui (rd, (w lsr 12) land 0xfffff))
  | o when o = op_auipc -> Some (Auipcc (rd, (w lsr 12) land 0xfffff))
  | o when o = op_jal -> Some (Jal (rd, dec_j_imm w))
  | o when o = op_jalr && funct3 = 0 -> Some (Jalr (rd, rs1, dec_i_imm w))
  | o when o = op_branch -> (
      let off = dec_b_imm w in
      match funct3 with
      | 0 -> Some (Branch (Eq, rs1, rs2, off))
      | 1 -> Some (Branch (Ne, rs1, rs2, off))
      | 4 -> Some (Branch (Lt, rs1, rs2, off))
      | 5 -> Some (Branch (Ge, rs1, rs2, off))
      | 6 -> Some (Branch (Ltu, rs1, rs2, off))
      | 7 -> Some (Branch (Geu, rs1, rs2, off))
      | _ -> None)
  | o when o = op_load -> (
      let off = dec_i_imm w in
      match funct3 with
      | 0 -> Some (Load { signed = true; width = B; rd; rs1; off })
      | 1 -> Some (Load { signed = true; width = H; rd; rs1; off })
      | 2 -> Some (Load { signed = true; width = W; rd; rs1; off })
      | 3 -> Some (Clc (rd, rs1, off))
      | 4 -> Some (Load { signed = false; width = B; rd; rs1; off })
      | 5 -> Some (Load { signed = false; width = H; rd; rs1; off })
      | _ -> None)
  | o when o = op_store -> (
      let off = dec_s_imm w in
      match funct3 with
      | 0 -> Some (Store { width = B; rs2; rs1; off })
      | 1 -> Some (Store { width = H; rs2; rs1; off })
      | 2 -> Some (Store { width = W; rs2; rs1; off })
      | 3 -> Some (Csc (rs2, rs1, off))
      | _ -> None)
  | o when o = op_imm -> (
      match funct3 with
      | 1 when funct7 = 0 -> Some (Op_imm (Sll, rd, rs1, rs2))
      | 5 when funct7 = 0 -> Some (Op_imm (Srl, rd, rs1, rs2))
      | 5 when funct7 = 0x20 -> Some (Op_imm (Sra, rd, rs1, rs2))
      | 1 | 5 -> None
      | _ -> Some (Op_imm (alu_of_funct3_i funct3, rd, rs1, dec_i_imm w)))
  | o when o = op_op -> (
      if funct7 = 1 then
        let md : Insn.muldiv =
          match funct3 with
          | 0 -> Mul
          | 1 -> Mulh
          | 2 -> Mulhsu
          | 3 -> Mulhu
          | 4 -> Div
          | 5 -> Divu
          | 6 -> Rem
          | _ -> Remu
        in
        Some (Mul_div (md, rd, rs1, rs2))
      else
        match (funct3, funct7) with
        | 0, 0 -> Some (Op (Add, rd, rs1, rs2))
        | 0, 0x20 -> Some (Op (Sub, rd, rs1, rs2))
        | 1, 0 -> Some (Op (Sll, rd, rs1, rs2))
        | 2, 0 -> Some (Op (Slt, rd, rs1, rs2))
        | 3, 0 -> Some (Op (Sltu, rd, rs1, rs2))
        | 4, 0 -> Some (Op (Xor, rd, rs1, rs2))
        | 5, 0 -> Some (Op (Srl, rd, rs1, rs2))
        | 5, 0x20 -> Some (Op (Sra, rd, rs1, rs2))
        | 6, 0 -> Some (Op (Or, rd, rs1, rs2))
        | 7, 0 -> Some (Op (And, rd, rs1, rs2))
        | _ -> None)
  | o when o = op_system -> (
      let imm12 = (w lsr 20) land 0xfff in
      match funct3 with
      | 0 when rd = 0 && rs1 = 0 -> (
          match imm12 with
          | 0 -> Some Ecall
          | 1 -> Some Ebreak
          | 0x302 -> Some Mret
          | 0x105 -> Some Wfi
          | _ -> None)
      | 1 -> Some (Csr (Csrrw, rd, rs1, imm12))
      | 2 -> Some (Csr (Csrrs, rd, rs1, imm12))
      | 3 -> Some (Csr (Csrrc, rd, rs1, imm12))
      | _ -> None)
  | o when o = op_cheri -> (
      match funct3 with
      | 1 -> Some (Cincaddrimm (rd, rs1, dec_i_imm w))
      | 2 -> Some (Csetboundsimm (rd, rs1, (w lsr 20) land 0xfff))
      | 0 -> (
          match funct7 with
          | f when f = f7_cspecialrw ->
              Option.map (fun scr -> Insn.Cspecialrw (rd, scr, rs1))
                (scr_of_index rs2)
          | f when f = f7_csetbounds -> Some (Csetbounds (rd, rs1, rs2))
          | f when f = f7_csetboundsexact ->
              Some (Csetboundsexact (rd, rs1, rs2))
          | f when f = f7_cseal -> Some (Cseal (rd, rs1, rs2))
          | f when f = f7_cunseal -> Some (Cunseal (rd, rs1, rs2))
          | f when f = f7_candperm -> Some (Candperm (rd, rs1, rs2))
          | f when f = f7_csetaddr -> Some (Csetaddr (rd, rs1, rs2))
          | f when f = f7_cincaddr -> Some (Cincaddr (rd, rs1, rs2))
          | f when f = f7_csub -> Some (Csub (rd, rs1, rs2))
          | f when f = f7_ctestsubset -> Some (Ctestsubset (rd, rs1, rs2))
          | f when f = f7_csetequalexact ->
              Some (Csetequalexact (rd, rs1, rs2))
          | f when f = f7_one_operand -> (
              match rs2 with
              | s when s = sel_crrl -> Some (Crrl (rd, rs1))
              | s when s = sel_cram -> Some (Cram (rd, rs1))
              | s when s = sel_cmove -> Some (Cmove (rd, rs1))
              | s when s = sel_ccleartag -> Some (Ccleartag (rd, rs1))
              | s -> Option.map (fun g -> Insn.Cget (g, rd, rs1)) (getter_of_index s))
          | _ -> None)
      | _ -> None)
  | _ -> None
