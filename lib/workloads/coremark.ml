(** A CoreMark-shaped benchmark (paper 7.2.1, Table 3).

    CoreMark's three kernels — linked-list processing, matrix multiply,
    and a CRC/state machine — are emitted by this module as assembly for
    the simulated cores, in two code-generation modes:

    - [Rv32e]: the baseline; pointers are 32-bit integers, memory is
      reached through the implicit full-authority DDC.
    - [Cheriot_caps]: pointers are 64-bit capabilities ([clc]/[csc],
      subject to the load filter), derived pointers get bounds set, and
      the two documented CHERIoT-LLVM bugs are reproduced: (1) address
      arithmetic on capability bases is not folded into load offsets in
      array-of-struct loops, costing an extra [cincaddr] per access, and
      (2) accesses to globals redundantly re-apply bounds even when
      provably in range.

    Function calls model the [-Oz] RV32E reality that drives the Ibex
    numbers: prologues spill the return pointer and a saved register —
    which in capability mode are 8-byte [csc]/[clc] pairs, two bus beats
    each on the 33-bit Ibex bus and subject to the load filter's extra
    load-to-use cycle (7.2.1).

    Both modes compute identical checksums, which the tests verify.
    The score is iterations per million cycles — CoreMark/MHz — scaled
    by one global constant calibrated on the Flute RV32E baseline. *)

open Cheriot_isa
module Sram = Cheriot_mem.Sram
module Bus = Cheriot_mem.Bus
module Revbits = Cheriot_mem.Revbits
module Core_model = Cheriot_uarch.Core_model
module Perf = Cheriot_uarch.Perf

type mode = Rv32e | Cheriot_caps

let code_base = 0x10000
let data_base = 0x20000
let stack_top = 0x3f000

let a0 = Insn.reg_a0
let a1 = Insn.reg_a1
let a2 = Insn.reg_a2
let a3 = Insn.reg_a3
let a4 = Insn.reg_a4
let a5 = Insn.reg_a5
let t0 = Insn.reg_t0
let t1 = Insn.reg_t1
let t2 = Insn.reg_t2
let s0 = Insn.reg_s0
let s1 = Insn.reg_s1
let gp = Insn.reg_gp
let sp = Insn.reg_sp
let ra = Insn.reg_ra

let n_nodes = 24
let list_walks = 6
let mat_n = 6
let crc_bytes = 48

let node_stride = function Rv32e -> 8 | Cheriot_caps -> 16
let list_area = 0
let mat_a = 0x400
let mat_b = 0x500
let mat_c = 0x600
let crc_area = 0x700

let padd mode dst src off =
  match mode with
  | Rv32e -> [ Asm.I (Insn.Op_imm (Add, dst, src, off)) ]
  | Cheriot_caps -> [ Asm.I (Insn.Cincaddrimm (dst, src, off)) ]

let pmove mode dst src =
  match mode with
  | Rv32e -> [ Asm.I (Insn.Op_imm (Add, dst, src, 0)) ]
  | Cheriot_caps -> [ Asm.I (Insn.Cmove (dst, src)) ]

let load_ptr mode rd rs off =
  match mode with
  | Rv32e -> [ Asm.I (Insn.Load { signed = true; width = W; rd; rs1 = rs; off }) ]
  | Cheriot_caps -> [ Asm.I (Insn.Clc (rd, rs, off)) ]

let store_ptr mode rs2 rs1 off =
  match mode with
  | Rv32e -> [ Asm.I (Insn.Store { width = W; rs2; rs1; off }) ]
  | Cheriot_caps -> [ Asm.I (Insn.Csc (rs2, rs1, off)) ]

(* Loop while the pointer in [r] is non-null (baseline) / tagged (caps). *)
let branch_ptr_nonnull mode r label =
  match mode with
  | Rv32e -> [ Asm.B (Insn.Ne, r, 0, label) ]
  | Cheriot_caps ->
      [ Asm.I (Insn.Cget (Tag, t2, r)); Asm.B (Insn.Ne, t2, 0, label) ]

(* A pointer to the global at [data_base + off]; capability code re-derives
   and re-bounds it (compiler bug 2). *)
let global_ptr mode rd off ~len =
  match mode with
  | Rv32e -> [ Asm.Li (rd, data_base + off) ]
  | Cheriot_caps ->
      [
        Asm.I (Insn.Cincaddrimm (rd, gp, off));
        Asm.I (Insn.Csetboundsimm (rd, rd, min len 4095));
      ]

let lw rd rs off = Asm.I (Insn.Load { signed = true; width = W; rd; rs1 = rs; off })
let lbu rd rs off = Asm.I (Insn.Load { signed = false; width = B; rd; rs1 = rs; off })
let sw rs2 rs1 off = Asm.I (Insn.Store { width = W; rs2; rs1; off })
let sb rs2 rs1 off = Asm.I (Insn.Store { width = B; rs2; rs1; off })
let addi rd rs v = Asm.I (Insn.Op_imm (Add, rd, rs, v))
let add rd x y = Asm.I (Insn.Op (Add, rd, x, y))
let mul rd x y = Asm.I (Insn.Mul_div (Mul, rd, x, y))

(* --- kernel 1: linked list -------------------------------------------- *)

let list_reverse mode ~label ~start_off =
  List.concat
    [
      global_ptr mode s0 (list_area + start_off)
        ~len:(node_stride mode * n_nodes);
      pmove mode a4 0 (* prev = null *);
      [ Asm.Label label ];
      load_ptr mode a5 s0 0;
      store_ptr mode a4 s0 0;
      pmove mode a4 s0;
      pmove mode s0 a5;
      branch_ptr_nonnull mode s0 label;
    ]

let list_kernel mode =
  let stride = node_stride mode in
  let valoff = match mode with Rv32e -> 4 | Cheriot_caps -> 8 in
  let area_len = n_nodes * stride in
  List.concat
    [
      (* build *)
      global_ptr mode s0 list_area ~len:area_len;
      [ Asm.Li (t1, n_nodes - 1); Asm.Label "list_init" ];
      padd mode t2 s0 stride;
      store_ptr mode t2 s0 0;
      [ sw t1 s0 valoff ];
      padd mode s0 s0 stride;
      [ addi t1 t1 (-1); Asm.B (Insn.Ne, t1, 0, "list_init") ];
      store_ptr mode 0 s0 0;
      [ Asm.Li (t1, 99); sw t1 s0 valoff ];
      (* find/sum walks: pointer chasing with a per-node call to the
         comparator function, as core_list_find does *)
      [ Asm.Li (a3, list_walks); Asm.Label "list_walks" ];
      global_ptr mode s0 list_area ~len:area_len;
      [ Asm.Label "list_walk" ];
      [ Asm.Call "list_val"; add a0 a0 t2 ];
      load_ptr mode s0 s0 0;
      branch_ptr_nonnull mode s0 "list_walk";
      [ addi a3 a3 (-1); Asm.B (Insn.Ne, a3, 0, "list_walks") ];
      (* two reversals (pointer rewrites), restoring the order *)
      list_reverse mode ~label:"list_rev_a" ~start_off:0;
      list_reverse mode ~label:"list_rev_b" ~start_off:((n_nodes - 1) * stride);
      (* modify pass *)
      global_ptr mode s0 list_area ~len:area_len;
      [ Asm.Li (t1, n_nodes); Asm.Label "list_mod" ];
      [ lw t2 s0 valoff; addi t2 t2 3; sw t2 s0 valoff; add a0 a0 t2 ];
      padd mode s0 s0 stride;
      [ addi t1 t1 (-1); Asm.B (Insn.Ne, t1, 0, "list_mod") ];
    ]

(* --- kernel 2: matrix multiply ----------------------------------------- *)

let matrix_kernel mode =
  let row_shift = 5 (* row stride 32 bytes: mat_n=6 padded rows of 8 *) in
  List.concat
    [
      (* init A and B *)
      global_ptr mode s0 mat_a ~len:0x100;
      global_ptr mode a1 mat_b ~len:0x100;
      [ Asm.Li (t0, 0); Asm.Label "mat_init_i"; Asm.Li (t1, 0);
        Asm.Label "mat_init_j" ];
      [
        add t2 t0 t1;
        Asm.I (Insn.Op_imm (Sll, a4, t0, row_shift));
        Asm.I (Insn.Op_imm (Sll, a5, t1, 2));
        add a4 a4 a5;
      ];
      (match mode with
      | Rv32e -> [ add a5 s0 a4; sw t2 a5 0; add a5 a1 a4 ]
      | Cheriot_caps ->
          [
            Asm.I (Insn.Cincaddr (a5, s0, a4));
            sw t2 a5 0;
            Asm.I (Insn.Cincaddr (a5, a1, a4));
          ]);
      [
        Asm.I (Insn.Op (Xor, t2, t0, t1));
        sw t2 a5 0;
        addi t1 t1 1;
        Asm.Li (a5, mat_n);
        Asm.B (Insn.Lt, t1, a5, "mat_init_j");
        addi t0 t0 1;
        Asm.B (Insn.Lt, t0, a5, "mat_init_i");
      ];
      (* C = A*B; B base hoisted into ra-equivalent... ra holds the B
         pointer for the whole kernel (restored before any call). *)
      global_ptr mode ra mat_b ~len:0x100;
      [ Asm.Li (t0, 0); Asm.Label "mm_i" ];
      global_ptr mode s0 mat_a ~len:0x100;
      [ Asm.I (Insn.Op_imm (Sll, a4, t0, row_shift)) ];
      (match mode with
      | Rv32e -> [ add s0 s0 a4 ]
      | Cheriot_caps -> [ Asm.I (Insn.Cincaddr (s0, s0, a4)) ]);
      [ Asm.Li (t1, 0); Asm.Label "mm_j"; Asm.Li (a1, 0); Asm.Li (t2, 0);
        Asm.Label "mm_k" ];
      [ Asm.I (Insn.Op_imm (Sll, a4, t2, 2)) ];
      (match mode with
      | Rv32e -> [ add a5 s0 a4; lw a2 a5 0 ]
      | Cheriot_caps -> [ Asm.I (Insn.Cincaddr (a5, s0, a4)); lw a2 a5 0 ]);
      [
        Asm.I (Insn.Op_imm (Sll, a4, t2, row_shift));
        Asm.I (Insn.Op_imm (Sll, a5, t1, 2));
        add a4 a4 a5;
      ];
      (match mode with
      | Rv32e -> [ add a5 ra a4; lw a3 a5 0 ]
      | Cheriot_caps ->
          [
            Asm.I (Insn.Cincaddr (a5, ra, a4));
            Asm.I (Insn.Csetboundsimm (a5, a5, 4));
            lw a3 a5 0;
          ]);
      [
        mul a2 a2 a3;
        add a1 a1 a2;
        addi t2 t2 1;
        Asm.Li (a5, mat_n);
        Asm.B (Insn.Lt, t2, a5, "mm_k");
      ];
      global_ptr mode a3 mat_c ~len:0x100;
      [
        Asm.I (Insn.Op_imm (Sll, a4, t0, row_shift));
        Asm.I (Insn.Op_imm (Sll, a5, t1, 2));
        add a4 a4 a5;
      ];
      (match mode with
      | Rv32e -> [ add a3 a3 a4 ]
      | Cheriot_caps -> [ Asm.I (Insn.Cincaddr (a3, a3, a4)) ]);
      [
        sw a1 a3 0;
        add a0 a0 a1;
        addi t1 t1 1;
        Asm.Li (a5, mat_n);
        Asm.B (Insn.Lt, t1, a5, "mm_j");
        addi t0 t0 1;
        Asm.B (Insn.Lt, t0, a5, "mm_i");
      ];
    ]

(* --- kernel 3: CRC / state machine -------------------------------------- *)

(* crcu8: a real function with an -Oz prologue spilling the return
   pointer and one callee-saved register.  In capability mode those are
   csc/clc of 8-byte capabilities — the Ibex-visible cost. *)
(* list_val: the list comparator/accessor called once per visited node.
   The -Oz prologue spills the return pointer and one saved register; in
   capability mode the value load also pays the un-folded address
   derivation of compiler bug 1. *)
let list_val_function mode =
  let valoff = match mode with Rv32e -> 4 | Cheriot_caps -> 8 in
  List.concat
    [
      [ Asm.Label "list_val" ];
      (match mode with
      | Rv32e -> [ addi sp sp (-8); sw ra sp 0; sw s0 sp 4 ]
      | Cheriot_caps ->
          List.concat
            [
              [
                Asm.I (Insn.Cincaddrimm (sp, sp, -16));
                (* -Oz sets bounds on the stack frame allocation *)
                Asm.I (Insn.Csetboundsimm (a4, sp, 16));
              ];
              store_ptr mode ra a4 0;
              store_ptr mode s0 a4 8;
            ]);
      (match mode with
      | Rv32e -> [ lw t2 s0 valoff ]
      | Cheriot_caps ->
          [ Asm.I (Insn.Cincaddrimm (a2, s0, valoff)); lw t2 a2 0 ]);
      [ addi t2 t2 1 ];
      (match mode with
      | Rv32e -> [ lw ra sp 0; lw s0 sp 4; addi sp sp 8 ]
      | Cheriot_caps ->
          List.concat
            [
              load_ptr mode ra sp 0;
              load_ptr mode s0 sp 8;
              [ Asm.I (Insn.Cincaddrimm (sp, sp, 16)) ];
            ]);
      [ Asm.Ret ];
    ]

let crcu8_function mode =
  List.concat
    [
      [ Asm.Label "crcu8" ];
      (match mode with
      | Rv32e ->
          [ addi sp sp (-8); sw ra sp 0; sw s0 sp 4 ]
      | Cheriot_caps ->
          List.concat
            [
              [
                Asm.I (Insn.Cincaddrimm (sp, sp, -16));
                (* -Oz sets bounds on the stack frame allocation *)
                Asm.I (Insn.Csetboundsimm (a4, sp, 16));
              ];
              store_ptr mode ra a4 0;
              store_ptr mode s0 a4 8;
            ]);
      [
        Asm.I (Insn.Op (Xor, a1, a1, a2));
        Asm.Li (t1, 8);
        Asm.Label "crc_bit";
        Asm.I (Insn.Op_imm (And, a2, a1, 1));
        Asm.I (Insn.Op_imm (Srl, a1, a1, 1));
        Asm.B (Insn.Eq, a2, 0, "crc_skip");
        Asm.Li (a3, 0xa001);
        Asm.I (Insn.Op (Xor, a1, a1, a3));
        Asm.Label "crc_skip";
        addi t1 t1 (-1);
        Asm.B (Insn.Ne, t1, 0, "crc_bit");
      ];
      (match mode with
      | Rv32e ->
          [ lw ra sp 0; lw s0 sp 4; addi sp sp 8 ]
      | Cheriot_caps ->
          List.concat
            [
              load_ptr mode ra sp 0;
              load_ptr mode s0 sp 8;
              [ Asm.I (Insn.Cincaddrimm (sp, sp, 16)) ];
            ]);
      [ Asm.Ret ];
    ]

let crc_kernel mode =
  List.concat
    [
      (* init buffer *)
      global_ptr mode s0 crc_area ~len:crc_bytes;
      [ Asm.Li (t0, 0); Asm.Label "crc_init" ];
      [ Asm.Li (t1, 31); mul t2 t0 t1; addi t2 t2 7; sb t2 s0 0 ];
      padd mode s0 s0 1;
      [
        addi t0 t0 1;
        Asm.Li (t1, crc_bytes);
        Asm.B (Insn.Lt, t0, t1, "crc_init");
      ];
      (* crc16 via calls to crcu8 *)
      global_ptr mode s0 crc_area ~len:crc_bytes;
      [ Asm.Li (a1, 0xffff); Asm.Li (t0, 0); Asm.Label "crc_byte" ];
      [ lbu a2 s0 0 ];
      padd mode s0 s0 1;
      [ Asm.Call "crcu8" ];
      [
        addi t0 t0 1;
        Asm.Li (t1, crc_bytes);
        Asm.B (Insn.Lt, t0, t1, "crc_byte");
        add a0 a0 a1;
      ];
    ]

let program mode ~iterations =
  List.concat
    [
      [ Asm.Li (a0, 0); Asm.Li (s1, iterations); Asm.Label "iter" ];
      [ Asm.I (Insn.Op_imm (Add, Insn.reg_tp, s1, 0)) ];
      list_kernel mode;
      matrix_kernel mode;
      crc_kernel mode;
      [
        Asm.I (Insn.Op_imm (Add, s1, Insn.reg_tp, 0));
        addi s1 s1 (-1);
        Asm.B (Insn.Ne, s1, 0, "iter");
        Asm.I Insn.Ebreak;
      ];
      crcu8_function mode;
      list_val_function mode;
    ]

type result = {
  checksum : int;
  cycles : int;
  instructions : int;
  score : float;
}

(* One global constant calibrated so the Flute RV32E baseline lands at
   2.017 CoreMark/MHz; every configuration uses the same constant, so
   relative results are honest. *)
let score_scale = ref 1.0

(** Build a machine with the CoreMark image loaded and registers set up,
    ready to run to [Ebreak] — shared by {!run} and the dispatch-tier
    benches and tests, which drive [Machine.run] directly. *)
let setup ?(iterations = 10) (config : Core_model.config) =
  let bus = Bus.create () in
  let sram = Sram.create ~base:code_base ~size:0x30000 in
  Bus.add_sram bus sram;
  let rev = Revbits.create ~heap_base:data_base ~heap_size:0x1000 () in
  Bus.set_revbits bus rev;
  let mode = if config.Core_model.cheri then Cheriot_caps else Rv32e in
  let img = Asm.assemble ~origin:code_base (program mode ~iterations) in
  Asm.load img sram;
  let machine_mode = if config.cheri then Machine.Cheriot else Machine.Rv32 in
  let m =
    Machine.create ~mode:machine_mode ~load_filter:config.load_filter bus
  in
  (match machine_mode with
  | Machine.Cheriot ->
      m.Machine.pcc <-
        Cheriot_core.Capability.(
          set_bounds
            (with_address root_executable code_base)
            ~length:0x10000 ~exact:false);
      Machine.set_reg m gp
        Cheriot_core.Capability.(
          set_bounds
            (with_address root_mem_rw data_base)
            ~length:0x4000 ~exact:true);
      Machine.set_reg m sp
        Cheriot_core.Capability.(
          incr_address
            (set_bounds
               (with_address root_mem_rw (stack_top - 0x1000))
               ~length:0x1000 ~exact:true)
            0x1000)
  | Machine.Rv32 ->
      m.Machine.pcc <-
        Cheriot_core.Capability.{ root_executable with addr = code_base };
      Machine.set_reg_int m sp stack_top);
  m

let run ?(iterations = 10) ?(dispatch = Perf.Reference)
    (config : Core_model.config) =
  let m = setup ~iterations config in
  let perf =
    Perf.create ~dispatch ~params:(Core_model.params_of config.core) m
  in
  (match Perf.run ~fuel:20_000_000 perf with
  | Machine.Step_halted -> ()
  | _ -> failwith "coremark: did not halt");
  let st = perf.Perf.stats in
  {
    checksum = Machine.reg_int m a0;
    cycles = st.Perf.cycles;
    instructions = st.Perf.instructions;
    score =
      !score_scale *. float_of_int iterations *. 1_000_000.0
      /. float_of_int st.Perf.cycles;
  }

(** Calibrate {!score_scale} so the Flute RV32E baseline scores 2.017 —
    the paper's absolute anchor. *)
let calibrate () =
  score_scale := 1.0;
  let r = run (Core_model.config ~cheri:false Flute) in
  score_scale := 2.017 /. r.score *. !score_scale
