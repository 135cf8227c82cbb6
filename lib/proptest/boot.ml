(** Shared machine-boot scaffolding for the property harness.

    Every differential/fuzz property used to carry its own copy of this:
    build a bus, add SRAMs, blit the program, flush the block cache
    (the blit bypasses the bus's store snoop, exactly as a loader does),
    and install the initial authority — a bounded executable PCC over
    the code region, a data capability in c3, a stack capability (local,
    address at the top) in c2, and a sealing key in c9.  The flat boot
    here is the single copy; [test_fuzz], [test_differential] and
    [test_block_cache] are thin property lists over it. *)

open Cheriot_core
open Cheriot_isa
module Sram = Cheriot_mem.Sram
module Bus = Cheriot_mem.Bus
module Mmio = Cheriot_mem.Mmio

(* The flat memory map shared by the raw-stream properties. *)
let code_base = 0x1_0000
let code_size = 0x800
let data_base = 0x2_0000
let data_size = 0x1000
let stack_base = 0x3_0000
let stack_size = 0x800

type flat = {
  m : Machine.t;
  code : Sram.t;
  data : Sram.t;
  stack : Sram.t;
}

(** The [(base, size, sram)] triples of a flat machine — what the
    authority scan walks. *)
let flat_srams f =
  [
    (code_base, code_size, f.code);
    (data_base, data_size, f.data);
    (stack_base, stack_size, f.stack);
  ]

(** Boot a flat machine around [words].

    [writable_code] additionally grants c4 a read/write capability over
    the code region, so generated stores can patch instructions through
    the bus — real self-modifying streams that exercise the store snoop,
    block invalidation and chain unlinking on every dispatch path. *)
let flat ?(writable_code = false) words =
  let bus = Bus.create () in
  let code = Sram.create ~base:code_base ~size:code_size in
  let data = Sram.create ~base:data_base ~size:data_size in
  let stack = Sram.create ~base:stack_base ~size:stack_size in
  Bus.add_sram bus code;
  Bus.add_sram bus data;
  Bus.add_sram bus stack;
  let m = Machine.create bus in
  List.iteri (fun i w -> Sram.write32 code (code_base + (4 * i)) w) words;
  (* the program was blitted straight into SRAM, behind the bus's store
     snoop: flush, as a loader must *)
  Machine.flush_decode_cache m;
  m.Machine.pcc <-
    Capability.set_bounds
      (Capability.with_address Capability.root_executable code_base)
      ~length:code_size ~exact:false;
  Machine.set_reg m 3
    (Capability.set_bounds
       (Capability.with_address Capability.root_mem_rw data_base)
       ~length:data_size ~exact:false);
  Machine.set_reg m 2
    (Capability.clear_perms
       (Capability.incr_address
          (Capability.set_bounds
             (Capability.with_address Capability.root_mem_rw stack_base)
             ~length:stack_size ~exact:false)
          stack_size)
       [ GL ]);
  (* a sealing key too: otype authority must not leak memory authority *)
  Machine.set_reg m 9 (Capability.with_address Capability.root_sealing 3);
  if writable_code then
    Machine.set_reg m 4
      (Capability.set_bounds
         (Capability.with_address Capability.root_mem_rw code_base)
         ~length:code_size ~exact:false);
  { m; code; data; stack }

(* --- the flat machine's authority envelope ------------------------------ *)

let mem_perms = Capability.perms Capability.root_mem_rw
let exec_perms = Capability.perms Capability.root_executable
let seal_perms = Capability.perms Capability.root_sealing

(** The monotonicity predicate over the flat boot's grants: a tagged
    capability is within authority iff it is a (bounds, perms) shrink of
    one of the booted capabilities.  With [writable_code] the code
    region is additionally reachable with memory permissions (the c4
    grant). *)
let flat_within_authority ?(writable_code = false) c =
  if not (Capability.tag c) then true
  else
    let b = Capability.base c and t = Capability.top c in
    let inside lo sz = b >= lo && t <= lo + sz in
    let p = Capability.perms c in
    (inside code_base code_size && Perm.Set.subset p exec_perms)
    || ((inside data_base data_size || inside stack_base stack_size)
       && Perm.Set.subset p mem_perms)
    || (writable_code && inside code_base code_size
       && Perm.Set.subset p mem_perms)
    || (inside 0 8 && Perm.Set.subset p seal_perms)

(** Scan a machine's registers, special registers and [srams] for tagged
    capabilities outside [within]; returns the offenders rendered. *)
let authority_violations ~within m srams =
  let bad = ref [] in
  let chk what c =
    if not (within c) then bad := Fmt.str "%s=%a" what Capability.pp c :: !bad
  in
  for r = 1 to 15 do
    chk (Printf.sprintf "c%d" r) (Machine.reg m r)
  done;
  chk "pcc" m.Machine.pcc;
  chk "mepcc" m.Machine.mepcc;
  chk "mtdc" m.Machine.mtdc;
  chk "mscratchc" m.Machine.mscratchc;
  List.iter
    (fun (base, size, sram) ->
      let a = ref base in
      while !a < base + size do
        if Sram.tag_at sram !a then begin
          chk (Printf.sprintf "mem@0x%x" !a) (Sram.read_cap sram !a)
        end;
        a := !a + 8
      done)
    srams;
  !bad

(* --- the single-SRAM boot used by the cache and MMIO regressions --------- *)

(** Boot a machine (in [mode], default CHERIoT) with one code SRAM at
    [code_base] of [code_size] bytes (default 0x400) and, with
    [device], a RAM-backed MMIO window at 0x9000 (for the no-snoop
    rules).  Returns the machine and the code SRAM. *)
let code_only ?mode ?(code_size = 0x400) ?(device = false) words =
  let bus = Bus.create () in
  let code = Sram.create ~base:code_base ~size:code_size in
  Bus.add_sram bus code;
  if device then
    Bus.add_device bus (fst (Mmio.ram_backed ~name:"dev" ~base:0x9000 ~size:16));
  let m = Machine.create ?mode bus in
  List.iteri (fun i w -> Sram.write32 code (code_base + (4 * i)) w) words;
  Machine.flush_decode_cache m;
  m.Machine.pcc <-
    Capability.set_bounds
      (Capability.with_address Capability.root_executable code_base)
      ~length:code_size ~exact:false;
  (m, code)

(* --- program rendering --------------------------------------------------- *)

(** Render a raw word stream as a disassembly listing — the shape every
    shrunk counterexample is printed in. *)
let print_words ws =
  String.concat "\n"
    (List.map
       (fun w ->
         match Encode.decode w with
         | Some i -> Printf.sprintf "%08x  %s" w (Insn.to_string i)
         | None -> Printf.sprintf "%08x  ???" w)
       ws)
