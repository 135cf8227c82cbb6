(** The static linker and boot loader (paper 2.6).

    Compartments — possibly provided by mutually distrusting parties —
    are statically linked into a single system image; imports of exports
    are resolved at this time.  The loader is early-boot software: it
    starts from the three reset roots (3.1.1), derives every capability
    in the system from them, seals the export descriptors with the
    switcher's otype, writes the resolved imports into each compartment's
    globals, and hands the boot thread its (attenuated) initial register
    file.  After boot no root capability remains reachable.

    Memory map (single SRAM bank):

    {v base+0x0000  switcher code          base+0x0800  trap stub
       base+0x1000  compartment code...    then globals, descriptors,
       switcher data, stacks, and an optional revocation-covered heap. v}
*)

open Cheriot_core
module Sram = Cheriot_mem.Sram
module Bus = Cheriot_mem.Bus
module Revbits = Cheriot_mem.Revbits
open Cheriot_isa

type built = {
  bc : Compartment.t;
  code_cap : Capability.t;  (** unsealed, bounded, no SR *)
  globals_cap : Capability.t;  (** bounded, no SL *)
  globals_base : int;
  image : Asm.image;
  mutable descriptors : (string * Capability.t) list;
      (** export name -> sealed descriptor *)
}

type t = {
  machine : Machine.t;
  bus : Bus.t;
  sram : Sram.t;
  compartments : (string * built) list;
  heap_base : int;
  heap_size : int;
  rev : Revbits.t;
  stack_base : int;
  stack_size : int;
}

let align_up v a = (v + a - 1) land lnot (a - 1)

let find t name =
  match List.assoc_opt name t.compartments with
  | Some b -> b
  | None -> invalid_arg ("Loader: unknown compartment " ^ name)

let export_descriptor b name =
  match List.assoc_opt name b.descriptors with
  | Some d -> d
  | None ->
      invalid_arg
        (Printf.sprintf "Loader: %s does not export %s" b.bc.Compartment.name
           name)

let sentry_of_posture = function
  | Compartment.Interrupts_enabled -> Otype.Sentry_enable
  | Compartment.Interrupts_disabled -> Otype.Sentry_disable
  | Compartment.Interrupts_inherited -> Otype.Sentry_inherit

let seal_or_fail c kind =
  match Capability.seal_sentry c kind with
  | Ok s -> s
  | Error e -> failwith ("Loader: " ^ e)

(** [link compartments ~boot] builds the system image and leaves the
    machine about to execute [boot = (compartment, export)] with a fresh
    stack.  [stack_size] defaults to 1 KiB; a [heap_size] heap covered by
    revocation bits is always present for the allocator examples. *)
let link ?(base = 0x1_0000) ?(stack_size = 1024) ?(heap_size = 64 * 1024)
    ?(load_filter = true) compartments ~boot =
  let bus = Bus.create () in
  (* --- lay out code ---------------------------------------------------- *)
  let switcher_origin = base in
  let switcher_img = Asm.assemble ~origin:switcher_origin Switcher_asm.code in
  let trap_origin = base + 0x800 in
  let trap_img = Asm.assemble ~origin:trap_origin [ Asm.I Insn.Ebreak ] in
  let next = ref (base + 0x1000) in
  let images =
    List.map
      (fun (c : Compartment.t) ->
        let img = Asm.assemble ~origin:!next c.code in
        next := align_up (!next + Asm.bytes_size img) 64;
        (c, img))
      compartments
  in
  (* --- lay out data ----------------------------------------------------- *)
  let code_end = align_up !next 64 in
  let gpos = ref code_end in
  let globals =
    List.map
      (fun ((c : Compartment.t), _) ->
        let g = !gpos in
        gpos := align_up (!gpos + max 16 c.Compartment.globals_size) 16;
        g)
      images
  in
  let globals_end = !gpos in
  let n_exports =
    List.fold_left
      (fun a (c, _) -> a + List.length c.Compartment.exports)
      0 images
  in
  let desc_base = align_up globals_end 16 in
  let swdata_base = align_up (desc_base + (16 * n_exports)) 16 in
  let swdata_size = 24 + (32 * 16) (* 16 trusted-stack frames *) in
  let stack_base = align_up (swdata_base + swdata_size) 16 in
  (* the heap must start on a boundary at which a [heap_size]-long
     capability is exactly representable (3.2.3) *)
  let heap_align =
    max 64 ((lnot (Bounds.cram heap_size) land 0xFFFF_FFFF) + 1)
  in
  let heap_base = align_up (stack_base + stack_size) heap_align in
  let total = align_up (heap_base + heap_size - base) 8 in
  let sram = Sram.create ~base ~size:total in
  Bus.add_sram bus sram;
  let rev = Revbits.create ~heap_base ~heap_size () in
  Bus.set_revbits bus rev;
  let machine = Machine.create ~mode:Machine.Cheriot ~load_filter bus in
  (* --- load code --------------------------------------------------------- *)
  Asm.load switcher_img sram;
  Asm.load trap_img sram;
  List.iter (fun (_, img) -> Asm.load img sram) images;
  (* --- derive capabilities ----------------------------------------------- *)
  let exec_cap ?(sr = false) origin len =
    let c = Capability.with_address Capability.root_executable origin in
    let c = Capability.set_bounds c ~length:len ~exact:false in
    if sr then c else Capability.clear_perms c [ SR ]
  in
  let mem_cap ?(local = false) ?(sl = false) b len =
    let c = Capability.with_address Capability.root_mem_rw b in
    let c = Capability.set_bounds c ~length:len ~exact:false in
    let c = if sl then c else Capability.clear_perms c [ SL ] in
    if local then Capability.clear_perms c [ GL ] else c
  in
  let switcher_code =
    exec_cap ~sr:true switcher_origin (Asm.bytes_size switcher_img)
  in
  let built =
    List.map2
      (fun (c, img) gbase ->
        ( c.Compartment.name,
          {
            bc = c;
            code_cap = exec_cap img.Asm.origin (Asm.bytes_size img);
            globals_cap =
              mem_cap gbase (max 16 c.Compartment.globals_size);
            globals_base = gbase;
            image = img;
            descriptors = [];
          } ))
      images globals
  in
  (* --- switcher data ------------------------------------------------------ *)
  let swdata = mem_cap ~sl:true swdata_base swdata_size in
  let unseal_key =
    Capability.with_address Capability.root_sealing Switcher_asm.export_otype
  in
  Sram.write_cap sram swdata_base unseal_key;
  let cross_return =
    seal_or_fail
      (Capability.with_address switcher_code
         (Asm.label switcher_img "switcher_cross_return"))
      Otype.Sentry_disable
  in
  Sram.write_cap sram (swdata_base + 8) cross_return;
  Sram.write32 sram (swdata_base + 16) 0;
  (* --- export descriptors -------------------------------------------------- *)
  let desc_pos = ref desc_base in
  List.iter
    (fun (_, b) ->
      List.iter
        (fun (e : Compartment.export) ->
          let entry = Asm.label b.image e.Compartment.exp_label in
          let sentry =
            seal_or_fail
              (Capability.with_address b.code_cap entry)
              (sentry_of_posture e.Compartment.exp_posture)
          in
          Sram.write_cap sram !desc_pos sentry;
          Sram.write_cap sram (!desc_pos + 8) b.globals_cap;
          (* the descriptor handle: read-only, sealed with the switcher
             otype *)
          let handle =
            Capability.clear_perms (mem_cap !desc_pos 16) [ SD ]
          in
          let sealed =
            match
              Capability.seal handle
                ~key:
                  (Capability.with_address Capability.root_sealing
                     Switcher_asm.export_otype)
            with
            | Ok s -> s
            | Error m -> failwith ("Loader: sealing export: " ^ m)
          in
          b.descriptors <-
            (e.Compartment.exp_label, sealed) :: b.descriptors;
          desc_pos := !desc_pos + 16)
        b.bc.Compartment.exports)
    built;
  (* --- resolve imports + switcher sentry into globals ----------------------- *)
  let cross_call_sentry =
    seal_or_fail
      (Capability.with_address switcher_code
         (Asm.label switcher_img "switcher_cross_call"))
      Otype.Sentry_disable
  in
  let t =
    {
      machine;
      bus;
      sram;
      compartments = built;
      heap_base;
      heap_size;
      rev;
      stack_base;
      stack_size;
    }
  in
  List.iter
    (fun (_, b) ->
      Sram.write_cap sram
        (b.globals_base + Compartment.switcher_slot)
        cross_call_sentry;
      List.iter
        (fun (i : Compartment.import) ->
          let target = find t i.Compartment.imp_compartment in
          let d = export_descriptor target i.Compartment.imp_export in
          Sram.write_cap sram (b.globals_base + i.Compartment.imp_slot) d)
        b.bc.Compartment.imports)
    built;
  (* --- boot thread ----------------------------------------------------------- *)
  let boot_comp, boot_export = boot in
  let b = find t boot_comp in
  let entry =
    match
      List.find_opt
        (fun (e : Compartment.export) -> e.Compartment.exp_label = boot_export)
        b.bc.Compartment.exports
    with
    | Some e -> Asm.label b.image e.Compartment.exp_label
    | None -> Asm.label b.image boot_export
  in
  machine.Machine.pcc <- Capability.with_address b.code_cap entry;
  Machine.set_reg machine Insn.reg_gp b.globals_cap;
  let stack = mem_cap ~local:true ~sl:true stack_base stack_size in
  Machine.set_reg machine Insn.reg_sp
    (Capability.incr_address stack stack_size);
  machine.Machine.mscratchc <- swdata;
  machine.Machine.mshwmb <- stack_base;
  machine.Machine.mshwm <- stack_base + stack_size;
  machine.Machine.mtcc <-
    exec_cap ~sr:true trap_origin (Asm.bytes_size trap_img);
  t

(** A heap capability covering the revocation-covered heap region —
    what the allocator compartment would own. *)
let heap_cap t =
  Capability.clear_perms
    (Capability.set_bounds
       (Capability.with_address Capability.root_mem_rw t.heap_base)
       ~length:t.heap_size ~exact:true)
    [ SL ]

let run ?(fuel = 1_000_000) t = Machine.run ~fuel t.machine
