(** The end-to-end IoT application (paper 7.2.3).

    The paper's demo runs a compartmentalized network stack — the
    FreeRTOS TCP/IP stack, mBedTLS and the FreeRTOS MQTT library, each in
    its own compartment — connecting to an IoT hub, fetching JavaScript
    bytecode and running it under the Microvium interpreter (another
    compartment) every 10 ms to animate LEDs, on CHERIoT-Ibex at 20 MHz.
    Every network packet sent or received is a separate heap allocation
    protected by temporal safety, as are the chunks of the JavaScript
    heap.  The reported result: 17.5 % CPU load averaged over a minute,
    including TLS session establishment.

    We reproduce it as a discrete-event simulation over the RTOS model:
    the same compartment-crossing structure, every packet and JS object a
    real allocation through the quarantining allocator, the hardware
    revoker sweeping in the background, and the idle thread absorbing the
    rest — the CPU load is computed from the scheduler's idle
    accounting. *)

module Core_model = Cheriot_uarch.Core_model
module Revoker = Cheriot_uarch.Revoker
module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits
module Clock = Cheriot_rtos.Clock
module Allocator = Cheriot_rtos.Allocator
module Switcher = Cheriot_rtos.Switcher
module Sched = Cheriot_rtos.Sched

let clock_hz = 20_000_000
let js_tick_ms = 10

type result = {
  seconds : float;
  cpu_load_percent : float;
  idle_percent : float;
  packets : int;
  js_ticks : int;
  allocations : int;
  sweeps : int;
  context_switches : int;
}

(* Per-event busy costs in cycles, at the fidelity of the paper's
   description: interpreting a few hundred bytecodes per animation frame,
   AES/SHA software crypto per TLS record, header processing per layer.
   Each layer crossing is a real cross-compartment call. *)
let js_interpreter_cycles = 33_500 (* one animation frame in Microvium *)
let tcpip_rx_cycles = 3_500
let tls_record_cycles = 9_000 (* AES-GCM in software for one record *)
let mqtt_cycles = 1_800
let tls_handshake_crypto = 2_600_000 (* ECDHE + cert chain, once *)

let heap_base = 0x8_0000
let heap_size = 128 * 1024

let run ?(seconds = 60.0) ?(temporal = Allocator.Hardware) () =
  let core = Core_model.Ibex in
  let params = Core_model.params_of core in
  let clock = Clock.create params in
  let sram = Sram.create ~base:0x4_0000 ~size:(heap_base + heap_size - 0x4_0000) in
  let rev = Revbits.create ~heap_base ~heap_size () in
  let alloc =
    Allocator.create ~temporal ~sram ~rev ~clock ~heap_base ~heap_size ()
  in
  (match temporal with
  | Allocator.Hardware ->
      let hw = Revoker.create ~core ~sram ~rev () in
      Clock.attach_revoker clock hw;
      Allocator.attach_hw_revoker alloc hw
  | Allocator.Software ->
      Allocator.set_sw_revoker alloc
        (Cheriot_rtos.Sw_revoker.create ~sram ~rev ~clock ())
  | Allocator.Baseline | Allocator.Metadata -> ());
  let switcher = Switcher.create ~hwm_enabled:true ~sram clock in
  let sched = Sched.create ~hwm_enabled:true clock in
  let mk name prio base =
    Sched.spawn sched ~name ~priority:prio
      ~stack:(Switcher.make_stack ~base ~size:1024)
  in
  let net = mk "tcpip" 3 0x4_0000 in
  let js = mk "microvium" 2 0x4_0800 in
  let packets = ref 0 and js_ticks = ref 0 and allocations = ref 0 in
  let cross stack f = Switcher.cross_call switcher stack ~callee_frame:96 ~callee_stack_use:160 f in
  let with_packet stack size f =
    incr packets;
    incr allocations;
    let p =
      cross stack (fun () ->
          match Allocator.malloc alloc size with
          | Ok c -> c
          | Error e -> Fmt.failwith "packet alloc: %a" Allocator.pp_error e)
    in
    f p;
    cross stack (fun () ->
        match Allocator.free alloc p with
        | Ok () -> ()
        | Error e -> Fmt.failwith "packet free: %a" Allocator.pp_error e)
  in
  (* One inbound or outbound record: TCP/IP <-> TLS <-> MQTT, one
     compartment crossing per layer, the packet buffer passed by
     capability. *)
  let record stack size =
    Sched.switch_to sched net;
    with_packet stack size (fun _p ->
        Clock.compute clock tcpip_rx_cycles;
        cross stack (fun () -> Clock.compute clock tls_record_cycles);
        cross stack (fun () -> Clock.compute clock mqtt_cycles))
  in
  (* --- TLS session establishment (counted in the minute) ------------- *)
  Sched.switch_to sched net;
  Clock.compute clock tls_handshake_crypto;
  for _ = 1 to 6 do
    record net.Sched.stack 640
  done;
  (* fetch the JavaScript bytecode: 4 MQTT messages of 1 KiB *)
  for _ = 1 to 4 do
    record net.Sched.stack 1024
  done;
  (* --- steady state ---------------------------------------------------- *)
  let total_cycles = int_of_float (seconds *. float_of_int clock_hz) in
  let tick_cycles = clock_hz / 1000 * js_tick_ms in
  let next_keepalive = ref (Clock.cycles clock + clock_hz) in
  while Clock.cycles clock < total_cycles do
    let tick_start = Clock.cycles clock in
    (* JS animation frame: the interpreter allocates a few short-lived
       objects per frame (Microvium does not reuse memory between GC
       passes, so temporal safety covers JS objects too). *)
    Sched.switch_to sched js;
    incr js_ticks;
    Clock.compute clock js_interpreter_cycles;
    let objs =
      List.filter_map
        (fun size ->
          incr allocations;
          match Allocator.malloc alloc size with
          | Ok c -> Some c
          | Error _ -> None)
        [ 48; 64; 32; 96 ]
    in
    List.iter (fun c -> ignore (Allocator.free alloc c)) objs;
    (* MQTT keepalive once a second *)
    if Clock.cycles clock >= !next_keepalive then begin
      next_keepalive := !next_keepalive + clock_hz;
      record net.Sched.stack 128;
      record net.Sched.stack 128
    end;
    (* idle until the next 10 ms timer tick *)
    let next_tick = tick_start + tick_cycles in
    if Clock.cycles clock < next_tick then begin
      Sched.sleep_until js next_tick;
      Sched.sleep_until net next_tick;
      ignore (Sched.idle_to_next_wake sched)
    end
  done;
  let total = Clock.cycles clock in
  let idle = Sched.idle_cycles sched in
  let st = Allocator.stats alloc in
  {
    seconds = float_of_int total /. float_of_int clock_hz;
    cpu_load_percent = 100.0 *. float_of_int (total - idle) /. float_of_int total;
    idle_percent = 100.0 *. float_of_int idle /. float_of_int total;
    packets = !packets;
    js_ticks = !js_ticks;
    allocations = !allocations;
    sweeps = st.Allocator.sweeps;
    context_switches = Sched.context_switches sched;
  }

(* --- instruction-level variant for the dispatch-tier benches ----------- *)

module Machine = Cheriot_isa.Machine
module Asm = Cheriot_isa.Asm
module Insn = Cheriot_isa.Insn
module Bus = Cheriot_mem.Bus

(** The packet-processing inner loop as a real instruction stream on the
    emulator (the simulation above is discrete-event and never executes
    instructions): per packet, derive a bounded 64-byte buffer capability
    from the pool, fill it byte-by-byte, checksum it back with a second
    byte-wise pass, and every fourth packet run a short multiply-heavy
    "JS tick".  Runs to [Ebreak]; the running checksum lands in [a0]. *)
let isa_setup ?(packets = 200) () =
  let code_base = 0x1_0000 and data_base = 0x2_0000 in
  let a0 = Insn.reg_a0 and a1 = Insn.reg_a1 and a2 = Insn.reg_a2 in
  let a4 = Insn.reg_a4 in
  let t0 = Insn.reg_t0 and t1 = Insn.reg_t1 and t2 = Insn.reg_t2 in
  let s0 = Insn.reg_s0 and s1 = Insn.reg_s1 and gp = Insn.reg_gp in
  let buf_size = 64 in
  let program =
    [
      Asm.Li (a0, 0);
      Asm.Li (s1, packets);
      Asm.Label "pkt";
      (* one of eight pool buffers, chosen by packet number *)
      Asm.I (Insn.Op_imm (And, t2, s1, 7));
      Asm.I (Insn.Op_imm (Sll, t2, t2, 6));
      Asm.I (Insn.Cincaddr (s0, gp, t2));
      Asm.I (Insn.Csetboundsimm (s0, s0, buf_size));
      Asm.Li (t0, buf_size);
      Asm.Label "fill";
      Asm.I (Insn.Op_imm (Add, t2, t0, -1));
      Asm.I (Insn.Cincaddr (a4, s0, t2));
      Asm.I (Insn.Op (Xor, t1, t0, s1));
      Asm.I (Insn.Store { width = B; rs2 = t1; rs1 = a4; off = 0 });
      Asm.I (Insn.Op_imm (Add, t0, t0, -1));
      Asm.B (Insn.Ne, t0, 0, "fill");
      Asm.Li (t0, buf_size);
      Asm.Li (a1, 0);
      Asm.Label "cksum";
      Asm.I (Insn.Op_imm (Add, t2, t0, -1));
      Asm.I (Insn.Cincaddr (a4, s0, t2));
      Asm.I (Insn.Load { signed = false; width = B; rd = t1; rs1 = a4; off = 0 });
      Asm.I (Insn.Op (Xor, a1, a1, t1));
      Asm.I (Insn.Op_imm (Add, t0, t0, -1));
      Asm.B (Insn.Ne, t0, 0, "cksum");
      Asm.I (Insn.Op (Add, a0, a0, a1));
      (* every fourth packet: the Microvium interpreter tick *)
      Asm.I (Insn.Op_imm (And, t2, s1, 3));
      Asm.B (Insn.Ne, t2, 0, "nojs");
      Asm.Li (t0, 50);
      Asm.Li (a2, 7);
      Asm.Label "js";
      Asm.I (Insn.Mul_div (Mul, a2, a2, a2));
      Asm.I (Insn.Op_imm (Add, a2, a2, 13));
      Asm.I (Insn.Op (Add, a0, a0, a2));
      Asm.I (Insn.Op_imm (Add, t0, t0, -1));
      Asm.B (Insn.Ne, t0, 0, "js");
      Asm.Label "nojs";
      Asm.I (Insn.Op_imm (Add, s1, s1, -1));
      Asm.B (Insn.Ne, s1, 0, "pkt");
      Asm.I Insn.Ebreak;
    ]
  in
  let bus = Bus.create () in
  let code = Sram.create ~base:code_base ~size:0x1000 in
  let data = Sram.create ~base:data_base ~size:0x1000 in
  Bus.add_sram bus code;
  Bus.add_sram bus data;
  let img = Asm.assemble ~origin:code_base program in
  Asm.load img code;
  let m = Machine.create bus in
  m.Machine.pcc <-
    Cheriot_core.Capability.(
      set_bounds (with_address root_executable code_base) ~length:0x1000
        ~exact:true);
  Machine.set_reg m gp
    Cheriot_core.Capability.(
      set_bounds (with_address root_mem_rw data_base) ~length:0x1000
        ~exact:true);
  m
