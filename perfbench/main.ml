(* perfbench: one benchmark for the simulator, the RTOS model and the
   auditor.

     perfbench/main.exe --workload NAME --seed N --seconds S --trace 0|1

   NAME is one of sim_kernels, sim_cold, paper_tables, audit (see
   README.md for why each exists).  Every workload runs the same four
   jobs in closed-loop rounds, one program or image at a time on one
   thread, until S seconds have passed (at least two rounds):

     kernels  each ISA program of the workload, on fresh machines, under
              the reference and jit tiers, once through Perf.run (timed,
              cycle model) and once through Machine.run (functional);
     tables   the paper tables: all of them on paper_tables, a slice
              (Table 3, one Table 4 size, 10 s of the IoT application,
              the ablations) elsewhere;
     audit    cold and warm (Summary cache) sweeps over the shipped
              images, the bad-image corpus and the Firmware.fleet grid;
     plans    Planverify.collect + verify_plan over the workload's ISA
              programs.

   End-to-end times are host seconds at a fixed host speed (see
   [record]).  All numbers are host time except those marked
   simulated.  The last line of stdout is one JSON object: {correct, attempted, failed,
   metrics}; with --trace 0 it holds the end-to-end metrics, with
   --trace 1 the per-layer ones, measured from spans recorded around the
   calls into each layer (rounds alternate untraced/traced so the
   tracing overhead is measured too; spans go to
   _perfbench/trace-NAME-seedN.jsonl). *)

module Machine = Cheriot_isa.Machine
module Insn = Cheriot_isa.Insn
module Asm = Cheriot_isa.Asm
module Perf = Cheriot_uarch.Perf
module Core_model = Cheriot_uarch.Core_model
module Revoker = Cheriot_uarch.Revoker
module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits
module Coremark = Cheriot_workloads.Coremark
module Alloc_bench = Cheriot_workloads.Alloc_bench
module Iot_app = Cheriot_workloads.Iot_app
module Firmware = Cheriot_workloads.Firmware
module Loader = Cheriot_rtos.Loader
module Compartment = Cheriot_rtos.Compartment
module Allocator = Cheriot_rtos.Allocator
module Switcher = Cheriot_rtos.Switcher
module Sched = Cheriot_rtos.Sched
module Clock = Cheriot_rtos.Clock
module Sw_revoker = Cheriot_rtos.Sw_revoker
module Audit = Cheriot_analysis.Audit
module Cfg = Cheriot_analysis.Cfg
module Summary = Cheriot_analysis.Summary
module Linkflow = Cheriot_analysis.Linkflow
module Rules = Cheriot_analysis.Rules
module Corpus = Cheriot_analysis.Corpus
module Planverify = Cheriot_analysis.Planverify
module Scenario = Cheriot_proptest.Scenario

let timed = Span.timed

(* --- checks ---------------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* A simulated result pinned in [Pinned]: a mismatch prints what was
   observed, in the table's own syntax. *)
let check_pinned what want got show =
  check (Printf.sprintf "pinned %s: got %s" what (show got)) (want = got)

let check_pinned_in what table key got show =
  match List.assoc_opt key table with
  | Some want -> check_pinned (what ^ " " ^ key) want got show
  | None -> check (Printf.sprintf "%s %s not pinned: (%S, %s);" what key key (show got)) false

(* --- host-time estimates -------------------------------------------------------- *)

(* Every timed unit of work (one program run on one tier, one table
   cell, one image audit, one machine build, ...) recurs in every round.
   Small shared hosts switch between speed modes up to ~1.75x apart that
   last seconds to minutes, so a whole run can sit in the slow mode.
   Each unit sample is therefore paired with a host-speed reference
   timed within 50 ms of it: fixed work owned by this benchmark (a tiny
   bytecode interpreter, the same kind of code as the simulator), which
   no change to the repository can touch.  A unit's time is the median
   of its samples' [dt /. reference], converted back to seconds at
   [reference_nominal], the reference's time in the fast mode of the
   2 GHz Xeon vCPU the baseline was recorded on. *)
let reference_nominal = 7e-4

type op =
  | Addi of int * int * int
  | Add of int * int * int
  | Xor of int * int * int
  | Ld of int * int
  | St of int * int
  | Bnez of int * int

let reference_program =
  [| Addi (1, 0, 30000); Addi (2, 0, 0); Ld (3, 2); Add (4, 4, 3); Xor (3, 3, 4);
     St (3, 2); Addi (2, 2, 37); Addi (1, 1, -1); Bnez (1, 2) |]

let reference_work () =
  let r = Array.make 8 0 and mem = Bytes.make 4096 '\001' and pc = ref 0 in
  while !pc < Array.length reference_program do
    match reference_program.(!pc) with
    | Addi (d, s, k) ->
        r.(d) <- (r.(s) + k) land 0xFFFF;
        incr pc
    | Add (d, a, b) ->
        r.(d) <- (r.(a) + r.(b)) land 0xFFFF;
        incr pc
    | Xor (d, a, b) ->
        r.(d) <- r.(a) lxor r.(b);
        incr pc
    | Ld (d, a) ->
        r.(d) <- Char.code (Bytes.get mem (r.(a) land 4095));
        incr pc
    | St (s, a) ->
        Bytes.set mem (r.(a) land 4095) (Char.chr (r.(s) land 255));
        incr pc
    | Bnez (s, t) -> if r.(s) <> 0 then pc := t else incr pc
  done;
  ignore (Sys.opaque_identity r)

let reference = ref nan
let reference_at = ref neg_infinity
let reference_times = ref []

let reference_probe () =
  let t0 = Span.now () in
  if t0 -. !reference_at > 0.05 then begin
    reference_work ();
    reference_at := Span.now ();
    reference := !reference_at -. t0;
    reference_times := !reference :: !reference_times
  end

let unit_times : (string * string, (float * float) list) Hashtbl.t = Hashtbl.create 1024
let unit_work : (string * string, float) Hashtbl.t = Hashtbl.create 1024

(* A unit longer than the probe interval is normalized by the mean of
   the probes taken before and after it. *)
let record ?(work = 1.) metric unit_ dt =
  let before = !reference in
  reference_probe ();
  let speed = if Float.is_nan before then !reference else (before +. !reference) /. 2. in
  let k = (metric, unit_) in
  Hashtbl.replace unit_times k
    ((dt, dt /. speed) :: Option.value ~default:[] (Hashtbl.find_opt unit_times k));
  Hashtbl.replace unit_work k work

(* Metric samples pooled over the whole run (the per-layer numbers). *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let sample name v =
  Hashtbl.replace samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let samples_of name = Option.value ~default:[] (Hashtbl.find_opt samples name)

(* Per-round counts behind the per-layer metrics. *)
let racc : (string, float) Hashtbl.t = Hashtbl.create 64
let get k = Option.value ~default:0. (Hashtbl.find_opt racc k)
let add k v = Hashtbl.replace racc k (get k +. v)
let addi k n = add k (float_of_int n)

let sorted xs = List.sort compare xs

let nearest_rank q xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let n = List.length s in
      List.nth s (max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

(* (work, time) of [metric]: summed unit work and summed unit times.
   [raw] sums the units' median measured times instead, for display. *)
let estimate ?(raw = false) metric =
  let pick xs =
    if raw then median (List.map fst xs) else reference_nominal *. median (List.map snd xs)
  in
  Hashtbl.fold
    (fun ((m, _) as k) xs (w, t) ->
      if m = metric then (w +. Hashtbl.find unit_work k, t +. pick xs) else (w, t))
    unit_times (0., 0.)

(* --- ISA programs ------------------------------------------------------------ *)

type program = {
  name : string;
  params : Core_model.params;
  build : unit -> Machine.t;
  linked : bool;  (** built by Loader.link (its build time is loader time) *)
  pinned : bool;  (** simulated results pinned in [Pinned.programs] *)
}

let fuel = 50_000_000

let build_machine p role =
  let m, dt =
    timed ~obj:p.name (if p.linked then "loader.link" else "setup.build") p.build
  in
  record "setup" (p.name ^ " for " ^ role) dt;
  m

let stop_name = function
  | Machine.Step_ok -> "fuel"
  | Machine.Step_trap _ -> "trap"
  | Machine.Step_waiting -> "waiting"
  | Machine.Step_halted -> "halted"
  | Machine.Step_double_fault -> "double-fault"

let perf_run p dispatch tier =
  let m = build_machine p ("perf.run." ^ tier) in
  let perf = Perf.create ~dispatch ~params:p.params m in
  let r, secs = timed ~obj:p.name ("perf.run." ^ tier) (fun () -> Perf.run ~fuel perf) in
  record ~work:(float_of_int m.Machine.minstret) ("timed." ^ tier) p.name secs;
  (m, r, perf.Perf.stats)

let machine_run p dispatch tier =
  let m = build_machine p ("machine.run." ^ tier) in
  let (r, _), secs =
    timed ~obj:p.name ("machine.run." ^ tier) (fun () -> Machine.run ~fuel ~dispatch m)
  in
  record ~work:(float_of_int m.Machine.minstret) ("func." ^ tier) p.name secs;
  (m, r, secs)

(* Per-program run times of the functional jit tier, pooled over the
   run (the scenario.run_* percentiles). *)
let program_us = ref []

let show_fp (cycles, insns, a0, mhash, phash) =
  Printf.sprintf "(%d, %d, %d, %S, %S)" cycles insns a0 mhash phash

(* The kernels job: every program four times on fresh machines. *)
let kernels_job programs =
  List.iter
    (fun p ->
      let pr_m, pr_r, sr = perf_run p Perf.Reference "ref" in
      let pj_m, pj_r, sj = perf_run p Perf.Jit "jit" in
      let mr_m, mr_r, _ = machine_run p Machine.Dispatch_ref "ref" in
      let mj_m, mj_r, mj_s = machine_run p Machine.Dispatch_jit "jit" in
      let stops = List.map stop_name [ pr_r; pj_r; mr_r; mj_r ] in
      check
        (Printf.sprintf "%s: runs stop alike at halt or wait (%s)" p.name
           (String.concat "/" stops))
        (List.for_all (( = ) (List.hd stops)) stops
        && (List.hd stops = "halted" || List.hd stops = "waiting"));
      check (p.name ^ ": Perf ref/jit simulated cycles, instructions, bus, traps")
        (sr.Perf.cycles = sj.Perf.cycles
        && sr.Perf.instructions = sj.Perf.instructions
        && sr.Perf.mem_busy = sj.Perf.mem_busy
        && sr.Perf.traps = sj.Perf.traps);
      let phash = Machine.state_hash pj_m and mhash = Machine.state_hash mj_m in
      check (p.name ^ ": Perf ref/jit minstret and state hash")
        (pr_m.Machine.minstret = pj_m.Machine.minstret
        && Machine.state_hash pr_m = phash);
      check (p.name ^ ": Machine ref/jit minstret and state hash")
        (mr_m.Machine.minstret = mj_m.Machine.minstret
        && Machine.state_hash mr_m = mhash);
      check (p.name ^ ": Perf and Machine retire the same instructions")
        (pj_m.Machine.minstret = mj_m.Machine.minstret);
      if p.pinned then
        check_pinned_in "program" Pinned.programs p.name
          ( sj.Perf.cycles,
            sj.Perf.instructions,
            Machine.reg_int mj_m Insn.reg_a0,
            mhash,
            phash )
          show_fp;
      program_us := (mj_s *. 1e6) :: !program_us;
      (* simulated and dispatch-layer counts, jit tier *)
      addi "perf.cycles" sj.Perf.cycles;
      addi "perf.instructions" sj.Perf.instructions;
      addi "perf.mem_busy" sj.Perf.mem_busy;
      addi "perf.traps" sj.Perf.traps;
      let bs = Machine.block_stats mj_m in
      addi "machine.block_hits" bs.Machine.block_hits;
      addi "machine.block_misses" bs.Machine.block_misses;
      addi "machine.blocks_filled" bs.Machine.blocks_filled;
      addi "machine.insns_translated" bs.Machine.insns_translated;
      addi "machine.block_invalidations" bs.Machine.block_invalidations;
      addi "machine.chain_hits" bs.Machine.chain_hits;
      addi "machine.chain_unlinks" bs.Machine.chain_unlinks;
      addi "machine.superblocks_formed" bs.Machine.superblocks_formed;
      addi "machine.side_exits" bs.Machine.side_exits;
      addi "ir.jit_blocks_compiled" bs.Machine.jit_blocks_compiled;
      addi "ir.checks_eliminated" bs.Machine.checks_eliminated;
      addi "ir.checks_hoisted" bs.Machine.checks_hoisted;
      addi "ir.opt_side_exits" bs.Machine.opt_side_exits)
    programs

(* --- the paper tables ---------------------------------------------------------- *)

(* How much of the paper's tables a round regenerates: Table 3 and the
   ablations always whole, Table 4 at [t4_sizes] on both cores, the IoT
   application for [iot_seconds] simulated seconds.  paper_tables does
   all of it (~12 s of host time); the other workloads a slice whose
   4096 B row sits between the allocator-bound small sizes and the
   revoker/zeroing-bound large ones. *)
type scale = { label : string; t4_sizes : int list; iot_seconds : float }

let full = { label = "full"; t4_sizes = Alloc_bench.paper_sizes; iot_seconds = 60.0 }
let slice = { label = "slice"; t4_sizes = [ 4096 ]; iot_seconds = 10.0 }

(* Table 4 cells the traced run sends through the replica below;
   smaller sizes make tens of thousands of calls per cell, too many
   spans to keep. *)
let traced_size size = size >= 4096

(* The published numbers, kept here so the model's error is printed
   beside the host-time metrics: (configuration, CoreMark/MHz, overhead
   vs the same core's RV32E baseline in %). *)
let paper_table3 =
  [
    ("Flute RV32E", 2.017, 0.0);
    ("Flute +capabilities", 1.892, 5.73);
    ("Flute +load filter", 1.892, 5.73);
    ("Ibex RV32E", 2.086, 0.0);
    ("Ibex +capabilities", 1.811, 13.18);
    ("Ibex +load filter", 1.624, 21.28);
  ]

let paper_iot_load = 17.5

let table3_configs =
  Core_model.
    [
      config ~cheri:false Flute;
      config ~cheri:true ~load_filter:false Flute;
      config ~cheri:true ~load_filter:true Flute;
      config ~cheri:false Ibex;
      config ~cheri:true ~load_filter:false Ibex;
      config ~cheri:true ~load_filter:true Ibex;
    ]

let last_table3 = ref []
let last_iot = ref None

let table3 () =
  let (), dt = timed "setup.calibrate" Coremark.calibrate in
  record "setup" "calibrate" dt;
  let results, _ =
    timed "coremark.table3" (fun () ->
        List.map2
          (fun c (name, _, _) ->
            let r, dt = timed ~obj:name "coremark.run" (fun () -> Coremark.run c) in
            record "tables" ("table3 " ^ name) dt;
            r)
          table3_configs paper_table3)
  in
  List.iter2
    (fun (r : Coremark.result) (name, _, _) ->
      check_pinned_in "table3" Pinned.table3 name
        (r.Coremark.cycles, r.Coremark.checksum)
        (fun (c, k) -> Printf.sprintf "(%d, %d)" c k))
    results paper_table3;
  let c0 = (List.hd results).Coremark.checksum in
  check "table3: all six configurations compute the same checksum"
    (List.for_all (fun (r : Coremark.result) -> r.Coremark.checksum = c0) results);
  last_table3 := results

let t4_configs =
  List.concat_map
    (fun hwm ->
      List.map (fun temporal -> (temporal, hwm))
        Allocator.[ Baseline; Metadata; Software; Hardware ])
    [ false; true ]

(* A copy of [Alloc_bench.run]'s loop, calling the allocator and the
   switcher directly so each call gets a span.  Must reproduce the
   library's simulated cycles exactly (checked against the untraced
   round's cells). *)
let alloc_replica (config : Alloc_bench.config) ~size =
  let open Alloc_bench in
  let params = Core_model.params_of config.core in
  let clock = Clock.create params in
  let sram = Sram.create ~base:stack_base ~size:(heap_base + heap_size - stack_base) in
  let rev = Revbits.create ~heap_base ~heap_size () in
  let alloc =
    Allocator.create ~temporal:config.temporal
      ~flute_poll_quirk:(config.core = Core_model.Flute)
      ~sram ~rev ~clock ~heap_base ~heap_size ()
  in
  let hw =
    match config.temporal with
    | Allocator.Hardware ->
        let hw = Revoker.create ~core:config.core ~sram ~rev () in
        Clock.attach_revoker clock hw;
        Allocator.attach_hw_revoker alloc hw;
        Some hw
    | Allocator.Software ->
        Allocator.set_sw_revoker alloc (Sw_revoker.create ~sram ~rev ~clock ());
        None
    | Allocator.Baseline | Allocator.Metadata -> None
  in
  let switcher = Switcher.create ~hwm_enabled:config.hwm ~sram clock in
  let sched = Sched.create ~hwm_enabled:config.hwm clock in
  let stack = Switcher.make_stack ~base:stack_base ~size:stack_size in
  stack.Switcher.sp <- stack_base + 384;
  stack.Switcher.hwm <- stack_base + 384;
  let app = Sched.spawn sched ~name:"bench" ~priority:1 ~stack in
  ignore (Sched.spawn sched ~name:"idle" ~priority:0 ~stack);
  Sched.switch_to sched app;
  Allocator.set_wait_ctx_pair alloc (2 * Sched.ctx_switch_cost sched);
  let obj = Printf.sprintf "%s/%d" (config_name config) size in
  let or_fail what = function
    | Ok v -> v
    | Error e -> failwith (Format.asprintf "%s(%d): %a" what size Allocator.pp_error e)
  in
  let cross f =
    fst
      (timed ~obj "switcher.cross_call" (fun () ->
           Switcher.cross_call switcher stack ~callee_frame:96
             ~callee_stack_use:allocator_stack_use f))
  in
  for _ = 1 to (1 lsl 20) / size do
    Clock.compute clock 20;
    let ptr =
      cross (fun () ->
          or_fail "malloc" (fst (timed ~obj "allocator.malloc" (fun () -> Allocator.malloc alloc size))))
    in
    Clock.compute clock 20;
    cross (fun () ->
        or_fail "free" (fst (timed ~obj "allocator.free" (fun () -> Allocator.free alloc ptr))))
  done;
  let st = Allocator.stats alloc in
  addi "allocator.sweeps" st.Allocator.sweeps;
  addi "allocator.sweep_cycles" st.Allocator.sweep_cycles;
  Option.iter (fun r -> addi "revoker.words_swept" (Revoker.words_swept r)) hw;
  Clock.cycles clock

(* Cycles of every Table 4 cell the untraced rounds computed, so the
   replica can be held to them. *)
let t4_seen : (string, int) Hashtbl.t = Hashtbl.create 64

let table4 scale =
  let grid, _ =
    timed "alloc_bench.table4" (fun () ->
        List.concat_map
          (fun core ->
            List.map
              (fun size ->
                List.map
                  (fun (temporal, hwm) ->
                    let config = { Alloc_bench.core; temporal; hwm } in
                    let key = Printf.sprintf "%s/%d" (Alloc_bench.config_name config) size in
                    if !Span.enabled && traced_size size then begin
                      let cycles, _ =
                        timed ~obj:(key ^ " (replica)") "alloc_bench.run" (fun () ->
                            alloc_replica config ~size)
                      in
                      check
                        (Printf.sprintf "table4 replica %s reproduces Alloc_bench.run" key)
                        (Hashtbl.find_opt t4_seen key = Some cycles);
                      cycles
                    end
                    else begin
                      let r, dt =
                        timed ~obj:key "alloc_bench.run" (fun () -> Alloc_bench.run config ~size)
                      in
                      record "tables" ("table4 " ^ key) dt;
                      Hashtbl.replace t4_seen key r.Alloc_bench.cycles;
                      r.Alloc_bench.cycles
                    end)
                  t4_configs)
              scale.t4_sizes)
          [ Core_model.Flute; Core_model.Ibex ])
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "," (List.map string_of_int (List.concat grid))))
  in
  check_pinned_in "table4 cycle grid" Pinned.table4 scale.label digest (Printf.sprintf "%S")

let iot scale =
  let r, dt = timed "iot_app.run" (fun () -> Iot_app.run ~seconds:scale.iot_seconds ()) in
  record "tables" "iot" dt;
  check_pinned_in "iot cpu load" Pinned.iot scale.label
    (Printf.sprintf "%.9f" r.Iot_app.cpu_load_percent)
    (Printf.sprintf "%S");
  last_iot := Some (scale.iot_seconds, r.Iot_app.cpu_load_percent)

(* The DESIGN.md ablations bench/main.ml prints, as numbers. *)
let ablations () =
  let revoker_sweep pipelined =
    let sram = Sram.create ~base:0x80000 ~size:(256 * 1024) in
    let rev = Revbits.create ~heap_base:0x80000 ~heap_size:(256 * 1024) () in
    let r = Revoker.create ~pipelined ~core:Core_model.Flute ~sram ~rev () in
    Revoker.kick r ~start:0x80000 ~stop:(0x80000 + (256 * 1024));
    [ Revoker.run_to_completion r ]
  in
  let threshold frac =
    let r =
      Alloc_bench.run_with_threshold
        { Alloc_bench.core = Core_model.Flute; temporal = Allocator.Hardware; hwm = true }
        ~size:1024 ~threshold:(256 * 1024 / frac)
    in
    Alloc_bench.[ r.cycles; r.sweeps; r.quarantine_peak ]
  in
  let granule g =
    [ Revbits.bitmap_bytes (Revbits.create ~granule_log2:g ~heap_base:0 ~heap_size:(256 * 1024) ()) ]
  in
  let sw_batch batch =
    let clock = Clock.create (Core_model.params_of Core_model.Flute) in
    let sram = Sram.create ~base:0x80000 ~size:(256 * 1024) in
    let rev = Revbits.create ~heap_base:0x80000 ~heap_size:(256 * 1024) () in
    let sw = Sw_revoker.create ~batch_granules:batch ~sram ~rev ~clock () in
    let batches = ref 0 and worst = ref 0 and last = ref 0 in
    Sw_revoker.sweep sw
      ~on_batch_end:(fun () ->
        incr batches;
        let now = Clock.cycles clock in
        worst := max !worst (now - !last);
        last := now)
      ~start:0x80000 ~stop:(0x80000 + (256 * 1024));
    [ !batches; !worst ]
  in
  let numbers, dt =
    timed "ablations" (fun () ->
        List.concat
          [
            revoker_sweep false;
            revoker_sweep true;
            List.concat_map threshold [ 2; 4; 8; 16 ];
            List.concat_map granule [ 3; 4; 5 ];
            List.concat_map sw_batch [ 32; 128; 512; 4096 ];
          ])
  in
  record "tables" "ablations" dt;
  check_pinned "ablations" Pinned.ablations
    (String.concat "," (List.map string_of_int numbers))
    (Printf.sprintf "%S")

let tables_job scale =
  table3 ();
  table4 scale;
  iot scale;
  ablations ()

(* --- the auditor ------------------------------------------------------------------ *)

type expect = Clean | Trips of string | Pinned_only

let catalogue =
  List.map (fun (n, b) -> (n, b, Clean)) Firmware.shipped
  @ List.map
      (fun (e : Corpus.entry) -> ("corpus/" ^ e.Corpus.name, e.Corpus.build, Trips e.Corpus.rule))
      Corpus.entries
  @ List.init 8 (fun i ->
        (Printf.sprintf "fleet-%d" i, (fun () -> Firmware.fleet ~variant:i ()), Pinned_only))

(* The export entries and boot pc [Audit.analyze_compartment] hands to
   [Cfg.build], recomputed here so the CFG layer can be timed on its
   own. *)
let cfg_entries (t : Loader.t) (b : Loader.built) =
  let lo = b.Loader.image.Asm.origin in
  let hi = lo + Asm.bytes_size b.Loader.image in
  let exports =
    List.map
      (fun (e : Compartment.export) -> Asm.label b.Loader.image e.Compartment.exp_label)
      b.Loader.bc.Compartment.exports
  in
  let boot = Cheriot_core.Capability.address t.Loader.machine.Machine.pcc in
  let entries = if boot >= lo && boot < hi then boot :: exports else exports in
  (lo, hi, List.sort_uniq compare entries)

(* [Audit.run_stats] rebuilt from its public steps, with a span around
   each; its reports must match the untraced sweep byte for byte. *)
let traced_run_stats ?cache name (t : Loader.t) =
  let link_acc = Audit.acc_create () in
  ignore (timed ~obj:name "audit.linkage" (fun () -> Audit.audit_linkage link_acc t));
  let hits = ref 0 and misses = ref 0 in
  let sums =
    List.map
      (fun ((cname, b) as cb) ->
        let obj = name ^ "/" ^ cname in
        let key, _ =
          timed ~obj "audit.summary_key" (fun () ->
              Audit.summary_key ~call_summaries:true ~field_sensitive:true t cb)
        in
        let fresh () =
          incr misses;
          let s, _ =
            timed ~obj "audit.analyze_compartment" (fun () ->
                Audit.analyze_compartment ~call_summaries:true ~field_sensitive:true ~key t cb)
          in
          let lo, hi, entries = cfg_entries t b in
          ignore
            (timed ~obj ~probe:true "cfg.build" (fun () ->
                 Cfg.build ~comp:cname ~sram:t.Loader.sram ~lo ~hi ~entries));
          s
        in
        match cache with
        | None -> fresh ()
        | Some c -> (
            match Summary.find c key with
            | Some s ->
                incr hits;
                s
            | None ->
                let s = fresh () in
                Summary.add c s;
                s))
      t.Loader.compartments
  in
  let flows, _ = timed ~obj:name "linkflow.analyze" (fun () -> Linkflow.analyze t sums) in
  ( List.rev link_acc.Audit.findings
    @ List.concat_map (fun (s : Summary.t) -> s.Summary.sm_findings) sums
    @ flows,
    { Audit.compartments = List.length t.Loader.compartments; cache_hits = !hits; cache_misses = !misses } )

let audit_image ?cache metric name t =
  let r, dt =
    timed ~obj:name "audit.image" (fun () ->
        if !Span.enabled then traced_run_stats ?cache name t else Audit.run_stats ?cache t)
  in
  record metric name dt;
  r

let report results =
  Rules.report_to_json (List.map (fun (n, (fs, _)) -> (n, Rules.sort_findings fs)) results)

let audit_job ~sweeps =
  let images =
    List.map
      (fun (name, build, expect) ->
        let t, dt = timed ~obj:name "loader.link" build in
        record "setup" ("link " ^ name) dt;
        (name, t, expect))
      catalogue
  in
  for _ = 1 to sweeps do
    let cold, _ =
      timed "audit.sweep.cold" (fun () ->
          List.map (fun (name, t, _) -> (name, audit_image "audit.cold" name t)) images)
    in
    let cache = Summary.create_cache () in
    let warm, _ =
      timed "audit.sweep.warm" (fun () ->
          List.map (fun (name, t, _) -> (name, audit_image ~cache "audit.warm" name t)) images)
    in
    let cold_json = report cold in
    check "audit: warm report byte-identical to cold" (String.equal cold_json (report warm));
    check_pinned "audit report" Pinned.audit
      (Digest.to_hex (Digest.string cold_json))
      (Printf.sprintf "%S");
    List.iter2
      (fun (name, _, expect) (_, ((fs : Rules.finding list), _)) ->
        match expect with
        | Clean -> check (Printf.sprintf "audit: shipped image %s is clean" name) (fs = [])
        | Trips rule ->
            check
              (Printf.sprintf "audit: %s trips exactly %s" name rule)
              (fs <> [] && List.for_all (fun (f : Rules.finding) -> f.Rules.rule = rule) fs)
        | Pinned_only -> ())
      images cold;
    Hashtbl.replace racc "audit.compartments"
      (float_of_int (List.fold_left (fun a (_, (_, s)) -> a + s.Audit.compartments) 0 cold));
    Hashtbl.replace racc "audit.findings"
      (float_of_int (List.fold_left (fun a (_, (fs, _)) -> a + List.length fs) 0 cold));
    List.iter
      (fun (_, (_, s)) ->
        addi "summary.hits" s.Audit.cache_hits;
        addi "summary.misses" s.Audit.cache_misses)
      warm
  done

(* --- the plan verifier ------------------------------------------------------------ *)

let plans_job programs ~reps =
  let collected =
    List.map
      (fun p ->
        let m = build_machine p "planverify.collect" in
        m.Machine.hot_threshold <- 2;
        m.Machine.hot_adaptive <- false;
        let plans, _ = timed ~obj:p.name "planverify.collect" (fun () -> Planverify.collect m) in
        check
          (p.name ^ ": every jit plan verifies Sound")
          (List.for_all (fun pl -> Planverify.verify_plan pl = Planverify.Sound) plans);
        (m, plans))
      programs
  in
  let plans = List.concat_map snd collected in
  let n = List.length plans in
  check "plans: the jit compiled at least one plan" (n > 0);
  Hashtbl.replace racc "planverify.plans" (float_of_int n);
  (* verification is microseconds per plan: repeat the set for 5 ms *)
  for _ = 1 to reps do
    let passes, dt =
      timed "planverify.verify" (fun () ->
          let t0 = Span.now () and passes = ref 0 in
          while Span.now () -. t0 < 0.005 do
            List.iter (fun pl -> ignore (Planverify.verify_plan pl)) plans;
            incr passes
          done;
          !passes)
    in
    record ~work:(float_of_int n) "plans" "pass over every plan" (dt /. float_of_int passes)
  done;
  if !Span.enabled then
    List.iter
      (fun (m, ps) ->
        List.iter
          (fun (pl : Planverify.plan) ->
            ignore
              (timed ~probe:true "ir.compile" (fun () ->
                   Machine.compile_jit m pl.Planverify.p_block)))
          ps)
      collected

(* --- workloads ------------------------------------------------------------------------- *)

let ibex = Core_model.params_of Core_model.Ibex

let kernel_programs =
  [
    {
      name = "coremark-cap-lf-ibex";
      params = ibex;
      build =
        (fun () ->
          Coremark.setup ~iterations:20
            (Core_model.config ~cheri:true ~load_filter:true Core_model.Ibex));
      linked = false;
      pinned = true;
    };
    {
      name = "coremark-rv32e-ibex";
      params = ibex;
      build =
        (fun () -> Coremark.setup ~iterations:20 (Core_model.config ~cheri:false Core_model.Ibex));
      linked = false;
      pinned = true;
    };
    {
      name = "alloc-isa";
      params = ibex;
      build = (fun () -> Alloc_bench.isa_setup ~rounds:200 ());
      linked = false;
      pinned = true;
    };
    {
      name = "iot-isa";
      params = ibex;
      build = (fun () -> Iot_app.isa_setup ~packets:400 ());
      linked = false;
      pinned = true;
    };
  ]

let image_programs =
  List.filter_map
    (fun (name, build, expect) ->
      match expect with
      | Trips _ -> None
      | Clean | Pinned_only ->
          Some
            {
              name = "image " ^ name;
              params = ibex;
              build = (fun () -> (build ()).Loader.machine);
              linked = true;
              pinned = true;
            })
    catalogue

let table3_programs =
  List.map2
    (fun (c : Core_model.config) (name, _, _) ->
      {
        name = "table3 " ^ name;
        params = Core_model.params_of c.Core_model.core;
        build = (fun () -> Coremark.setup c);
        linked = false;
        pinned = true;
      })
    table3_configs paper_table3

let scenario_batch = 400
let scenario_plan_batch = 40

let scenario_programs seed =
  let rand = Random.State.make [| seed |] in
  List.init scenario_batch (fun i ->
      let sc = QCheck.Gen.generate1 ~rand (Scenario.gen ()) in
      {
        name = Printf.sprintf "scenario-%d" i;
        params = ibex;
        build = (fun () -> (Scenario.link sc).Scenario.t.Loader.machine);
        linked = true;
        pinned = false;
      })

type workload = {
  programs : int -> program list;  (** seed -> the kernels job's inputs *)
  plan_programs : program list -> program list;
  tables : scale;
  kernel_reps : int;
  audit_sweeps : int;
  plan_reps : int;
}

let workloads =
  [
    ( "sim_kernels",
      {
        programs = (fun _ -> kernel_programs);
        plan_programs = Fun.id;
        tables = slice;
        kernel_reps = 1;
        audit_sweeps = 1;
        plan_reps = 4;
      } );
    ( "sim_cold",
      {
        programs = scenario_programs;
        plan_programs = List.filteri (fun i _ -> i < scenario_plan_batch);
        tables = slice;
        kernel_reps = 1;
        audit_sweeps = 1;
        plan_reps = 4;
      } );
    ( "paper_tables",
      {
        programs = (fun _ -> table3_programs);
        plan_programs = Fun.id;
        tables = full;
        kernel_reps = 3;
        audit_sweeps = 3;
        plan_reps = 12;
      } );
    ( "audit",
      {
        programs = (fun _ -> image_programs);
        plan_programs = Fun.id;
        tables = slice;
        kernel_reps = 1;
        audit_sweeps = 20;
        plan_reps = 60;
      } );
  ]

let round w programs plan_programs =
  for _ = 1 to w.kernel_reps do
    ignore (timed "job.kernels" (fun () -> kernels_job programs))
  done;
  tables_job w.tables;
  ignore (timed "job.audit" (fun () -> audit_job ~sweeps:w.audit_sweeps));
  ignore (timed "job.plans" (fun () -> plans_job plan_programs ~reps:w.plan_reps))

(* --- metrics ---------------------------------------------------------------------------- *)

type metric = { mname : string; unit_ : string; value : float }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let end_to_end ?raw () =
  let time mname metric = { mname; unit_ = "s"; value = snd (estimate ?raw metric) } in
  let rate ?(scale = 1.) mname unit_ metric =
    let w, t = estimate ?raw metric in
    { mname; unit_; value = w /. t /. scale }
  in
  let mips mname metric = rate ~scale:1e6 mname "Minsn/s" metric in
  [
    time "setup_s" "setup";
    mips "timed_mips" "timed.jit";
    mips "timed_mips_ref" "timed.ref";
    mips "func_mips" "func.jit";
    mips "func_mips_ref" "func.ref";
    time "tables_s" "tables";
    rate "audit_images_per_s" "1/s" "audit.cold";
    rate "audit_warm_images_per_s" "1/s" "audit.warm";
    rate "plans_per_s" "1/s" "plans";
    { mname = "peak_heap_mb"; unit_ = "MB"; value = peak_heap_mb () };
    {
      mname = "pass_share";
      unit_ = "ratio";
      value = float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted);
    };
  ]

(* Per-layer numbers of one traced round, from its spans and counters. *)
let layer_samples spans =
  let agg = Span.aggregate spans in
  let tot n = match Hashtbl.find_opt agg n with Some (t, _, _) -> t | None -> 0. in
  let self n = match Hashtbl.find_opt agg n with Some (_, s, _) -> s | None -> 0. in
  let perf_jit = tot "perf.run.jit" and mach_jit = tot "machine.run.jit" in
  let s = sample in
  s "perf.self_s" (perf_jit -. mach_jit);
  s "perf.share" (ratio (perf_jit -. mach_jit) perf_jit);
  s "perf.share_ref" (ratio (tot "perf.run.ref" -. tot "machine.run.ref") (tot "perf.run.ref"));
  List.iter
    (fun k -> s k (get k))
    [
      "perf.cycles"; "perf.instructions"; "perf.mem_busy"; "perf.traps";
      "machine.block_hits"; "machine.block_misses"; "machine.blocks_filled";
      "machine.insns_translated"; "machine.block_invalidations";
      "machine.chain_hits"; "machine.chain_unlinks";
      "machine.superblocks_formed"; "machine.side_exits";
      "ir.jit_blocks_compiled"; "ir.checks_eliminated"; "ir.checks_hoisted";
      "ir.opt_side_exits"; "allocator.sweeps"; "allocator.sweep_cycles";
      "revoker.words_swept"; "audit.compartments"; "audit.findings";
      "planverify.plans";
    ];
  s "perf.cpi" (ratio (get "perf.cycles") (get "perf.instructions"));
  s "machine.run_s" mach_jit;
  s "machine.chain_hit_ratio"
    (ratio (get "machine.chain_hits")
       (get "machine.chain_hits" +. get "machine.block_hits" +. get "machine.block_misses"));
  s "ir.compile_s" (tot "ir.compile");
  s "loader.link_s" (tot "loader.link");
  s "coremark.table3_s" (tot "coremark.table3");
  s "alloc_bench.run_s" (tot "alloc_bench.run");
  s "iot_app.run_s" (tot "iot_app.run");
  s "ablations_s" (tot "ablations");
  s "allocator.malloc_s" (tot "allocator.malloc");
  s "allocator.free_s" (tot "allocator.free");
  s "switcher.cross_call_s" (self "switcher.cross_call");
  s "audit.summary_key_s" (tot "audit.summary_key");
  s "audit.analyze_compartment_s" (tot "audit.analyze_compartment");
  s "cfg.build_s" (tot "cfg.build");
  s "audit.linkage_s" (tot "audit.linkage");
  s "linkflow.analyze_s" (tot "linkflow.analyze");
  s "summary.cache_hit_ratio"
    (ratio (get "summary.hits") (get "summary.hits" +. get "summary.misses"));
  s "planverify.collect_s" (tot "planverify.collect");
  s "planverify.verify_s" (tot "planverify.verify");
  s "tier_ratio.timed" (ratio (tot "perf.run.ref") perf_jit);
  s "tier_ratio.func" (ratio (tot "machine.run.ref") mach_jit);
  s "trace.spans" (float_of_int (List.length spans))

let per_layer ~overhead =
  let m mname unit_ = { mname; unit_; value = median (samples_of mname) } in
  let us = !program_us in
  [
    m "perf.self_s" "s"; m "perf.share" "ratio"; m "perf.share_ref" "ratio";
    m "perf.cycles" "cycles"; m "perf.instructions" "count"; m "perf.cpi" "cycles/insn";
    m "perf.mem_busy" "cycles"; m "perf.traps" "count";
    m "machine.run_s" "s"; m "machine.block_hits" "count"; m "machine.block_misses" "count";
    m "machine.blocks_filled" "count"; m "machine.insns_translated" "count";
    m "machine.block_invalidations" "count"; m "machine.chain_hits" "count";
    m "machine.chain_unlinks" "count"; m "machine.chain_hit_ratio" "ratio";
    m "machine.superblocks_formed" "count"; m "machine.side_exits" "count";
    m "ir.jit_blocks_compiled" "count"; m "ir.checks_eliminated" "count";
    m "ir.checks_hoisted" "count"; m "ir.opt_side_exits" "count"; m "ir.compile_s" "s";
    m "loader.link_s" "s";
    { mname = "scenario.run_p50_us"; unit_ = "us"; value = nearest_rank 0.5 us };
    { mname = "scenario.run_p99_us"; unit_ = "us"; value = nearest_rank 0.99 us };
    { mname = "scenario.samples"; unit_ = "count"; value = float_of_int (List.length us) };
    m "coremark.table3_s" "s"; m "alloc_bench.run_s" "s"; m "iot_app.run_s" "s";
    m "ablations_s" "s"; m "allocator.malloc_s" "s"; m "allocator.free_s" "s";
    m "switcher.cross_call_s" "s"; m "allocator.sweeps" "count";
    m "allocator.sweep_cycles" "cycles"; m "revoker.words_swept" "count";
    m "audit.summary_key_s" "s"; m "audit.analyze_compartment_s" "s"; m "cfg.build_s" "s";
    m "audit.linkage_s" "s"; m "linkflow.analyze_s" "s"; m "summary.cache_hit_ratio" "ratio";
    m "audit.compartments" "count"; m "audit.findings" "count";
    m "planverify.collect_s" "s"; m "planverify.verify_s" "s"; m "planverify.plans" "count";
    m "tier_ratio.timed" "ratio"; m "tier_ratio.func" "ratio";
    m "trace.spans" "count";
    { mname = "trace.overhead_share"; unit_ = "ratio"; value = overhead };
  ]

(* --- reporting ----------------------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_table metrics =
  List.iter
    (fun { mname; unit_; value } ->
      let xs = samples_of mname in
      let n = List.length xs in
      if n > 1 then
        Printf.printf "  %-30s %14.6g %-12s (median of %d; q1 %.6g, q3 %.6g)\n" mname value
          unit_ n (nearest_rank 0.25 xs) (nearest_rank 0.75 xs)
      else Printf.printf "  %-30s %14.6g %s\n" mname value unit_)
    metrics

let print_accuracy () =
  match !last_table3 with
  | [] -> ()
  | results ->
      print_endline
        "accuracy (simulated; the published numbers are the model's only validation):";
      let base i = (List.nth results (if i < 3 then 0 else 3)).Coremark.score in
      List.iteri
        (fun i ((r : Coremark.result), (name, pscore, povh)) ->
          let ovh = 100. *. (base i -. r.Coremark.score) /. base i in
          Printf.printf
            "  Table 3 %-20s score %.3f (paper %.3f, error %+.2f%%)  overhead %5.2f%% (paper \
             %5.2f%%, %+.2f pp)\n"
            name r.Coremark.score pscore
            (100. *. (r.Coremark.score -. pscore) /. pscore)
            ovh povh (ovh -. povh))
        (List.combine results paper_table3);
      Option.iter
        (fun (seconds, load) ->
          Printf.printf "  IoT CPU load over %g simulated s %.2f%% (paper, 60 s: %.1f%%, %+.2f pp)\n"
            seconds load paper_iot_load (load -. paper_iot_load))
        !last_iot

let print_self_times spans =
  let agg = Span.aggregate spans in
  let rows = Hashtbl.fold (fun k (t, s, n) a -> (k, t, s, n) :: a) agg [] in
  let rows = List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a) rows in
  print_endline "trace: self time by span over all traced rounds";
  List.iteri
    (fun i (k, t, s, n) ->
      if i < 20 then Printf.printf "  %-28s self %10.4f s  total %10.4f s  spans %d\n" k s t n)
    rows

(* --- driver ---------------------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload sim_kernels|sim_cold|paper_tables|audit --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10. and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some s -> seed := s | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match List.assoc_opt !workload workloads with Some w -> w | None -> usage () in
  let origin = Span.now () in
  let programs = w.programs !seed in
  let plan_programs = w.plan_programs programs in
  let untraced = ref [] and traced = ref [] and rounds = ref 0 in
  let traced_spans = ref [] in
  while !rounds < 2 || Span.now () -. origin < !seconds do
    let is_traced = !trace && !rounds mod 2 = 1 in
    Span.enabled := is_traced;
    Hashtbl.reset racc;
    let mark = !Span.next_id in
    let (), dt = timed "round" (fun () -> round w programs plan_programs) in
    Span.enabled := false;
    if is_traced then begin
      let spans = Span.since mark in
      traced := (dt -. Span.probe_time spans) :: !traced;
      traced_spans := spans @ !traced_spans;
      layer_samples spans
    end
    else untraced := dt :: !untraced;
    incr rounds
  done;
  Printf.printf "perfbench %s: seed %d, %d rounds in %.2f s, %d checks, %d failed\n" !workload
    !seed !rounds (Span.now () -. origin) !attempted !failed;
  let metrics =
    if !trace then begin
      let overhead = ratio (median !traced -. median !untraced) (median !untraced) in
      (try Sys.mkdir "_perfbench" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf "_perfbench/trace-%s-seed%d.jsonl" !workload !seed in
      Span.write ~origin path;
      print_self_times !traced_spans;
      Printf.printf "trace: %d spans written to %s; round %.3f s traced vs %.3f s untraced\n"
        (List.length !Span.recorded) path (median !traced) (median !untraced);
      per_layer ~overhead
    end
    else begin
      Printf.printf "reference: %d probes, fastest %.6f s, median %.6f s (nominal %.6f s)\n"
        (List.length !reference_times) (nearest_rank 0. !reference_times) (median !reference_times)
        reference_nominal;
      print_endline "measured host times, not normalized (sums of unit medians):";
      print_table (end_to_end ~raw:true ());
      print_endline "normalized to the reference's nominal speed (the JSON line):";
      end_to_end ()
    end
  in
  print_table metrics;
  print_accuracy ();
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun { mname; unit_; value } ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string mname)
              (json_number value) (Span.json_string unit_))
          metrics))
