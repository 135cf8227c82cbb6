(* The benchmark harness: regenerates every table and figure in the
   paper's evaluation (section 7) from the simulator, side by side with
   the published numbers, plus the DESIGN.md ablations.

   Usage:
     bench/main.exe                 -- everything
     bench/main.exe table1|table2|table3|table4|fig5|fig6|iot|ablations
*)

module Core_model = Cheriot_uarch.Core_model
module Coremark = Cheriot_workloads.Coremark
module Alloc_bench = Cheriot_workloads.Alloc_bench
module Iot_app = Cheriot_workloads.Iot_app
module Allocator = Cheriot_rtos.Allocator
module Gates = Cheriot_area.Gates

let section title = Format.printf "@.=== %s ===@.@." title

(* --- Table 1 / Fig 2: the permission ontology ------------------------- *)

let table1 () =
  section "Table 1 / Fig. 2 -- permissions and their compressed encoding";
  Format.printf "%-6s %-12s %s@." "bits" "format" "decoded set";
  for bits = 0 to 63 do
    let s = Cheriot_core.Perm.decode bits in
    match Cheriot_core.Perm.format_of s with
    | Some fmt when Cheriot_core.Perm.encode s = Some bits ->
        let fmt_name =
          match fmt with
          | Cheriot_core.Perm.Mem_cap_rw -> "mem-cap-rw"
          | Mem_cap_ro -> "mem-cap-ro"
          | Mem_cap_wo -> "mem-cap-wo"
          | Mem_no_cap -> "mem-no-cap"
          | Executable -> "executable"
          | Sealing -> "sealing"
        in
        Format.printf "0x%02x   %-12s %a@." bits fmt_name
          Cheriot_core.Perm.Set.pp s
    | _ -> ()
  done;
  Format.printf
    "@.(every 6-bit value decodes, no redundant encodings; EX+SD is \
     unrepresentable: W^X in hardware)@."

(* --- Table 2 ----------------------------------------------------------- *)

let paper_table2 =
  [
    ("RV32E", 26988, 1.437);
    ("RV32E + PMP16", 55905, 2.16);
    ("RV32E + capabilities", 58110, 2.58);
    ("  + load filter", 58431, 2.58);
    ("    + background revoker", 61422, 2.73);
  ]

let table2 () =
  section "Table 2 -- area and power of Ibex variants (TSMC 28nm, 300 MHz)";
  Format.printf "%-28s %22s %24s@." "" "gates (paper)" "power mW (paper)";
  List.iter2
    (fun (name, gates, ratio, p, pr) (_, pg, pp_) ->
      Format.printf "%-28s %8d (%6d) %5.2fx   %6.3f (%5.3f) %5.2fx@." name
        gates pg ratio p pp_ pr)
    (Gates.table2 ()) paper_table2;
  Format.printf "@.f_max: %d MHz for all variants@." (Gates.fmax_mhz 0)

(* --- Table 3 ----------------------------------------------------------- *)

let paper_table3 =
  [
    ("Flute RV32E", 2.017, 0.0);
    ("Flute +capabilities", 1.892, 5.73);
    ("Flute +load filter", 1.892, 5.73);
    ("Ibex RV32E", 2.086, 0.0);
    ("Ibex +capabilities", 1.811, 13.18);
    ("Ibex +load filter", 1.624, 21.28);
  ]

let table3 () =
  section "Table 3 -- CoreMark/MHz";
  Coremark.calibrate ();
  let configs =
    [
      Core_model.config ~cheri:false Flute;
      Core_model.config ~cheri:true ~load_filter:false Flute;
      Core_model.config ~cheri:true ~load_filter:true Flute;
      Core_model.config ~cheri:false Ibex;
      Core_model.config ~cheri:true ~load_filter:false Ibex;
      Core_model.config ~cheri:true ~load_filter:true Ibex;
    ]
  in
  let results = List.map Coremark.run configs in
  let base_flute = (List.nth results 0).Coremark.score in
  let base_ibex = (List.nth results 3).Coremark.score in
  Format.printf "%-24s %8s %10s %14s %12s@." "" "score" "overhead"
    "paper score" "paper ovh";
  List.iteri
    (fun i r ->
      let name, pscore, povh = List.nth paper_table3 i in
      let base = if i < 3 then base_flute else base_ibex in
      let ovh = 100.0 *. (base -. r.Coremark.score) /. base in
      Format.printf "%-24s %8.3f %9.2f%% %14.3f %11.2f%%@." name
        r.Coremark.score ovh pscore povh)
    results;
  let c0 = (List.nth results 0).Coremark.checksum in
  assert (List.for_all (fun r -> r.Coremark.checksum = c0) results);
  Format.printf
    "@.(all six configurations compute identical checksums: 0x%x)@." c0

(* --- Table 4 / Figs 5-6 ------------------------------------------------ *)

let alloc_configs hwm =
  [
    (Allocator.Baseline, hwm);
    (Allocator.Metadata, hwm);
    (Allocator.Software, hwm);
    (Allocator.Hardware, hwm);
  ]

let run_alloc_table core =
  List.map
    (fun size ->
      let row =
        List.map
          (fun (temporal, hwm) ->
            Alloc_bench.run { Alloc_bench.core; temporal; hwm } ~size)
          (alloc_configs false @ alloc_configs true)
      in
      (size, row))
    Alloc_bench.paper_sizes

let print_alloc_table core =
  let tbl = run_alloc_table core in
  Format.printf "%-8s %10s %10s %10s %10s %10s %10s %10s %10s@." "size"
    "Baseline" "Metadata" "Software" "Hardware" "Base(S)" "Meta(S)" "Soft(S)"
    "Hard(S)";
  List.iter
    (fun (size, row) ->
      Format.printf "%-8d" size;
      List.iter (fun r -> Format.printf " %10d" r.Alloc_bench.cycles) row;
      Format.printf "@.")
    tbl;
  tbl

let table4 () =
  section "Table 4 -- cycles to allocate 1 MiB of heap at different sizes";
  Format.printf "--- Flute ---@.";
  let f = print_alloc_table Core_model.Flute in
  Format.printf "@.--- Ibex ---@.";
  let i = print_alloc_table Core_model.Ibex in
  (f, i)

let print_overheads tbl =
  Format.printf "%-8s %10s %10s %10s %10s %10s %10s %10s@." "size" "Metadata"
    "Software" "Hardware" "Base(S)" "Meta(S)" "Soft(S)" "Hard(S)";
  List.iter
    (fun (size, row) ->
      match row with
      | base :: rest ->
          Format.printf "%-8d" size;
          List.iter
            (fun r ->
              Format.printf " %9.1f%%"
                (Alloc_bench.overhead_vs_baseline ~baseline:base r))
            rest;
          Format.printf "@."
      | [] -> ())
    tbl

let fig56 core name tbl =
  section
    (Printf.sprintf
       "Fig. %s -- allocator overhead vs baseline (no temporal safety), %s"
       name (Core_model.name core));
  print_overheads tbl

(* --- end-to-end IoT application ---------------------------------------- *)

let iot () =
  section "Section 7.2.3 -- end-to-end IoT application (Ibex @ 20 MHz, 60 s)";
  let r = Iot_app.run ~seconds:60.0 () in
  Format.printf
    "CPU load: %.1f%% (paper: 17.5%%); idle thread: %.1f%% (paper: 82.5%%)@."
    r.Iot_app.cpu_load_percent r.Iot_app.idle_percent;
  Format.printf
    "packets: %d  JS frames: %d  heap allocations: %d  revocation sweeps: \
     %d  context switches: %d@."
    r.Iot_app.packets r.Iot_app.js_ticks r.Iot_app.allocations
    r.Iot_app.sweeps r.Iot_app.context_switches

(* --- ablations (DESIGN.md section 5) ------------------------------------ *)

let ablations () =
  section "Ablation: background revoker pipelining (3.3.3)";
  let sweep pipelined =
    let sram = Cheriot_mem.Sram.create ~base:0x80000 ~size:(256 * 1024) in
    let rev =
      Cheriot_mem.Revbits.create ~heap_base:0x80000 ~heap_size:(256 * 1024) ()
    in
    let r =
      Cheriot_uarch.Revoker.create ~pipelined ~core:Core_model.Flute ~sram
        ~rev ()
    in
    Cheriot_uarch.Revoker.kick r ~start:0x80000 ~stop:(0x80000 + (256 * 1024));
    Cheriot_uarch.Revoker.run_to_completion r
  in
  let one = sweep false and two = sweep true in
  Format.printf
    "256 KiB sweep: 1-stage %d cycles, 2-stage %d cycles (%.2fx speedup)@."
    one two
    (float_of_int one /. float_of_int two);

  section "Ablation: quarantine threshold (sweep frequency vs memory)";
  List.iter
    (fun frac ->
      let threshold = 256 * 1024 / frac in
      let r =
        Alloc_bench.run_with_threshold
          {
            Alloc_bench.core = Core_model.Flute;
            temporal = Allocator.Hardware;
            hwm = true;
          }
          ~size:1024 ~threshold
      in
      Format.printf
        "threshold heap/%-2d (%3d KiB): %9d cycles, %3d sweeps, quarantine \
         peak %d KiB@."
        frac (threshold / 1024) r.Alloc_bench.cycles r.Alloc_bench.sweeps
        (r.Alloc_bench.quarantine_peak / 1024))
    [ 2; 4; 8; 16 ];

  section "Ablation: revocation granule size (3.3.1)";
  List.iter
    (fun granule_log2 ->
      let heap = 256 * 1024 in
      let rev =
        Cheriot_mem.Revbits.create ~granule_log2 ~heap_base:0 ~heap_size:heap
          ()
      in
      let bitmap = Cheriot_mem.Revbits.bitmap_bytes rev in
      Format.printf
        "granule %2d B: bitmap %5d B (%.2f%% of heap), min allocation slack \
         %d B@."
        (1 lsl granule_log2) bitmap
        (100.0 *. float_of_int bitmap /. float_of_int heap)
        ((1 lsl granule_log2) - 8))
    [ 3; 4; 5 ];

  section "Ablation: software revoker batch size (real-time latency, 2.1)";
  List.iter
    (fun batch ->
      let params = Core_model.params_of Core_model.Flute in
      let clock = Cheriot_rtos.Clock.create params in
      let sram = Cheriot_mem.Sram.create ~base:0x80000 ~size:(256 * 1024) in
      let rev =
        Cheriot_mem.Revbits.create ~heap_base:0x80000 ~heap_size:(256 * 1024)
          ()
      in
      let sw =
        Cheriot_rtos.Sw_revoker.create ~batch_granules:batch ~sram ~rev ~clock
          ()
      in
      let batches = ref 0 in
      let worst = ref 0 in
      let last = ref 0 in
      Cheriot_rtos.Sw_revoker.sweep sw
        ~on_batch_end:(fun () ->
          incr batches;
          let now = Cheriot_rtos.Clock.cycles clock in
          worst := max !worst (now - !last);
          last := now)
        ~start:0x80000
        ~stop:(0x80000 + (256 * 1024));
      Format.printf
        "batch %5d granules: %3d preemption points, worst \
         interrupts-disabled window %6d cycles@."
        batch !batches !worst)
    [ 32; 128; 512; 4096 ]

(* --- driver -------------------------------------------------------------- *)

let all () =
  table1 ();
  table2 ();
  table3 ();
  let flute, ibex = table4 () in
  fig56 Core_model.Flute "5" flute;
  fig56 Core_model.Ibex "6" ibex;
  iot ();
  ablations ()

let () =
  match Sys.argv with
  | [| _ |] -> all ()
  | [| _; "table1" |] -> table1 ()
  | [| _; "table2" |] -> table2 ()
  | [| _; "table3" |] -> table3 ()
  | [| _; "table4" |] -> ignore (table4 ())
  | [| _; "fig5" |] -> fig56 Core_model.Flute "5" (run_alloc_table Core_model.Flute)
  | [| _; "fig6" |] -> fig56 Core_model.Ibex "6" (run_alloc_table Core_model.Ibex)
  | [| _; "iot" |] -> iot ()
  | [| _; "ablations" |] -> ablations ()
  | _ ->
      prerr_endline
        "usage: main.exe [table1|table2|table3|table4|fig5|fig6|iot|ablations]";
      exit 2
