(* Tests for the evaluation workloads: the CoreMark-shaped suite
   (Table 3), the allocation microbenchmark (Table 4 / Figs 5-6) and the
   IoT application (7.2.3).  These check the qualitative claims of the
   paper's evaluation — who wins, and in which direction each mechanism
   moves the numbers — not absolute values, apart from the pins of exact
   simulated numbers (Table 3's cycles and instructions, a Table 4 cycle
   grid per size, the IoT load). *)

module Core_model = Cheriot_uarch.Core_model
module Perf = Cheriot_uarch.Perf
module Coremark = Cheriot_workloads.Coremark
module Alloc_bench = Cheriot_workloads.Alloc_bench
module Iot_app = Cheriot_workloads.Iot_app
module Allocator = Cheriot_rtos.Allocator

let cm ?(iterations = 3) core ~cheri ~filter =
  Coremark.run ~iterations (Core_model.config ~cheri ~load_filter:filter core)

let test_coremark_checksums_agree () =
  (* The capability build must compute exactly what the baseline does:
     source-level compatibility (paper 1). *)
  let rs =
    [
      cm Flute ~cheri:false ~filter:false;
      cm Flute ~cheri:true ~filter:false;
      cm Flute ~cheri:true ~filter:true;
      cm Ibex ~cheri:false ~filter:false;
      cm Ibex ~cheri:true ~filter:true;
    ]
  in
  match rs with
  | r0 :: rest ->
      List.iter
        (fun r ->
          Alcotest.(check int) "checksum" r0.Coremark.checksum
            r.Coremark.checksum)
        rest
  | [] -> assert false

let test_coremark_table3_shape () =
  let f_base = cm Flute ~cheri:false ~filter:false in
  let f_caps = cm Flute ~cheri:true ~filter:false in
  let f_filt = cm Flute ~cheri:true ~filter:true in
  let i_base = cm Ibex ~cheri:false ~filter:false in
  let i_caps = cm Ibex ~cheri:true ~filter:false in
  let i_filt = cm Ibex ~cheri:true ~filter:true in
  (* capabilities cost cycles on both cores *)
  Alcotest.(check bool) "Flute caps slower" true
    (f_caps.Coremark.cycles > f_base.Coremark.cycles);
  Alcotest.(check bool) "Ibex caps slower" true
    (i_caps.Coremark.cycles > i_base.Coremark.cycles);
  (* the load filter is free on Flute (hidden in the pipeline, Fig. 4) *)
  Alcotest.(check int) "Flute filter free" f_caps.Coremark.cycles
    f_filt.Coremark.cycles;
  (* ... and visible on Ibex (extra load-to-use on clc) *)
  Alcotest.(check bool) "Ibex filter costs" true
    (i_filt.Coremark.cycles > i_caps.Coremark.cycles);
  (* Ibex pays proportionally more for capabilities (narrow bus) *)
  let ovh c b =
    float_of_int (c.Coremark.cycles - b.Coremark.cycles)
    /. float_of_int b.Coremark.cycles
  in
  Alcotest.(check bool) "Ibex caps overhead > Flute's" true
    (ovh i_caps i_base > ovh f_caps f_base);
  (* instruction counts: same binary shape per ISA across cores *)
  Alcotest.(check int) "insns core-independent"
    f_caps.Coremark.instructions i_caps.Coremark.instructions

let test_coremark_deterministic () =
  let a = cm Flute ~cheri:true ~filter:true in
  let b = cm Flute ~cheri:true ~filter:true in
  Alcotest.(check int) "cycles deterministic" a.Coremark.cycles
    b.Coremark.cycles

(* Smaller total so the property tests stay fast; the shapes hold at any
   churn volume. *)
let ab ?(total = 128 * 1024) core temporal hwm ~size =
  Alloc_bench.run ~total { Alloc_bench.core; temporal; hwm } ~size

let test_alloc_bench_ordering () =
  List.iter
    (fun size ->
      let base = ab Core_model.Flute Allocator.Baseline false ~size in
      let meta = ab Core_model.Flute Allocator.Metadata false ~size in
      let sw = ab Core_model.Flute Allocator.Software false ~size in
      let hw = ab Core_model.Flute Allocator.Hardware false ~size in
      Alcotest.(check bool)
        (Printf.sprintf "size %d: metadata costs more than baseline" size)
        true
        (meta.Alloc_bench.cycles >= base.Alloc_bench.cycles);
      Alcotest.(check bool)
        (Printf.sprintf "size %d: software >= metadata" size)
        true
        (sw.Alloc_bench.cycles >= meta.Alloc_bench.cycles);
      Alcotest.(check bool)
        (Printf.sprintf "size %d: hardware revoker beats software" size)
        true
        (hw.Alloc_bench.cycles <= sw.Alloc_bench.cycles))
    [ 64; 1024; 16384 ]

let test_alloc_bench_hwm_helps_small () =
  let base = ab Core_model.Flute Allocator.Baseline false ~size:32 in
  let hwm = ab Core_model.Flute Allocator.Baseline true ~size:32 in
  let saving =
    float_of_int (base.Alloc_bench.cycles - hwm.Alloc_bench.cycles)
    /. float_of_int base.Alloc_bench.cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "HWM saves ~10%% at 32B (got %.1f%%)" (100. *. saving))
    true
    (saving > 0.04 && saving < 0.2)

let test_alloc_bench_revocation_dominates_large () =
  let sw = ab Core_model.Flute Allocator.Software false ~size:65536 ~total:(256 * 1024) in
  Alcotest.(check bool) "sweeps happen" true (sw.Alloc_bench.sweeps > 0);
  Alcotest.(check bool) "revocation dominates at 64KiB" true
    (float_of_int sw.Alloc_bench.sweep_cycles
    > 0.5 *. float_of_int sw.Alloc_bench.cycles)

let test_alloc_bench_ibex_hwm_anomaly () =
  (* Paper 7.2.2: at 128 KiB on Ibex, Hardware+HWM is slower than
     Hardware alone — the two extra CSRs on every wait context switch. *)
  let hw = ab Core_model.Ibex Allocator.Hardware false ~size:131072 ~total:(1 lsl 20) in
  let hwm = ab Core_model.Ibex Allocator.Hardware true ~size:131072 ~total:(1 lsl 20) in
  Alcotest.(check bool)
    (Printf.sprintf "HWM slower with hw revoker at 128KiB (%d vs %d)"
       hwm.Alloc_bench.cycles hw.Alloc_bench.cycles)
    true
    (hwm.Alloc_bench.cycles > hw.Alloc_bench.cycles)

let test_alloc_bench_deterministic () =
  let a = ab Core_model.Ibex Allocator.Hardware true ~size:4096 in
  let b = ab Core_model.Ibex Allocator.Hardware true ~size:4096 in
  Alcotest.(check int) "deterministic" a.Alloc_bench.cycles b.Alloc_bench.cycles

(* MD5 of a Table 4 cycle grid in perfbench's order: Flute then Ibex,
   without then with the HWM, Baseline/Metadata/Software/Hardware. *)
let table4_grid ?total size =
  let cycles core hwm temporal =
    (Alloc_bench.run ?total { Alloc_bench.core; temporal; hwm } ~size)
      .Alloc_bench.cycles
  in
  List.concat_map
    (fun core ->
      List.concat_map
        (fun hwm ->
          List.map (cycles core hwm)
            Allocator.[ Baseline; Metadata; Software; Hardware ])
        [ false; true ])
    [ Core_model.Flute; Core_model.Ibex ]
  |> List.map string_of_int |> String.concat "," |> Digest.string
  |> Digest.to_hex

(* Simulated cycles are properties of the modelled hardware: a change
   that only speeds up the simulator must leave these grids identical.
   The 4096 B grid is perfbench's slice pin. *)
let test_table4_pinned () =
  Alcotest.(check string) "4096 B, 1 MiB (perfbench slice)"
    "443d78b36dee1e2e78786e92a073a8c7" (table4_grid 4096);
  Alcotest.(check string) "32 B, 128 KiB" "b12c4972e91e05eb5d51fec99538560a"
    (table4_grid ~total:(128 * 1024) 32);
  Alcotest.(check string) "256 B, 128 KiB" "9262dd0caebc0f059da728d04a8e9223"
    (table4_grid ~total:(128 * 1024) 256)

(* Table 3's simulated totals, run as [bench/main.exe table3] runs them
   (10 iterations on [Perf.Reference]), in its order: the scores it
   prints are these cycles against the calibrated Flute RV32E run. *)
let test_table3_pinned () =
  List.iter
    (fun (config, cycles, instructions) ->
      let r = Coremark.run ~iterations:10 ~dispatch:Perf.Reference config in
      let what w = Core_model.config_name config ^ " " ^ w in
      Alcotest.(check int) (what "cycles") cycles r.Coremark.cycles;
      Alcotest.(check int) (what "instructions") instructions
        r.Coremark.instructions)
    Core_model.
      [
        (config ~cheri:false Flute, 148922, 104795);
        (config ~cheri:true ~load_filter:false Flute, 156362, 112235);
        (config ~cheri:true ~load_filter:true Flute, 156362, 112235);
        (config ~cheri:false Ibex, 143624, 104795);
        (config ~cheri:true ~load_filter:false Ibex, 161384, 112235);
        (config ~cheri:true ~load_filter:true Ibex, 167144, 112235);
      ]

let test_iot_app () =
  let r = Iot_app.run ~seconds:3.0 () in
  Alcotest.(check string) "CPU load pinned" "21.065416360887831"
    (Printf.sprintf "%.17g" r.Iot_app.cpu_load_percent);
  Alcotest.(check bool)
    (Printf.sprintf "CPU load plausible (%.1f%%)" r.Iot_app.cpu_load_percent)
    true
    (r.Iot_app.cpu_load_percent > 8.0 && r.Iot_app.cpu_load_percent < 30.0);
  Alcotest.(check bool) "mostly idle" true (r.Iot_app.idle_percent > 70.0);
  Alcotest.(check bool) "js ticks ~100/s" true
    (abs (r.Iot_app.js_ticks - 300) < 30);
  Alcotest.(check bool) "packets flowed" true (r.Iot_app.packets > 10);
  let r2 = Iot_app.run ~seconds:3.0 () in
  Alcotest.(check (float 0.001)) "deterministic" r.Iot_app.cpu_load_percent
    r2.Iot_app.cpu_load_percent

let test_iot_app_software_revoker_variant () =
  (* The optional/ablation variant: same app with the software revoker
     still fits the real-time budget, just with more CPU load. *)
  let hw = Iot_app.run ~seconds:2.0 ~temporal:Allocator.Hardware () in
  let sw = Iot_app.run ~seconds:2.0 ~temporal:Allocator.Software () in
  Alcotest.(check bool) "software revoker costs more CPU" true
    (sw.Iot_app.cpu_load_percent >= hw.Iot_app.cpu_load_percent);
  Alcotest.(check bool) "still far from saturation" true
    (sw.Iot_app.cpu_load_percent < 50.0)

let suite =
  [
    Alcotest.test_case "coremark checksums agree across builds" `Quick
      test_coremark_checksums_agree;
    Alcotest.test_case "coremark Table 3 shape" `Quick
      test_coremark_table3_shape;
    Alcotest.test_case "coremark deterministic" `Quick
      test_coremark_deterministic;
    Alcotest.test_case "alloc bench config ordering" `Slow
      test_alloc_bench_ordering;
    Alcotest.test_case "HWM saves ~10% at small sizes" `Quick
      test_alloc_bench_hwm_helps_small;
    Alcotest.test_case "revocation dominates large sizes" `Quick
      test_alloc_bench_revocation_dominates_large;
    Alcotest.test_case "Ibex 128KiB HWM anomaly" `Slow
      test_alloc_bench_ibex_hwm_anomaly;
    Alcotest.test_case "alloc bench deterministic" `Quick
      test_alloc_bench_deterministic;
    Alcotest.test_case "Table 4 cycle grids pinned" `Quick test_table4_pinned;
    Alcotest.test_case "IoT app ~17.5% CPU" `Quick test_iot_app;
    Alcotest.test_case "IoT app software-revoker variant" `Quick
      test_iot_app_software_revoker_variant;
    Alcotest.test_case "Table 3 cycles pinned" `Quick test_table3_pinned;
  ]
