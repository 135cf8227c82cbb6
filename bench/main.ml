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

(* --- dispatch-tier benchmark ---------------------------------------------- *)

module Machine = Cheriot_isa.Machine

(* Three-way differential timing of the dispatch tiers: the reference
   interpreter, the chain tier (chained superblock rounds, every access
   fully checked) and the jit tier (the same rounds under per-block
   check plans from [Ir.optimize]).  All three must retire identical
   instruction counts and reach bit-identical architectural state; the
   interesting numbers are the jit tier's win over the chain tier and
   the optimizer counters (eliminated / hoisted checks, removed
   bookkeeping, opt side exits).  Writes BENCH_jit_exec.json, and fails
   the run if no workload formed a superblock or eliminated a check —
   the optimizer never engaging is a regression, not a neutral
   result. *)

type path_timing = {
  pt_insns : int;
  pt_seconds : float;
  pt_ips : float;
  pt_hash : string;
  pt_machine : Machine.t;
}

(* Bounded: a divergence bug could leave the PC stuck, and the CI gate
   must fail on that, not hang. *)
let exec_run dispatch m =
  match Machine.run ~fuel:50_000_000 ~dispatch m with
  | Machine.Step_halted, _ -> ()
  | Machine.Step_waiting, _ -> failwith "jit_exec: workload hit WFI"
  | Machine.Step_double_fault, _ -> failwith "jit_exec: double fault"
  | (Machine.Step_ok | Machine.Step_trap _), _ ->
      failwith "jit_exec: workload ran out of fuel"

let jit_dispatches =
  [| Machine.Dispatch_ref; Machine.Dispatch_chain; Machine.Dispatch_jit |]

(* Interleaved min-of-5 triples, each run on a fresh machine so every
   tier pays its cold translation cost every time.  Host timing noise
   drifts over seconds; interleaving exposes every tier to the same
   drift instead of charging it all to whichever ran last. *)
let time_tiers ~mk =
  let n = Array.length jit_dispatches in
  let best = Array.make n infinity in
  let last = Array.make n None in
  for _ = 1 to 5 do
    Array.iteri
      (fun i d ->
        let m = mk () in
        let t0 = Sys.time () in
        exec_run d m;
        let dt = Sys.time () -. t0 in
        if dt < best.(i) then best.(i) <- dt;
        last.(i) <- Some m)
      jit_dispatches
  done;
  Array.init n (fun i ->
      let m = Option.get last.(i) in
      {
        pt_insns = m.Machine.minstret;
        pt_seconds = best.(i);
        pt_ips = float_of_int m.Machine.minstret /. max 1e-9 best.(i);
        pt_hash = Machine.state_hash m;
        pt_machine = m;
      })

let jit_exec ?(smoke = false) () =
  section
    (if smoke then "jit exec -- smoke (reduced workloads)"
     else "jit exec -- reference vs chain vs optimizing trace jit");
  let workloads =
    [
      ( "coremark",
        fun () ->
          Coremark.setup
            ~iterations:(if smoke then 2 else 40)
            (Core_model.config ~cheri:true ~load_filter:true Core_model.Ibex)
      );
      ( "alloc_bench",
        fun () -> Alloc_bench.isa_setup ~rounds:(if smoke then 5 else 400) ()
      );
      ( "iot_app",
        fun () -> Iot_app.isa_setup ~packets:(if smoke then 10 else 1500) ()
      );
    ]
  in
  Format.printf "%-12s %12s %13s %13s %13s %8s %8s %7s@." "workload" "insns"
    "ref i/s" "chain i/s" "jit i/s" "vs chn" "vs ref" "match";
  let diverged = ref false in
  let rows =
    List.map
      (fun (name, mk) ->
        let p = time_tiers ~mk in
        let r = p.(0) and ch = p.(1) and j = p.(2) in
        let ok =
          Array.for_all
            (fun q -> q.pt_insns = r.pt_insns && q.pt_hash = r.pt_hash)
            p
        in
        if not ok then begin
          diverged := true;
          Format.eprintf "DIVERGENCE on %s: ref %d/%s chain %d/%s jit %d/%s@."
            name r.pt_insns r.pt_hash ch.pt_insns ch.pt_hash j.pt_insns
            j.pt_hash
        end;
        Format.printf "%-12s %12d %13.0f %13.0f %13.0f %7.2fx %7.2fx %7s@."
          name r.pt_insns r.pt_ips ch.pt_ips j.pt_ips (j.pt_ips /. ch.pt_ips)
          (j.pt_ips /. r.pt_ips)
          (if ok then "yes" else "NO");
        (name, r, ch, j, ok))
      workloads
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"bench\": \"jit_exec\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"smoke\": %b,\n  \"workloads\": [\n" smoke);
  let tier q =
    Printf.sprintf
      "{\"instructions\": %d, \"seconds\": %.6f, \"insns_per_sec\": %.0f"
      q.pt_insns q.pt_seconds q.pt_ips
  in
  List.iteri
    (fun i (name, r, ch, j, ok) ->
      let js = Machine.block_stats j.pt_machine in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S,\n\
           \     \"reference\": %s},\n\
           \     \"chain\": %s},\n\
           \     \"jit\": %s,\n\
           \             \"block_hits\": %d, \"block_misses\": %d, \
            \"block_invalidations\": %d,\n\
           \             \"block_aborts\": %d, \"blocks_filled\": %d, \
            \"avg_block_len\": %.2f,\n\
           \             \"chain_hits\": %d, \"chain_unlinks\": %d, \
            \"superblocks_formed\": %d, \"side_exits\": %d,\n\
           \             \"jit_blocks_compiled\": %d, \"checks_eliminated\": \
            %d, \"checks_hoisted\": %d,\n\
           \             \"checks_hoisted_nonentry\": %d, \
            \"dead_bookkeeping_removed\": %d,\n\
           \             \"opt_side_exits\": %d, \"jit_plans_rejected\": \
            %d},\n\
           \     \"speedup_vs_chain\": %.3f, \"speedup_vs_reference\": %.3f, \
            \"state_match\": %b}%s\n"
           name (tier r) (tier ch) (tier j) js.Machine.block_hits
           js.Machine.block_misses js.Machine.block_invalidations
           js.Machine.block_aborts js.Machine.blocks_filled
           (Machine.avg_block_len js) js.Machine.chain_hits
           js.Machine.chain_unlinks js.Machine.superblocks_formed
           js.Machine.side_exits js.Machine.jit_blocks_compiled
           js.Machine.checks_eliminated js.Machine.checks_hoisted
           js.Machine.checks_hoisted_nonentry
           js.Machine.dead_bookkeeping_removed js.Machine.opt_side_exits
           js.Machine.jit_plans_rejected
           (j.pt_ips /. ch.pt_ips)
           (j.pt_ips /. r.pt_ips)
           ok
           (if i < List.length rows - 1 then "," else "")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  (* The smoke run is a CI divergence gate, not a performance claim:
     keep it from clobbering the full-size numbers. *)
  let file =
    if smoke then "BENCH_jit_exec_smoke.json" else "BENCH_jit_exec.json"
  in
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "@.wrote %s@." file;
  if !diverged then begin
    prerr_endline "jit_exec: dispatch paths diverged";
    exit 1
  end;
  let some f =
    List.exists
      (fun (_, _, _, j, _) -> f (Machine.block_stats j.pt_machine) > 0)
      rows
  in
  if not (some (fun s -> s.Machine.superblocks_formed)) then begin
    prerr_endline "jit_exec: no workload formed any superblock";
    exit 1
  end;
  if not (some (fun s -> s.Machine.checks_eliminated)) then begin
    prerr_endline "jit_exec: optimizer eliminated no checks on any workload";
    exit 1
  end

(* --- static auditor timing ------------------------------------------------ *)

(* Times a full Audit.run (CFG recovery + interprocedural fixpoint +
   linkage checks) over each shipped image, so auditor slowdowns show up
   in the perf trajectory alongside the simulator benches.  Doubles as a
   gate: shipped images must stay clean. *)
let audit_bench ?(smoke = false) () =
  section
    (if smoke then "audit -- smoke (static auditor fixpoint timing)"
     else "audit -- static auditor fixpoint timing");
  let runs = if smoke then 2 else 5 in
  Format.printf "%-12s %12s %10s@." "image" "seconds" "findings";
  let rows =
    List.map
      (fun (name, build) ->
        let t = build () in
        let findings = Cheriot_analysis.Audit.run t in
        let best = ref infinity in
        for _ = 1 to runs do
          let t0 = Sys.time () in
          ignore (Cheriot_analysis.Audit.run t);
          let dt = Sys.time () -. t0 in
          if dt < !best then best := dt
        done;
        Format.printf "%-12s %12.6f %10d@." name !best (List.length findings);
        (name, !best, List.length findings))
      Cheriot_workloads.Firmware.shipped
  in
  let total = List.fold_left (fun a (_, s, _) -> a +. s) 0. rows in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"bench\": \"audit\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"smoke\": %b,\n  \"images\": [\n" smoke);
  List.iteri
    (fun i (name, secs, nf) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"seconds\": %.6f, \"findings\": %d}%s\n" name
           secs nf
           (if i < List.length rows - 1 then "," else "")))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "  ],\n  \"total_seconds\": %.6f\n}\n" total);
  let file = if smoke then "BENCH_audit_smoke.json" else "BENCH_audit.json" in
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "@.wrote %s@." file;
  if List.exists (fun (_, _, nf) -> nf > 0) rows then begin
    prerr_endline "audit: findings on shipped images";
    exit 1
  end

(* --- incremental (summary-cache) audit timing ----------------------------- *)

(* Times a cold audit sweep over a fleet of near-identical images (the
   coremark compartment plus a per-variant sensor compartment,
   Firmware.fleet) against the same sweep through a shared summary
   cache: the expensive coremark fixpoint is re-analyzed once, every
   further image re-analyzes only its one-instruction-different sensor.
   Doubles as a gate: every warm report must be byte-identical to its
   cold counterpart, the cache must actually hit, and (full mode) the
   cached sweep must be at least 2x faster.  Writes
   BENCH_audit_incremental*.json. *)
let audit_incremental_bench ?(smoke = false) () =
  section
    (if smoke then "audit_incremental -- smoke (summary-cache sweep timing)"
     else "audit_incremental -- summary-cache audit sweep timing");
  let grid = if smoke then 3 else 8 in
  let runs = if smoke then 2 else 5 in
  let module Audit = Cheriot_analysis.Audit in
  let module Summary = Cheriot_analysis.Summary in
  let module Rules = Cheriot_analysis.Rules in
  let images =
    List.init grid (fun i ->
        ( Printf.sprintf "fleet-%d" i,
          Cheriot_workloads.Firmware.fleet ~variant:i () ))
  in
  (* correctness before timing: warm ≡ cold, byte for byte, per variant *)
  let cache = Summary.create_cache () in
  let hits = ref 0 and misses = ref 0 in
  let identical =
    List.for_all
      (fun (name, t) ->
        let warm, st = Audit.run_stats ~cache t in
        let cold = Audit.run t in
        hits := !hits + st.Audit.cache_hits;
        misses := !misses + st.Audit.cache_misses;
        String.equal
          (Rules.report_to_json [ (name, Rules.sort_findings warm) ])
          (Rules.report_to_json [ (name, Rules.sort_findings cold) ]))
      images
  in
  let time f =
    let best = ref infinity in
    for _ = 1 to runs do
      let t0 = Sys.time () in
      f ();
      let dt = Sys.time () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let cold_s =
    time (fun () -> List.iter (fun (_, t) -> ignore (Audit.run t)) images)
  in
  let warm_s =
    time (fun () ->
        let cache = Summary.create_cache () in
        List.iter (fun (_, t) -> ignore (Audit.run_stats ~cache t)) images)
  in
  let speedup = if warm_s > 0. then cold_s /. warm_s else infinity in
  Format.printf "%-6s %12s %12s %8s %6s %8s@." "grid" "cold_s" "warm_s"
    "speedup" "hits" "identical";
  Format.printf "%-6d %12.6f %12.6f %8.2f %6d %8b@." grid cold_s warm_s speedup
    !hits identical;
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"bench\": \"audit_incremental\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"smoke\": %b,\n  \"grid\": %d,\n  \"cold_seconds\": %.6f,\n\
       \  \"warm_seconds\": %.6f,\n  \"speedup\": %.2f,\n\
       \  \"cache_hits\": %d,\n  \"cache_misses\": %d,\n\
       \  \"identical\": %b\n}\n"
       smoke grid cold_s warm_s speedup !hits !misses identical);
  let file =
    if smoke then "BENCH_audit_incremental_smoke.json"
    else "BENCH_audit_incremental.json"
  in
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "@.wrote %s@." file;
  if not identical then begin
    prerr_endline "audit_incremental: warm report diverged from cold";
    exit 1
  end;
  if !hits = 0 then begin
    prerr_endline "audit_incremental: summary cache never hit";
    exit 1
  end;
  if (not smoke) && speedup < 2.0 then begin
    prerr_endline "audit_incremental: cached sweep under 2x over cold";
    exit 1
  end

(* --- plan-soundness verifier timing --------------------------------------- *)

(* Times [Planverify.verify_plan] over every plan the jit tier compiles
   from the shipped images (forced hot so every reachable block
   compiles), so verifier slowdowns show up in the perf trajectory.
   Doubles as a gate: an image compiling zero plans, or any plan proving
   Unsound, fails the run.  Writes BENCH_planverify*.json. *)
let planverify_bench ?(smoke = false) () =
  section
    (if smoke then "planverify -- smoke (plan-soundness verifier timing)"
     else "planverify -- plan-soundness verifier timing");
  let runs = if smoke then 2 else 5 in
  Format.printf "%-12s %8s %12s %10s@." "image" "plans" "seconds" "unsound";
  let rows =
    List.map
      (fun (name, build) ->
        let t = build () in
        let m = t.Cheriot_rtos.Loader.machine in
        m.Machine.hot_threshold <- 2;
        m.Machine.hot_adaptive <- false;
        let plans = Cheriot_analysis.Planverify.collect m in
        let unsound =
          List.length
            (List.filter
               (fun p ->
                 Cheriot_analysis.Planverify.verify_plan p
                 <> Cheriot_analysis.Planverify.Sound)
               plans)
        in
        let best = ref infinity in
        for _ = 1 to runs do
          let t0 = Sys.time () in
          List.iter
            (fun p -> ignore (Cheriot_analysis.Planverify.verify_plan p))
            plans;
          let dt = Sys.time () -. t0 in
          if dt < !best then best := dt
        done;
        Format.printf "%-12s %8d %12.6f %10d@." name (List.length plans) !best
          unsound;
        (name, List.length plans, !best, unsound))
      Cheriot_workloads.Firmware.shipped
  in
  let total = List.fold_left (fun a (_, _, s, _) -> a +. s) 0. rows in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"bench\": \"planverify\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"smoke\": %b,\n  \"images\": [\n" smoke);
  List.iteri
    (fun i (name, n, secs, unsound) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"plans\": %d, \"seconds\": %.6f, \"unsound\": \
            %d}%s\n"
           name n secs unsound
           (if i < List.length rows - 1 then "," else "")))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "  ],\n  \"total_seconds\": %.6f\n}\n" total);
  let file =
    if smoke then "BENCH_planverify_smoke.json" else "BENCH_planverify.json"
  in
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "@.wrote %s@." file;
  if List.exists (fun (_, n, _, _) -> n = 0) rows then begin
    prerr_endline "planverify: an image compiled no plans";
    exit 1
  end;
  if List.exists (fun (_, _, _, u) -> u > 0) rows then begin
    prerr_endline "planverify: unsound plans on shipped images";
    exit 1
  end

(* --- driver -------------------------------------------------------------- *)

let all () =
  table1 ();
  table2 ();
  table3 ();
  let flute, ibex = table4 () in
  fig56 Core_model.Flute "5" flute;
  fig56 Core_model.Ibex "6" ibex;
  iot ();
  ablations ();
  jit_exec ();
  audit_bench ();
  audit_incremental_bench ();
  planverify_bench ()

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
  | [| _; "jit_exec" |] -> jit_exec ()
  | [| _; "jit_exec"; "smoke" |] -> jit_exec ~smoke:true ()
  | [| _; "audit" |] -> audit_bench ()
  | [| _; "audit"; "smoke" |] -> audit_bench ~smoke:true ()
  | [| _; "audit_incremental" |] -> audit_incremental_bench ()
  | [| _; "audit_incremental"; "smoke" |] ->
      audit_incremental_bench ~smoke:true ()
  | [| _; "planverify" |] -> planverify_bench ()
  | [| _; "planverify"; "smoke" |] -> planverify_bench ~smoke:true ()
  | _ ->
      prerr_endline
        "usage: main.exe \
         [table1|table2|table3|table4|fig5|fig6|iot|ablations|jit_exec \
         [smoke]|audit [smoke]|audit_incremental [smoke]|planverify \
         [smoke]]";
      exit 2
