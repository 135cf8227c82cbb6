(** The observational-equivalence property family (DESIGN.md §12).

    One generator of programs — flat random instruction streams
    ({!Flatgen}) and well-formed multi-compartment scenarios
    ({!Scenario}) — and one family of properties over it:

    + {b state-trace equivalence} of the two dispatch tiers
      (ref / jit), per retired instruction and
      under interrupt injection, with a tiny [hot_threshold] so
      chained transfers, the jit's crossing from the identity plan to a
      compiled plan and the optimizer's check plans are constantly
      crossed;
    + {b cycle-model agreement}: the {!Perf} harness charges identical
      cycles and instructions on every dispatch variant, on both core
      models (Ibex and Flute);
    + {b authority monotonicity}: no scenario execution amplifies the
      boot-time capability envelope (the paper-2.5 invariant,
      generalized from the flat fuzz boot to linked images);
    + {b codec/engine invariants}: the E'4/B'9/T'9 bounds round-trip
      properties (in [test_bounds], over {!Flatgen.gen_region}) and
      [Revoker.tick_n] ≡ tick-loop equivalence under random grant and
      snoop schedules, and the byte-wise [Revbits]/[Sram] bitmap updates
      and the tag-first software sweep ≡ their bit-at-a-time oracles;
    + {b auditor precision}: every generated {e clean} scenario audits
      with zero findings — the zero-false-positive claim pinned under
      generated, not hand-written, inputs.

    Every property prints, on failure, the qcheck seed plus the shrunk
    program (disassembly listing and reference trace), so a failure
    reproduces in one command. *)

open Cheriot_core
open Cheriot_isa
module Sram = Cheriot_mem.Sram
module Bus = Cheriot_mem.Bus
module Revbits = Cheriot_mem.Revbits
module Core_model = Cheriot_uarch.Core_model
module Perf = Cheriot_uarch.Perf
module Revoker = Cheriot_uarch.Revoker
module Loader = Cheriot_rtos.Loader
module Allocator = Cheriot_rtos.Allocator
module Clock = Cheriot_rtos.Clock
module Sw_revoker = Cheriot_rtos.Sw_revoker
module Audit = Cheriot_analysis.Audit
module Rules = Cheriot_analysis.Rules
module Planverify = Cheriot_analysis.Planverify

(* A small deterministic LCG over a generated seed: the shrinker can
   minimise interesting injection schedules along with the program. *)
let lcg seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFF_FFFF;
    !state mod bound

(* --- the batched columns of every lockstep ----------------------------------- *)

(* Each lockstep runs the reference against these jit columns, at
   pinned hotness thresholds (adaptation off).  At threshold 2 the jit's
   crossing from the identity plan to a compiled plan falls in the
   middle of a short stream.
   The jit at threshold 1 ("jit@1") compiles every block on first entry,
   so every block of the stream also runs under its compiled plan. *)
let batched_columns = [ ("jit", 2); ("jit@1", 1) ]

(* One fresh [mk ()] per column. *)
let fresh mk = List.map (fun _ -> mk ()) batched_columns

(* Pin [m]'s hotness threshold to [k], with adaptation off. *)
let pin_hot k (m : Machine.t) =
  m.Machine.hot_threshold <- k;
  m.Machine.hot_adaptive <- false

(* Pin machines [ms], one per column in order, to their columns'
   thresholds: the (name, machine) pairs a lockstep runs. *)
let columns ms =
  List.map2
    (fun (name, k) m ->
      pin_hot k m;
      (name, m))
    batched_columns ms

let column_machines cols = List.map snd cols

(* --- flat-stream lockstep (the PR-1..3 oracle, now harness-owned) -------- *)

(** Drive the same stream on identically-booted machines in lockstep —
    the reference and every batched column, the latter with [fuel:1] so
    every mid-block state is exposed — comparing the full architectural
    state after every single step and the state hashes at the end. *)
let flat_lockstep ?(writable_code = false) words =
  let mk () = (Boot.flat ~writable_code words).Boot.m in
  let ref_m = mk () and cols = columns (fresh mk) in
  let rec go n =
    if n > 256 then ()
    else begin
      let r_ref = Machine.step ref_m in
      (* [run ~fuel:1] executes exactly one instruction (or interrupt /
         idle round) of a batched tier; when fuel expires after a trap
         step it reports [Step_ok], exactly as a reference [run] would,
         so map the reference result accordingly. *)
      let expect_run =
        match r_ref with
        | Machine.Step_ok | Machine.Step_trap _ -> Machine.Step_ok
        | r -> r
      in
      List.iter
        (fun (name, m) ->
          if Machine.run ~fuel:1 ~dispatch:Machine.Dispatch_jit m
             <> (expect_run, 1)
          then
            QCheck.Test.fail_reportf "ref/%s results diverged at step %d" name
              n;
          Obs.compare_states ~what:("ref/" ^ name) n ref_m m)
        cols;
      match r_ref with
      | Machine.Step_ok | Machine.Step_trap _ -> go (n + 1)
      | Machine.Step_waiting | Machine.Step_halted | Machine.Step_double_fault
        ->
          ()
    end
  in
  go 0;
  Obs.require_hashes_equal ~what:"flat lockstep" 256 ref_m
    (column_machines cols);
  true

(** Interrupt-injection equivalence (the heart of the block-dispatch
    soundness argument): drive the reference and the batched columns in
    random-length fuel batches, toggling the external interrupt line and
    rewriting the timer comparator / cycle counter identically on all of
    them between batches.  Batched block execution checks for
    interrupts only at block boundaries; that must deliver every
    interrupt at exactly the same retired-instruction boundary as the
    per-step loops. *)
let flat_interrupt_lockstep ?(writable_code = false) (words, seed) =
  let handler_cap =
    Capability.set_bounds
      (Capability.with_address Capability.root_executable Boot.code_base)
      ~length:Boot.code_size ~exact:false
  in
  let mk () =
    let m = (Boot.flat ~writable_code words).Boot.m in
    (* vector traps back into the program text so interrupts take the
       real trap-entry path instead of double-faulting *)
    m.Machine.mtcc <- handler_cap;
    m.Machine.mie <- true;
    m
  in
  (* batches cross the plan-compile point mid-stream, so interrupt
     delivery is checked against freshly compiled plans too *)
  let ref_m = mk () and cols = columns (fresh mk) in
  let machines = ref_m :: column_machines cols in
  let rand = lcg seed in
  let total = ref 0 in
  (try
     while !total < 256 do
       let fuel = 1 + rand 32 in
       let toggle = rand 4 = 0 in
       let retime = rand 4 = 0 in
       let cmp = rand 8 and cyc = rand 8 in
       List.iter
         (fun (m : Machine.t) ->
           if toggle then m.Machine.ext_interrupt <- not m.Machine.ext_interrupt;
           if retime then begin
             m.Machine.mtimecmp <- cmp;
             m.Machine.mcycle <- cyc
           end)
         machines;
       let r_ref, n_ref =
         Machine.run ~fuel ~dispatch:Machine.Dispatch_ref ref_m
       in
       List.iter
         (fun (name, m) ->
           let r, n = Machine.run ~fuel ~dispatch:Machine.Dispatch_jit m in
           if (r_ref, n_ref) <> (r, n) then
             QCheck.Test.fail_reportf
               "ref/%s batch diverged after %d insns (fuel %d): ref retired \
                %d, %s retired %d"
               name !total fuel n_ref name n;
           Obs.compare_states ~what:"interrupt batch" !total ref_m m)
         cols;
       Obs.require_hashes_equal ~what:"interrupt batch" !total ref_m
         (column_machines cols);
       total := !total + n_ref;
       match r_ref with
       | Machine.Step_halted | Machine.Step_double_fault -> raise Exit
       | _ -> ()
     done
   with Exit -> ());
  true

(* --- flat authority monotonicity ----------------------------------------- *)

(** Paper 2.5 on the flat boot: execute the stream on the reference
    interpreter and assert after every step that every tagged capability
    anywhere still lies within the initial authority. *)
let flat_authority ?(writable_code = false) words =
  let f = Boot.flat ~writable_code words in
  let m = f.Boot.m in
  let srams = Boot.flat_srams f in
  let within = Boot.flat_within_authority ~writable_code in
  let rec go n =
    if n > 256 then true
    else
      match Machine.step m with
      | Machine.Step_ok -> (
          match Boot.authority_violations ~within m srams with
          | [] -> go (n + 1)
          | bad ->
              QCheck.Test.fail_reportf "authority amplified at step %d: %s" n
                (String.concat "," bad))
      | Machine.Step_trap _ | Machine.Step_waiting | Machine.Step_halted
      | Machine.Step_double_fault ->
          Boot.authority_violations ~within m srams = []
  in
  go 0

(* --- scenario lockstep ---------------------------------------------------- *)

let scenario_fuel = 4096
let scenario_batches = 96

(** One injection round, applied identically to every machine in the
    lockstep group: interrupt-line and timer writes on the machine, and
    allocator churn / revocation sweeps / host ("DMA") code patches on
    the image. *)
let inject rand (links : Scenario.linked list) =
  let ms = List.map (fun l -> l.Scenario.t.Loader.machine) links in
  (* external interrupt: raise rarely, lower quickly — the ISR cannot
     ack the line, so a high line re-fires on every Mret *)
  (match ms with
  | m0 :: _ ->
      if m0.Machine.ext_interrupt then begin
        if rand 4 < 3 then
          List.iter (fun m -> m.Machine.ext_interrupt <- false) ms
      end
      else if rand 4 = 0 then
        List.iter (fun m -> m.Machine.ext_interrupt <- true) ms
  | [] -> ());
  if rand 4 = 0 then begin
    let cmp = rand 8 and cyc = rand 8 in
    List.iter
      (fun (m : Machine.t) ->
        m.Machine.mtimecmp <- cmp;
        m.Machine.mcycle <- cyc)
      ms
  end;
  (* allocator churn: malloc / free / revoke, same call on every image *)
  if rand 8 = 0 then begin
    let size = 8 + (8 * rand 4) in
    List.iter
      (fun l ->
        match l.Scenario.alloc with
        | Some a -> (
            match Allocator.malloc a size with
            | Ok c -> l.Scenario.handles <- l.Scenario.handles @ [ c ]
            | Error _ -> ())
        | None -> ())
      links
  end;
  if rand 8 = 0 then
    List.iter
      (fun l ->
        match (l.Scenario.alloc, l.Scenario.handles) with
        | Some a, c :: rest ->
            ignore (Allocator.free a c);
            l.Scenario.handles <- rest
        | _ -> ())
      links;
  if rand 8 = 0 then
    List.iter
      (fun l ->
        match l.Scenario.alloc with
        | Some a -> Allocator.revoke_now a
        | None -> ())
      links;
  (* a host-driven code patch through the bus — the cached blocks and
     chained links covering the word must die on every machine *)
  if rand 8 = 0 then begin
    match links with
    | l0 :: _ ->
        let comp = rand l0.Scenario.n in
        let word = Encode.encode Scenario.patch_insn_after in
        List.iter
          (fun l ->
            let b = Loader.find l.Scenario.t (Scenario.comp_name comp) in
            let addr = b.Loader.image.Asm.origin + Scenario.patch_offset in
            Bus.write l.Scenario.t.Loader.bus ~width:4 addr word)
          links
    | [] -> ()
  end

(** State-trace equivalence of the two dispatch tiers on a linked
    multi-compartment image, under interrupt injection, allocator churn,
    revocation sweeps and code patches, with the batched columns
    compiling plans at [hot_threshold = 2]. *)
let scenario_lockstep (sc : Scenario.t) =
  let mk () = Scenario.link ~instrument:true sc in
  let m_of l = l.Scenario.t.Loader.machine in
  let l_ref = mk () and col_links = fresh mk in
  let links = l_ref :: col_links in
  let ref_m = m_of l_ref and cols = columns (List.map m_of col_links) in
  let rand = lcg sc.Scenario.seed in
  let total = ref 0 in
  let batches = ref 0 in
  (try
     while !total < scenario_fuel && !batches < scenario_batches do
       incr batches;
       inject rand links;
       let fuel = 1 + rand 64 in
       let r_ref, n_ref =
         Machine.run ~fuel ~dispatch:Machine.Dispatch_ref ref_m
       in
       List.iter
         (fun (name, m) ->
           let r, n = Machine.run ~fuel ~dispatch:Machine.Dispatch_jit m in
           if (r_ref, n_ref) <> (r, n) then
             QCheck.Test.fail_reportf
               "scenario ref/%s diverged after %d insns (fuel %d): ref %d, \
                %s %d"
               name !total fuel n_ref name n;
           Obs.compare_states ~what:("scenario ref/" ^ name) !total ref_m m)
         cols;
       Obs.require_hashes_equal ~what:"scenario batch" !total ref_m
         (column_machines cols);
       total := !total + n_ref;
       match r_ref with
       | Machine.Step_halted | Machine.Step_double_fault -> raise Exit
       | _ -> ()
     done
   with Exit -> ());
  true

(* --- cycle-model agreement ------------------------------------------------ *)

(* The {!Perf.Jit} columns checked against [Perf.Reference], each with
   how it pins its machine's hotness.  "jit" runs at the default,
   adaptive threshold, where scenario blocks rarely turn hot and the jit
   mostly runs its identity plan; "jit@1" compiles every block on its
   first entry, so the timed rounds also run under compiled check
   plans. *)
let perf_columns = [ ("jit", ignore); ("jit@1", pin_hot 1) ]

(** The {!Perf} harness must charge identical cycles, instructions, bus
    cycles and traps on every dispatch column, for both core models,
    and leave identical [mcycle] and final architectural state. *)
let scenario_perf_agreement (sc : Scenario.t) =
  List.iter
    (fun core ->
      let run ?(pin = ignore) dispatch =
        let l = Scenario.link ~instrument:true sc in
        let m = l.Scenario.t.Loader.machine in
        pin m;
        let p =
          Perf.create ~dispatch ~params:(Core_model.params_of core) m
        in
        let r = Perf.run ~fuel:scenario_fuel p in
        let s = p.Perf.stats in
        ( r,
          [ s.Perf.cycles; s.Perf.instructions; s.Perf.mem_busy; s.Perf.traps;
            m.Machine.mcycle ],
          Machine.state_hash m )
      in
      let show v = String.concat "/" (List.map string_of_int v) in
      let (r0, v0, h0) = run Perf.Reference in
      List.iter
        (fun (name, pin) ->
          let (r, v, h) = run ~pin Perf.Jit in
          if (r, v, h) <> (r0, v0, h0) then
            QCheck.Test.fail_reportf
              "%s/%s cycle model disagrees: ref \
               (cycles/insns/mem_busy/traps/mcycle %s) vs (%s)%s"
              (Core_model.config_name
                 (Core_model.config ~cheri:true ~load_filter:true core))
              name (show v0) (show v)
              (if h <> h0 then ", state hashes differ" else ""))
        perf_columns)
    [ Core_model.Ibex; Core_model.Flute ];
  true

(* --- scenario authority monotonicity -------------------------------------- *)

(** Collect the boot-time authority envelope of a linked image: the
    (base, top, perms) of every tagged capability reachable at boot —
    registers, PCC, SCRs, and every granule of the image SRAM. *)
let boot_envelope (l : Scenario.linked) =
  let m = l.Scenario.t.Loader.machine in
  let sram = l.Scenario.t.Loader.sram in
  let caps = ref [] in
  let add c =
    if Capability.tag c then
      caps :=
        (Capability.base c, Capability.top c, Capability.perms c) :: !caps
  in
  for r = 1 to 15 do
    add (Machine.reg m r)
  done;
  add m.Machine.pcc;
  add m.Machine.mtcc;
  add m.Machine.mepcc;
  add m.Machine.mtdc;
  add m.Machine.mscratchc;
  let base = Sram.base sram and size = Sram.size sram in
  let a = ref base in
  while !a < base + size do
    if Sram.tag_at sram !a then begin
      add (Sram.read_cap sram !a)
    end;
    a := !a + 8
  done;
  !caps

let within_envelope env c =
  (not (Capability.tag c))
  || begin
       let b = Capability.base c
       and t = Capability.top c
       and p = Capability.perms c in
       List.exists
         (fun (eb, et, ep) -> b >= eb && t <= et && Perm.Set.subset p ep)
         env
     end

(** Authority monotonicity generalized to multi-compartment programs:
    run the scenario on the reference interpreter and assert,
    periodically and at termination, that every tagged capability in
    the register file, SCRs and the whole image SRAM still lies within
    the boot envelope — the switcher, loader-built descriptors, sealed
    sentries, heap allocations and code-patch windows included. *)
let scenario_authority (sc : Scenario.t) =
  let l = Scenario.link ~instrument:true sc in
  let m = l.Scenario.t.Loader.machine in
  let sram = l.Scenario.t.Loader.sram in
  let env = boot_envelope l in
  let srams = [ (Sram.base sram, Sram.size sram, sram) ] in
  let check step =
    match
      Boot.authority_violations ~within:(within_envelope env) m srams
    with
    | [] -> ()
    | bad ->
        QCheck.Test.fail_reportf "scenario authority amplified at step %d: %s"
          step (String.concat "," bad)
  in
  let rec go n =
    if n > 2048 then ()
    else
      match Machine.step m with
      | Machine.Step_ok ->
          if n mod 64 = 0 then check n;
          go (n + 1)
      | Machine.Step_trap _ ->
          check n;
          go (n + 1)
      | Machine.Step_waiting | Machine.Step_halted | Machine.Step_double_fault
        ->
          check n
  in
  go 0;
  true

(* --- auditor precision ---------------------------------------------------- *)

(** Every generated clean scenario must audit with zero findings: the
    auditor's zero-false-positive contract, pinned under generated
    multi-compartment inputs rather than the hand-written corpus. *)
let scenario_audits_clean (sc : Scenario.t) =
  let l = Scenario.link ~instrument:false sc in
  match Audit.run ~call_summaries:true ~field_sensitive:true l.Scenario.t with
  | [] -> true
  | findings ->
      QCheck.Test.fail_reportf "clean scenario has %d finding(s): %s"
        (List.length findings)
        (String.concat "; "
           (List.map (Format.asprintf "%a" Rules.pp_finding) findings))

(* --- plan soundness (DESIGN.md §14) ---------------------------------------- *)

(** Translation validation under generated inputs: every check plan the
    jit tier compiles from a random multi-compartment scenario at
    [hot_threshold = 2] must be provable sound by {!Planverify} —
    including plans whose guards group accesses through derived
    (non-entry) register versions, which the scenario stack prologue and
    epilogue exercise on every cross-compartment call. *)
let scenario_plans_sound (sc : Scenario.t) =
  let l = Scenario.link ~instrument:true sc in
  let m = l.Scenario.t.Loader.machine in
  m.Machine.hot_threshold <- 2;
  m.Machine.hot_adaptive <- false;
  let plans = Planverify.collect ~fuel:scenario_fuel m in
  List.iter
    (fun (p : Planverify.plan) ->
      match Planverify.verify_plan p with
      | Planverify.Sound -> ()
      | Planverify.Unsound cx ->
          QCheck.Test.fail_reportf "unsound plan at 0x%x op %d: %s: %s"
            p.Planverify.p_block.Machine.b_start cx.Planverify.cx_index
            cx.Planverify.cx_rule cx.Planverify.cx_detail)
    plans;
  true

(** Compile-time validation is observationally free: a jit machine with
    {!Planverify.install}ed validation retires exactly the states of a
    bare one, and never rejects a plan the optimizer actually emits. *)
let scenario_validated_jit_agrees (sc : Scenario.t) =
  let mk () =
    let l = Scenario.link ~instrument:true sc in
    let m = l.Scenario.t.Loader.machine in
    m.Machine.hot_threshold <- 2;
    m.Machine.hot_adaptive <- false;
    m
  in
  let plain = mk () and validated = mk () in
  Planverify.install validated;
  let r_p =
    Machine.run ~fuel:scenario_fuel ~dispatch:Machine.Dispatch_jit plain
  in
  let r_v =
    Machine.run ~fuel:scenario_fuel ~dispatch:Machine.Dispatch_jit validated
  in
  if r_p <> r_v then
    QCheck.Test.fail_reportf "validated jit run result diverged";
  Obs.compare_states ~what:"plain/validated jit" scenario_fuel plain validated;
  Obs.require_hashes_equal ~what:"validated jit" scenario_fuel plain
    [ validated ];
  if validated.Machine.jit_plans_rejected <> 0 then
    QCheck.Test.fail_reportf
      "validator rejected %d plan(s) the optimizer emitted"
      validated.Machine.jit_plans_rejected;
  true

(* --- Revoker.tick_n ≡ tick loop ------------------------------------------- *)

type revoker_case = {
  rc_core : Core_model.core;
  rc_pipelined : bool;
  rc_caps : (int * int * bool) list;
      (** (granule index, target granule index, freed?) capabilities to
          place before the sweep *)
  rc_grants : int list;  (** cycle-grant batch sizes *)
  rc_snoops : int list;  (** grant indices after which a store lands *)
}

let revoker_heap_base = 0x40000
let revoker_heap_size = 0x2000

(* Store a tagged 8-byte capability to granule [target] at granule [at]
   for each [(at, target, freed)], painting [target] revoked if [freed]
   (indices wrap into the heap). *)
let place_caps sram rev caps =
  let granules = revoker_heap_size / 8 in
  List.iter
    (fun (at, target, freed) ->
      let at = revoker_heap_base + (8 * (at mod granules)) in
      let target = revoker_heap_base + (8 * (target mod granules)) in
      let c =
        Capability.set_bounds
          (Capability.with_address Capability.root_mem_rw target)
          ~length:8 ~exact:true
      in
      Sram.write_cap sram at c;
      if freed then Revbits.paint rev ~addr:target ~len:8)
    caps

(** [tick_n k] must be bit-identical to [k] successive [tick]s — sweep
    results, statistics, epoch transitions and final memory — under
    random capability layouts, grant schedules and mid-sweep snoops. *)
let revoker_tick_n_agrees (rc : revoker_case) =
  let granules = revoker_heap_size / 8 in
  let mk () =
    let sram = Sram.create ~base:revoker_heap_base ~size:revoker_heap_size in
    let rev =
      Revbits.create ~heap_base:revoker_heap_base
        ~heap_size:revoker_heap_size ()
    in
    place_caps sram rev rc.rc_caps;
    let r =
      Revoker.create ~pipelined:rc.rc_pipelined ~core:rc.rc_core ~sram ~rev ()
    in
    Revoker.kick r ~start:revoker_heap_base
      ~stop:(revoker_heap_base + revoker_heap_size);
    (sram, r)
  in
  let sram_a, a = mk () and sram_b, b = mk () in
  List.iteri
    (fun gi k ->
      for _ = 1 to k do
        Revoker.tick a
      done;
      Revoker.tick_n b k;
      if List.mem gi rc.rc_snoops then begin
        let addr = revoker_heap_base + (8 * (gi mod granules)) in
        Sram.write32 sram_a addr 0xdeadbeef;
        Sram.write32 sram_b addr 0xdeadbeef;
        Revoker.snoop_store a addr;
        Revoker.snoop_store b addr
      end;
      if
        Revoker.sweeping a <> Revoker.sweeping b
        || Revoker.words_swept a <> Revoker.words_swept b
        || Revoker.busy_cycles a <> Revoker.busy_cycles b
      then
        QCheck.Test.fail_reportf
          "tick/tick_n diverged at grant %d (swept %d vs %d, busy %d vs %d)"
          gi (Revoker.words_swept a) (Revoker.words_swept b)
          (Revoker.busy_cycles a) (Revoker.busy_cycles b))
    rc.rc_grants;
  ignore (Revoker.run_to_completion a);
  Revoker.tick_n b 10_000_000;
  if
    Revoker.epoch a <> Revoker.epoch b
    || Revoker.caps_invalidated a <> Revoker.caps_invalidated b
    || Revoker.race_reloads a <> Revoker.race_reloads b
  then
    QCheck.Test.fail_reportf
      "tick/tick_n end state differs (epoch %d vs %d, invalidated %d vs %d)"
      (Revoker.epoch a) (Revoker.epoch b)
      (Revoker.caps_invalidated a)
      (Revoker.caps_invalidated b);
  let a = ref revoker_heap_base in
  while !a < revoker_heap_base + revoker_heap_size do
    if
      Sram.read32 sram_a !a <> Sram.read32 sram_b !a
      || Sram.tag_at sram_a !a <> Sram.tag_at sram_b !a
    then QCheck.Test.fail_reportf "tick/tick_n memory differs at 0x%x" !a;
    a := !a + 8
  done;
  true

let gen_revoker_case : revoker_case QCheck.Gen.t =
  let open QCheck.Gen in
  let* core = oneofl [ Core_model.Ibex; Core_model.Flute ] in
  let* pipelined = bool in
  let* caps =
    list_size (1 -- 12)
      (let* at = int_bound 1023 and* target = int_bound 1023 and* freed = bool in
       return (at, target, freed))
  in
  let* grants = list_size (1 -- 12) (1 -- 600) in
  let* snoops = list_size (0 -- 3) (int_bound 12) in
  return
    { rc_core = core; rc_pipelined = pipelined; rc_caps = caps;
      rc_grants = grants; rc_snoops = snoops }

let arb_revoker_case =
  QCheck.make
    ~print:(fun rc ->
      Printf.sprintf "%s pipelined=%b caps=%d grants=[%s] snoops=[%s]"
        (match rc.rc_core with Core_model.Ibex -> "ibex" | _ -> "flute")
        rc.rc_pipelined (List.length rc.rc_caps)
        (String.concat ";" (List.map string_of_int rc.rc_grants))
        (String.concat ";" (List.map string_of_int rc.rc_snoops)))
    gen_revoker_case

(* --- byte-wise bitmaps ≡ the bit-at-a-time originals --------------------- *)

(* [Revbits] and [Sram] update their bitmaps a byte at a time.  The
   oracles below are the bit-at-a-time code they replaced, run over one
   bool per revocation granule or per micro-tag half; every byte-wise
   path must agree with them at every granule after every operation. *)

type revbits_case = {
  rb_granule_log2 : int;
  rb_heap_size : int;
  rb_ops : (bool * int * int) list;
      (** (paint?, address, length), the address relative to the heap
          base and possibly below it *)
}

let revbits_heap_base = 0x40000

(* Bit-at-a-time [paint]/[clear]: every granule of [[addr, addr+len)]
   that lies in the heap, one at a time. *)
let revbits_oracle (rb : revbits_case) bits v ~addr ~len =
  let heap_end = revbits_heap_base + rb.rb_heap_size in
  let lo = max addr revbits_heap_base in
  let last_addr = min (addr + len - 1) (heap_end - 1) in
  if len > 0 && last_addr >= lo then
    for i = (lo - revbits_heap_base) lsr rb.rb_granule_log2
        to (last_addr - revbits_heap_base) lsr rb.rb_granule_log2 do
      bits.(i) <- v
    done

(** Byte-wise [Revbits.paint]/[clear] leave [is_revoked] at every granule
    and [painted_granules] exactly where the per-granule model does, over
    granule sizes 8, 16 and 32 B, heap sizes that are no multiple of 8
    granules, empty and one-byte ranges and ranges overhanging either
    edge of the heap. *)
let revbits_bytewise_agrees (rb : revbits_case) =
  let g = 1 lsl rb.rb_granule_log2 in
  let rev =
    Revbits.create ~granule_log2:rb.rb_granule_log2
      ~heap_base:revbits_heap_base ~heap_size:rb.rb_heap_size ()
  in
  let bits = Array.make ((rb.rb_heap_size + g - 1) / g) false in
  List.iteri
    (fun k (v, off, len) ->
      let addr = revbits_heap_base + off in
      if v then Revbits.paint rev ~addr ~len
      else Revbits.clear rev ~addr ~len;
      revbits_oracle rb bits v ~addr ~len;
      Array.iteri
        (fun i b ->
          let a = revbits_heap_base + (i * g) in
          let a_end =
            min (a + g) (revbits_heap_base + rb.rb_heap_size) - 1
          in
          if Revbits.is_revoked rev a <> b || Revbits.is_revoked rev a_end <> b
          then
            QCheck.Test.fail_reportf
              "op %d: granule %d is_revoked disagrees with the model (%b)" k i
              b)
        bits;
      let model = Array.fold_left (fun n b -> if b then n + 1 else n) 0 bits in
      if Revbits.painted_granules rev <> model then
        QCheck.Test.fail_reportf "op %d: painted_granules %d, model %d" k
          (Revbits.painted_granules rev) model;
      if
        Revbits.is_revoked rev (revbits_heap_base - 1)
        || Revbits.is_revoked rev (revbits_heap_base + rb.rb_heap_size)
      then QCheck.Test.fail_reportf "op %d: revoked outside the heap" k)
    rb.rb_ops;
  true

let gen_revbits_case : revbits_case QCheck.Gen.t =
  let open QCheck.Gen in
  let* log2 = oneofl [ 3; 4; 5 ] in
  let g = 1 lsl log2 in
  let* granules = 1 -- 80
  and* trim = frequency [ (1, return 0); (1, 0 -- (g - 1)) ] in
  let size = (granules * g) - trim in
  let op =
    let* v = bool in
    let* off = (-3 * g) -- (size + (3 * g)) in
    let* len =
      frequency
        [ (1, return 0); (1, return 1); (4, 1 -- (size + (4 * g)));
          (1, return (size + (8 * g))) ]
    in
    return (v, off, len)
  in
  let* ops = list_size (1 -- 20) op in
  return { rb_granule_log2 = log2; rb_heap_size = size; rb_ops = ops }

let arb_revbits_case =
  QCheck.make
    ~print:(fun rb ->
      Printf.sprintf "granule %d B, heap %d B, ops [%s]"
        (1 lsl rb.rb_granule_log2) rb.rb_heap_size
        (String.concat "; "
           (List.map
              (fun (v, off, len) ->
                Printf.sprintf "%s %+d %d"
                  (if v then "paint" else "clear")
                  off len)
              rb.rb_ops)))
    gen_revbits_case

type sram_op =
  | Op_cap of int * bool  (** [write_cap] at a granule, tagged or not *)
  | Op_store of int * int * bool
      (** [write8]/[16]/[32] (size, offset, unchecked [_u] twin?) *)
  | Op_fill of int * int  (** [fill] (offset, length) *)
  | Op_blit of int * int  (** [blit_string] (offset, length) *)
  | Op_clear_tag of int  (** [clear_tag_at] any byte of a granule *)

let sram_case_base = 0x20000

let show_sram_op = function
  | Op_cap (g, tag) -> Printf.sprintf "cap %d %b" g tag
  | Op_store (n, off, u) ->
      Printf.sprintf "write%d%s %d" (8 * n) (if u then "_u" else "") off
  | Op_fill (off, len) -> Printf.sprintf "fill %d %d" off len
  | Op_blit (off, len) -> Printf.sprintf "blit %d %d" off len
  | Op_clear_tag off -> Printf.sprintf "clear_tag %d" off

(* Bit-at-a-time micro-tag clearing: every half a data write touches,
   one at a time. *)
let sram_oracle_clear halves off len =
  for h = off lsr 2 to (off + len - 1) lsr 2 do
    halves.(h) <- false
  done

(** Byte-wise micro-tag updates agree with one bool per half: after every
    [write_cap], data store ([_u] or checked), [fill], [blit_string] and
    [clear_tag_at], [read_microtags], [tag_at] and the [read_cap] tag
    match the model at every granule. *)
let sram_bytewise_agrees (granules, ops) =
  let sram = Sram.create ~base:sram_case_base ~size:(8 * granules) in
  let halves = Array.make (2 * granules) false in
  List.iteri
    (fun k op ->
      let at off = sram_case_base + off in
      (match op with
      | Op_cap (g, tag) ->
          Sram.write_cap sram (at (8 * g))
            {
              Capability.word = (if tag then Capability.Word.tag_bit else 0);
              addr = g + 1;
            };
          halves.(2 * g) <- tag;
          halves.((2 * g) + 1) <- tag
      | Op_store (n, off, u) ->
          (match (n, u) with
          | 1, false -> Sram.write8 sram (at off) 0x5a
          | 1, true -> Sram.write8_u sram (at off) 0x5a
          | 2, false -> Sram.write16 sram (at off) 0x5a5a
          | 2, true -> Sram.write16_u sram (at off) 0x5a5a
          | _, false -> Sram.write32 sram (at off) 0x5a5a5a5a
          | _, true -> Sram.write32_u sram (at off) 0x5a5a5a5a);
          sram_oracle_clear halves off n
      | Op_fill (off, len) ->
          Sram.fill sram ~addr:(at off) ~len '\x00';
          if len > 0 then sram_oracle_clear halves off len
      | Op_blit (off, len) ->
          Sram.blit_string sram ~addr:(at off) (String.make len '\xa5');
          if len > 0 then sram_oracle_clear halves off len
      | Op_clear_tag off ->
          Sram.clear_tag_at sram (at off);
          halves.(2 * (off lsr 3)) <- false;
          halves.((2 * (off lsr 3)) + 1) <- false);
      for g = 0 to granules - 1 do
        let lo = halves.(2 * g) and hi = halves.((2 * g) + 1) in
        let a = at (8 * g) in
        if
          Sram.read_microtags sram (a + 5) <> (lo, hi)
          || Sram.tag_at sram a <> (lo && hi)
          || Sram.tag_at sram (a + 7) <> (lo && hi)
          || Capability.tag (Sram.read_cap sram a) <> (lo && hi)
        then
          QCheck.Test.fail_reportf
            "after op %d (%s): granule %d micro-tags (%b, %b), model (%b, %b)"
            k (show_sram_op op) g
            (fst (Sram.read_microtags sram a))
            (snd (Sram.read_microtags sram a))
            lo hi
      done)
    ops;
  true

let gen_sram_case : (int * sram_op list) QCheck.Gen.t =
  let open QCheck.Gen in
  let* granules = 1 -- 48 in
  let size = 8 * granules in
  let range =
    let* off = 0 -- (size - 1) in
    let* len =
      frequency [ (1, return 0); (1, 1 -- 4); (3, 0 -- (size - off)) ]
    in
    return (off, min len (size - off))
  in
  let op =
    frequency
      [
        (5, map2 (fun g tag -> Op_cap (g, tag)) (0 -- (granules - 1))
              (frequency [ (4, return true); (1, return false) ]));
        (3, let* n = oneofl [ 1; 2; 4 ] and* u = bool in
            let* w = 0 -- ((size / n) - 1) in
            return (Op_store (n, n * w, u)));
        (2, map (fun (off, len) -> Op_fill (off, len)) range);
        (1, map (fun (off, len) -> Op_blit (off, len)) range);
        (1, map (fun off -> Op_clear_tag off) (0 -- (size - 1)));
      ]
  in
  let* ops = list_size (1 -- 40) op in
  return (granules, ops)

let arb_sram_case =
  QCheck.make
    ~print:(fun (granules, ops) ->
      Printf.sprintf "%d granules: %s" granules
        (String.concat "; " (List.map show_sram_op ops)))
    gen_sram_case

type sweep_case = {
  sw_core : Core_model.core;
  sw_batch : int;
  sw_caps : (int * int * bool) list;
      (** (granule index, target granule index, freed?) as in
          [revoker_case] *)
  sw_stores : (int * int) list;
      (** (capability index, half) data stores that leave a placed
          capability with one micro-tag *)
  sw_range : int * int;  (** [start, stop) relative to the SRAM base *)
}

(* A software sweep that reads every granule's word with [read_cap],
   tagged or not, on the range [Sw_revoker.sweep] clamps to. *)
let sweep_oracle sram rev clock ~batch ~start ~stop =
  let lo = Sram.base sram in
  let start = max lo (start land lnot 7) in
  let stop = min (lo + Sram.size sram) (stop land lnot 7) in
  let cost = Sw_revoker.pair_cost clock.Clock.params in
  let invalidated = ref 0 and pos = ref start in
  while !pos < stop do
    let batch_end = min stop (!pos + (batch * 8)) in
    let granules = (batch_end - !pos) / 8 in
    while !pos < batch_end do
      let c = Sram.read_cap sram !pos in
      if Capability.tag c && Revbits.is_revoked rev (Capability.base c)
      then begin
        Sram.write_cap sram !pos (Capability.clear_tag c);
        incr invalidated
      end;
      pos := !pos + 8
    done;
    Clock.advance clock
      (((granules + 1) / 2) * cost)
      ~mem_busy:(granules * 2 * (8 / clock.Clock.params.bus_bytes))
  done;
  !invalidated

(** The tag-first software sweep invalidates, writes and charges exactly
    what a sweep that reads every granule's word does, on ranges inside
    and overhanging the SRAM. *)
let sw_sweep_agrees (sc : sweep_case) =
  let granules = revoker_heap_size / 8 in
  let mk () =
    let sram = Sram.create ~base:revoker_heap_base ~size:revoker_heap_size in
    let rev =
      Revbits.create ~heap_base:revoker_heap_base
        ~heap_size:revoker_heap_size ()
    in
    place_caps sram rev sc.sw_caps;
    List.iter
      (fun (k, half) ->
        let at, _, _ = List.nth sc.sw_caps (k mod List.length sc.sw_caps) in
        Sram.write32 sram
          (revoker_heap_base + (8 * (at mod granules)) + (4 * half))
          0x1234)
      sc.sw_stores;
    (sram, rev, Clock.create (Core_model.params_of sc.sw_core))
  in
  let start = revoker_heap_base + fst sc.sw_range in
  let stop = revoker_heap_base + snd sc.sw_range in
  let sram_a, rev_a, clock_a = mk () and sram_b, rev_b, clock_b = mk () in
  let sw =
    Sw_revoker.create ~batch_granules:sc.sw_batch ~sram:sram_a ~rev:rev_a
      ~clock:clock_a ()
  in
  Sw_revoker.sweep sw ~start ~stop;
  let expected =
    sweep_oracle sram_b rev_b clock_b ~batch:sc.sw_batch ~start ~stop
  in
  if Sw_revoker.invalidated sw <> expected then
    QCheck.Test.fail_reportf "invalidated %d, oracle %d"
      (Sw_revoker.invalidated sw) expected;
  if Sram.digest sram_a <> Sram.digest sram_b then
    QCheck.Test.fail_reportf "memory differs from the oracle's";
  if Clock.cycles clock_a <> Clock.cycles clock_b then
    QCheck.Test.fail_reportf "cycles %d, oracle %d" (Clock.cycles clock_a)
      (Clock.cycles clock_b);
  if Sw_revoker.epoch sw land 1 <> 0 then
    QCheck.Test.fail_reportf "sweep left epoch %d odd" (Sw_revoker.epoch sw);
  true

let gen_sweep_case : sweep_case QCheck.Gen.t =
  let open QCheck.Gen in
  let* core = oneofl [ Core_model.Ibex; Core_model.Flute ] in
  let* batch = frequency [ (3, 1 -- 200); (1, return 128) ] in
  let* caps =
    list_size (1 -- 40)
      (let* at = int_bound 1023
       and* target = int_bound 1023
       and* freed = bool in
       return (at, target, freed))
  in
  let* stores = list_size (0 -- 8) (pair (int_bound 39) (int_bound 1)) in
  let edge =
    frequency [ (3, 0 -- revoker_heap_size); (1, (-200) -- 0);
                (1, revoker_heap_size -- (revoker_heap_size + 200)) ]
  in
  let* a = edge and* b = edge in
  return
    { sw_core = core; sw_batch = batch; sw_caps = caps; sw_stores = stores;
      sw_range = (min a b, max a b) }

let arb_sweep_case =
  QCheck.make
    ~print:(fun sc ->
      Printf.sprintf "%s batch=%d caps=[%s] stores=[%s] range=[%d, %d)"
        (match sc.sw_core with Core_model.Ibex -> "ibex" | _ -> "flute")
        sc.sw_batch
        (String.concat ";"
           (List.map
              (fun (a, t, f) ->
                Printf.sprintf "%d->%d%s" a t (if f then "!" else ""))
              sc.sw_caps))
        (String.concat ";"
           (List.map (fun (k, h) -> Printf.sprintf "%d.%d" k h) sc.sw_stores))
        (fst sc.sw_range) (snd sc.sw_range))
    gen_sweep_case

(* --- the assembled test family -------------------------------------------- *)

let arb_flat = Flatgen.arb_program Flatgen.gen_program
let arb_flat_smc = Flatgen.arb_program Flatgen.gen_program_smc

let arb_flat_seeded gen =
  QCheck.make
    ~print:(fun (ws, seed) ->
      Printf.sprintf "seed %d\n%s" seed (Boot.print_words ws))
    QCheck.Gen.(pair gen (int_bound 0x3FFF_FFFF))

let tests =
  [
    QCheck.Test.make
      ~name:"ref and jit dispatch agree on random streams"
      ~count:(Iters.count ~default:1000) arb_flat flat_lockstep;
    QCheck.Test.make
      ~name:"self-modifying streams agree on every dispatch column"
      ~count:(Iters.count ~default:400) arb_flat_smc
      (flat_lockstep ~writable_code:true);
    QCheck.Test.make
      ~name:"interrupt injection: all three tier columns deliver identically"
      ~count:(Iters.count ~default:200)
      (arb_flat_seeded Flatgen.gen_program)
      flat_interrupt_lockstep;
    QCheck.Test.make
      ~name:"interrupt injection over self-modifying streams"
      ~count:(Iters.count ~default:100)
      (arb_flat_seeded Flatgen.gen_program_smc)
      (flat_interrupt_lockstep ~writable_code:true);
  ]

let fuzz_tests =
  [
    QCheck.Test.make ~name:"no instruction stream amplifies authority"
      ~count:(Iters.count ~default:300) arb_flat flat_authority;
    QCheck.Test.make
      ~name:"no self-modifying stream amplifies authority"
      ~count:(Iters.count ~default:150) arb_flat_smc
      (flat_authority ~writable_code:true);
  ]

let scenario_tests =
  [
    QCheck.Test.make
      ~name:
        "multi-compartment scenarios: three dispatch columns agree under \
         interrupts, churn and patches"
      ~count:(Iters.count ~default:60)
      (Scenario.arb ())
      scenario_lockstep;
    QCheck.Test.make
      ~name:"multi-compartment scenarios: cycle models agree on every \
             dispatch variant"
      ~count:(Iters.count ~default:15)
      (Scenario.arb ())
      scenario_perf_agreement;
    QCheck.Test.make
      ~name:"multi-compartment scenarios: no execution amplifies the boot \
             authority envelope"
      ~count:(Iters.count ~default:40)
      (Scenario.arb ())
      scenario_authority;
    QCheck.Test.make
      ~name:"clean generated scenarios audit with zero findings"
      ~count:(Iters.count ~default:60)
      (Scenario.arb ~clean:true ())
      scenario_audits_clean;
    QCheck.Test.make
      ~name:"every jit check plan from a generated scenario verifies sound"
      ~count:(Iters.count ~default:40)
      (Scenario.arb ())
      scenario_plans_sound;
    QCheck.Test.make
      ~name:"compile-time plan validation is observationally free"
      ~count:(Iters.count ~default:25)
      (Scenario.arb ())
      scenario_validated_jit_agrees;
    QCheck.Test.make
      ~name:"Revoker.tick_n is bit-identical to the tick loop"
      ~count:(Iters.count ~default:100) arb_revoker_case
      revoker_tick_n_agrees;
    QCheck.Test.make
      ~name:"byte-wise revocation bitmap agrees with the per-granule model"
      ~count:(Iters.count ~default:300) arb_revbits_case
      revbits_bytewise_agrees;
    QCheck.Test.make
      ~name:"byte-wise micro-tag updates agree with the per-half model"
      ~count:(Iters.count ~default:300) arb_sram_case sram_bytewise_agrees;
    QCheck.Test.make
      ~name:"tag-first software sweep agrees with a word-reading sweep"
      ~count:(Iters.count ~default:100) arb_sweep_case sw_sweep_agrees;
  ]
