(* The multi-compartment property family ([Cheriot_proptest.Props]):
   qcheck properties over generated scenarios — dispatch-path
   equivalence under injection, cycle-model agreement, authority
   monotonicity, auditor precision, revoker engine equivalence — plus a
   deterministic coverage self-check and pinned regressions for the
   corners the generator is designed to reach.

   The coverage check matters because an equivalence property over a
   generator that never chains a block or crosses a compartment
   boundary would pass vacuously: it generates a fixed batch of
   scenarios and asserts the aggregate execution really did chain
   blocks, invalidate translations, cross compartments and trap. *)

open Cheriot_isa
module Loader = Cheriot_rtos.Loader
module Scenario = Cheriot_proptest.Scenario
module Props = Cheriot_proptest.Props

let run_gen gen st = QCheck.Gen.generate1 ~rand:st gen

(* Generate a fixed batch of full-vocabulary scenarios and drive each
   one on a jit machine with the property harness's tiny hot
   threshold; the aggregate block statistics must show every
   mechanism the equivalence properties claim to exercise. *)
let test_generator_coverage () =
  let st = Random.State.make [| 0x5eed |] in
  let stats = Hashtbl.create 8 in
  let bump k v =
    Hashtbl.replace stats k (v + try Hashtbl.find stats k with Not_found -> 0)
  in
  let comps_entered = ref 0 and traps = ref 0 in
  for _ = 1 to 40 do
    let sc = run_gen (Scenario.gen ()) st in
    let l = Scenario.link ~instrument:true sc in
    let m = l.Scenario.t.Loader.machine in
    m.Machine.hot_threshold <- 2;
    let crossed = ref false in
    let trapped = ref false in
    let c1 =
      if l.Scenario.n > 1 then Some (Loader.find l.Scenario.t "c1") else None
    in
    ignore
      (Trace.run m ~fuel:4096 ~dispatch:Machine.Dispatch_jit ~f:(fun e ->
           (match c1 with
           | Some b ->
               let o = b.Loader.image.Asm.origin in
               if
                 e.Trace.tr_pc >= o
                 && e.Trace.tr_pc < o + (4 * Array.length b.Loader.image.Asm.words)
               then crossed := true
           | None -> ());
           match e.Trace.tr_result with
           | Machine.Step_trap _ -> trapped := true
           | _ -> ()));
    if !crossed then incr comps_entered;
    if !trapped then incr traps;
    let s = Machine.block_stats m in
    bump "chain_hits" s.Machine.chain_hits;
    bump "invalidations" s.Machine.block_invalidations
  done;
  let get k = try Hashtbl.find stats k with Not_found -> 0 in
  Alcotest.(check bool) "scenarios chain block transfers" true
    (get "chain_hits" > 0);
  Alcotest.(check bool) "scenario stores invalidate translated blocks" true
    (get "invalidations" > 0);
  Alcotest.(check bool) "scenarios cross compartment boundaries" true
    (!comps_entered > 0);
  Alcotest.(check bool) "scenarios trap" true (!traps > 0)

(* Pinned regression: a timer interrupt armed while a loop is hot must
   be delivered at exactly the same retired-instruction boundary on the
   reference and jit paths — the delivery point is a block boundary of
   a chained round running a compiled plan, the corner DESIGN.md §10
   argues correct. *)
let test_interrupt_at_hot_block_boundary () =
  let sc = { Scenario.bodies = [ [ Fall_loop 7; Fall_loop 3; Arith 1 ] ];
             seed = 0 } in
  let mk () =
    let l = Scenario.link ~instrument:true sc in
    l.Scenario.t.Loader.machine
  in
  let ref_m = mk () and jit_m = mk () in
  jit_m.Machine.hot_threshold <- 2;
  let batch = ref 0 in
  let interrupted = ref false in
  let finished = ref false in
  while not !finished do
    incr batch;
    if !batch = 3 then
      (* arm the timer mid-run: by now the fall loop is hot and the
         jit machine is executing its compiled plan *)
      List.iter
        (fun (m : Machine.t) ->
          m.Machine.mtimecmp <- 1;
          m.Machine.mcycle <- 1)
        [ ref_m; jit_m ];
    let r_ref, n_ref = Machine.run ~fuel:5 ~dispatch:Machine.Dispatch_ref ref_m in
    let r_jit, n_jit =
      Machine.run ~fuel:5 ~dispatch:Machine.Dispatch_jit jit_m
    in
    if ref_m.Machine.mcause land 0x8000_0000 <> 0 then interrupted := true;
    Alcotest.(check bool)
      (Printf.sprintf "batch %d: same result and retired count" !batch)
      true
      ((r_ref, n_ref) = (r_jit, n_jit));
    Alcotest.(check string)
      (Printf.sprintf "batch %d: same state hash" !batch)
      (Machine.state_hash ref_m) (Machine.state_hash jit_m);
    match r_ref with
    | Machine.Step_halted | Machine.Step_double_fault | Machine.Step_waiting ->
        finished := true
    | _ -> if !batch > 200 then finished := true
  done;
  Alcotest.(check bool) "an interrupt was delivered" true !interrupted;
  let s = Machine.block_stats jit_m in
  Alcotest.(check bool) "the loop ran under a compiled plan" true
    (s.Machine.jit_blocks_compiled >= 1)

(* Pinned regression: a cross-compartment code patch — compartment c1
   storing over c0's patchable instruction through its granted window —
   must invalidate c0's already-translated block on the jit path (the
   store snoop crossing compartment boundaries), with final state
   identical to the reference interpreter.  "jit@1" pins the hotness to
   1, so the patched block runs under its compiled plan. *)
let test_cross_compartment_patch_snoop () =
  let sc =
    { Scenario.bodies = [ [ Call 0; Arith 1 ]; [ Patch 0; Arith 2 ] ];
      seed = 0 }
  in
  let run ?(pin = ignore) dispatch =
    let l = Scenario.link ~instrument:true sc in
    let m = l.Scenario.t.Loader.machine in
    pin m;
    let r, n = Machine.run ~fuel:4096 ~dispatch m in
    (r, n, Machine.state_hash m, Machine.block_stats m)
  in
  let r0, n0, h0, _ = run Machine.Dispatch_ref in
  Alcotest.(check bool) "reference halts" true (r0 = Machine.Step_halted);
  List.iter
    (fun (name, pin) ->
      let r, n, h, s = run ~pin Machine.Dispatch_jit in
      Alcotest.(check bool) (name ^ ": same result") true (r = r0);
      Alcotest.(check int) (name ^ ": same retired count") n0 n;
      Alcotest.(check string) (name ^ ": same state hash") h0 h;
      Alcotest.(check bool) (name ^ ": the patch store invalidated a block")
        true
        (s.Machine.block_invalidations >= 1))
    [ ("jit", ignore); ("jit@1", Props.pin_hot 1) ]

(* Pinned regression: a traced jit run over a scenario of hot loops, at
   a hotness that compiles their plans, must render the traced
   reference stream entry for entry — same pc, instruction and result —
   and land on the reference state.  A traced round is a recorded round
   of the round executor, so this pins the ring writes at block exits
   and traps, which no untraced equivalence check sees. *)
let test_traced_hot_loops_match_reference () =
  let sc =
    { Scenario.bodies = [ [ Fall_loop 7; Arith 5; Fall_loop 2 ] ]; seed = 0 }
  in
  let mk () =
    let l = Scenario.link ~instrument:true sc in
    l.Scenario.t.Loader.machine
  in
  let traced m dispatch =
    let entries = ref [] in
    ignore
      (Trace.run m ~fuel:4096 ~dispatch ~f:(fun e -> entries := e :: !entries));
    List.rev !entries
  in
  let render (e : Trace.entry) =
    Fmt.str "0x%08x %s%a" e.tr_pc
      (match e.tr_insn with Some i -> Insn.to_string i | None -> "<no retire>")
      Trace.pp_result e.tr_result
  in
  let ref_m = mk () in
  let _, n_ref = Machine.run ~fuel:4096 ~dispatch:Machine.Dispatch_ref ref_m in
  let ref_t = traced (mk ()) Machine.Dispatch_ref in
  let m = mk () in
  m.Machine.hot_threshold <- 2;
  let jit_t = traced m Machine.Dispatch_jit in
  Alcotest.(check int) "traced run retires the reference count" n_ref
    (List.length jit_t);
  Alcotest.(check (list string)) "traced jit stream is the reference stream"
    (List.map render ref_t) (List.map render jit_t);
  Alcotest.(check string) "traced run lands on the reference state"
    (Machine.state_hash ref_m) (Machine.state_hash m)

(* Pinned regression: the generator shook this scenario out of
   [scenario_lockstep].  [Allocator.revoke_now] used to sweep only
   [heap_base, heap_end), so the stale heap capability this program
   leaves in c1's globals survived revocation; after the chunk was
   released and coalesced, the guest's [Heap_rw] store through the
   stale cap zeroed the free chunk's boundary tag and a later backward
   coalesce crashed the allocator.  With the sweep covering the whole
   SRAM the stale copy is untagged, the store traps — identically on
   every dispatch path — and the property must hold. *)
let test_stale_global_cap_scenario () =
  let sc =
    { Scenario.bodies = [ [ Call 0 ]; [ Heap_rw 7; Call 0 ]; []; [] ];
      seed = 582252 }
  in
  Alcotest.(check bool) "lockstep holds on the shaken-out scenario" true
    (Props.scenario_lockstep sc)

let suite =
  List.map QCheck_alcotest.to_alcotest Props.scenario_tests
  @ [
      Alcotest.test_case "generated scenarios reach every claimed mechanism"
        `Quick test_generator_coverage;
      Alcotest.test_case "interrupt delivery at a hot block boundary" `Quick
        test_interrupt_at_hot_block_boundary;
      Alcotest.test_case "cross-compartment patch store is snooped" `Quick
        test_cross_compartment_patch_snoop;
      Alcotest.test_case "traced hot-loop scenario matches the reference"
        `Quick test_traced_hot_loops_match_reference;
      Alcotest.test_case "stale cap in compartment globals is revoked" `Quick
        test_stale_global_cap_scenario;
    ]
