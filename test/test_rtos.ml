(* Tests for the RTOS: the quarantining allocator (paper 5.1), the
   software revoker (3.3.2), the switcher's stack discipline (5.2) and
   the scheduler. *)

open Cheriot_core
module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits
module Core_model = Cheriot_uarch.Core_model
module Revoker = Cheriot_uarch.Revoker
module Clock = Cheriot_rtos.Clock
module Allocator = Cheriot_rtos.Allocator
module Sw_revoker = Cheriot_rtos.Sw_revoker
module Switcher = Cheriot_rtos.Switcher
module Sched = Cheriot_rtos.Sched

let heap_base = 0x8_0000
let heap_size = 64 * 1024

type sys = {
  alloc : Allocator.t;
  sram : Sram.t;
  rev : Revbits.t;
  clock : Clock.t;
  hw : Revoker.t option;
}

let make ?(temporal = Allocator.Software) ?quarantine_threshold () =
  let clock = Clock.create (Core_model.params_of Core_model.Flute) in
  let sram = Sram.create ~base:heap_base ~size:heap_size in
  let rev = Revbits.create ~heap_base ~heap_size () in
  let alloc =
    Allocator.create ~temporal ?quarantine_threshold ~sram ~rev ~clock
      ~heap_base ~heap_size ()
  in
  let hw =
    match temporal with
    | Allocator.Hardware ->
        let hw = Revoker.create ~core:Core_model.Flute ~sram ~rev () in
        Clock.attach_revoker clock hw;
        Allocator.attach_hw_revoker alloc hw;
        Some hw
    | Allocator.Software ->
        Allocator.set_sw_revoker alloc (Sw_revoker.create ~sram ~rev ~clock ());
        None
    | Allocator.Baseline | Allocator.Metadata -> None
  in
  { alloc; sram; rev; clock; hw }

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "allocator error: %a" Allocator.pp_error e

let check_inv s =
  match Allocator.check_invariants s.alloc with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* --- spatial properties ------------------------------------------------ *)

let test_malloc_bounds () =
  let s = make () in
  let c = ok (Allocator.malloc s.alloc 100) in
  Alcotest.(check bool) "tagged" true (Capability.tag c);
  Alcotest.(check int) "exact length" 100 (Capability.length c);
  Alcotest.(check bool) "global" true (Capability.is_global c);
  Alcotest.(check bool) "no SL" false (Capability.has_perm c SL);
  (* large sizes get representable padding (3.2.3) *)
  let big = ok (Allocator.malloc s.alloc 5000) in
  Alcotest.(check int) "crrl padding" (Bounds.crrl 5000) (Capability.length big);
  Alcotest.(check int) "aligned" 0
    (Capability.base big land ((1 lsl 4) - 1));
  check_inv s

let test_no_overlap () =
  let s = make () in
  let caps = List.init 20 (fun i -> ok (Allocator.malloc s.alloc (16 + (i * 7)))) in
  let ranges = List.map (fun c -> (Capability.base c, Capability.top c)) caps in
  List.iteri
    (fun i (b1, t1) ->
      List.iteri
        (fun j (b2, t2) ->
          if i < j && not (t1 <= b2 || t2 <= b1) then
            Alcotest.failf "allocations overlap: [%x,%x) [%x,%x)" b1 t1 b2 t2)
        ranges)
    ranges;
  check_inv s

(* --- temporal properties ----------------------------------------------- *)

let test_free_paints_and_quarantines () =
  let s = make () in
  let c = ok (Allocator.malloc s.alloc 64) in
  let base = Capability.base c in
  Sram.write32 s.sram base 0xabcd;
  ok (Allocator.free s.alloc c);
  Alcotest.(check bool) "revbit painted" true (Revbits.is_revoked s.rev base);
  Alcotest.(check int) "memory zeroed" 0 (Sram.read32 s.sram base);
  check_inv s

let test_double_free_detected () =
  let s = make () in
  let c = ok (Allocator.malloc s.alloc 64) in
  ok (Allocator.free s.alloc c);
  (match Allocator.free s.alloc c with
  | Error Allocator.Double_free -> ()
  | Ok () -> Alcotest.fail "double free accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Allocator.pp_error e);
  check_inv s

let test_partial_free_rejected () =
  let s = make () in
  let c = ok (Allocator.malloc s.alloc 64) in
  let mid = Capability.incr_address c 16 in
  let mid = Capability.set_bounds mid ~length:8 ~exact:true in
  (match Allocator.free s.alloc mid with
  | Error (Allocator.Invalid_free _ | Allocator.Double_free) ->
      (* a mid-object pointer lands in zeroed data, indistinguishable
         from a dead chunk header: rejected either way *)
      ()
  | Ok () -> Alcotest.fail "partial free accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Allocator.pp_error e);
  (* untagged pointer *)
  (match Allocator.free s.alloc (Capability.clear_tag c) with
  | Error (Allocator.Invalid_free _) -> ()
  | _ -> Alcotest.fail "untagged free accepted");
  check_inv s

let test_no_reuse_before_sweep () =
  (* The core temporal guarantee: memory is reissued only after a full
     revocation cycle, so allocations can never alias quarantined
     memory (5.1). *)
  let s = make ~quarantine_threshold:(48 * 1024) () in
  let c = ok (Allocator.malloc s.alloc 64) in
  let base1 = Capability.base c in
  ok (Allocator.free s.alloc c);
  (* No sweep has run: the same address must not come back. *)
  let c2 = ok (Allocator.malloc s.alloc 64) in
  Alcotest.(check bool) "different memory before sweep" true
    (Capability.base c2 <> base1);
  ok (Allocator.free s.alloc c2);
  (* After an explicit pass, memory may be reused. *)
  Allocator.revoke_now s.alloc;
  let c3 = ok (Allocator.malloc s.alloc 64) in
  Alcotest.(check bool) "reuse allowed after sweep" true
    (Capability.base c3 = base1 || Capability.base c3 = Capability.base c2);
  check_inv s

let test_stale_cap_invalidated_by_sweep () =
  (* UAF elimination end to end: a stale capability stored in memory is
     untagged by the sweep before its referent is reused. *)
  let s = make () in
  let victim = ok (Allocator.malloc s.alloc 64) in
  let slot = heap_base + heap_size - 16 in
  (* Keep a stale copy in an (unrelated, still-allocated) heap slot. *)
  let holder = ok (Allocator.malloc s.alloc 32) in
  let hbase = Capability.base holder in
  Sram.write_cap s.sram hbase victim;
  ok (Allocator.free s.alloc victim);
  Allocator.revoke_now s.alloc;
  Alcotest.(check bool) "stale copy untagged" false (Sram.tag_at s.sram hbase);
  ignore slot;
  check_inv s

let test_stale_cap_outside_heap_invalidated () =
  (* Same guarantee for copies held OUTSIDE the heap — compartment
     globals, spilled stack slots, register save areas.  [revoke_now]
     used to sweep only [heap_base, heap_end), so such a copy kept its
     tag across revocation and the chunk's reuse became a writable
     use-after-free against the allocator's own boundary tags (shaken
     out by the proptest scenario generator). *)
  let clock = Clock.create (Core_model.params_of Core_model.Flute) in
  let sram_base = heap_base - 0x1000 in
  let sram = Sram.create ~base:sram_base ~size:(heap_size + 0x1000) in
  let rev = Revbits.create ~heap_base ~heap_size () in
  let alloc = Allocator.create ~sram ~rev ~clock ~heap_base ~heap_size () in
  Allocator.set_sw_revoker alloc (Sw_revoker.create ~sram ~rev ~clock ());
  let victim = ok (Allocator.malloc alloc 32) in
  let global = sram_base + 0x100 in
  Sram.write_cap sram global victim;
  ok (Allocator.free alloc victim);
  Allocator.revoke_now alloc;
  Alcotest.(check bool) "stale out-of-heap copy untagged" false
    (Sram.tag_at sram global);
  match Allocator.check_invariants alloc with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_oom_triggers_revocation () =
  let s = make ~quarantine_threshold:(1024 * 1024) () in
  (* Threshold never fires; exhaustion must force a pass + retry. *)
  let big = (heap_size / 2) + 1024 in
  let a = ok (Allocator.malloc s.alloc big) in
  ok (Allocator.free s.alloc a);
  let b = ok (Allocator.malloc s.alloc big) in
  Alcotest.(check bool) "second big alloc succeeded" true (Capability.tag b);
  Alcotest.(check int) "one sweep" 1 (Allocator.stats s.alloc).Allocator.sweeps;
  check_inv s

let test_hardware_path () =
  let s = make ~temporal:Allocator.Hardware () in
  let c = ok (Allocator.malloc s.alloc 128) in
  ok (Allocator.free s.alloc c);
  Allocator.revoke_now s.alloc;
  Alcotest.(check bool) "hw epoch advanced (even)" true
    (Allocator.epoch s.alloc mod 2 = 0 && Allocator.epoch s.alloc > 0);
  let c2 = ok (Allocator.malloc s.alloc 128) in
  Alcotest.(check bool) "alloc after hw sweep" true (Capability.tag c2);
  check_inv s

let test_baseline_vulnerable_by_design () =
  (* The baseline config reproduces the classic UAF: memory is reused
     while stale pointers still work (the threat the paper eliminates). *)
  let s = make ~temporal:Allocator.Baseline () in
  let c = ok (Allocator.malloc s.alloc 64) in
  let base1 = Capability.base c in
  ok (Allocator.free s.alloc c);
  let c2 = ok (Allocator.malloc s.alloc 64) in
  Alcotest.(check int) "memory reused immediately" base1 (Capability.base c2);
  Alcotest.(check bool) "stale cap still tagged" true (Capability.tag c)

(* qcheck: random alloc/free interleavings keep all invariants. *)
let prop_random_traffic =
  QCheck.Test.make ~name:"random alloc/free traffic keeps heap invariants"
    ~count:60
    QCheck.(
      make
        ~print:(fun ops ->
          String.concat ","
            (List.map (fun (a, s) -> Printf.sprintf "%b/%d" a s) ops))
        Gen.(list_size (int_bound 120) (pair bool (int_bound 2000))))
    (fun ops ->
      let s = make ~quarantine_threshold:(16 * 1024) () in
      let live = ref [] in
      List.iter
        (fun (do_alloc, size) ->
          if do_alloc || !live = [] then (
            match Allocator.malloc s.alloc (max 1 size) with
            | Ok c -> live := c :: !live
            | Error Allocator.Out_of_memory -> ()
            | Error e ->
                Alcotest.failf "malloc: %a" Allocator.pp_error e)
          else
            match !live with
            | c :: rest ->
                live := rest;
                (match Allocator.free s.alloc c with
                | Ok () -> ()
                | Error e -> Alcotest.failf "free: %a" Allocator.pp_error e)
            | [] -> ())
        ops;
      (match Allocator.check_invariants s.alloc with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      (* every live cap still dereferences: its revbit must be clear *)
      List.for_all
        (fun c -> not (Revbits.is_revoked s.rev (Capability.base c)))
        !live)

(* --- switcher ----------------------------------------------------------- *)

let test_switcher_zeroing () =
  let clock = Clock.create (Core_model.params_of Core_model.Flute) in
  let sram = Sram.create ~base:0x1000 ~size:2048 in
  let sw = Switcher.create ~hwm_enabled:false ~sram clock in
  let stack = Switcher.make_stack ~base:0x1000 ~size:1024 in
  (* Caller leaves a secret below SP (a stale local), then calls. *)
  stack.Switcher.sp <- 0x1000 + 512;
  stack.Switcher.hwm <- 0x1000 + 256;
  Sram.write32 sram (0x1000 + 300) 0xdeadbeef;
  let observed = ref (-1) in
  Switcher.cross_call sw stack ~callee_frame:64 ~callee_stack_use:128
    (fun () -> observed := Sram.read32 sram (0x1000 + 300));
  Alcotest.(check int) "callee sees zeroed stack" 0 !observed;
  Alcotest.(check int) "sp restored" (0x1000 + 512) stack.Switcher.sp

let test_switcher_hwm_less_zeroing () =
  let run hwm_enabled =
    let clock = Clock.create (Core_model.params_of Core_model.Flute) in
    let sram = Sram.create ~base:0x1000 ~size:2048 in
    let sw = Switcher.create ~hwm_enabled ~sram clock in
    let stack = Switcher.make_stack ~base:0x1000 ~size:1024 in
    stack.Switcher.sp <- 0x1000 + 900;
    stack.Switcher.hwm <- 0x1000 + 900;
    for _ = 1 to 10 do
      Switcher.cross_call sw stack ~callee_frame:64 ~callee_stack_use:64
        (fun () -> ())
    done;
    (Switcher.bytes_zeroed sw, Clock.cycles clock)
  in
  let z_no, c_no = run false in
  let z_hwm, c_hwm = run true in
  Alcotest.(check bool)
    (Printf.sprintf "hwm zeroes less (%d < %d)" z_hwm z_no)
    true (z_hwm < z_no / 4);
  Alcotest.(check bool) "hwm cheaper" true (c_hwm < c_no)

(* --- software revoker batching ------------------------------------------ *)

let test_sw_revoker_preemptable () =
  let clock = Clock.create (Core_model.params_of Core_model.Flute) in
  let sram = Sram.create ~base:heap_base ~size:heap_size in
  let rev = Revbits.create ~heap_base ~heap_size () in
  let sw = Sw_revoker.create ~batch_granules:64 ~sram ~rev ~clock () in
  let batches = ref 0 in
  Sw_revoker.sweep sw
    ~on_batch_end:(fun () -> incr batches)
    ~start:heap_base ~stop:(heap_base + heap_size);
  Alcotest.(check int) "preemption points" (heap_size / 8 / 64) !batches;
  Alcotest.(check int) "epoch advanced twice" 2 (Sw_revoker.epoch sw)

(* A sweep range that overhangs its SRAM on both sides is clamped into
   it: the sweep completes its epoch, untags exactly the revoked
   capabilities and charges what a sweep of the SRAM itself charges. *)
let test_sw_revoker_clamps_overhang () =
  let size = 4096 in
  let revoked = heap_base + 0x800 and live = heap_base + 0x900 in
  let slots = [ (0, revoked); (10, live); (100, revoked); (511, revoked) ] in
  let setup () =
    let clock = Clock.create (Core_model.params_of Core_model.Flute) in
    let sram = Sram.create ~base:heap_base ~size in
    let rev = Revbits.create ~heap_base ~heap_size:size () in
    List.iter
      (fun (slot, target) ->
        let c =
          Capability.set_bounds
            (Capability.with_address Capability.root_mem_rw target)
            ~length:8 ~exact:true
        in
        Sram.write_cap sram (heap_base + (8 * slot)) c)
      slots;
    Revbits.paint rev ~addr:revoked ~len:8;
    (clock, sram, Sw_revoker.create ~sram ~rev ~clock ())
  in
  let clock, sram, sw = setup () in
  Sw_revoker.sweep sw ~start:(heap_base - 64) ~stop:(heap_base + size + 64);
  Alcotest.(check int) "epoch even: the sweep completed" 2
    (Sw_revoker.epoch sw);
  Alcotest.(check int) "revoked capabilities invalidated" 3
    (Sw_revoker.invalidated sw);
  List.iter
    (fun (slot, target) ->
      Alcotest.(check bool)
        (Printf.sprintf "granule %d keeps its tag iff live" slot)
        (target = live)
        (Sram.tag_at sram (heap_base + (8 * slot))))
    slots;
  let clock_in, _, sw_in = setup () in
  Sw_revoker.sweep sw_in ~start:heap_base ~stop:(heap_base + size);
  Alcotest.(check int) "charged as the in-range sweep" (Clock.cycles clock_in)
    (Clock.cycles clock)

(* Both revokers over a 256 KiB heap full of tagged capabilities, each
   granule holding one to itself, with every odd granule painted: each
   sweep invalidates exactly the capabilities into painted memory, and
   allocates under one minor word per granule, because it decodes the
   base from the granule's two 32-bit halves. *)
let test_sweeps_allocate_nothing () =
  let base = 0x10_0000 and size = 256 * 1024 in
  let granules = size / 8 in
  let heap () =
    let sram = Sram.create ~base ~size in
    let rev = Revbits.create ~heap_base:base ~heap_size:size () in
    for g = 0 to granules - 1 do
      let a = base + (8 * g) in
      Sram.write_cap sram a
        Capability.(
          set_bounds (with_address root_mem_rw a) ~length:8 ~exact:true);
      if g land 1 = 1 then Revbits.paint rev ~addr:a ~len:8
    done;
    (sram, rev)
  in
  let words_per_granule sweep =
    let before = Gc.minor_words () in
    sweep ();
    (Gc.minor_words () -. before) /. float_of_int granules
  in
  let check name sram words invalidated =
    Alcotest.(check bool)
      (Printf.sprintf "%s sweep: %.2f minor words per granule, under 1" name
         words)
      true (words < 1.0);
    Alcotest.(check int) (name ^ " sweep: invalidated") (granules / 2)
      invalidated;
    for g = 0 to granules - 1 do
      if Sram.tag_at sram (base + (8 * g)) <> (g land 1 = 0) then
        Alcotest.failf "%s sweep: granule %d tag wrong" name g
    done
  in
  let sram, rev = heap () in
  let clock = Clock.create (Core_model.params_of Core_model.Flute) in
  let sw = Sw_revoker.create ~sram ~rev ~clock () in
  let words =
    words_per_granule (fun () ->
        Sw_revoker.sweep sw ~start:base ~stop:(base + size))
  in
  check "software" sram words (Sw_revoker.invalidated sw);
  let sram, rev = heap () in
  let hw = Revoker.create ~core:Core_model.Flute ~sram ~rev () in
  let words =
    words_per_granule (fun () ->
        Revoker.kick hw ~start:base ~stop:(base + size);
        ignore (Revoker.run_to_completion hw))
  in
  check "hardware" sram words (Revoker.caps_invalidated hw)

(* --- scheduler ------------------------------------------------------------ *)

let test_sched_priorities () =
  let clock = Clock.create (Core_model.params_of Core_model.Ibex) in
  let sched = Sched.create ~hwm_enabled:false clock in
  let stack () = Switcher.make_stack ~base:0x1000 ~size:512 in
  let lo = Sched.spawn sched ~name:"lo" ~priority:1 ~stack:(stack ()) in
  let hi = Sched.spawn sched ~name:"hi" ~priority:5 ~stack:(stack ()) in
  (match Sched.pick sched with
  | Some th -> Alcotest.(check string) "highest priority wins" "hi" th.Sched.tname
  | None -> Alcotest.fail "no thread");
  Sched.switch_to sched hi;
  Sched.sleep_until hi (Clock.cycles clock + 1000);
  (match Sched.pick sched with
  | Some th -> Alcotest.(check string) "lower runs when hi sleeps" "lo" th.Sched.tname
  | None -> Alcotest.fail "no thread");
  Sched.switch_to sched lo;
  Sched.sleep_until lo (Clock.cycles clock + 5000);
  Alcotest.(check bool) "idles to next wake" true (Sched.idle_to_next_wake sched);
  Alcotest.(check bool) "hi awake again" true (hi.Sched.tstate = Sched.Ready);
  Alcotest.(check bool) "idle time accounted" true (Sched.idle_cycles sched > 0)

let test_sched_ctx_cost_hwm () =
  let clock = Clock.create (Core_model.params_of Core_model.Ibex) in
  let plain = Sched.create ~hwm_enabled:false clock in
  let hwm = Sched.create ~hwm_enabled:true clock in
  Alcotest.(check int) "two extra CSRs cost 4 cycles"
    (Sched.ctx_switch_cost plain + 4)
    (Sched.ctx_switch_cost hwm)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "malloc bounds exact + representable" `Quick
      test_malloc_bounds;
    Alcotest.test_case "allocations never overlap" `Quick test_no_overlap;
    Alcotest.test_case "free paints, zeroes, quarantines" `Quick
      test_free_paints_and_quarantines;
    Alcotest.test_case "double free detected" `Quick test_double_free_detected;
    Alcotest.test_case "partial/untagged free rejected" `Quick
      test_partial_free_rejected;
    Alcotest.test_case "no reuse before sweep" `Quick test_no_reuse_before_sweep;
    Alcotest.test_case "sweep invalidates stale caps" `Quick
      test_stale_cap_invalidated_by_sweep;
    Alcotest.test_case "sweep reaches caps outside the heap" `Quick
      test_stale_cap_outside_heap_invalidated;
    Alcotest.test_case "exhaustion forces a pass" `Quick
      test_oom_triggers_revocation;
    Alcotest.test_case "hardware revoker path" `Quick test_hardware_path;
    Alcotest.test_case "baseline reproduces classic UAF" `Quick
      test_baseline_vulnerable_by_design;
    Alcotest.test_case "switcher zeroes delegated stack" `Quick
      test_switcher_zeroing;
    Alcotest.test_case "HWM shrinks zeroing" `Quick
      test_switcher_hwm_less_zeroing;
    Alcotest.test_case "software revoker batches" `Quick
      test_sw_revoker_preemptable;
    Alcotest.test_case "software sweep clamps an overhanging range" `Quick
      test_sw_revoker_clamps_overhang;
    Alcotest.test_case "both sweeps allocate nothing per granule" `Quick
      test_sweeps_allocate_nothing;
    Alcotest.test_case "scheduler priorities + sleep" `Quick
      test_sched_priorities;
    Alcotest.test_case "context switch cost of HWM CSRs" `Quick
      test_sched_ctx_cost_hwm;
    q prop_random_traffic;
  ]
