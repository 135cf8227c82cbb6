(* Heap temporal safety, end to end (paper 3.3, 5.1).

   A use-after-free attack against the quarantining allocator, with the
   hardware load filter and the background revoker: the stale pointer is
   dead before the memory can ever be reused.  The same attack is then
   replayed against the Baseline configuration to show what the paper's
   mechanisms are eliminating.

   Run with:  dune exec examples/heap_temporal_safety.exe *)

open Cheriot_core
module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits
module Core_model = Cheriot_uarch.Core_model
module Revoker = Cheriot_uarch.Revoker
module Clock = Cheriot_rtos.Clock
module Allocator = Cheriot_rtos.Allocator

let say fmt = Format.printf (fmt ^^ "@.")
let heap_base = 0x8_0000
let heap_size = 64 * 1024

let make temporal =
  let clock = Clock.create (Core_model.params_of Core_model.Ibex) in
  let sram = Sram.create ~base:heap_base ~size:heap_size in
  let rev = Revbits.create ~heap_base ~heap_size () in
  let alloc =
    Allocator.create ~temporal ~sram ~rev ~clock ~heap_base ~heap_size ()
  in
  (match temporal with
  | Allocator.Hardware ->
      let hw = Revoker.create ~core:Core_model.Ibex ~sram ~rev () in
      Clock.attach_revoker clock hw;
      Allocator.attach_hw_revoker alloc hw
  | _ -> ());
  (alloc, sram, rev)

(* A branch the model must never take: report it and exit 1. *)
let bug fmt =
  Format.kasprintf
    (fun s ->
      say "%s" s;
      exit 1)
    fmt

let ok = function
  | Ok v -> v
  | Error e -> Fmt.failwith "%a" Allocator.pp_error e

let () =
  say "== A use-after-free attack vs CHERIoT (Hardware revoker) ==";
  let alloc, sram, rev = make Allocator.Hardware in
  let session = ok (Allocator.malloc alloc 48) in
  say "  victim allocates a session object:  %a" Capability.pp session;
  Sram.write32 sram (Capability.base session) 0xC0FFEE;
  (* The attacker keeps a copy of the pointer in long-lived heap memory. *)
  let stash = ok (Allocator.malloc alloc 16) in
  Sram.write_cap sram (Capability.base stash) session;
  say "  attacker stashes a copy of the pointer in the heap";
  ok (Allocator.free alloc session);
  say "  victim frees the object:";
  say "    - revocation bit painted: %b"
    (Revbits.is_revoked rev (Capability.base session));
  say "    - memory zeroed, chunk quarantined (not on the free lists)";
  (* Even before any sweep, the load filter kills the stale copy at load
     time: the revocation bit of its base is set (3.3.2). *)
  let reloaded = Sram.read_cap sram (Capability.base stash) in
  let filtered =
    if Revbits.is_revoked rev (Capability.base reloaded) then
      Capability.clear_tag reloaded
    else reloaded
  in
  say "  attacker reloads the stashed pointer through the load filter:";
  say "    %a   <- tag stripped at load, before writeback" Capability.pp
    filtered;
  (* And the sweep invalidates every copy still in memory. *)
  Allocator.revoke_now alloc;
  say "  background revoker sweep completes (epoch %d):"
    (Allocator.epoch alloc);
  say "    stashed copy in memory now untagged: %b"
    (not (Sram.tag_at sram (Capability.base stash)));
  let fresh = ok (Allocator.malloc alloc 48) in
  say "  only now can the memory be reissued:  %a" Capability.pp fresh;
  say "  => UAF is impossible from the moment free() returns (5.1)";

  say "";
  say "== Double free and partial free are caught by the bitmap ==";
  (match Allocator.free alloc fresh with
  | Ok () -> (
      match Allocator.free alloc fresh with
      | Error e -> say "  second free of the same pointer: %a" Allocator.pp_error e
      | Ok () -> bug "  BUG: double free accepted")
  | Error e -> bug "  unexpected: %a" Allocator.pp_error e);
  let obj = ok (Allocator.malloc alloc 64) in
  let interior =
    Capability.set_bounds (Capability.incr_address obj 16) ~length:8
      ~exact:true
  in
  (match Allocator.free alloc interior with
  | Error e -> say "  free of an interior pointer:     %a" Allocator.pp_error e
  | Ok () -> bug "  BUG: partial free accepted");

  say "";
  say "== The same attack vs the Baseline (no temporal safety) ==";
  let alloc, sram, _rev = make Allocator.Baseline in
  let session = ok (Allocator.malloc alloc 48) in
  let victim_base = Capability.base session in
  Sram.write32 sram victim_base 0xC0FFEE;
  ok (Allocator.free alloc session);
  let recycled = ok (Allocator.malloc alloc 48) in
  say "  freed and reallocated: old base 0x%x, new base 0x%x (same: %b)"
    victim_base (Capability.base recycled)
    (victim_base = Capability.base recycled);
  Sram.write32 sram (Capability.base recycled) 0x5EC2E7;
  say "  stale pointer still tagged: %b -- the attacker reads the new \
       owner's 0x%x"
    (Capability.tag session)
    (Sram.read32 sram (Capability.base session));
  say "  => the classic heap UAF the paper's mechanisms deterministically \
       eliminate"
