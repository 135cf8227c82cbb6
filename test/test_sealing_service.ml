(* Tests for the virtualized sealing service (paper 3.2.2 footnote 5):
   unbounded software otypes bootstrapped from one hardware otype, with
   temporal safety covering sealed objects. *)

open Cheriot_core
module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits
module Core_model = Cheriot_uarch.Core_model
module Clock = Cheriot_rtos.Clock
module Allocator = Cheriot_rtos.Allocator
module Sw_revoker = Cheriot_rtos.Sw_revoker
module Seal = Cheriot_rtos.Sealing_service

let heap_base = 0x8_0000
let heap_size = 32 * 1024
let keys_base = 0x7_0000

let make () =
  let clock = Clock.create (Core_model.params_of Core_model.Flute) in
  let sram = Sram.create ~base:keys_base ~size:(heap_base + heap_size - keys_base) in
  let rev = Revbits.create ~heap_base ~heap_size () in
  let alloc =
    Allocator.create ~temporal:Allocator.Software ~sram ~rev ~clock ~heap_base
      ~heap_size ()
  in
  Allocator.set_sw_revoker alloc (Sw_revoker.create ~sram ~rev ~clock ());
  let svc = Seal.create ~alloc ~sram ~key_space_base:keys_base ~max_keys:64 in
  (svc, sram, rev, alloc)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "sealing: %a" Seal.pp_error e

let test_roundtrip () =
  let svc, sram, _, _ = make () in
  let key = ok (Seal.new_key svc) in
  let handle, payload = ok (Seal.seal_alloc svc ~key 32) in
  Alcotest.(check bool) "handle sealed" true (Capability.is_sealed handle);
  Alcotest.(check int) "payload size" 32 (Capability.length payload);
  Sram.write32 sram (Capability.base payload) 0xfeed;
  let got = ok (Seal.unseal svc ~key handle) in
  Alcotest.(check int) "same object" (Capability.base payload)
    (Capability.base got);
  Alcotest.(check int) "contents reachable" 0xfeed
    (Sram.read32 sram (Capability.base got))

let test_keys_are_distinct () =
  let svc, _, _, _ = make () in
  let k1 = ok (Seal.new_key svc) in
  let k2 = ok (Seal.new_key svc) in
  let handle, _ = ok (Seal.seal_alloc svc ~key:k1 16) in
  (match Seal.unseal svc ~key:k2 handle with
  | Error Seal.Wrong_key -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Seal.pp_error e
  | Ok _ -> Alcotest.fail "unsealed with the wrong key");
  (* the right key still works *)
  ignore (ok (Seal.unseal svc ~key:k1 handle))

let test_forged_key_rejected () =
  let svc, _, _, _ = make () in
  let key = ok (Seal.new_key svc) in
  let handle, _ = ok (Seal.seal_alloc svc ~key 16) in
  (* an attacker-made "key": right shape, wrong provenance *)
  let fake =
    Capability.set_bounds
      (Capability.with_address Capability.root_mem_rw 0x1000)
      ~length:8 ~exact:true
  in
  (match Seal.unseal svc ~key:fake handle with
  | Error Seal.Wrong_key -> ()
  | _ -> Alcotest.fail "forged key accepted");
  (* an untagged copy of the real key *)
  (match Seal.unseal svc ~key:(Capability.clear_tag key) handle with
  | Error Seal.Wrong_key -> ()
  | _ -> Alcotest.fail "untagged key accepted")

let test_handle_is_opaque () =
  let svc, _, _, _ = make () in
  let key = ok (Seal.new_key svc) in
  let handle, _ = ok (Seal.seal_alloc svc ~key 16) in
  (* tampering clears the tag (2.3 guarantee 8) *)
  let moved = Capability.incr_address handle 4 in
  Alcotest.(check bool) "tamper kills tag" false (Capability.tag moved);
  (match Seal.unseal svc ~key moved with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered handle accepted");
  (* a plain (unsealed) cap is not a handle *)
  let plain =
    Capability.set_bounds
      (Capability.with_address Capability.root_mem_rw heap_base)
      ~length:24 ~exact:true
  in
  match Seal.unseal svc ~key plain with
  | Error Seal.Not_a_sealed_object -> ()
  | _ -> Alcotest.fail "plain cap accepted as handle"

let test_destroy_and_revocation () =
  let svc, _, rev, alloc = make () in
  let key = ok (Seal.new_key svc) in
  let handle, payload = ok (Seal.seal_alloc svc ~key 24) in
  (match Seal.destroy svc ~key handle with
  | Ok () -> ()
  | Error e -> Alcotest.failf "destroy: %a" Seal.pp_error e);
  (* the object is quarantined and painted: the payload is dead memory *)
  Alcotest.(check bool) "payload revoked" true
    (Revbits.is_revoked rev (Capability.base payload));
  Allocator.revoke_now alloc;
  (* destroying again must fail (handle's referent is gone) *)
  (match Seal.unseal svc ~key handle with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unseal after destroy succeeded");
  match Allocator.check_invariants alloc with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_many_software_otypes () =
  (* far more distinct opaque types than the 3-bit hardware field *)
  let svc, _, _, _ = make () in
  let keys = List.init 48 (fun _ -> ok (Seal.new_key svc)) in
  let objs = List.map (fun k -> (k, ok (Seal.seal_alloc svc ~key:k 8))) keys in
  List.iteri
    (fun i (k, (h, _)) ->
      ignore (ok (Seal.unseal svc ~key:k h));
      (* every other key fails on this handle *)
      List.iteri
        (fun j k' ->
          if i <> j then
            match Seal.unseal svc ~key:k' h with
            | Error Seal.Wrong_key -> ()
            | _ -> Alcotest.fail "cross-key unseal")
        keys)
    objs

let suite =
  [
    Alcotest.test_case "seal/unseal roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "keys are distinct" `Quick test_keys_are_distinct;
    Alcotest.test_case "forged/untagged keys rejected" `Quick
      test_forged_key_rejected;
    Alcotest.test_case "handles are opaque" `Quick test_handle_is_opaque;
    Alcotest.test_case "destroy quarantines; revocation applies" `Quick
      test_destroy_and_revocation;
    Alcotest.test_case "48 software otypes from one hw otype" `Quick
      test_many_software_otypes;
  ]
