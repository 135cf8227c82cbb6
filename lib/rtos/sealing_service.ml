(** The virtualized sealing service (paper 3.2.2, footnote 5).

    CHERIoT's otype field is only three bits, yet fine-grained
    compartmentalization wants many opaque types.  "The RTOS is able to
    bootstrap a virtualized sealing mechanism that, while not identical
    to CHERI's architectural seals, suffices in all cases we have
    encountered so far."  This is that mechanism, in the style of the
    CHERIoT RTOS token library:

    - the allocator compartment reserves one hardware data otype for
      itself and mints {e software sealing keys}: capabilities to unique
      slots of a key space, unforgeable like any capability;
    - a {e sealed object} is a heap allocation whose header records the
      key's identity; the holder gets (a) an opaque handle — sealed with
      the hardware otype, so nothing outside the allocator can touch its
      contents or forge one — and (b) nothing else;
    - [unseal] checks the handle's hardware otype and the header against
      the presented key and only then returns the payload capability.

    Because sealed objects are ordinary heap chunks, temporal safety
    covers them too: destroying one quarantines it and the revoker kills
    every outstanding handle. *)

open Cheriot_core
module Sram = Cheriot_mem.Sram

type t = {
  alloc : Allocator.t;
  sram : Sram.t;
  hw_key : Capability.t;  (** the reserved hardware-otype sealing root *)
  key_space : Capability.t;  (** private region backing software keys *)
  mutable next_key : int;
  max_keys : int;
}

(** The hardware data otype the allocator reserves for virtualized
    sealing (the RTOS allocates four data otypes for core components). *)
let allocator_otype = 2

type error =
  | Wrong_key
  | Not_a_sealed_object
  | Key_space_exhausted
  | Alloc_error of Allocator.error

let pp_error fmt = function
  | Wrong_key -> Format.pp_print_string fmt "wrong key"
  | Not_a_sealed_object -> Format.pp_print_string fmt "not a sealed object"
  | Key_space_exhausted -> Format.pp_print_string fmt "key space exhausted"
  | Alloc_error e -> Allocator.pp_error fmt e

let create ~alloc ~sram ~key_space_base ~max_keys =
  {
    alloc;
    sram;
    hw_key = Capability.with_address Capability.root_sealing allocator_otype;
    key_space =
      Capability.set_bounds
        (Capability.with_address Capability.root_mem_rw key_space_base)
        ~length:(8 * max_keys) ~exact:false;
    next_key = 0;
    max_keys;
  }

(** Mint a fresh software sealing key: an unforgeable capability over a
    unique 8-byte slot of the service's private key space, stripped to
    carry no useful memory rights. *)
let new_key t =
  if t.next_key >= t.max_keys then Error Key_space_exhausted
  else begin
    let id = t.next_key in
    t.next_key <- id + 1;
    let k = Capability.incr_address t.key_space (8 * id) in
    let k = Capability.set_bounds k ~length:8 ~exact:true in
    (* key holders may compare and present the key but not write through
       it; keep LD so the key can name itself *)
    Ok (Capability.clear_perms k [ SD; SL; LM ])
  end

let key_id t key = (Capability.base key - Capability.base t.key_space) / 8

let valid_key t key =
  Capability.tag key
  && (not (Capability.is_sealed key))
  && Capability.base key >= Capability.base t.key_space
  && Capability.top key <= Capability.top t.key_space
  && Capability.length key = 8

(** Allocate a [size]-byte object sealed with [key].  Returns the opaque
    handle (give this away) and the payload capability (keep private). *)
let seal_alloc t ~key size =
  if not (valid_key t key) then Error Wrong_key
  else
    match Allocator.malloc t.alloc (8 + size) with
    | Error e -> Error (Alloc_error e)
    | Ok obj ->
        let base = Capability.base obj in
        Sram.write32 t.sram base (key_id t key);
        Sram.write32 t.sram (base + 4) 0x5EA1;
        let payload =
          Capability.set_bounds (Capability.incr_address obj 8) ~length:size
            ~exact:true
        in
        let handle =
          match Capability.seal obj ~key:t.hw_key with
          | Ok h -> h
          | Error m -> failwith ("Sealing_service: " ^ m)
        in
        Ok (handle, payload)

let check_handle _t handle =
  Capability.tag handle
  && Otype.equal (Capability.otype handle) (Otype.v Data allocator_otype)

(** Unseal a handle with its key: the only way back to the payload. *)
let unseal t ~key handle =
  if not (valid_key t key) then Error Wrong_key
  else if not (check_handle t handle) then Error Not_a_sealed_object
  else
    match Capability.unseal handle ~key:t.hw_key with
    | Error _ -> Error Not_a_sealed_object
    | Ok obj ->
        let base = Capability.base obj in
        if
          Sram.read32 t.sram (base + 4) <> 0x5EA1
          || Sram.read32 t.sram base <> key_id t key
        then Error Wrong_key
        else
          Ok
            (Capability.set_bounds
               (Capability.incr_address obj 8)
               ~length:(Capability.length obj - 8)
               ~exact:true)

(** Destroy a sealed object: unseal-check, then free through the
    allocator — quarantine and revocation apply, so stale handles and
    payload capabilities die like any other heap pointer. *)
let destroy t ~key handle =
  if not (valid_key t key) then Error Wrong_key
  else if not (check_handle t handle) then Error Not_a_sealed_object
  else
    match Capability.unseal handle ~key:t.hw_key with
    | Error _ -> Error Not_a_sealed_object
    | Ok obj ->
        if Sram.read32 t.sram (Capability.base obj) <> key_id t key then
          Error Wrong_key
        else
          (match Allocator.free t.alloc obj with
          | Ok () -> Ok ()
          | Error e -> Error (Alloc_error e))
