exception Bus_error of int

type t = {
  mutable srams : Sram.t list;
  mutable devices : Mmio.device list;
  mutable revbits : Revbits.t option;
  mutable store_snoops : (int -> unit) list;
  mutable mru_sram : Sram.t option;
      (* most-recently-hit SRAM: accesses cluster heavily, so this skips
         the list walk on nearly every read/write *)
}

let create () =
  {
    srams = [];
    devices = [];
    revbits = None;
    store_snoops = [];
    mru_sram = None;
  }

let add_sram t s =
  t.srams <- s :: t.srams;
  t.mru_sram <- None
let add_device t d = t.devices <- d :: t.devices
let set_revbits t r = t.revbits <- Some r
let revbits t = t.revbits

let srams t =
  List.sort (fun a b -> compare (Sram.base a) (Sram.base b)) t.srams

(* The full access width matters: a multi-byte access starting on the
   last byte(s) of an SRAM must not be routed to it (it would straddle
   the region's end) — it falls through to the device match / bus
   error, exactly as unbacked addresses do. *)
let sram_at t ~size addr =
  match t.mru_sram with
  | Some s when Sram.in_range s ~addr ~size -> t.mru_sram
  | _ ->
      let r = List.find_opt (fun s -> Sram.in_range s ~addr ~size) t.srams in
      (match r with Some _ -> t.mru_sram <- r | None -> ());
      r

let device_at t addr =
  List.find_opt
    (fun d -> addr >= d.Mmio.dev_base && addr < d.Mmio.dev_base + d.dev_size)
    t.devices

(* A recursive walk, not [List.iter] over a closure capturing the
   granule, so firing the snoops allocates nothing on an SRAM store. *)
let rec fire_snoops granule = function
  | [] -> ()
  | f :: rest ->
      f granule;
      fire_snoops granule rest

(* Snoops watch SRAM granules only (revoker store-race, block-cache
   invalidation); MMIO device state is never cached and device-resident
   code is never translated, so device writes must not fire them. *)
let snoop_store t addr = fire_snoops (addr land lnot 7) t.store_snoops

let read t ~width addr =
  match sram_at t ~size:width addr with
  | Some s -> (
      match width with
      | 1 -> Sram.read8 s addr
      | 2 -> Sram.read16 s addr
      | 4 -> Sram.read32 s addr
      | _ -> invalid_arg "Bus.read: width")
  | None -> (
      match device_at t addr with
      | Some d when width = 4 -> d.Mmio.read32 (addr - d.Mmio.dev_base)
      | Some _ | None -> raise (Bus_error addr))

let write t ~width addr v =
  match sram_at t ~size:width addr with
  | Some s ->
      (match width with
      | 1 -> Sram.write8 s addr v
      | 2 -> Sram.write16 s addr v
      | 4 -> Sram.write32 s addr v
      | _ -> invalid_arg "Bus.write: width");
      snoop_store t addr
  | None -> (
      match device_at t addr with
      | Some d when width = 4 -> d.Mmio.write32 (addr - d.Mmio.dev_base) v
      | Some _ | None -> raise (Bus_error addr))

let on_store t f = t.store_snoops <- f :: t.store_snoops
