open Cheriot_core
module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits
module Mmio = Cheriot_mem.Mmio
module Bus = Cheriot_mem.Bus

type t = {
  sram : Sram.t;
  rev : Revbits.t;
  pipelined : bool;
  bus_beats : int;  (** bus beats per 8-byte load (1 on Flute, 2 on Ibex) *)
  mutable start_a : int;
  mutable end_a : int;
  mutable epoch : int;
  mutable sweeping : bool;
  mutable pos : int;
  (* Pipeline stages as inline mutable fields — no slot records, no
     boxed int64s — so the sweep itself never allocates: the 64-bit
     capability word travels as two native ints read through the SRAM's
     unchecked window accessors (the same allocation-free window
     discipline as the machine's data fast path; [kick] clamps the
     sweep range into the SRAM, which is what proves the unchecked
     reads in range).  Stage 1 holds the just-loaded word; stage 2 the
     word whose revocation bit is being checked. *)
  mutable s1_live : bool;
  mutable s1_addr : int;
  mutable s1_tag : bool;
  mutable s1_lo : int;
  mutable s1_hi : int;
  mutable s1_dirty : bool;
  mutable s2_live : bool;
  mutable s2_addr : int;
  mutable s2_tag : bool;
  mutable s2_lo : int;
  mutable s2_hi : int;
  mutable s2_dirty : bool;
  mutable stall : int;  (** remaining beats of the bus op in progress *)
  mutable n_invalidated : int;
  mutable n_swept : int;
  mutable n_busy : int;
  mutable n_race : int;
}

let create ?(pipelined = true) ~core ~sram ~rev () =
  {
    sram;
    rev;
    pipelined;
    bus_beats = (match (core : Core_model.core) with Flute -> 1 | Ibex -> 2);
    start_a = 0;
    end_a = 0;
    epoch = 0;
    sweeping = false;
    pos = 0;
    s1_live = false;
    s1_addr = 0;
    s1_tag = false;
    s1_lo = 0;
    s1_hi = 0;
    s1_dirty = false;
    s2_live = false;
    s2_addr = 0;
    s2_tag = false;
    s2_lo = 0;
    s2_hi = 0;
    s2_dirty = false;
    stall = 0;
    n_invalidated = 0;
    n_swept = 0;
    n_busy = 0;
    n_race = 0;
  }

let epoch t = t.epoch
let sweeping t = t.sweeping
let caps_invalidated t = t.n_invalidated
let words_swept t = t.n_swept
let busy_cycles t = t.n_busy
let race_reloads t = t.n_race

let kick t ~start ~stop =
  if not t.sweeping then begin
    t.start_a <- start land lnot 7;
    t.end_a <- stop land lnot 7;
    (* Clamp the scan window into the SRAM: the stage loads below use
       the unchecked accessors, which are only defined in range.  A
       well-formed kick (the allocator's) is unaffected. *)
    let lo = Sram.base t.sram and hi = Sram.base t.sram + Sram.size t.sram in
    if t.start_a < lo then t.start_a <- lo;
    if t.end_a > hi then t.end_a <- hi;
    t.pos <- t.start_a;
    t.s1_live <- false;
    t.s2_live <- false;
    t.stall <- 0;
    t.sweeping <- true;
    t.epoch <- t.epoch + 1
  end

let snoop_store t addr =
  if t.sweeping then begin
    if t.s1_live && t.s1_addr = addr then begin
      t.s1_dirty <- true;
      t.n_race <- t.n_race + 1
    end;
    if t.s2_live && t.s2_addr = addr then begin
      t.s2_dirty <- true;
      t.n_race <- t.n_race + 1
    end
  end

(* Load the granule at [addr] into stage 1 ([kick] proved it in
   range). *)
let load_s1 t addr =
  t.s1_live <- true;
  t.s1_addr <- addr;
  t.s1_tag <- Sram.tag_at t.sram addr;
  t.s1_lo <- Sram.read32_u t.sram addr;
  t.s1_hi <- Sram.read32_u t.sram (addr + 4);
  t.s1_dirty <- false

let reload_s2 t =
  t.s2_tag <- Sram.tag_at t.sram t.s2_addr;
  t.s2_lo <- Sram.read32_u t.sram t.s2_addr;
  t.s2_hi <- Sram.read32_u t.sram (t.s2_addr + 4);
  t.s2_dirty <- false

let shift t =
  t.s2_live <- t.s1_live;
  t.s2_addr <- t.s1_addr;
  t.s2_tag <- t.s1_tag;
  t.s2_lo <- t.s1_lo;
  t.s2_hi <- t.s1_hi;
  t.s2_dirty <- t.s1_dirty;
  t.s1_live <- false

(* Only tagged words pay the base decode — the bulk of a sweep is
   untagged data, which this rejects on the inline tag bit alone. *)
let s2_needs_invalidation t =
  t.s2_tag
  && Revbits.is_revoked t.rev (Capability.Word.base t.s2_hi ~addr:t.s2_lo)

let finish_if_done t =
  if t.pos >= t.end_a && (not t.s1_live) && not t.s2_live then begin
    t.sweeping <- false;
    t.epoch <- t.epoch + 1
  end

(* One idle bus cycle granted by the core.  At most one bus beat happens
   per tick; multi-beat operations (the 33-bit Ibex bus) stall via
   [t.stall].  Invalidation uses a single half-word write — clearing one
   micro-tag clears the architectural tag (paper 7.2.2) — so it costs one
   beat even on Ibex. *)
let tick t =
  if t.sweeping then begin
    t.n_busy <- t.n_busy + 1;
    if t.stall > 0 then t.stall <- t.stall - 1
    else if t.s2_live && t.s2_dirty then begin
      (* Race: the main pipeline overwrote an in-flight word; reload
         before deciding anything (3.3.3). *)
      reload_s2 t;
      t.stall <- t.bus_beats - 1
    end
    else if t.s2_live && s2_needs_invalidation t then begin
      (* Single write clears the micro-tag, invalidating the cap. *)
      Sram.write32 t.sram t.s2_addr t.s2_lo;
      t.n_invalidated <- t.n_invalidated + 1;
      t.n_swept <- t.n_swept + 1;
      shift t;
      finish_if_done t
    end
    else begin
      (* Clean retire (no bus needed for the check itself): advance the
         pipeline and issue the next load. *)
      if t.s2_live then t.n_swept <- t.n_swept + 1;
      shift t;
      let may_issue =
        t.pos < t.end_a && (t.pipelined || ((not t.s1_live) && not t.s2_live))
      in
      if may_issue then begin
        load_s1 t t.pos;
        t.pos <- t.pos + 8;
        t.stall <- t.bus_beats - 1
      end;
      finish_if_done t
    end
  end

(* Grant [k] idle cycles in one call — what the perf harness does when
   an instruction left the bus idle for several cycles, instead of [k]
   word-at-a-time [tick]s.  Equivalent to [k] successive [tick]s by
   construction: stalled beats are consumed in bulk (each would only
   decrement [stall] and charge [n_busy]), and every cycle that does
   real work — retire, reload, invalidate, issue — still runs [tick],
   so sweep results, statistics and epoch transitions are bit-identical.
   A revoker that is not sweeping costs one compare. *)
let tick_n t k =
  let k = ref k in
  while !k > 0 && t.sweeping do
    if t.stall > 0 then begin
      let c = if t.stall < !k then t.stall else !k in
      t.stall <- t.stall - c;
      t.n_busy <- t.n_busy + c;
      k := !k - c
    end
    else begin
      tick t;
      decr k
    end
  done

let run_to_completion t =
  let n = ref 0 in
  while t.sweeping do
    tick t;
    incr n
  done;
  !n

let mmio t ~base =
  let read32 off =
    match off with
    | 0 -> t.start_a
    | 4 -> t.end_a
    | 8 -> t.epoch
    | _ -> 0
  in
  let write32 off v =
    match off with
    | 0 -> t.start_a <- v land lnot 7
    | 4 -> t.end_a <- v land lnot 7
    | 12 -> kick t ~start:t.start_a ~stop:t.end_a
    | _ -> ()
  in
  { Mmio.name = "revoker"; dev_base = base; dev_size = 16; read32; write32 }

let attach t bus ~base =
  Bus.add_device bus (mmio t ~base);
  Bus.on_store bus (snoop_store t)
