(** The basic-block translation cache behind the batched dispatch tiers.

    A direct-mapped cache keyed by the {e physical} start PC of a
    translated block, mapping it to an arbitrary payload (the machine
    stores its [bentry]; nothing here depends on the payload type).
    Keys are full PCs, so a hit can only ever return the entry
    translated at exactly that address.

    A block translated at PC [p] covers the byte span of every
    instruction it holds, so a store anywhere in that span must kill it
    — not just a store to the granule of [p].  Each slot therefore
    carries its span, and the bus store snoop becomes a bounded probe:
    a store granule can only intersect blocks whose start PC lies
    within [max_span] bytes of it, so {!kill_store} probes those few
    candidate slots and nothing else.  A monotone window over all live
    spans filters the common case (data-region stores) down to two
    integer compares.

    Correctness protocol (kept honest by [test/test_block_cache.ml] and
    the differential suites):

    - Stores must {e snoop}: the machine registers {!kill_store} on the
      bus's store-snoop hook, so any SRAM store — integer or capability,
      from the CPU or a loader writing through the bus — kills every
      block whose span it hits before the next fetch can hit on it.
      Self-modifying code therefore re-translates.
    - Writers that bypass the bus (e.g. [Asm.load] blitting straight into
      SRAM) must call {!flush}; [Machine.flush_decode_cache] exposes it.
    - Only SRAM-resident code is ever translated, so device writes
      (which do not snoop) can never stale an entry.

    The cache is purely a performance structure: it never changes
    architectural behaviour, only skips the bus reads and decodes. *)

type 'a t = {
  tags : int array;  (** start PC of the entry per slot; -1 = empty *)
  payloads : 'a array;
  los : int array;  (** per-slot span start (bytes, inclusive) *)
  his : int array;  (** per-slot span end (exclusive); 0 = empty *)
  mask : int;
  dummy : 'a;
  max_span : int;
  mutable span_lo : int;  (** union window over live spans *)
  mutable span_hi : int;
  mutable chain_epoch : int;
      (** global link-validity epoch: chained block-to-block edges
          record it at link time and are only followed while it still
          matches; a kill, {!flush} and superblock installation bump
          it, unlinking every edge in O(1) *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable flushes : int;
  mutable chain_hits : int;
  mutable chain_unlinks : int;
  mutable superblocks_formed : int;
  mutable side_exits : int;
}
(** The representation is exposed so [Machine]'s dispatch loop can
    probe without function-call overhead; use the accessors below
    everywhere else.  Invariant: every array has [mask + 1] slots and
    every index produced by {!slot} is in range. *)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;  (** entries killed by store snoops *)
  flushes : int;  (** whole-cache flushes *)
  chain_hits : int;
      (** block transfers that followed a direct chained link, skipping
          the probe and the ticket re-check *)
  chain_unlinks : int;
      (** previously linked edges found stale (epoch mismatch) at
          traversal time *)
  superblocks_formed : int;  (** hot-path re-translations installed *)
  side_exits : int;
      (** taken interior branches that exited a superblock back into the
          normal dispatch loop *)
}

val create : ?size_log2:int -> max_span:int -> dummy:'a -> unit -> 'a t
(** [create ~max_span ~dummy ()] is an empty cache with [2^size_log2]
    slots (default 11).  [max_span] is the largest [hi - lo] any entry
    may cover (a positive multiple of 4); it bounds the store-snoop
    probe count.  [dummy] is stored in empty payload slots and never
    returned by a hit. *)

val slot : 'a t -> int -> int
(** [slot t pc]: the direct-mapped index of a start address. *)

val fill : 'a t -> slot:int -> pc:int -> lo:int -> hi:int -> 'a -> unit
(** Install the entry starting at [pc] and covering [[lo, hi)],
    evicting whatever the slot held. *)

val kill_store : 'a t -> int -> unit
(** [kill_store t addr] kills every entry whose span intersects the
    8-byte granule containing [addr] — the store-snoop hook. *)

val flush : 'a t -> unit
(** Drop every entry (code rewritten behind the bus's back). *)

val chain_epoch : 'a t -> int
val bump_chain_epoch : 'a t -> unit
(** Invalidate every chained edge in O(1) (used by the machine when a
    translation is replaced wholesale, e.g. superblock installation). *)

val stats : 'a t -> stats
