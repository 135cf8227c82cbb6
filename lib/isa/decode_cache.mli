(** The basic-block translation cache behind the batched dispatch tier.

    A direct-mapped cache of 2 048 slots keyed by the {e physical} start
    PC of a translated block, holding the block itself (the machine
    stores its [bentry]; nothing here depends on the payload type beyond
    the [start] and [len] functions it is created with).  An entry's key
    is its full start PC, so a hit can only ever return the entry
    translated at exactly that address.

    The slots live in 32 pages of 64 slots, and every page starts out as
    one shared, never-written page of empty slots; the first {!fill} that
    lands in a page allocates it.  A cache therefore costs a few words
    until it translates, and each page it does allocate is 65 words: a
    short program's first fills pay for the 256 bytes of code around
    each block, not for 1 KiB of it (an array over 256 words would even
    be allocated directly in the major heap, which is what the flat
    2 048-slot arrays cost every [Machine.create]).  Paging changes no
    slot: the slot function stays [(pc lsr 2) land 2047], so hits,
    misses, evictions and kills are what a flat table would give.

    A block translated at PC [p] covers the byte span of every
    instruction it holds, [[p, p + 4 * len)], so a store anywhere in that
    span must kill it — not just a store to the granule of [p].  The bus
    store snoop is therefore a bounded probe: a store granule can only
    intersect blocks whose start PC lies within [max_span] bytes of it,
    so {!kill_store} probes those [max_span / 4 + 1] candidate slots and
    nothing else (17 for the machine's 16-instruction blocks).  A
    monotone window over all live spans filters the common case
    (data-region stores) down to two integer compares.

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
  pages : 'a array array;
      (** 32 pages of 64 slots: slot [s] is [pages.(s lsr 6).(s land 63)] *)
  empty : 'a array;  (** the shared page of a page index never filled *)
  dummy : 'a;  (** the content of every empty slot *)
  start : 'a -> int;
  len : 'a -> int;
  max_span : int;
  mutable span_lo : int;  (** union window over live spans *)
  mutable span_hi : int;
  mutable chain_epoch : int;
      (** global link-validity epoch: chained block-to-block edges
          record it at link time and are only followed while it still
          matches; a kill, a {!fill} over a live entry and {!flush}
          bump it, unlinking every edge in O(1) *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int;
  mutable flushes : int;
  mutable chain_hits : int;
  mutable chain_unlinks : int;
}
(** The representation is exposed so [Machine]'s dispatch loop can
    probe without function-call overhead: the entry for [pc] is
    [pages.(page_index pc).(offset pc)], [dummy] when the slot is
    empty.  Only {!fill} replaces a page and only {!flush}
    drops one, so a page read at a block's entry stays the page of that
    block's slot until the next fill or flush.  Use the functions below
    everywhere else. *)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;  (** entries killed by store snoops *)
  evictions : int;
      (** fills that overwrote a live entry for another start PC (a
          slot conflict) *)
  flushes : int;  (** whole-cache flushes *)
  chain_hits : int;
      (** block transfers that followed a direct chained link, skipping
          the probe and the ticket re-check *)
  chain_unlinks : int;
      (** previously linked edges found stale (epoch mismatch) at
          traversal time *)
}

val page_index : int -> int
(** [page_index pc] is [(pc lsr 8) land 31]: the page of [pc]'s slot. *)

val offset : int -> int
(** [offset pc] is [(pc lsr 2) land 63]: the slot's offset in its
    page. *)

val create :
  max_span:int -> dummy:'a -> start:('a -> int) -> len:('a -> int) -> 'a t
(** [create ~max_span ~dummy ~start ~len] is an empty cache.  An entry
    [b] starts at PC [start b] and spans [4 * len b] bytes; [max_span]
    bounds that span (a positive multiple of 4) and with it the
    store-snoop probe count.  [dummy] fills empty slots and is never
    returned by a hit: [start dummy] must be negative.  Allocates no
    page. *)

val fill : 'a t -> 'a -> unit
(** Install an entry in its start PC's slot, evicting whatever the slot
    held, and allocate the slot's page if this is its first entry.
    Overwriting a live entry, at any PC, bumps the chain epoch: a store
    into the replaced block's span could no longer find it to kill it,
    so no link may lead to it.  Only an overwrite for another PC counts
    as an eviction. *)

val kill_store : 'a t -> int -> unit
(** [kill_store t addr] kills every entry whose span intersects the
    8-byte granule containing [addr] — the store-snoop hook. *)

val flush : 'a t -> unit
(** Drop every entry and every page (code rewritten behind the bus's
    back). *)

val iter : ('a -> unit) -> 'a t -> unit
(** [iter f t] applies [f] to every live entry, in slot order. *)

val chain_epoch : 'a t -> int

val stats : 'a t -> stats
