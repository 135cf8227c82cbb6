type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  flushes : int;
  chain_hits : int;
  chain_unlinks : int;
  superblocks_formed : int;
  side_exits : int;
}

type 'a t = {
  tags : int array;  (* start PC of the cached entry; -1 = empty *)
  payloads : 'a array;
  (* per-slot byte span [lo, hi) covered by the entry's instructions;
     his.(s) = 0 marks an empty slot *)
  los : int array;
  his : int array;
  mask : int;
  dummy : 'a;
  max_span : int;
  (* Union of every span ever filled (monotone until flush): the store
     snoop tests against this window first, so data-region stores — the
     overwhelming majority — cost two compares and never probe. *)
  mutable span_lo : int;
  mutable span_hi : int;
  (* Chain epoch: every direct block-to-block link records the epoch at
     link time and is only followed while it still matches.  Any event
     that could stale a translation somewhere — a store-kill, a flush,
     a superblock replacing an entry — bumps the epoch, unlinking every
     edge in the cache in O(1). *)
  mutable chain_epoch : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable flushes : int;
  mutable chain_hits : int;  (* transfers that skipped probe + ticket *)
  mutable chain_unlinks : int;  (* stale links observed at traversal *)
  mutable superblocks_formed : int;
  mutable side_exits : int;  (* taken interior branches of superblocks *)
}

let create ?(size_log2 = 11) ~max_span ~dummy () =
  if size_log2 < 1 || size_log2 > 24 then
    invalid_arg "Decode_cache.create: size_log2 out of range";
  if max_span <= 0 || max_span land 3 <> 0 then
    invalid_arg
      "Decode_cache.create: max_span must be a positive word multiple";
  let n = 1 lsl size_log2 in
  {
    tags = Array.make n (-1);
    payloads = Array.make n dummy;
    los = Array.make n 0;
    his = Array.make n 0;
    mask = n - 1;
    dummy;
    max_span;
    span_lo = max_int;
    span_hi = 0;
    chain_epoch = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
    flushes = 0;
    chain_hits = 0;
    chain_unlinks = 0;
    superblocks_formed = 0;
    side_exits = 0;
  }

(* Instructions are word-aligned, so the low two PC bits carry no
   information: index by pc >> 2 for conflict-free coverage of contiguous
   code. *)
let slot t pc = (pc lsr 2) land t.mask

let chain_epoch t = t.chain_epoch
let bump_chain_epoch t = t.chain_epoch <- t.chain_epoch + 1

let fill t ~slot ~pc ~lo ~hi v =
  if hi - lo > t.max_span then invalid_arg "Decode_cache.fill: span too long";
  Array.unsafe_set t.tags slot pc;
  Array.unsafe_set t.payloads slot v;
  t.los.(slot) <- lo;
  t.his.(slot) <- hi;
  if lo < t.span_lo then t.span_lo <- lo;
  if hi > t.span_hi then t.span_hi <- hi

let kill t slot =
  if t.tags.(slot) >= 0 then begin
    t.tags.(slot) <- -1;
    t.payloads.(slot) <- t.dummy;
    t.his.(slot) <- 0;
    t.invalidations <- t.invalidations + 1;
    (* The dead entry may be the target of chained links elsewhere in
       the cache; unlink them all before the next transfer. *)
    t.chain_epoch <- t.chain_epoch + 1
  end

(* A store granule [g, g+8) can only intersect entries whose start PC
   lies in [g + 4 - max_span, g + 4]: an overlapping entry has
   lo < g + 8 (so lo <= g + 4, word-aligned) and lo + max_span >= hi > g
   (so lo >= g + 4 - max_span).  That is at most max_span/4 + 1
   candidate starts, each a masked probe; entries are word-granular, so
   the candidate walk covers every possible overlap. *)
let kill_store t addr =
  let g = addr land lnot 7 in
  if g + 8 > t.span_lo && g < t.span_hi then begin
    let first = g + 4 - t.max_span and last = g + 4 in
    let pc = ref (if first < 0 then 0 else first) in
    while !pc <= last do
      let s = slot t !pc in
      if
        Array.unsafe_get t.tags s = !pc
        && Array.unsafe_get t.los s < g + 8
        && Array.unsafe_get t.his s > g
      then kill t s;
      pc := !pc + 4
    done
  end

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.payloads 0 (Array.length t.payloads) t.dummy;
  Array.fill t.his 0 (Array.length t.his) 0;
  t.span_lo <- max_int;
  t.span_hi <- 0;
  t.flushes <- t.flushes + 1;
  t.chain_epoch <- t.chain_epoch + 1

let stats t : stats =
  {
    hits = t.hits;
    misses = t.misses;
    invalidations = t.invalidations;
    flushes = t.flushes;
    chain_hits = t.chain_hits;
    chain_unlinks = t.chain_unlinks;
    superblocks_formed = t.superblocks_formed;
    side_exits = t.side_exits;
  }
