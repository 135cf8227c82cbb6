type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;
  flushes : int;
  chain_hits : int;
  chain_unlinks : int;
}

type 'a t = {
  (* 2 048 direct-mapped slots in 32 pages of 64: slot s lives at
     offset [s land 63] of page [s lsr 6].  A page that holds no entry
     yet is [empty], which is shared by every index and never written;
     [fill] allocates the real one (65 words). *)
  pages : 'a array array;
  empty : 'a array;
  dummy : 'a;  (* in every empty slot; its start is negative *)
  start : 'a -> int;  (* an entry's start PC: its key and span start *)
  len : 'a -> int;  (* its instruction count: the span is 4 * len bytes *)
  max_span : int;
  (* Union of every span ever filled (monotone until flush): the store
     snoop tests against this window first, so data-region stores — the
     overwhelming majority — cost two compares and never probe. *)
  mutable span_lo : int;
  mutable span_hi : int;
  (* Chain epoch: every direct block-to-block link records the epoch at
     link time and is only followed while it still matches.  Any event
     that could stale a translation somewhere — a store-kill, a flush,
     a fill over a live entry — bumps the epoch, unlinking every edge
     in the cache in O(1). *)
  mutable chain_epoch : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int;  (* fills over a live entry for another pc *)
  mutable flushes : int;
  mutable chain_hits : int;  (* transfers that skipped probe + ticket *)
  mutable chain_unlinks : int;  (* stale links observed at traversal *)
}

let page_slots = 64
let n_pages = 32

let create ~max_span ~dummy ~start ~len =
  if max_span <= 0 || max_span land 3 <> 0 then
    invalid_arg
      "Decode_cache.create: max_span must be a positive word multiple";
  let empty = Array.make page_slots dummy in
  {
    pages = Array.make n_pages empty;
    empty;
    dummy;
    start;
    len;
    max_span;
    span_lo = max_int;
    span_hi = 0;
    chain_epoch = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
    evictions = 0;
    flushes = 0;
    chain_hits = 0;
    chain_unlinks = 0;
  }

(* Instructions are word-aligned, so the low two PC bits carry no
   information: the slot is (pc lsr 2) land 2047, which covers
   contiguous code without conflicts, split into page (pc lsr 8) land 31
   and offset (pc lsr 2) land 63. *)
let[@inline] page_index pc = (pc lsr 8) land (n_pages - 1)
let[@inline] offset pc = (pc lsr 2) land (page_slots - 1)

let chain_epoch t = t.chain_epoch

let fill t v =
  let pc = t.start v and span = 4 * t.len v in
  if span > t.max_span then invalid_arg "Decode_cache.fill: span too long";
  let i = page_index pc in
  let pg =
    if t.pages.(i) != t.empty then t.pages.(i)
    else begin
      let pg = Array.make page_slots t.dummy in
      t.pages.(i) <- pg;
      pg
    end
  in
  let o = offset pc in
  let old = Array.unsafe_get pg o in
  if old != t.dummy then begin
    (* Chained links may still point at the replaced block, and a later
       store into its span cannot find it to kill it — even at the same
       PC, where the new block may be shorter — so unlink them all now,
       as a kill would.  Only a fill for another PC is an eviction. *)
    if t.start old <> pc then t.evictions <- t.evictions + 1;
    t.chain_epoch <- t.chain_epoch + 1
  end;
  Array.unsafe_set pg o v;
  if pc < t.span_lo then t.span_lo <- pc;
  if pc + span > t.span_hi then t.span_hi <- pc + span

(* A store granule [g, g+8) can only intersect entries whose start PC
   lies in [g + 4 - max_span, g + 4]: an overlapping entry starts below
   g + 8 (so at most g + 4, word-aligned) and ends at most max_span
   bytes later, past g.  That is at most max_span/4 + 1 candidate
   starts, each a masked probe; entries are word-granular, so the walk
   covers every possible overlap, and every candidate starts below the
   granule's end, so only the entry's end needs comparing.  The walk
   may cross a page boundary: each candidate reads its own page, and an
   [empty] one holds only [dummy]. *)
let kill_store t addr =
  let g = addr land lnot 7 in
  if g + 8 > t.span_lo && g < t.span_hi then begin
    let first = g + 4 - t.max_span and last = g + 4 in
    let pc = ref (if first < 0 then 0 else first) in
    while !pc <= last do
      let pg = Array.unsafe_get t.pages (page_index !pc) and o = offset !pc in
      let e = Array.unsafe_get pg o in
      if e != t.dummy && t.start e = !pc && !pc + (4 * t.len e) > g then begin
        Array.unsafe_set pg o t.dummy;
        t.invalidations <- t.invalidations + 1;
        (* The dead entry may be the target of chained links elsewhere
           in the cache; unlink them all before the next transfer. *)
        t.chain_epoch <- t.chain_epoch + 1
      end;
      pc := !pc + 4
    done
  end

let flush t =
  Array.fill t.pages 0 n_pages t.empty;
  t.span_lo <- max_int;
  t.span_hi <- 0;
  t.flushes <- t.flushes + 1;
  t.chain_epoch <- t.chain_epoch + 1

let iter f t =
  Array.iter
    (fun pg ->
      if pg != t.empty then Array.iter (fun e -> if e != t.dummy then f e) pg)
    t.pages

let stats t : stats =
  {
    hits = t.hits;
    misses = t.misses;
    invalidations = t.invalidations;
    evictions = t.evictions;
    flushes = t.flushes;
    chain_hits = t.chain_hits;
    chain_unlinks = t.chain_unlinks;
  }
