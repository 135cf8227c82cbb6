type t = {
  heap_base : int;
  heap_size : int;
  granule_log2 : int;
  bits : Bytes.t;
  mutable painted : int;
}

let create ?(granule_log2 = 3) ~heap_base ~heap_size () =
  if granule_log2 < 3 then
    invalid_arg "Revbits.create: granule must be >= 8 bytes";
  let granules = (heap_size + (1 lsl granule_log2) - 1) lsr granule_log2 in
  {
    heap_base;
    heap_size;
    granule_log2;
    bits = Bytes.make ((granules + 7) / 8) '\000';
    painted = 0;
  }

let granule_size t = 1 lsl t.granule_log2
let covers t addr = addr >= t.heap_base && addr < t.heap_base + t.heap_size
let index t addr = (addr - t.heap_base) lsr t.granule_log2

let get t i =
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let is_revoked t addr = covers t addr && get t (index t addr)

(* Set bits per byte value, for counting what a byte write changes. *)
let popcount =
  String.init 256 (fun b ->
      let rec count b = if b = 0 then 0 else (b land 1) + count (b lsr 1) in
      Char.chr (count b))

(* Set ([v]) or clear the bits of [mask] in bitmap byte [i], moving
   [painted] by the number of bits that changed. *)
let write_byte t i mask v =
  let old = Char.code (Bytes.get t.bits i) in
  let byte = if v then old lor mask else old land lnot mask in
  t.painted <-
    t.painted + Char.code popcount.[byte] - Char.code popcount.[old];
  Bytes.set t.bits i (Char.unsafe_chr byte)

(* [paint]/[clear] a byte at a time: the granules of [[addr, addr+len)]
   inside the heap are bits [first, last], written as two masked edge
   bytes around whole bytes. *)
let update t ~addr ~len v =
  let lo = Int.max addr t.heap_base in
  let hi = Int.min (addr + len - 1) (t.heap_base + t.heap_size - 1) in
  if len > 0 && hi >= lo then begin
    let first = index t lo and last = index t hi in
    let fb = first lsr 3 and lb = last lsr 3 in
    let lo_mask = (0xff lsl (first land 7)) land 0xff in
    let hi_mask = (2 lsl (last land 7)) - 1 in
    if fb = lb then write_byte t fb (lo_mask land hi_mask) v
    else begin
      write_byte t fb lo_mask v;
      for i = fb + 1 to lb - 1 do
        write_byte t i 0xff v
      done;
      write_byte t lb hi_mask v
    end
  end

let paint t ~addr ~len = update t ~addr ~len true
let clear t ~addr ~len = update t ~addr ~len false
let bitmap_bytes t = Bytes.length t.bits
let painted_granules t = t.painted
