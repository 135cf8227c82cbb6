module Capability = Cheriot_core.Capability

type t = {
  base : int;
  size : int;
  data : Bytes.t;
  (* Two micro-tag bits per 8-byte granule: bit 2k = low half, bit 2k+1 =
     high half.  Packed 4 granules per byte. *)
  microtags : Bytes.t;
}

let create ~base ~size =
  if size <= 0 || size mod 8 <> 0 then
    invalid_arg "Sram.create: size must be a positive multiple of 8";
  {
    base;
    size;
    data = Bytes.make size '\000';
    microtags = Bytes.make (((size / 8 * 2) + 7) / 8) '\000';
  }

let base t = t.base
let size t = t.size
let in_range t ~addr ~size = addr >= t.base && addr + size <= t.base + t.size

let check t addr size align =
  if not (in_range t ~addr ~size) then
    invalid_arg (Printf.sprintf "Sram: 0x%x out of range" addr);
  if addr land (align - 1) <> 0 then
    invalid_arg (Printf.sprintf "Sram: 0x%x misaligned (%d)" addr align)

(* Every micro-tag update below works a bitmap byte at a time.  A byte
   holds the pairs of four granules, so one granule or one half is a
   single read-modify-write, and a range is two masked edge bytes around
   a [Bytes.fill] of the bytes in between. *)

let clear_bits t i mask =
  Bytes.set t.microtags i
    (Char.unsafe_chr (Char.code (Bytes.get t.microtags i) land lnot mask))

(* The micro-tag of 32-bit half [h] (counted from [base]) is bit [h] of
   the bitmap.  An aligned access of at most four bytes touches one half,
   so every ISA store pays exactly this. *)
let clear_half t h = clear_bits t (h lsr 3) (1 lsl (h land 7))

let clear_microtags_for_write t addr len =
  (* Any data write clears the micro-tag of each 32-bit half it touches:
     bits [first, last] of the bitmap. *)
  let first = (addr - t.base) lsr 2 in
  let last = (addr + len - 1 - t.base) lsr 2 in
  let fb = first lsr 3 and lb = last lsr 3 in
  let lo_mask = (0xff lsl (first land 7)) land 0xff in
  let hi_mask = (2 lsl (last land 7)) - 1 in
  if fb = lb then clear_bits t fb (lo_mask land hi_mask)
  else begin
    clear_bits t fb lo_mask;
    Bytes.fill t.microtags (fb + 1) (lb - fb - 1) '\000';
    clear_bits t lb hi_mask
  end

(* granule index of an address *)
let granule t addr = (addr - t.base) lsr 3

(* The two micro-tags of granule [g] as bits 0 (low half) and 1 (high
   half) of an int, and their replacement by [pair]. *)
let get_pair t g =
  (Char.code (Bytes.get t.microtags (g lsr 2)) lsr ((g land 3) lsl 1)) land 3

let set_pair t g pair =
  let i = g lsr 2 and shift = (g land 3) lsl 1 in
  let byte = Char.code (Bytes.get t.microtags i) in
  Bytes.set t.microtags i
    (Char.unsafe_chr (byte land lnot (3 lsl shift) lor (pair lsl shift)))

(* Unchecked variants for the machine's resolved-window fast path: the
   caller has already proved the access in range and aligned (the window
   containment test subsumes [check]), so these go straight to the byte
   buffer.  Writes still clear micro-tags — that part is architectural,
   not a check. *)

let read8_u t addr = Char.code (Bytes.unsafe_get t.data (addr - t.base))
let read16_u t addr = Bytes.get_uint16_le t.data (addr - t.base)

let read32_u t addr =
  Int32.to_int (Bytes.get_int32_le t.data (addr - t.base)) land 0xFFFF_FFFF

let write8_u t addr v =
  Bytes.unsafe_set t.data (addr - t.base) (Char.unsafe_chr (v land 0xff));
  clear_half t ((addr - t.base) lsr 2)

let write16_u t addr v =
  Bytes.set_uint16_le t.data (addr - t.base) (v land 0xffff);
  clear_half t ((addr - t.base) lsr 2)

let write32_u t addr v =
  Bytes.set_int32_le t.data (addr - t.base) (Int32.of_int v);
  clear_half t ((addr - t.base) lsr 2)

let read8 t addr =
  check t addr 1 1;
  Char.code (Bytes.get t.data (addr - t.base))

let read16 t addr =
  check t addr 2 2;
  Bytes.get_uint16_le t.data (addr - t.base)

let read32 t addr =
  check t addr 4 4;
  Int32.to_int (Bytes.get_int32_le t.data (addr - t.base)) land 0xFFFF_FFFF

let write8 t addr v =
  check t addr 1 1;
  Bytes.set t.data (addr - t.base) (Char.chr (v land 0xff));
  clear_half t ((addr - t.base) lsr 2)

let write16 t addr v =
  check t addr 2 2;
  Bytes.set_uint16_le t.data (addr - t.base) (v land 0xffff);
  clear_half t ((addr - t.base) lsr 2)

let write32 t addr v =
  check t addr 4 4;
  Bytes.set_int32_le t.data (addr - t.base) (Int32.of_int v);
  clear_half t ((addr - t.base) lsr 2)

let cap_tag_u t addr = get_pair t (granule t addr) = 3

let write_cap_u t addr ~tag ~addr_half ~meta_half =
  Bytes.set_int32_le t.data (addr - t.base) (Int32.of_int addr_half);
  Bytes.set_int32_le t.data (addr - t.base + 4) (Int32.of_int meta_half);
  set_pair t (granule t addr) (if tag then 3 else 0)

let read_cap t addr =
  check t addr 8 8;
  {
    Capability.word =
      (if cap_tag_u t addr then Capability.Word.tag_bit else 0)
      lor read32_u t (addr + 4);
    addr = read32_u t addr;
  }

let write_cap t addr (c : Capability.t) =
  check t addr 8 8;
  write_cap_u t addr ~tag:(Capability.Word.tag c.word) ~addr_half:c.addr
    ~meta_half:(Capability.Word.meta c.word)

let read_microtags t addr =
  let pair = get_pair t (granule t (addr land lnot 7)) in
  (pair land 1 <> 0, pair land 2 <> 0)

let clear_tag_at t addr = set_pair t (granule t (addr land lnot 7)) 0
let tag_at t addr = get_pair t (granule t (addr land lnot 7)) = 3

let fill t ~addr ~len c =
  if len > 0 then begin
    check t addr len 1;
    Bytes.fill t.data (addr - t.base) len c;
    clear_microtags_for_write t addr len
  end

let digest t =
  Digest.string
    (Printf.sprintf "%x:%x:" t.base t.size
    ^ Digest.bytes t.data ^ Digest.bytes t.microtags)

let blit_string t ~addr s =
  let len = String.length s in
  if len > 0 then begin
    check t addr len 1;
    Bytes.blit_string s 0 t.data (addr - t.base) len;
    clear_microtags_for_write t addr len
  end
