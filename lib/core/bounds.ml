(* The 22 bounds bits of the Fig. 1 metadata word, as an immediate:
   E in bits 21-18, B in bits 17-9, T in bits 8-0. *)
type t = int

let decode_exp e_field = if e_field = 0xf then 24 else e_field
let[@inline] e_field b = b lsr 18
let[@inline] b_field b = (b lsr 9) land 0x1ff
let[@inline] t_field b = b land 0x1ff
let exponent b = decode_exp (e_field b)

let of_raw_fields ~e ~b ~t =
  ((e land 0xf) lsl 18) lor ((b land 0x1ff) lsl 9) lor (t land 0x1ff)

let[@inline] of_bits bits = bits land 0x3f_ffff
let[@inline] to_bits b = b

let mask32 = 0xFFFF_FFFF
let mask33 = 0x1_FFFF_FFFF

(* Fig. 3: insert B (resp. T) at bit e of the address, zero the low e
   bits, and correct the bits above by cb (resp. ct) when the address
   middle bits or the top field sit in a different 2^(9+e) region. *)
let[@inline] base_of bnds ~addr =
  let e = decode_exp (e_field bnds) and b_field = b_field bnds in
  let a_top = addr lsr (e + 9) in
  let a_mid = (addr lsr e) land 0x1ff in
  let cb = if a_mid < b_field then -1 else 0 in
  (((a_top + cb) lsl 9) lor b_field) lsl e land mask32

let[@inline] top_of bnds ~addr =
  let e = decode_exp (e_field bnds) and b_field = b_field bnds in
  let t_field = t_field bnds in
  let a_top = addr lsr (e + 9) in
  let a_mid = (addr lsr e) land 0x1ff in
  let cb = if a_mid < b_field then -1 else 0 in
  let ct = if t_field < b_field then cb + 1 else cb in
  (((a_top + ct) lsl 9) lor t_field) lsl e land mask33

let decode bnds ~addr = (base_of bnds ~addr, top_of bnds ~addr)

(* [decode] inlined without the tuple: these two run on every fetch,
   memory access and PC increment, so they must not allocate. *)
let[@inline] in_bounds bnds ~addr ~access ~size =
  let e = decode_exp (e_field bnds) and b_field = b_field bnds in
  let t_field = t_field bnds in
  let a_top = addr lsr (e + 9) in
  let a_mid = (addr lsr e) land 0x1ff in
  let cb = if a_mid < b_field then -1 else 0 in
  let ct = if t_field < b_field then cb + 1 else cb in
  let base = (((a_top + cb) lsl 9) lor b_field) lsl e land mask32 in
  access >= base
  &&
  let top = (((a_top + ct) lsl 9) lor t_field) lsl e land mask33 in
  access + size <= top

let representable bnds ~cur ~addr =
  addr land mask32 = addr
  &&
  let e = decode_exp (e_field bnds) and b_field = b_field bnds in
  let t_field = t_field bnds in
  let at1 = cur lsr (e + 9) and at2 = addr lsr (e + 9) in
  let cb1 = if (cur lsr e) land 0x1ff < b_field then -1 else 0 in
  let cb2 = if (addr lsr e) land 0x1ff < b_field then -1 else 0 in
  (* Same 2^(9+e) region and same borrow: decodes are equal without
     computing them — the common case for a PC or pointer increment. *)
  (at1 = at2 && cb1 = cb2)
  ||
  let d = if t_field < b_field then 1 else 0 in
  (((at1 + cb1) lsl 9) lor b_field) lsl e land mask32
  = (((at2 + cb2) lsl 9) lor b_field) lsl e land mask32
  && (((at1 + cb1 + d) lsl 9) lor t_field) lsl e land mask33
     = (((at2 + cb2 + d) lsl 9) lor t_field) lsl e land mask33

(* The smallest exponent at which [[base, base+length)] fits, or -1.
   Exponents 15..23 are not encodable (E = 0xf means 24), so the search
   jumps straight from 14 to 24. *)
let rec find_exponent ~base ~length e =
  if e > 24 then -1
  else if e > 14 && e < 24 then find_exponent ~base ~length 24
  else
    let align = 1 lsl e in
    let b' = base land lnot (align - 1) in
    let t' = (base + length + align - 1) land lnot (align - 1) in
    if t' - b' <= 0x1ff lsl e then e else find_exponent ~base ~length (e + 1)

(* The tightest bounds covering [[base, base+length)], or -1 when the
   region does not fit the address space.  A length of at most 511 is
   exact at exponent 0, [find_exponent]'s first step, so it needs no
   search: B and T are the low nine bits of the two ends. *)
let encode_region ~base ~length =
  if base < 0 || length < 0 || base + length > 0x1_0000_0000 then -1
  else if length <= 0x1ff then
    ((base land 0x1ff) lsl 9) lor ((base + length) land 0x1ff)
  else
    let e = find_exponent ~base ~length 0 in
    if e < 0 then -1
    else
      let align = 1 lsl e in
      let b' = base land lnot (align - 1) in
      let t' = (base + length + align - 1) land lnot (align - 1) in
      let bnds =
        of_raw_fields
          ~e:(if e = 24 then 0xf else e)
          ~b:(b' lsr e) ~t:(t' lsr e)
      in
      (* Defensive check that the fields decode back to the rounded
         region; this is an invariant of the search above. *)
      if base_of bnds ~addr:base = b' && top_of bnds ~addr:base = t' then bnds
      else -1

let set_bounds ~base ~length =
  let bnds = encode_region ~base ~length in
  if bnds < 0 then None
  else Some (bnds, base_of bnds ~addr:base, top_of bnds ~addr:base)

let set_bounds_exact ~base ~length =
  match set_bounds ~base ~length with
  | Some (bounds, b', t') when b' = base && t' = base + length -> Some bounds
  | Some _ | None -> None

let rec crrl_from len e =
  if e > 24 then 0
  else if e > 14 && e < 24 then crrl_from len 24
  else
    let align = 1 lsl e in
    let rounded = (len + align - 1) land lnot (align - 1) in
    if rounded <= 0x1ff lsl e then rounded else crrl_from len (e + 1)

let crrl len = if len <= 511 then len else crrl_from len 0

let rec cram_exp len e =
  if e > 24 then 24
  else if e > 14 && e < 24 then cram_exp len 24
  else
    let align = 1 lsl e in
    let rounded = (len + align - 1) land lnot (align - 1) in
    if rounded <= 0x1ff lsl e then e else cram_exp len (e + 1)

let cram len =
  if len <= 511 then mask32 else lnot ((1 lsl cram_exp len 0) - 1) land mask32

let whole_address_space = of_raw_fields ~e:0xf ~b:0 ~t:0x100
let otype_space = of_raw_fields ~e:0 ~b:0 ~t:8

let pp fmt b =
  Format.fprintf fmt "E=%d B=0x%x T=0x%x" (e_field b) (b_field b) (t_field b)
