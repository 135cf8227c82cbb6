type t = {
  tag : bool;
  perms : Perm.Set.t;
  otype : Otype.t;
  bounds : Bounds.t;
  addr : int;
  reserved : bool;
}

let mask32 = 0xFFFF_FFFF

(* The capability semantics, once, over the word: the tag in bit 32 and
   the Fig. 1 metadata word in bits 31-0, beside a separate 32-bit
   address.  The record functions further down unpack what these
   compute. *)
module Word = struct
  type t = int

  let null = 0
  let tag_bit = 1 lsl 32
  let perm_field = 0x3f lsl 25
  let otype_field = 7 lsl 22
  let bounds_field = 0x3f_ffff
  let[@inline] tag w = w land tag_bit <> 0
  let[@inline] clear_tag w = w land lnot tag_bit
  let[@inline] meta w = w land mask32
  let[@inline] perms w = Perm.decode (w lsr 25)
  let[@inline] has_perm w p = Perm.Set.mem p (perms w)
  let[@inline] otype_bits w = (w lsr 22) land 7
  let[@inline] is_sealed w = w land otype_field <> 0
  let[@inline] bounds w = Bounds.of_bits w

  (* Fig. 1 chooses the otype namespace by EX. *)
  let[@inline] otype w =
    Otype.of_bits (if has_perm w EX then Exec else Data) (otype_bits w)

  let[@inline] with_perms w ps =
    w land lnot perm_field lor (Perm.encode_exn ps lsl 25)

  let[@inline] with_otype_bits w o = w land lnot otype_field lor (o lsl 22)
  let[@inline] base w ~addr = Bounds.base_of (bounds w) ~addr
  let[@inline] top w ~addr = Bounds.top_of (bounds w) ~addr

  let[@inline] in_bounds w ~addr ~size a =
    Bounds.in_bounds (bounds w) ~addr ~access:a ~size

  let[@inline] with_address w ~cur addr =
    if
      tag w
      && (not (is_sealed w))
      && Bounds.representable (bounds w) ~cur ~addr:(addr land mask32)
    then w
    else clear_tag w

  (* The short path is the general one at exponent 0, where the rounded
     region is the requested one: then the result is tagged exactly when
     the request lies within the old bounds. *)
  let set_bounds w ~addr ~length ~exact =
    let nb = Bounds.encode_region ~base:addr ~length in
    if nb < 0 then clear_tag w
    else
      let w' = w land lnot bounds_field lor nb in
      let ok =
        tag w
        && (not (is_sealed w))
        (* the requested region must itself be within the old bounds *)
        && in_bounds w ~addr ~size:length addr
        && (length <= 0x1ff
           ||
           let nb = Bounds.of_bits nb in
           let b' = Bounds.base_of nb ~addr and t' = Bounds.top_of nb ~addr in
           b' >= base w ~addr
           && t' <= top w ~addr
           && ((not exact) || (b' = addr && t' = addr + length)))
      in
      if ok then w' else clear_tag w'

  let and_perms w mask =
    let old = perms w in
    let ps = Perm.legalize (Perm.Set.inter old mask) in
    let w' = with_perms w ps in
    if is_sealed w && not (Perm.Set.equal ps old) then clear_tag w' else w'

  let gl = Perm.Set.of_list [ GL ]
  let gl_lg = Perm.Set.of_list [ GL; LG ]
  let lm_sd = Perm.Set.of_list [ LM; SD ]

  (* [and_perms] without the sealed rule: load attenuation keeps the
     tag. *)
  let[@inline] strip w ps =
    with_perms w (Perm.legalize (Perm.Set.diff (perms w) ps))

  let load_attenuate ~authority w =
    if not (tag w) then w
    else
      let w = if has_perm authority LG then w else strip w gl_lg in
      if has_perm authority LM || is_sealed w then w else strip w lm_sd

  let seal w ~key ~key_addr =
    if not (tag key) then Error "seal: key untagged"
    else if is_sealed key then Error "seal: key sealed"
    else if not (has_perm key SE) then Error "seal: key lacks SE"
    else if not (in_bounds key ~addr:key_addr ~size:1 key_addr) then
      Error "seal: otype out of bounds"
    else if not (tag w) then Error "seal: target untagged"
    else if is_sealed w then Error "seal: target already sealed"
    else if key_addr < 1 || key_addr > 7 then Error "seal: invalid otype value"
    else Ok (with_otype_bits w key_addr)

  let unseal w ~key ~key_addr =
    if not (tag key) then Error "unseal: key untagged"
    else if is_sealed key then Error "unseal: key sealed"
    else if not (has_perm key US) then Error "unseal: key lacks US"
    else if not (in_bounds key ~addr:key_addr ~size:1 key_addr) then
      Error "unseal: otype out of bounds"
    else if not (tag w) then Error "unseal: target untagged"
    else if not (is_sealed w) then Error "unseal: target not sealed"
    else if otype_bits w <> key_addr then Error "unseal: otype mismatch"
    else
      let w = with_otype_bits w 0 in
      if has_perm key GL then Ok w
      else Ok (strip w gl)

  (* 0 when [w] may be sealed as a sentry, else which check failed. *)
  let[@inline] sentry_fault w =
    if not (tag w) then 1
    else if is_sealed w then 2
    else if not (has_perm w EX) then 3
    else 0

  let seal_sentry w kind =
    match sentry_fault w with
    | 0 -> Ok (with_otype_bits w (Otype.value (Otype.sentry_otype kind)))
    | 1 -> Error "seal_sentry: untagged"
    | 2 -> Error "seal_sentry: already sealed"
    | _ -> Error "seal_sentry: not executable"

  let link w ~cur ~next ~mie =
    let w = with_address w ~cur next in
    if sentry_fault w = 0 then
      with_otype_bits w
        (Otype.value
           (Otype.sentry_otype (Otype.return_sentry ~interrupts_enabled:mie)))
    else clear_tag w
end

let[@inline] pack c =
  (if c.tag then Word.tag_bit else 0)
  lor (if c.reserved then 1 lsl 31 else 0)
  lor (Perm.encode_exn c.perms lsl 25)
  lor (Otype.value c.otype lsl 22)
  lor Bounds.to_bits c.bounds

let[@inline] unpack w addr =
  {
    tag = Word.tag w;
    perms = Word.perms w;
    otype = Word.otype w;
    bounds = Word.bounds w;
    addr;
    reserved = w land (1 lsl 31) <> 0;
  }

let null = unpack Word.null 0

let root_mem_rw =
  {
    tag = true;
    perms = Perm.Set.of_list [ GL; LD; SD; MC; SL; LM; LG ];
    otype = Otype.unsealed;
    bounds = Bounds.whole_address_space;
    addr = 0;
    reserved = false;
  }

let root_executable =
  {
    tag = true;
    perms = Perm.Set.of_list [ GL; EX; LD; MC; SR; LM; LG ];
    otype = Otype.unsealed;
    bounds = Bounds.whole_address_space;
    addr = 0;
    reserved = false;
  }

let root_sealing =
  {
    tag = true;
    perms = Perm.Set.of_list [ GL; U0; SE; US ];
    otype = Otype.unsealed;
    bounds = Bounds.otype_space;
    addr = 0;
    reserved = false;
  }

let roots = [ root_mem_rw; root_executable; root_sealing ]
let address c = c.addr
let base c = Bounds.base_of c.bounds ~addr:c.addr
let top c = Bounds.top_of c.bounds ~addr:c.addr
let length c = Int.max 0 (top c - base c)
let perms c = c.perms
let has_perm c p = Perm.Set.mem p c.perms
let otype c = c.otype
let is_sealed c = not (Otype.is_unsealed c.otype)
let sentry_kind c = Otype.sentry_of_otype c.otype
let is_sentry c = Option.is_some (sentry_kind c)
let is_global c = has_perm c GL

let in_bounds c ~size a =
  Bounds.in_bounds c.bounds ~addr:c.addr ~access:a ~size

let clear_tag c = unpack (Word.clear_tag (pack c)) c.addr

let with_address c addr =
  unpack (Word.with_address (pack c) ~cur:c.addr addr) (addr land mask32)

let incr_address c off = with_address c (c.addr + off)

let set_bounds c ~length ~exact =
  unpack (Word.set_bounds (pack c) ~addr:c.addr ~length ~exact) c.addr

let and_perms c mask = unpack (Word.and_perms (pack c) mask) c.addr

let clear_perms c ps =
  let mask = Perm.Set.diff c.perms (Perm.Set.of_list ps) in
  and_perms c mask

let derive c r = Result.map (fun w -> unpack w c.addr) r

let seal c ~key =
  derive c (Word.seal (pack c) ~key:(pack key) ~key_addr:key.addr)

let unseal c ~key =
  derive c (Word.unseal (pack c) ~key:(pack key) ~key_addr:key.addr)

let seal_sentry c kind = derive c (Word.seal_sentry (pack c) kind)

let load_attenuate ~authority c =
  unpack (Word.load_attenuate ~authority:(pack authority) (pack c)) c.addr

let is_subset c ~of_:parent =
  c.tag = parent.tag
  && base c >= base parent
  && top c <= top parent
  && Perm.Set.subset c.perms parent.perms

(* Fig. 1 metadata word in bits 63-32, the address in bits 31-0. *)
let word_to_int64 w addr =
  Int64.logor
    (Int64.shift_left (Int64.of_int (Word.meta w)) 32)
    (Int64.of_int (addr land mask32))

let to_word c = word_to_int64 (pack c) c.addr

let of_word ~tag w =
  let meta = Int64.to_int (Int64.shift_right_logical w 32) land mask32 in
  unpack
    ((if tag then Word.tag_bit else 0) lor meta)
    (Int64.to_int (Int64.logand w 0xFFFF_FFFFL))

let equal a b =
  a.tag = b.tag
  && Perm.Set.equal a.perms b.perms
  && Otype.equal a.otype b.otype
  && Bounds.equal a.bounds b.bounds
  && a.addr = b.addr && a.reserved = b.reserved

let pp fmt c =
  Format.fprintf fmt "%s 0x%08x [0x%08x..0x%09x) %a %a"
    (if c.tag then "cap" else "CAP!")
    c.addr (base c) (top c) Perm.Set.pp c.perms Otype.pp c.otype
