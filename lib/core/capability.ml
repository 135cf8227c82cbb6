let mask32 = 0xFFFF_FFFF

(* The capability semantics, once, over the word: the tag in bit 32 and
   the Fig. 1 metadata word in bits 31-0, beside a separate 32-bit
   address.  A capability value below is that pair. *)
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

type t = { word : Word.t; addr : int }

let null = { word = Word.null; addr = 0 }

let root perms bounds =
  {
    word =
      Word.with_perms (Word.tag_bit lor Bounds.to_bits bounds)
        (Perm.Set.of_list perms);
    addr = 0;
  }

let root_mem_rw =
  root [ GL; LD; SD; MC; SL; LM; LG ] Bounds.whole_address_space

let root_executable =
  root [ GL; EX; LD; MC; SR; LM; LG ] Bounds.whole_address_space

let root_sealing = root [ GL; U0; SE; US ] Bounds.otype_space
let roots = [ root_mem_rw; root_executable; root_sealing ]
let[@inline] tag c = Word.tag c.word
let address c = c.addr
let base c = Word.base c.word ~addr:c.addr
let top c = Word.top c.word ~addr:c.addr
let length c = Int.max 0 (top c - base c)
let perms c = Word.perms c.word
let has_perm c p = Word.has_perm c.word p
let otype c = Word.otype c.word
let is_sealed c = Word.is_sealed c.word
let sentry_kind c = Otype.sentry_of_otype (otype c)
let is_sentry c = Option.is_some (sentry_kind c)
let is_global c = has_perm c GL
let in_bounds c ~size a = Word.in_bounds c.word ~addr:c.addr ~size a
let clear_tag c = { c with word = Word.clear_tag c.word }

let with_address c addr =
  { word = Word.with_address c.word ~cur:c.addr addr; addr = addr land mask32 }

let incr_address c off = with_address c (c.addr + off)

let set_bounds c ~length ~exact =
  { c with word = Word.set_bounds c.word ~addr:c.addr ~length ~exact }

let and_perms c mask = { c with word = Word.and_perms c.word mask }
let clear_perms c ps =
  and_perms c (Perm.Set.diff (perms c) (Perm.Set.of_list ps))
let derive c r = Result.map (fun word -> { c with word }) r
let seal c ~key = derive c (Word.seal c.word ~key:key.word ~key_addr:key.addr)

let unseal c ~key =
  derive c (Word.unseal c.word ~key:key.word ~key_addr:key.addr)

let seal_sentry c kind = derive c (Word.seal_sentry c.word kind)

let load_attenuate ~authority c =
  { c with word = Word.load_attenuate ~authority:authority.word c.word }

let is_subset c ~of_:parent =
  tag c = tag parent
  && base c >= base parent
  && top c <= top parent
  && Perm.Set.subset (perms c) (perms parent)

(* Fig. 1 metadata word in bits 63-32, the address in bits 31-0. *)
let to_word c =
  Int64.logor
    (Int64.shift_left (Int64.of_int (Word.meta c.word)) 32)
    (Int64.of_int (c.addr land mask32))

let of_word ~tag w =
  {
    word =
      (if tag then Word.tag_bit else 0)
      lor (Int64.to_int (Int64.shift_right_logical w 32) land mask32);
    addr = Int64.to_int (Int64.logand w 0xFFFF_FFFFL);
  }

let equal a b = a.word = b.word && a.addr = b.addr

let pp fmt c =
  Format.fprintf fmt "%s 0x%08x [0x%08x..0x%09x) %a %a"
    (if tag c then "cap" else "CAP!")
    c.addr (base c) (top c) Perm.Set.pp (perms c) Otype.pp (otype c)
