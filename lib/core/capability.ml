type t = {
  tag : bool;
  perms : Perm.Set.t;
  otype : Otype.t;
  bounds : Bounds.t;
  addr : int;
  reserved : bool;
}

let mask32 = 0xFFFF_FFFF

let null =
  {
    tag = false;
    perms = Perm.Set.empty;
    otype = Otype.unsealed;
    bounds = Bounds.of_raw_fields ~e:0 ~b:0 ~t:0;
    addr = 0;
    reserved = false;
  }

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
let length c = max 0 (top c - base c)
let perms c = c.perms
let has_perm c p = Perm.Set.mem p c.perms
let otype c = c.otype
let is_sealed c = not (Otype.is_unsealed c.otype)
let sentry_kind c = Otype.sentry_of_otype c.otype
let is_sentry c = Option.is_some (sentry_kind c)
let is_global c = has_perm c GL

let in_bounds c ~size a =
  Bounds.in_bounds c.bounds ~addr:c.addr ~access:a ~size

let clear_tag c = { c with tag = false }

let with_address c addr =
  let addr = addr land mask32 in
  let ok =
    c.tag && (not (is_sealed c))
    && Bounds.representable c.bounds ~cur:c.addr ~addr
  in
  { c with addr; tag = ok }

let incr_address c off = with_address c (c.addr + off)

let set_bounds c ~length ~exact =
  let b = c.addr in
  let fail = { c with tag = false } in
  if (not c.tag) || is_sealed c then
    (* Still narrow the fields so the untagged result carries the request. *)
    match Bounds.set_bounds ~base:b ~length with
    | Some (bounds, _, _) -> { fail with bounds }
    | None -> fail
  else
    match Bounds.set_bounds ~base:b ~length with
    | None -> fail
    | Some (bounds, b', t') ->
        let cur_base = base c and cur_top = top c in
        let monotonic = b' >= cur_base && t' <= cur_top in
        let exact_ok = (not exact) || (b' = b && t' = b + length) in
        (* The requested region must itself be within the old bounds. *)
        let requested_ok = b >= cur_base && b + length <= cur_top in
        { c with bounds; tag = monotonic && exact_ok && requested_ok }

let and_perms c mask =
  let target = Perm.Set.inter c.perms mask in
  let new_perms = Perm.legalize target in
  let changed = not (Perm.Set.equal new_perms c.perms) in
  let tag = c.tag && not (is_sealed c && changed) in
  { c with perms = new_perms; tag }

let clear_perms c ps =
  let mask = Perm.Set.diff c.perms (Perm.Set.of_list ps) in
  and_perms c mask

let seal c ~key =
  if not key.tag then Error "seal: key untagged"
  else if is_sealed key then Error "seal: key sealed"
  else if not (has_perm key SE) then Error "seal: key lacks SE"
  else if not (in_bounds key ~size:1 key.addr) then
    Error "seal: otype out of bounds"
  else if not c.tag then Error "seal: target untagged"
  else if is_sealed c then Error "seal: target already sealed"
  else if key.addr < 1 || key.addr > 7 then Error "seal: invalid otype value"
  else
    let space = if has_perm c EX then Otype.Exec else Otype.Data in
    Ok { c with otype = Otype.v space key.addr }

let unseal c ~key =
  if not key.tag then Error "unseal: key untagged"
  else if is_sealed key then Error "unseal: key sealed"
  else if not (has_perm key US) then Error "unseal: key lacks US"
  else if not (in_bounds key ~size:1 key.addr) then
    Error "unseal: otype out of bounds"
  else if not c.tag then Error "unseal: target untagged"
  else
    match c.otype with
    | ot when Otype.is_unsealed ot -> Error "unseal: target not sealed"
    | ot ->
        let space = if has_perm c EX then Otype.Exec else Otype.Data in
        if Otype.space ot <> Some space || Otype.value ot <> key.addr then
          Error "unseal: otype mismatch"
        else
          let c = { c with otype = Otype.unsealed } in
          if has_perm key GL then Ok c else Ok (clear_perms c [ GL ])

let seal_sentry c kind =
  if not c.tag then Error "seal_sentry: untagged"
  else if is_sealed c then Error "seal_sentry: already sealed"
  else if not (has_perm c EX) then Error "seal_sentry: not executable"
  else Ok { c with otype = Otype.sentry_otype kind }

let load_attenuate ~authority c =
  if not c.tag then c
  else
    let c =
      if has_perm authority LG then c
      else { (clear_perms c [ GL; LG ]) with tag = c.tag }
    in
    if has_perm authority LM || is_sealed c then c
    else { (clear_perms c [ LM; SD ]) with tag = c.tag }

let is_subset c ~of_:parent =
  c.tag = parent.tag
  && base c >= base parent
  && top c <= top parent
  && Perm.Set.subset c.perms parent.perms

(* Fig. 1 metadata layout. *)
let to_word c =
  let e, b, t = Bounds.raw_fields c.bounds in
  let p = Perm.encode_exn c.perms in
  let o = Otype.value c.otype in
  let meta =
    ((if c.reserved then 1 else 0) lsl 31)
    lor (p lsl 25) lor (o lsl 22) lor (e lsl 18) lor (b lsl 9) lor t
  in
  Int64.logor
    (Int64.shift_left (Int64.of_int meta) 32)
    (Int64.of_int (c.addr land mask32))

let of_word ~tag w =
  let meta = Int64.to_int (Int64.shift_right_logical w 32) land mask32 in
  let addr = Int64.to_int (Int64.logand w 0xFFFF_FFFFL) in
  let reserved = (meta lsr 31) land 1 = 1 in
  let p = (meta lsr 25) land 0x3f in
  let o = (meta lsr 22) land 0x7 in
  let e = (meta lsr 18) land 0xf in
  let b = (meta lsr 9) land 0x1ff in
  let t = meta land 0x1ff in
  let perms = Perm.decode p in
  let space = if Perm.Set.mem EX perms then Otype.Exec else Otype.Data in
  {
    tag;
    perms;
    otype = Otype.of_bits space o;
    bounds = Bounds.of_raw_fields ~e ~b ~t;
    addr;
    reserved;
  }

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
