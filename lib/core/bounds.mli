(** The CHERIoT compressed bounds encoding (paper 3.2.3 and Fig. 3).

    Bounds are encoded as a 4-bit exponent [E] and two 9-bit fields [B]
    (base) and [T] (top), interpreted relative to the capability's 32-bit
    address.  Writing [e] for the decoded exponent, the decoded base and
    top are formed by substituting [B] (resp. [T]) at bit [e] of the
    address and zeroing the low [e] bits, with ±1 corrections to the bits
    above whenever the address's middle bits and the fields fall in
    different 2{^ 9+e}-aligned regions:

    {v
      a_top = a[31 : e+9]        a_mid = a[e+8 : e]
      base  = (a_top + cb) ++ B ++ 0^e
      top   = (a_top + ct) ++ T ++ 0^e        (33-bit value)

      a_mid < B ?   T < B ?    cb   ct
         no           no        0    0
         no           yes       0    1
         yes          no       -1   -1
         yes          yes      -1    0
    v}

    Objects up to 511 bytes are always represented exactly; larger objects
    require 2{^ e} alignment.  [E = 0xf] denotes [e = 24] so that root
    capabilities span the whole address space; other values map directly
    (so exponents 15–23 are unrepresentable and round up to 24).  Compared
    with CHERI Concentrate the encoding trades representable range for
    precision: an address that moves outside the representable region
    invalidates the capability, and addresses below the base are never
    representable. *)

type t [@@immediate]
(** Encoded bounds: the raw (E, B, T) fields, held as the 22 bounds bits
    of the Fig. 1 metadata word (E in bits 21–18, B in 17–9, T in 8–0),
    so a bounds value is an immediate and costs no allocation. *)

val exponent : t -> int
(** Decoded exponent [e] (0–14 or 24). *)

val of_raw_fields : e:int -> b:int -> t:int -> t
(** Reassemble from raw field values (masked to width). *)

val of_bits : int -> t
(** The bounds held in the low 22 bits of a metadata word (the other
    bits are ignored). *)

val to_bits : t -> int
(** The 22 metadata-word bits of the bounds: [to_bits (of_bits w) = w
    land 0x3fffff]. *)

val decode : t -> addr:int -> int * int
(** [decode bounds ~addr] is [(base, top)] for a capability at address
    [addr].  [base] is a 32-bit value, [top] a 33-bit value (may be
    2{^ 32}).  Both are returned as OCaml [int]s. *)

val base_of : t -> addr:int -> int
(** [fst (decode t ~addr)] without building the pair. *)

val top_of : t -> addr:int -> int
(** [snd (decode t ~addr)] without building the pair. *)

val in_bounds : t -> addr:int -> access:int -> size:int -> bool
(** [in_bounds b ~addr ~access ~size]: does [[access, access+size)] fall
    within the bounds decoded at [addr]? *)

val representable : t -> cur:int -> addr:int -> bool
(** Would moving the address from [cur] to [addr] preserve the decoded
    bounds?  If not, the ISA clears the tag. *)

val set_bounds : base:int -> length:int -> (t * int * int) option
(** [set_bounds ~base ~length] encodes the tightest representable bounds
    covering [[base, base+length)], returning [(bounds, base', top')] with
    [base' <= base] and [top' >= base + length], or [None] if the region
    does not fit the address space.  This is the [CSetBounds] rounding
    behaviour. *)

val encode_region : base:int -> length:int -> int
(** {!set_bounds}'s bounds as {!to_bits} without the option and tuple,
    or [-1] where {!set_bounds} is [None].  A length of at most 511 is
    exact at exponent 0 and takes no search. *)

val set_bounds_exact : base:int -> length:int -> t option
(** Like {!set_bounds} but yields [None] when any rounding would occur
    ([CSetBoundsExact] semantics). *)

val crrl : int -> int
(** [crrl len]: Capability Round Representable Length — the smallest
    length >= [len] that can be represented exactly given a suitably
    aligned base ([CRRL] instruction). *)

val cram : int -> int
(** [cram len]: Capability Representable Alignment Mask — the mask to
    [AND] with a base address to align it for an exact [crrl len]-sized
    region ([CRAM] instruction). *)

val whole_address_space : t
(** Bounds covering [[0, 2^32)] — used by the root capabilities. *)

val otype_space : t
(** Bounds covering the 3-bit otype namespace [[0, 8)] — used by the
    sealing root. *)

val pp : Format.formatter -> t -> unit
