(** CHERIoT capabilities (paper 3.2, Fig. 1).

    A capability is a 64-bit value — a 32-bit address plus a 32-bit
    metadata word laid out as

    {v 31  30..25  24..22  21..18  17..9  8..0
        R    p'6     o'3     E'4    B'9    T'9   v}

    — together with an out-of-band validity {e tag}.  All manipulation is
    {e guarded}: bounds may be narrowed but never widened nor displaced,
    permissions shed but never regained, and tags cleared but never set
    (except by deriving from a tagged capability).  The three hardware
    roots (memory-rw, executable, sealing) are the only initially tagged
    values. *)

(** {1 The word}

    A capability's metadata as one immediate [int] (the {e word}):

    {v 32   31  30..25  24..22  21..18  17..9  8..0
       tag  R    p'6     o'3     E'4    B'9    T'9   v}

    Bits 31–0 are exactly Fig. 1's metadata word, what {!to_word} puts
    in bits 63–32 of memory; bit 32 is the out-of-band tag.  The
    address is held beside the word, not in it.  The word [0] is the
    untagged null metadata an integer register holds.  Every 6-bit
    permission field decodes to a set that encodes back to the same
    field, so any word — one loaded from memory included — is a
    capability as it stands.  The otype namespace is not stored: Fig. 1
    chooses it by EX.

    The functions here are the capability semantics.  They take the
    word and the address it is held with ([~addr] or [~cur]), allocate
    nothing unless they return a [result], and return the new word
    (the new address is the caller's: [addr land 0xFFFF_FFFF] for
    {!Word.with_address}, unchanged for the others).  The functions on
    {!t} below apply them to a value's two fields. *)
module Word : sig
  type t = int

  val null : t
  (** [0]: untagged, null metadata. *)

  val tag_bit : t
  val tag : t -> bool
  val clear_tag : t -> t

  val meta : t -> int
  (** The 32-bit metadata word (bits 31–0). *)

  val perms : t -> Perm.Set.t
  val has_perm : t -> Perm.t -> bool
  val otype : t -> Otype.t
  val otype_bits : t -> int
  val is_sealed : t -> bool
  val bounds : t -> Bounds.t
  val base : t -> addr:int -> int
  val top : t -> addr:int -> int
  val in_bounds : t -> addr:int -> size:int -> int -> bool

  val with_otype_bits : t -> int -> t
  (** Replace the 3-bit otype field; [with_otype_bits w 0] unseals. *)

  val with_address : t -> cur:int -> int -> t
  (** {!Capability.with_address} from address [cur]. *)

  val set_bounds : t -> addr:int -> length:int -> exact:bool -> t
  (** {!Capability.set_bounds}.  A length of at most 511 is exact at
      exponent 0: it takes neither the exponent search nor a decode of
      the new bounds. *)

  val and_perms : t -> Perm.Set.t -> t
  val load_attenuate : authority:t -> t -> t
  val seal : t -> key:t -> key_addr:int -> (t, string) result
  val unseal : t -> key:t -> key_addr:int -> (t, string) result
  val seal_sentry : t -> Otype.sentry -> (t, string) result

  val link : t -> cur:int -> next:int -> mie:bool -> t
  (** What a jump-and-link writes to its link register from the PCC's
      word [w] at [cur]: the PCC moved to [next], sealed as the return
      sentry of posture [mie] (3.1.2), or untagged where it cannot be
      sealed. *)
end

type t = { word : Word.t; addr : int }
(** A capability value: its word (the tag and the Fig. 1 metadata) and
    its 32-bit address — what a register, a PCC or an SRAM granule
    holds.  The accessors below read the word. *)

(** {1 Construction} *)

val null : t
(** The untagged all-zeros capability (the [cnull] register value). *)

val root_mem_rw : t
(** Memory read-write root: whole address space, GL LD SD MC SL LM LG. *)

val root_executable : t
(** Executable root: whole address space, GL EX LD MC SR LM LG. *)

val root_sealing : t
(** Sealing root: otype space [0,8), GL U0 SE US. *)

val roots : t list
(** The three roots present in registers at CPU reset (3.1.1). *)

(** {1 Accessors} *)

val tag : t -> bool
val address : t -> int
val base : t -> int
val top : t -> int
(** Decoded top; a 33-bit value, possibly 2{^ 32}. *)

val length : t -> int
(** [max 0 (top - base)]. *)

val perms : t -> Perm.Set.t
val has_perm : t -> Perm.t -> bool
val otype : t -> Otype.t
val is_sealed : t -> bool
val is_sentry : t -> bool
val sentry_kind : t -> Otype.sentry option

val is_global : t -> bool
(** Has the GL permission — may be stored through non-SL capabilities. *)

val in_bounds : t -> size:int -> int -> bool
(** [in_bounds c ~size a]: is the access [[a, a+size)] within bounds?
    [size] is required, not optional: an optional argument would
    allocate its [Some] on every call that is not inlined, and bounds
    checks sit on every simulated memory access. *)

(** {1 Guarded manipulation}

    These functions implement the value-level semantics of the
    capability-manipulation instructions.  They never widen authority:
    when a requested change would, the result's tag is cleared (matching
    the ISA behaviour for non-trapping violations; trapping checks live in
    the ISA layer). *)

val with_address : t -> int -> t
(** [CSetAddr]: change the address.  Clears the tag if the capability is
    sealed or if the new address is not representable (3.2.3). *)

val incr_address : t -> int -> t
(** [CIncAddr]: add an offset to the address; same tag-clearing rules. *)

val set_bounds : t -> length:int -> exact:bool -> t
(** [CSetBounds[Exact]]: narrow bounds to [[addr, addr+length)] (rounded
    outward unless [exact]).  Clears the tag if the capability is sealed,
    the requested region is not within current bounds, or ([exact]) the
    region is not exactly representable. *)

val and_perms : t -> Perm.Set.t -> t
(** [CAndPerm]: intersect permissions with a mask, then legalize to the
    largest representable subset (3.2.1).  Clears the tag if sealed and
    the mask would change the permissions. *)

val clear_tag : t -> t

val clear_perms : t -> Perm.t list -> t
(** Convenience: [and_perms] with the complement of the given list. *)

val seal : t -> key:t -> (t, string) result
(** [CSeal]: seal [t] with the otype named by [key]'s address.  Requires
    [key] tagged, unsealed, with SE, address in bounds and a valid otype
    value (1–7); the otype namespace is chosen by [t]'s EX permission. *)

val unseal : t -> key:t -> (t, string) result
(** [CUnseal]: requires [key] tagged, unsealed, with US, address in bounds
    and equal to [t]'s otype value in the matching namespace.  The result
    keeps GL only if [key] has GL. *)

val seal_sentry : t -> Otype.sentry -> (t, string) result
(** Seal an executable capability as a sentry (no key: performed by the
    jump-and-link datapath and by the loader). *)

val load_attenuate : authority:t -> t -> t
(** The load-side recursive attenuation of 3.1.1: a capability loaded via
    an authority lacking LG has GL and LG cleared; via an authority
    lacking LM (if unsealed) has LM and SD cleared. *)

val is_subset : t -> of_:t -> bool
(** [CTestSubset]: tag equal, bounds nested and permissions included. *)

(** {1 Encoding} *)

val to_word : t -> int64
(** The 64-bit memory representation: metadata word (Fig. 1) in bits
    63–32, address in bits 31–0.  The tag travels out of band. *)

val of_word : tag:bool -> int64 -> t
(** The value of a 64-bit memory word and its tag.  Total: every bit
    pattern is a capability, and [to_word (of_word ~tag w) = w]. *)

val equal : t -> t -> bool
(** Equal words and addresses: [CSetEqualExact]. *)

val pp : Format.formatter -> t -> unit
