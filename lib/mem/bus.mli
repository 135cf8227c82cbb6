(** The memory bus: routes CPU accesses to SRAM regions or MMIO devices,
    and carries the store-snoop signal that the background revoker uses to
    resolve its race with the main pipeline (paper 3.3.3). *)

type t

exception Bus_error of int
(** Raised on access to an unmapped address — surfaces as a trap. *)

val create : unit -> t
val add_sram : t -> Sram.t -> unit
val add_device : t -> Mmio.device -> unit

val set_revbits : t -> Revbits.t -> unit
(** Attach the revocation bitmap consulted by the load filter. *)

val revbits : t -> Revbits.t option

val sram_at : t -> size:int -> int -> Sram.t option
(** The SRAM region containing the full [size]-byte access starting at
    an address, if any.  An access that begins inside an SRAM but runs
    off its end matches nothing — it must fault, not be clipped. *)

val srams : t -> Sram.t list
(** All SRAM regions on the bus, ordered by base address. *)

(** {1 Access} *)

val read : t -> width:int -> int -> int
(** [read t ~width addr] with [width] ∈ {1,2,4}.  MMIO accepts width 4
    only. *)

val write : t -> width:int -> int -> int -> unit

(** {1 Store snooping} *)

val on_store : t -> (int -> unit) -> unit
(** Register a callback invoked with the (granule-aligned) address of
    every SRAM store; the background revoker uses it to re-load
    in-flight words that the main pipeline overwrote, and the machine's
    block cache uses it to drop stale translations.  MMIO device writes
    do not fire snoops — device state is never cached, and code fetched
    from a device is never translated. *)

(** {1 Window fast path}

    The machine resolves an SRAM once ({!sram_at}), keeps the region's
    bounds in mutable fields, and performs subsequent in-window accesses
    directly on the SRAM — no list walk, no option, no allocation.  The
    hook below keeps that path observationally identical to {!write}:
    SRAM stores still snoop. *)

val snoop_store : t -> int -> unit
(** Fire the store snoops for an SRAM store performed outside
    {!write} (granule-aligns the address itself). *)
