(** Capability permissions (paper Table 1) and their 6-bit compressed
    encoding (paper Fig. 2).

    CHERIoT revises the CHERI permission ontology down to twelve
    architectural permissions and compresses them into six bits using six
    encoding {e formats}, each of which implies some permissions and
    encodes the optional ones that make sense given the implied set.
    Useless combinations (e.g. execute + store, violating W^X) are not
    representable at all. *)

(** The twelve architectural permissions. *)
type t =
  | GL  (** Global: may be stored via capabilities lacking SL. *)
  | LD  (** Load data through this capability. *)
  | SD  (** Store data through this capability. *)
  | MC  (** Memory capability: loads/stores of capabilities (with LD/SD). *)
  | SL  (** Store local: stores of non-global capabilities. *)
  | LG  (** Load global: loaded caps keep GL; cleared recursively. *)
  | LM  (** Load mutable: loaded caps keep SD/LM; cleared recursively. *)
  | EX  (** Execute: instruction fetch. *)
  | SR  (** System registers: access to special capability registers. *)
  | SE  (** Seal with otypes in bounds. *)
  | US  (** Unseal with otypes in bounds. *)
  | U0  (** User permission 0: software-defined. *)

val all : t list
(** All twelve permissions, in architectural bit order. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Sets of permissions, used as the [perms] field of a capability. *)
module Set : sig
  type perm := t

  type t
  (** An immutable set of permissions. *)

  val empty : t
  val of_list : perm list -> t
  val to_list : t -> perm list
  val mem : perm -> t -> bool
  val add : perm -> t -> t
  val remove : perm -> t -> t
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val subset : t -> t -> bool
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit

  val to_arch_bits : t -> int
  (** 12-bit uncompressed architectural view, with the permissions most
      commonly cleared (GL, LG, LM, SD) in the lowest bits so that masks
      for clearing them fit a single compressed RISC-V instruction
      (paper 3.2.1). *)

  val of_arch_bits : int -> t
end

(** {1 Encoding formats} *)

(** The six compressed-permission formats of Fig. 2. *)
type format =
  | Mem_cap_rw  (** implies LD, MC, SD; optional SL, LM, LG *)
  | Mem_cap_ro  (** implies LD, MC; optional LM, LG *)
  | Mem_cap_wo  (** implies SD, MC *)
  | Mem_no_cap  (** optional LD, SD (not both absent) *)
  | Executable  (** implies EX, LD, MC; optional SR, LM, LG *)
  | Sealing  (** optional U0, SE, US *)

val format_of : Set.t -> format option
(** [format_of s] is the format that represents exactly [s], if any. *)

val decode : int -> Set.t
(** [decode bits] decompresses a 6-bit field. Total on [0, 63]. *)

val encode : Set.t -> int option
(** [encode s] is the 6-bit compressed field representing exactly [s],
    or [None] if [s] is not a representable combination. *)

val legalize : Set.t -> Set.t
(** [legalize s] is the largest representable subset of [s]: the result of
    clearing permissions via [CAndPerm], which must always yield an
    encodable set. [legalize] is idempotent and [legalize s] ⊆ [s]. *)

val encode_exn : Set.t -> int
(** [encode_exn s] = [encode (legalize s)] forced; never raises because
    legalized sets are representable. *)
