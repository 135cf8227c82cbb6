(* Per-compartment interface summaries for the compositional link-flow
   analysis (DESIGN.md §15).

   [Audit.analyze_compartment] distills its intra-compartment fixpoint
   into a {!t}: the abstract value each export can return, the join of
   the argument values the compartment passes out at cross-compartment
   call sites, whether it provably parks an import-call return in its
   own globals, and the cfg/flow/irq findings of the compartment itself.
   A summary depends only on inputs covered by its content hash
   ({!digest} over the code region, globals image, layout, export table
   and analysis flags), so {!Linkflow} and the incremental driver can
   reuse a cached summary whenever the hash is unchanged and still
   produce byte-identical reports. *)

open Absdom

type export_summary = {
  xs_label : string;  (** export label, the linkage-graph edge key *)
  xs_entry : int;  (** absolute entry pc of the export *)
  xs_ret : v option;
      (** abstract a0 at every return of the export, [None] when the
          export provably never returns (or the fixpoint bailed out of
          call summaries) *)
}

type t = {
  sm_comp : string;
  sm_key : string;
      (** content hash (hex digest) the cache is keyed by; empty when the
          summary was computed without a cache *)
  sm_exports : export_summary list;
  sm_xcall_out : v option;
      (** join of the a0 argument at every cross-compartment call site *)
  sm_xcall_out_pc : int option;
  sm_stored_xcall_pc : int option;
      (** pc of a [Csc] provably storing an unmodified import-call
          return value into the compartment's own globals *)
  sm_findings : Rules.finding list;
      (** the compartment-local (cfg/flow/irq/tmp) findings, in emission
          order — cached together with the interface so a hash hit
          skips the whole fixpoint *)
}

(* --- hashing ------------------------------------------------------------ *)

(* Stdlib [Digest] (MD5) over NUL-separated parts: no new dependencies,
   and collisions are not an attack surface here (the cache is a pure
   memoization keyed by trusted loader state). *)
let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* --- cache -------------------------------------------------------------- *)

type cache = { tbl : (string, t) Hashtbl.t }

let create_cache () = { tbl = Hashtbl.create 16 }
let find cache key = Hashtbl.find_opt cache.tbl key
let add cache (s : t) = Hashtbl.replace cache.tbl s.sm_key s
