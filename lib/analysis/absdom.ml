(* The abstract capability domain of the static auditor (DESIGN.md §11).

   Each register holds an abstract value approximating a set of concrete
   machine words — capabilities or plain integers (an integer is a
   capability with a false tag, so one representation covers both).  The
   domain is a join-semilattice; every component carries *must* (lower)
   and *may* (upper) information so that findings can be restricted to
   must-evidence: a rule fires only when every concretization of the
   abstract value violates it.  Joins erode must-information, which makes
   the analysis incomplete but keeps it free of false positives by
   construction.

   Components:
     tag    three-valued: provably tagged / provably untagged / unknown
     ot     otype: exact or unknown (sealedness derives from it)
     pmust  permissions every concretization has
     pmay   permissions some concretization may have (pmust ⊆ pmay)
     base, top, addr   intervals over [0, 2^32]
     from_load  provenance: the value may have travelled through memory
                (set by every abstract load; joins as OR).  Rules use it
                to tell a directly-leaked register value from one
                laundered through a second location.
     xret   three-valued provenance for the compositional link-flow pass
            (DESIGN.md §15): [True] means every concretization is exactly
            the unmodified return value of some cross-compartment import
            call; [False] means provably not; [Any] is unknown.  Only
            [Cmove] and block-local store-to-load forwarding preserve
            [True] — every other derivation weakens it to [Any], so the
            summary substitution in {!Linkflow} stays sound.            *)

open Cheriot_core

module Tri = struct
  type t = True | False | Any

  let of_bool b = if b then True else False
  let join a b = if a = b then a else Any
  let must_true = function True -> true | _ -> false
  let must_false = function False -> true | _ -> false
end

module Iv = struct
  type t = { lo : int; hi : int }  (* inclusive; 0 <= lo <= hi <= 2^32 *)

  let limit = 1 lsl 32
  let full = { lo = 0; hi = limit }
  let exact n = if n < 0 || n > limit then full else { lo = n; hi = n }
  (* [Int.min]/[Int.max] compile to an inline compare; Stdlib's
     polymorphic [min]/[max] are calls into the generic comparison, paid
     on every bound the fixpoint joins. *)
  let v lo hi = { lo = Int.max 0 lo; hi = Int.min limit hi }
  let join a b = { lo = Int.min a.lo b.lo; hi = Int.max a.hi b.hi }
  let is_exact a = a.lo = a.hi
  let equal a b = a.lo = b.lo && a.hi = b.hi

  (* Interval sum; anything that could wrap modulo 2^32 collapses to full. *)
  let add a b =
    let lo = a.lo + b.lo and hi = a.hi + b.hi in
    if lo < 0 || hi > limit then full else { lo; hi }

  let add_const a n =
    let lo = a.lo + n and hi = a.hi + n in
    if lo < 0 || hi > limit then full else { lo; hi }

  let sub a b =
    let lo = a.lo - b.hi and hi = a.hi - b.lo in
    if lo < 0 || hi > limit then full else { lo; hi }

  (* Classic widening: any growth jumps straight to full, bounding chain
     length for loop-carried addresses. *)
  let widen old nw = if nw.lo < old.lo || nw.hi > old.hi then full else nw
end

type ot = Ot_exact of Otype.t | Ot_any

type v = {
  tag : Tri.t;
  ot : ot;
  pmust : Perm.Set.t;
  pmay : Perm.Set.t;
  base : Iv.t;
  top : Iv.t;
  addr : Iv.t;
  from_load : bool;
  xret : Tri.t;
}

let all_perms = Perm.Set.of_list Perm.all

let top_v =
  {
    tag = Tri.Any;
    ot = Ot_any;
    pmust = Perm.Set.empty;
    pmay = all_perms;
    base = Iv.full;
    top = Iv.full;
    addr = Iv.full;
    from_load = true;
    xret = Tri.Any;
  }

(* A known integer (or the null capability): untagged, no authority. *)
let int_v iv =
  {
    tag = Tri.False;
    ot = Ot_exact Otype.unsealed;
    pmust = Perm.Set.empty;
    pmay = Perm.Set.empty;
    base = Iv.exact 0;
    top = Iv.exact 0;
    addr = iv;
    from_load = false;
    xret = Tri.False;
  }

let null_v = int_v (Iv.exact 0)
let int_full = int_v Iv.full

(* Exact lift of a concrete capability (tag included in [c]). *)
let of_cap (c : Capability.t) =
  let perms = Capability.perms c in
  {
    tag = Tri.of_bool (Capability.tag c);
    ot = Ot_exact (Capability.otype c);
    pmust = perms;
    pmay = perms;
    base = Iv.exact (Capability.base c);
    top = Iv.exact (Capability.top c);
    addr = Iv.exact (Capability.address c);
    from_load = false;
    xret = Tri.False;
  }

let join_ot a b =
  match (a, b) with
  | Ot_exact x, Ot_exact y when Otype.equal x y -> a
  | _ -> Ot_any

let equal_ot a b =
  match (a, b) with
  | Ot_exact x, Ot_exact y -> Otype.equal x y
  | Ot_any, Ot_any -> true
  | _ -> false

(* Abstract ordering: [leq a b] iff every concretization of [a] is one of
   [b] — i.e. [b] is the more abstract value.  Must-components shrink
   upward, may-components grow. *)
let leq_ot a b =
  match (a, b) with
  | _, Ot_any -> true
  | Ot_exact x, Ot_exact y -> Otype.equal x y
  | Ot_any, Ot_exact _ -> false

let leq_iv (a : Iv.t) (b : Iv.t) = b.Iv.lo <= a.Iv.lo && a.Iv.hi <= b.Iv.hi

let leq a b =
  (a.tag = b.tag || b.tag = Tri.Any)
  && leq_ot a.ot b.ot
  && Perm.Set.subset b.pmust a.pmust
  && Perm.Set.subset a.pmay b.pmay
  && leq_iv a.base b.base && leq_iv a.top b.top && leq_iv a.addr b.addr
  && ((not a.from_load) || b.from_load)
  && (a.xret = b.xret || b.xret = Tri.Any)

(* [join a b] and [widen a b] are [a] itself exactly when [leq b a]: by
   the lattice laws the result then equals [a].  Most of the fixpoint's
   joins grow nothing, so it keeps the old value instead of a copy; the
   [==] test settles a register the path left untouched without
   comparing it. *)
let join a b =
  if b == a || leq b a then a
  else
    {
      tag = Tri.join a.tag b.tag;
      ot = join_ot a.ot b.ot;
      pmust = Perm.Set.inter a.pmust b.pmust;
      pmay = Perm.Set.union a.pmay b.pmay;
      base = Iv.join a.base b.base;
      top = Iv.join a.top b.top;
      addr = Iv.join a.addr b.addr;
      from_load = a.from_load || b.from_load;
      xret = Tri.join a.xret b.xret;
    }

(* Join with interval widening relative to [old] — applied at loop heads
   once a block has been processed often enough. *)
let widen old nw =
  if nw == old || leq nw old then old
  else
    {
      tag = Tri.join old.tag nw.tag;
      ot = join_ot old.ot nw.ot;
      pmust = Perm.Set.inter old.pmust nw.pmust;
      pmay = Perm.Set.union old.pmay nw.pmay;
      base = Iv.widen old.base (Iv.join old.base nw.base);
      top = Iv.widen old.top (Iv.join old.top nw.top);
      addr = Iv.widen old.addr (Iv.join old.addr nw.addr);
      from_load = old.from_load || nw.from_load;
      xret = Tri.join old.xret nw.xret;
    }

let equal a b =
  a.tag = b.tag && equal_ot a.ot b.ot
  && Perm.Set.equal a.pmust b.pmust
  && Perm.Set.equal a.pmay b.pmay
  && Iv.equal a.base b.base && Iv.equal a.top b.top && Iv.equal a.addr b.addr
  && a.from_load = b.from_load && a.xret = b.xret

(* --- must-queries (the only evidence findings may use) ------------------ *)

let must_unsealed v =
  match v.ot with Ot_exact o -> Otype.is_unsealed o | Ot_any -> false

let must_sealed v =
  match v.ot with Ot_exact o -> not (Otype.is_unsealed o) | Ot_any -> false

let sentry_kind_exact v =
  match v.ot with Ot_exact o -> Otype.sentry_of_otype o | Ot_any -> None

let may_perm v p = Perm.Set.mem p v.pmay
let must_perm v p = Perm.Set.mem p v.pmust

(* Every concretization is exactly the unmodified return value of some
   cross-compartment import call (see [xret] above). *)
let must_xret v = Tri.must_true v.xret

(* Any derivation (bounds, perms, tag or address change) produces a value
   that is no longer the *unmodified* return: [True] decays to [Any]. *)
let weaken_xret v =
  match v.xret with Tri.True -> { v with xret = Tri.Any } | _ -> v

(* Every concretization of [iv] is an in-bounds access of [size] bytes. *)
let must_in_bounds v (iv : Iv.t) ~size =
  iv.Iv.lo >= v.base.Iv.hi && iv.Iv.hi + size <= v.top.Iv.lo

(* Every concretization of [iv] violates bounds for a [size]-byte access. *)
let must_out_of_bounds v (iv : Iv.t) ~size =
  iv.Iv.lo + size > v.top.Iv.hi || iv.Iv.hi < v.base.Iv.lo

(* --- register states ---------------------------------------------------- *)

type state = v array  (* 16 registers; index 0 is pinned to null *)

let get (st : state) r = if r = 0 then null_v else st.(r land 15)

let set (st : state) r x = if r <> 0 then st.(r land 15) <- x

let copy_state (st : state) : state = Array.copy st

(* [f a.(i) b.(i)] for every register, where [f] returns its first
   argument itself when it grows nothing: [a] itself when no register
   grows, otherwise a copy sharing every register that did not. *)
let map2_grow f (a : state) (b : state) : state =
  let n = Array.length a in
  let rec scan i =
    if i = n then a
    else
      let x = f a.(i) b.(i) in
      if x == a.(i) then scan (i + 1)
      else begin
        let r = Array.copy a in
        r.(i) <- x;
        for j = i + 1 to n - 1 do
          r.(j) <- f a.(j) b.(j)
        done;
        r
      end
  in
  scan 0

let join_state (a : state) (b : state) : state = map2_grow join a b

let widen_state (a : state) (b : state) : state = map2_grow widen a b

let equal_state (a : state) (b : state) =
  a == b
  ||
  let n = Array.length a in
  let rec go i = i = n || ((a.(i) == b.(i) || equal a.(i) b.(i)) && go (i + 1)) in
  go 0
