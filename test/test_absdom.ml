(* Property tests for the auditor's abstract domain (lib/analysis/absdom).

   The soundness of every flow-* finding rests on {!Absdom} being a
   join-semilattice with a terminating widening: joins must be
   commutative/associative/idempotent upper bounds (so the fixpoint is
   order-independent), widening must sit above the join (so it only
   loses precision, never soundness), and every ascending chain pushed
   through the auditor's 8-join-budget policy must stabilize (so the
   fixpoint terminates).  The join contract the fixpoint leans on for
   speed is pinned too: a join or widen that grows nothing returns its
   first argument itself, a state join shares every register that did
   not grow, and [equal_state] agrees with register-wise [equal]. *)

open Cheriot_core
module A = Cheriot_analysis.Absdom
module Iters = Cheriot_proptest.Iters

(* --- generators ---------------------------------------------------------- *)

let iv_gen =
  let open QCheck.Gen in
  let point =
    oneof
      [
        oneofl [ 0; 1; 8; 64; 512; 0x10000; A.Iv.limit - 1; A.Iv.limit ];
        int_bound A.Iv.limit;
      ]
  in
  frequency
    [
      (1, map A.Iv.exact point);
      (3, map2 (fun a b -> A.Iv.v (min a b) (max a b)) point point);
    ]

let perms_gen =
  QCheck.Gen.map
    (fun bits -> Perm.Set.of_arch_bits (bits land 0xFFF))
    (QCheck.Gen.int_bound 0xFFF)

let tri_gen = QCheck.Gen.oneofl [ A.Tri.True; A.Tri.False; A.Tri.Any ]

let ot_gen =
  QCheck.Gen.oneofl
    [
      A.Ot_any;
      A.Ot_exact Otype.unsealed;
      A.Ot_exact (Otype.v Otype.Data 1);
      A.Ot_exact (Otype.v Otype.Data 5);
      A.Ot_exact (Otype.v Otype.Exec 2);
    ]

let v_gen =
  let open QCheck.Gen in
  tri_gen >>= fun tag ->
  ot_gen >>= fun ot ->
  perms_gen >>= fun p1 ->
  perms_gen >>= fun p2 ->
  iv_gen >>= fun base ->
  iv_gen >>= fun top ->
  iv_gen >>= fun addr ->
  bool >>= fun from_load ->
  tri_gen >>= fun xret ->
  (* maintain the representation invariant pmust ⊆ pmay *)
  return
    {
      A.tag;
      ot;
      pmust = Perm.Set.inter p1 p2;
      pmay = Perm.Set.union p1 p2;
      base;
      top;
      addr;
      from_load;
      xret;
    }

let pp_v (v : A.v) =
  Printf.sprintf
    "{tag=%s; base=[%d,%d]; top=[%d,%d]; addr=[%d,%d]; load=%b; xret=%s}"
    (match v.A.tag with
    | A.Tri.True -> "T"
    | A.Tri.False -> "F"
    | A.Tri.Any -> "?")
    v.A.base.A.Iv.lo v.A.base.A.Iv.hi v.A.top.A.Iv.lo v.A.top.A.Iv.hi
    v.A.addr.A.Iv.lo v.A.addr.A.Iv.hi v.A.from_load
    (match v.A.xret with
    | A.Tri.True -> "T"
    | A.Tri.False -> "F"
    | A.Tri.Any -> "?")

let arb_v = QCheck.make ~print:pp_v v_gen
let arb_vv = QCheck.pair arb_v arb_v
let arb_vvv = QCheck.triple arb_v arb_v arb_v

(* --- lattice laws --------------------------------------------------------- *)

let t_commutative =
  QCheck.Test.make ~name:"join commutative" ~count:(Iters.count ~default:1000) arb_vv (fun (a, b) ->
      A.equal (A.join a b) (A.join b a))

let t_associative =
  QCheck.Test.make ~name:"join associative" ~count:(Iters.count ~default:1000) arb_vvv
    (fun (a, b, c) -> A.equal (A.join a (A.join b c)) (A.join (A.join a b) c))

let t_idempotent =
  QCheck.Test.make ~name:"join idempotent" ~count:(Iters.count ~default:1000) arb_v (fun a ->
      A.equal (A.join a a) a)

let t_upper_bound =
  QCheck.Test.make ~name:"join is an upper bound" ~count:(Iters.count ~default:1000) arb_vv
    (fun (a, b) ->
      let j = A.join a b in
      A.leq a j && A.leq b j)

let t_widen_above_join =
  QCheck.Test.make ~name:"widen sits above join" ~count:(Iters.count ~default:1000) arb_vv
    (fun (a, b) -> A.leq (A.join a b) (A.widen a b))

let t_top_absorbs =
  QCheck.Test.make ~name:"top absorbs" ~count:(Iters.count ~default:1000) arb_v (fun a ->
      A.equal (A.join a A.top_v) A.top_v && A.leq a A.top_v)

let t_join_invariant =
  QCheck.Test.make ~name:"join preserves pmust ⊆ pmay" ~count:(Iters.count ~default:1000) arb_vv
    (fun (a, b) ->
      let j = A.join a b in
      Perm.Set.subset j.A.pmust j.A.pmay)

(* --- widening termination -------------------------------------------------- *)

(* Simulate exactly the fixpoint's per-block policy: plain joins for the
   first 8 visits, widened joins afterwards.  The chain must be monotone
   and stabilize: at most 8 pre-widen changes, then each change grows a
   finite component (tag ≤ 2, ot ≤ 1, perms ≤ 24, from_load ≤ 1,
   xret ≤ 2) or widens an interval straight to full (≤ 1 each) — 42
   covers it. *)
let t_widening_terminates =
  QCheck.Test.make ~name:"ascending chains stabilize under the 8-join budget"
    ~count:(Iters.count ~default:200)
    (QCheck.make QCheck.Gen.(list_size (return 100) v_gen))
    (fun vs ->
      match vs with
      | [] -> true
      | first :: rest ->
          let state = ref first in
          let visits = ref 0 in
          let changes = ref 0 in
          let monotone = ref true in
          List.iter
            (fun y ->
              incr visits;
              let next =
                if !visits > 8 then A.widen !state (A.join !state y)
                else A.join !state y
              in
              if not (A.leq !state next) then monotone := false;
              if not (A.equal !state next) then incr changes;
              state := next)
            rest;
          !monotone && !changes <= 42)

(* --- the join contract ------------------------------------------------------ *)

(* A value equal to [v] but not physically [v]. *)
let fresh (v : A.v) = { v with A.tag = v.A.tag }

(* Pairs [(a, b)] with [leq b a] about half the time: [a] raised to
   [join a b], [b] a fresh copy of [a], or two random values. *)
let arb_contract =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (a, b) -> pp_v a ^ " / " ^ pp_v b)
    ( pair v_gen v_gen >>= fun (a, b) ->
      frequency
        [ (2, return (a, b)); (2, return (A.join a b, b)); (1, return (a, fresh a)) ] )

let t_join_keeps_first =
  QCheck.Test.make ~name:"join and widen return a itself exactly when leq b a"
    ~count:(Iters.count ~default:1000) arb_contract (fun (a, b) ->
      let le = A.leq b a in
      (A.join a b == a) = le && (A.widen a b == a) = le)

(* Two 16-register states, the second mixing the first's registers
   (shared or fresh copies) with random ones, so that no register grows
   in about one pair out of six. *)
let arb_states =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (a, b) ->
      String.concat "\n"
        (List.init (Array.length a) (fun i ->
             Printf.sprintf "x%d: %s / %s" i (pp_v a.(i)) (pp_v b.(i)))))
    ( array_repeat 16 v_gen >>= fun a ->
      map
        (fun b -> (a, b))
        (flatten_a
           (Array.map
              (fun x -> frequency [ (6, return x); (2, return (fresh x)); (1, v_gen) ])
              a)) )

(* [op a b] is [a] itself exactly when no register grows under [f];
   otherwise it shares every register that did not grow and holds
   [f a.(i) b.(i)] in every one that did.  [a] is left as it was. *)
let state_contract op f (a, b) =
  let a0 = Array.copy a in
  let r = op a b in
  let grows = Array.map2 (fun x y -> not (A.leq y x)) a b in
  Array.for_all2 ( == ) a a0
  && (r == a) = not (Array.exists Fun.id grows)
  && (r == a
     || Array.for_all Fun.id
          (Array.mapi
             (fun i g ->
               if g then A.equal r.(i) (f a.(i) b.(i)) else r.(i) == a.(i))
             grows))

let t_state_joins_share =
  QCheck.Test.make
    ~name:"join_state and widen_state keep every register that does not grow"
    ~count:(Iters.count ~default:300) arb_states (fun ab ->
      state_contract A.join_state A.join ab && state_contract A.widen_state A.widen ab)

let t_equal_state =
  QCheck.Test.make ~name:"equal_state is register-wise equal"
    ~count:(Iters.count ~default:300) arb_states (fun (a, b) ->
      A.equal_state a b = Array.for_all2 A.equal a b
      && A.equal_state a (Array.map fresh a))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      t_commutative;
      t_associative;
      t_idempotent;
      t_upper_bound;
      t_widen_above_join;
      t_top_absorbs;
      t_join_invariant;
      t_widening_terminates;
      t_join_keeps_first;
      t_state_joins_share;
      t_equal_state;
    ]
