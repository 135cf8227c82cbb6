(* Interrupt-posture analysis over a compartment's CFG (DESIGN.md §11).

   CHERIoT encodes each export's interrupt posture in its sentry otype
   (3.4): interrupt-disabled entries defer preemption until the callee
   re-enables or returns, so the scheduler's availability guarantee rests
   on every disabled region being short and acyclic.  This pass makes
   that statically checkable:

     - seed each export entry with its *declared* posture (the linkage
       layer separately checks the descriptor sentry agrees with the
       declaration), Interrupts_inherited with both;
     - propagate postures over direct edges — fall-throughs, branch arms,
       direct calls and call continuations — which all preserve the
       posture (only a sentry jump or return can change it, and those
       restore the caller's posture at the continuation);
     - the subgraph reachable with interrupts provably disabled must be
       acyclic (irq-unbounded-disabled) and its longest instruction path
       must fit the latency budget (irq-over-budget);
     - a direct edge into a declared-posture entry carrying the opposite
       posture is flagged (irq-inconsistent-reentry): the entry's
       declared contract does not hold on internal re-entry.

   Like the flow layer, every finding is must-evidence: postures are
   propagated only along edges that provably preserve them, so "disabled"
   here means "some execution really is here with interrupts off". *)

(* Longest tolerated interrupts-disabled instruction path.  The paper's
   availability argument needs disabled regions to be "short, bounded";
   64 instructions matches the switcher-sized critical sections the RTOS
   itself uses. *)
let default_budget = 64

type posture = { mutable on : bool; mutable off : bool }

(* [entries]: (entry pc, declared posture) — [Some true] enabled,
   [Some false] disabled, [None] inherited. *)
let analyze ~comp ~(cfg : Cfg.t) ?(budget = default_budget) ~entries () :
    Rules.finding list =
  let findings = ref [] in
  let flagged = Hashtbl.create 8 in
  let emit pc rule detail =
    if not (Hashtbl.mem flagged (rule, pc)) then begin
      Hashtbl.replace flagged (rule, pc) ();
      findings := Rules.v ~pc ~compartment:comp rule detail :: !findings
    end
  in
  let postures : (int, posture) Hashtbl.t = Hashtbl.create 32 in
  let posture_of pc =
    match Hashtbl.find_opt postures pc with
    | Some p -> p
    | None ->
        let p = { on = false; off = false } in
        Hashtbl.replace postures pc p;
        p
  in
  let declared pc =
    List.fold_left
      (fun acc (e, d) -> if e = pc then Some d else acc)
      None entries
  in
  let queue = Queue.create () in
  let add ~via_edge pc ~on ~off =
    if Cfg.node cfg pc >= 0 then begin
      (if via_edge then
         match declared pc with
         | Some (Some true) when off ->
             emit pc Rules.irq_inconsistent_reentry
               "interrupts-enabled export entry reachable with interrupts \
                disabled"
         | Some (Some false) when on ->
             emit pc Rules.irq_inconsistent_reentry
               "interrupts-disabled export entry reachable with interrupts \
                enabled"
         | _ -> ());
      let p = posture_of pc in
      let grew = (on && not p.on) || (off && not p.off) in
      if grew then begin
        p.on <- p.on || on;
        p.off <- p.off || off;
        Queue.push pc queue
      end
    end
  in
  List.iter
    (fun (pc, d) ->
      match d with
      | Some true -> add ~via_edge:false pc ~on:true ~off:false
      | Some false -> add ~via_edge:false pc ~on:false ~off:true
      | None -> add ~via_edge:false pc ~on:true ~off:true)
    entries;
  while not (Queue.is_empty queue) do
    let pc = Queue.pop queue in
    match Cfg.find cfg pc with
    | None -> ()
    | Some b ->
        let p = posture_of pc in
        List.iter
          (fun succ -> add ~via_edge:true succ ~on:p.on ~off:p.off)
          (Cfg.block_succs b)
  done;
  (* The interrupts-disabled subgraph. *)
  let off_block pc =
    match Hashtbl.find_opt postures pc with Some p -> p.off | None -> false
  in
  let nodes =
    Hashtbl.fold (fun pc p acc -> if p.off then pc :: acc else acc) postures []
    |> List.sort compare
  in
  let succs pc =
    match Cfg.find cfg pc with
    | None -> []
    | Some b -> List.filter off_block (Cfg.block_succs b)
  in
  let weight pc =
    match Cfg.find cfg pc with
    | None -> 0
    | Some b -> List.length b.Cfg.body + 1
  in
  (* Kahn's algorithm: peel zero-indegree nodes; a non-empty residue is
     the cyclic core.  The peel order doubles as a topological order for
     the longest-path DP when the subgraph is acyclic. *)
  let indeg = Hashtbl.create 16 in
  List.iter (fun pc -> Hashtbl.replace indeg pc 0) nodes;
  List.iter
    (fun pc ->
      List.iter
        (fun s -> Hashtbl.replace indeg s (1 + Hashtbl.find indeg s))
        (succs pc))
    nodes;
  let ready = Queue.create () in
  List.iter (fun pc -> if Hashtbl.find indeg pc = 0 then Queue.push pc ready)
    nodes;
  let topo = ref [] in
  while not (Queue.is_empty ready) do
    let pc = Queue.pop ready in
    topo := pc :: !topo;
    List.iter
      (fun s ->
        let d = Hashtbl.find indeg s - 1 in
        Hashtbl.replace indeg s d;
        if d = 0 then Queue.push s ready)
      (succs pc)
  done;
  let peeled = List.length !topo in
  if peeled < List.length nodes then begin
    let residue =
      List.filter (fun pc -> Hashtbl.find indeg pc > 0) nodes
    in
    let at = List.fold_left min (List.hd residue) residue in
    emit at Rules.irq_unbounded_disabled
      "interrupts-disabled region contains a cycle: IRQ latency is unbounded"
  end
  else begin
    (* [!topo] is reverse-topological: successors already have their DP
       value when a node is processed. *)
    let dp = Hashtbl.create 16 in
    List.iter
      (fun pc ->
        let best =
          List.fold_left (fun m s -> max m (Hashtbl.find dp s)) 0 (succs pc)
        in
        Hashtbl.replace dp pc (weight pc + best))
      !topo;
    let worst, at =
      List.fold_left
        (fun (w, at) pc ->
          let d = Hashtbl.find dp pc in
          if d > w then (d, pc) else (w, at))
        (0, 0) nodes
    in
    if worst > budget then
      emit at Rules.irq_over_budget
        (Printf.sprintf
           "interrupts can stay disabled for %d straight-line instructions \
            (budget %d)"
           worst budget)
  end;
  List.rev !findings
