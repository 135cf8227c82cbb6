(* Control-flow recovery over one compartment's code region.

   Reachability-driven decode: starting from the compartment's entry
   points (its exports, plus the boot PC when it lands here), decode
   forward, splitting at branch/jump targets and fall-throughs.  Data
   words mixed into the region are never decoded unless reachable, so
   [Asm.Word]/[Asm.Space] padding cannot produce bogus findings.

   Three structural rules are enforced during recovery:
     cfg-undecodable       a reachable word fails [Encode.decode]
     cfg-direct-cross      a direct Jal/Branch edge leaves the region (a
                           legal cross-compartment transfer must instead
                           go through a sealed sentry via Jalr)
     cfg-fallthrough-exit  straight-line execution reaches region end

   Flagged edges are not followed, so one bad instruction yields one
   finding rather than a cascade. *)

open Cheriot_isa

type terminator =
  | T_jal of Insn.reg * int  (* link register, resolved absolute target *)
  | T_jalr of Insn.reg * Insn.reg * int
  | T_branch of int  (* resolved absolute target; fall-through implicit *)
  | T_halt  (* Ebreak / Ecall / Mret: no static successor *)
  | T_fall of int  (* block split before another leader *)
  | T_stop  (* recovery stopped here: finding already emitted *)

type block = {
  start : int;
  body : (int * Insn.t) list;  (* straight-line prefix, in order *)
  term_pc : int;  (* pc of the terminating instruction *)
  term : terminator;
}

type t = {
  comp : string;
  lo : int;  (* code region [lo, hi) *)
  hi : int;
  nodes : block array;  (* every block, numbered by ascending leader pc *)
  node_at : int array;
      (* (pc - lo) / 4 -> the number of the block led at pc, or -1 *)
  entries : int list;
  findings : Rules.finding list;
}

(* The number of the block led at [pc] (its index in [nodes]), or -1
   when no block starts there. *)
let node t pc =
  let d = pc - t.lo in
  if d >= 0 && d land 3 = 0 && d lsr 2 < Array.length t.node_at then
    t.node_at.(d lsr 2)
  else -1

(* The block led at [pc], if any. *)
let find t pc =
  let k = node t pc in
  if k < 0 then None else Some t.nodes.(k)

(* Direct static successors of a block, posture- and context-preserving:
   fall-throughs, both branch arms, direct jump/call targets and call
   continuations.  Indirect (`Jalr`) targets are not static; only the
   call continuation is followed. *)
let block_succs (b : block) =
  match b.term with
  | T_fall next -> [ next ]
  | T_branch target -> [ target; b.term_pc + 4 ]
  | T_jal (0, target) -> [ target ]
  | T_jal (_, target) -> [ target; b.term_pc + 4 ]
  | T_jalr (0, _, _) -> []
  | T_jalr (_, _, _) -> [ b.term_pc + 4 ]
  | T_halt | T_stop -> []

(* A return: an unlinked indirect jump through the link register. *)
let is_return (b : block) =
  match b.term with
  | T_jalr (0, rs1, 0) -> rs1 = Insn.reg_ra
  | _ -> false

let is_block_end (i : Insn.t) =
  match i with
  | Jal _ | Jalr _ | Branch _ | Ebreak | Ecall | Mret -> true
  | _ -> false

let build ~comp ~sram ~lo ~hi ~entries =
  let findings = ref [] in
  let flagged = Hashtbl.create 8 in
  let emit pc rule detail =
    if not (Hashtbl.mem flagged (rule, pc)) then begin
      Hashtbl.replace flagged (rule, pc) ();
      findings := Rules.v ~pc ~compartment:comp rule detail :: !findings
    end
  in
  let insns : (int, Insn.t) Hashtbl.t = Hashtbl.create 64 in
  let leaders = Hashtbl.create 16 in
  let worklist = Queue.create () in
  let add_leader pc =
    if not (Hashtbl.mem leaders pc) then begin
      Hashtbl.replace leaders pc ();
      Queue.push pc worklist
    end
  in
  let in_region pc = pc >= lo && pc < hi in
  (* A direct Jal/Branch target must stay in-region and 4-aligned. *)
  let direct_target pc target =
    if not (in_region target) then begin
      emit pc Rules.cfg_direct_cross
        (Printf.sprintf "target 0x%x outside code region [0x%x, 0x%x)" target
           lo hi);
      None
    end
    else if target land 3 <> 0 then begin
      emit pc Rules.cfg_direct_cross
        (Printf.sprintf "misaligned target 0x%x" target);
      None
    end
    else begin
      add_leader target;
      Some target
    end
  in
  List.iter add_leader entries;
  (* Pass 1: reachability-driven linear decode from every leader. *)
  while not (Queue.is_empty worklist) do
    let pc = ref (Queue.pop worklist) in
    let stop = ref false in
    while not !stop do
      if Hashtbl.mem insns !pc then stop := true
      else if not (in_region !pc) then begin
        emit !pc Rules.cfg_fallthrough_exit
          (Printf.sprintf "straight-line execution reaches 0x%x past region \
                           end 0x%x"
             !pc hi);
        stop := true
      end
      else
        match Encode.decode (Cheriot_mem.Sram.read32 sram !pc) with
        | None ->
            emit !pc Rules.cfg_undecodable
              (Printf.sprintf "word 0x%08x does not decode"
                 (Cheriot_mem.Sram.read32 sram !pc));
            stop := true
        | Some i ->
            Hashtbl.replace insns !pc i;
            (match i with
            | Insn.Jal (rd, off) ->
                ignore (direct_target !pc (!pc + off));
                if rd <> 0 then add_leader (!pc + 4);
                stop := true
            | Insn.Branch (_, _, _, off) ->
                ignore (direct_target !pc (!pc + off));
                add_leader (!pc + 4);
                stop := true
            | Insn.Jalr (rd, _, _) ->
                if rd <> 0 then add_leader (!pc + 4);
                stop := true
            | Insn.Ebreak | Insn.Ecall | Insn.Mret -> stop := true
            | _ -> pc := !pc + 4)
    done
  done;
  (* Pass 2: carve blocks at leaders. *)
  let carve leader =
    let body = ref [] in
    let rec walk pc =
      match Hashtbl.find_opt insns pc with
      | None ->
          (* recovery stopped at [pc]: undecodable or fell off the
             region; the finding is already recorded *)
          { start = leader; body = List.rev !body; term_pc = pc;
            term = T_stop }
      | Some i when is_block_end i ->
          let term =
            match i with
            | Insn.Jal (rd, off) -> (
                let target = pc + off in
                if target >= lo && target < hi && target land 3 = 0 then
                  T_jal (rd, target)
                else T_stop (* flagged cross edge: not followed *))
            | Insn.Branch (_, _, _, off) -> (
                let target = pc + off in
                if target >= lo && target < hi && target land 3 = 0 then
                  T_branch target
                else T_stop)
            | Insn.Jalr (rd, rs1, off) -> T_jalr (rd, rs1, off)
            | _ -> T_halt
          in
          { start = leader; body = List.rev !body; term_pc = pc; term }
      | Some i ->
          if pc <> leader && Hashtbl.mem leaders pc then
            { start = leader; body = List.rev !body; term_pc = pc;
              term = T_fall pc }
          else begin
            body := (pc, i) :: !body;
            walk (pc + 4)
          end
    in
    walk leader
  in
  (* Number the blocks, for the auditor's worklist and for a pc lookup
     that hashes nothing.  Every leader is a word of [lo, hi]: one
     inside the region was decoded, which takes an aligned [read32], and
     is reached from an export label (a word of the image) by whole
     words or is a direct target checked aligned; one past the region
     is [hi] itself, a label at the image's end or the fall-through of
     its last word. *)
  let nodes =
    Array.of_list
      (List.sort
         (fun a b -> Int.compare a.start b.start)
         (Hashtbl.fold (fun leader () l -> carve leader :: l) leaders []))
  in
  let node_at = Array.make (((max 0 (hi - lo) + 3) / 4) + 1) (-1) in
  Array.iteri
    (fun i b ->
      let d = b.start - lo in
      assert (d >= 0 && d land 3 = 0);
      node_at.(d lsr 2) <- i)
    nodes;
  { comp; lo; hi; nodes; node_at; entries; findings = List.rev !findings }
