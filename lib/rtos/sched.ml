(** The multitasking scheduler (paper 2.6).

    Threads and compartments are orthogonal: at any time the core runs
    one thread inside one compartment.  This scheduler provides
    priority-based preemptive scheduling with a deterministic
    context-switch cost: saving and restoring the sixteen capability
    registers, the PCC and the machine CSRs — plus the two extra stack
    high-water-mark CSRs when that assist is enabled, a cost visible in
    the paper's Table 4 at 128 KiB (7.2.2). *)

type state = Ready | Running | Sleeping of int  (** wake cycle *)

type thread = {
  tid : int;
  tname : string;
  priority : int;  (** higher runs first *)
  stack : Switcher.stack;
  mutable tstate : state;
}

type t = {
  clock : Clock.t;
  hwm_enabled : bool;
  mutable threads : thread list;
  mutable current : thread option;
  mutable context_switches : int;
  mutable idle_cycles : int;
}

let create ?(hwm_enabled = false) clock =
  {
    clock;
    hwm_enabled;
    threads = [];
    current = None;
    context_switches = 0;
    idle_cycles = 0;
  }

let ctx_switch_cost t =
  (* 15 capability registers + PCC out and in, plus CSRs. *)
  let caps = 2 * 16 in
  let csrs = 2 * (4 + if t.hwm_enabled then 2 else 0) in
  let beats = 8 / t.clock.Clock.params.bus_bytes in
  (caps * beats) + csrs + 12

let spawn t ~name ~priority ~stack =
  let th =
    {
      tid = List.length t.threads + 1;
      tname = name;
      priority;
      stack;
      tstate = Ready;
    }
  in
  t.threads <- t.threads @ [ th ];
  th

let context_switches t = t.context_switches
let idle_cycles t = t.idle_cycles

let switch_to t th =
  if t.current != Some th then begin
    t.context_switches <- t.context_switches + 1;
    let c = ctx_switch_cost t in
    Clock.advance t.clock c ~mem_busy:(c / 2);
    (match t.current with
    | Some cur when cur.tstate = Running -> cur.tstate <- Ready
    | Some _ | None -> ());
    th.tstate <- Running;
    t.current <- Some th
  end

let wake_ready t now =
  List.iter
    (fun th ->
      match th.tstate with
      | Sleeping at when at <= now -> th.tstate <- Ready
      | Sleeping _ | Ready | Running -> ())
    t.threads

let pick t =
  let ready =
    List.filter (fun th -> th.tstate = Ready || th.tstate = Running) t.threads
  in
  match ready with
  | [] -> None
  | _ ->
      Some
        (List.fold_left
           (fun best th -> if th.priority > best.priority then th else best)
           (List.hd ready) (List.tl ready))

(** Advance to the next interesting time: if a thread is ready, the
    caller should run it; otherwise burn idle cycles (granted to the
    background revoker) until the next sleeper wakes. *)
let idle_to_next_wake t =
  let now = Clock.cycles t.clock in
  let next =
    List.fold_left
      (fun acc th ->
        match th.tstate with
        | Sleeping at -> ( match acc with None -> Some at | Some a -> Some (min a at))
        | Ready | Running -> acc)
      None t.threads
  in
  match next with
  | Some at when at > now ->
      let n = at - now in
      Clock.advance t.clock n;
      t.idle_cycles <- t.idle_cycles + n;
      wake_ready t at;
      true
  | Some _ ->
      wake_ready t now;
      true
  | None -> false

let sleep_until th at = th.tstate <- Sleeping at
