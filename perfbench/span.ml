(* In-memory span recorder for the traced run.

   A span is one call into a layer, timed from the benchmark's side of
   the boundary: name, program/image id, start, end and the span that
   was open when it started.  Spans are only recorded while [enabled];
   otherwise [timed] just measures the call.  Everything stays in memory
   until [write] dumps it as JSON lines at the end of the run. *)

type t = {
  id : int;
  name : string;
  obj : string;  (** program or image id; "" when the span has none *)
  parent : int;  (** 0 = top level *)
  probe : bool;
      (** extra work done only in the traced run (a re-measurement of a
          call the untraced run makes inside another layer); excluded
          when the traced and untraced runs are compared *)
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 1
let open_stack : int list ref = ref []
let now = Unix.gettimeofday

(** [timed ?obj ?probe name f] runs [f] and returns its result with its
    wall time in seconds, recording a span when tracing is on. *)
let timed ?(obj = "") ?(probe = false) name f =
  if not !enabled then begin
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> 0 in
    let s = { id; name; obj; parent; probe; t0 = now (); t1 = 0. } in
    open_stack := id :: !open_stack;
    let close () =
      s.t1 <- now ();
      open_stack := List.tl !open_stack;
      recorded := s :: !recorded
    in
    match f () with
    | r ->
        close ();
        (r, s.t1 -. s.t0)
    | exception e ->
        close ();
        raise e
  end

let dur s = s.t1 -. s.t0

(** Spans recorded since id [mark] (use [!next_id] as a mark). *)
let since mark = List.filter (fun s -> s.id >= mark) !recorded

(** Per span name over [spans]: (total duration, self time, count).
    Self time is a span's duration minus the time its children cover;
    children never overlap (one thread), so that is a plain sum. *)
let aggregate spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      let tot, slf, n =
        Option.value ~default:(0., 0., 0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (tot +. dur s, slf +. self, n + 1))
    spans;
  by_name

let probe_time spans =
  List.fold_left (fun a s -> if s.probe then a +. dur s else a) 0. spans

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Write every recorded span, oldest first, as one JSON object per
    line; times are microseconds since [origin]. *)
let write ~origin path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%s,\"obj\":%s,\"parent\":%d,\"probe\":%b,\"start_us\":%.1f,\"end_us\":%.1f}\n"
        s.id (json_string s.name) (json_string s.obj) s.parent s.probe
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. origin) *. 1e6))
    (List.rev !recorded);
  close_out oc
