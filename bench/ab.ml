(* ab: paired A/B runs of perfbench between two versions of this
   repository.

     dune exec bench/ab.exe -- [--parent REV] [--change REV|.] [--pairs N]
                               [--seed N] WORKLOAD...

   A revision is exported with [git archive] into [_ab/NAME-SHA] under
   the repository root (git-ignored; dune skips [_]-directories) and
   built there.  [--change .], the default, copies the working tree's
   files that git tracks or would track into [_ab/change-worktree]
   instead, so a change can be measured before it is committed, and
   edited while the runs go on.  [--parent] defaults to [HEAD],
   [--pairs] to 10 and [--seed] to 42.

   For each workload the driver runs BENCHMARK.json's command with
   [--workload W --seed N --seconds S --trace 0], S being the
   benchmark's [run_seconds], N times on each side.  It alternates the
   sides, swaps which side goes first in every other pair, and reads
   the JSON line each run prints last.  For every end-to-end metric of
   BENCHMARK.json it prints each side's median and [q1, q3], the pairs
   the change won, and a verdict:
     gain   at least 10 pairs ran, the change won at least 9 in 10 of
            them, and its median is better by more than the parent's
            q3 - q1;
     worse  the change's median is worse than the parent's by more
            than the metric's bound (relative);
     unresolved
            the parent's q3 - q1 is wider than the bound (relative to
            its median), and not every change run beats every parent
            run;
     flat   anything else.
   It also prints every run's failed-check count and the ratio of the
   warm to the cold audit sweep speed, which must stay at least 2.
   Exits 1 if a run crashed or failed a check, a metric came out worse
   or the warm sweep fell under twice the cold one; 2 on a usage
   error.  Every run's stdout and stderr are kept in [_ab/runs/]. *)

(* --- a minimal JSON reader (BENCHMARK.json, perfbench's last line) ------ *)

type json =
  | Num of float
  | Str of string
  | Bool of bool
  | Null
  | Arr of json list
  | Obj of (string * json) list

let parse_json s =
  let n = String.length s and i = ref 0 in
  let peek () = if !i < n then s.[!i] else '\000' in
  let ws () =
    while !i < n && String.contains " \t\r\n" s.[!i] do
      incr i
    done
  in
  let expect c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "json: expected '%c' at %d" c !i);
    incr i
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if !i >= n then failwith "json: unterminated string";
      if peek () = '\\' then incr i;
      Buffer.add_char b (peek ());
      incr i
    done;
    incr i;
    Buffer.contents b
  in
  let rec seq : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    ws ();
    if peek () = close then (incr i; [])
    else
      let x = item () in
      ws ();
      if peek () = ',' then (incr i; x :: seq close item)
      else (expect close; [ x ])
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr i;
        Obj (seq '}' (fun () ->
                 let k = str () in
                 expect ':';
                 (k, value ())))
    | '[' ->
        incr i;
        Arr (seq ']' value)
    | '"' -> Str (str ())
    | 't' -> i := !i + 4; Bool true
    | 'f' -> i := !i + 5; Bool false
    | 'n' -> i := !i + 4; Null
    | _ ->
        let j = !i in
        while !i < n && String.contains "0123456789+-.eE" s.[!i] do
          incr i
        done;
        if !i = j then failwith (Printf.sprintf "json: unexpected '%c' at %d" (peek ()) j);
        Num (float_of_string (String.sub s j (!i - j)))
  in
  value ()

let field k = function
  | Obj kv -> (match List.assoc_opt k kv with Some v -> v | None -> failwith ("json: no " ^ k))
  | _ -> failwith ("json: not an object at " ^ k)

let num = function Num f -> f | _ -> failwith "json: not a number"
let str = function Str s -> s | _ -> failwith "json: not a string"
let arr = function Arr l -> l | _ -> failwith "json: not an array"

(* --- shell helpers ----------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let sh cmd =
  let code = Sys.command cmd in
  if code <> 0 then failwith (Printf.sprintf "command failed (exit %d): %s" code cmd)

let sh_out cmd =
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> String.trim out
  | _ -> failwith ("command failed: " ^ cmd)

(* A version under test: a label and the directory it builds and runs in. *)
type side = { label : string; dir : string }

let checkout ~root ~name rev =
  if rev = "." then begin
    let dir = Filename.concat root "_ab/change-worktree" in
    sh (Printf.sprintf "mkdir -p %s" (Filename.quote dir));
    (* keep [_build], so the rebuild is incremental *)
    sh (Printf.sprintf "find %s -mindepth 1 -maxdepth 1 ! -name _build -exec rm -rf {} +"
          (Filename.quote dir));
    (* a file deleted but not yet staged is listed yet missing: tar
       skips it with a warning *)
    sh (Printf.sprintf
          "cd %s && git ls-files -z -co --exclude-standard | tar -c --null -T - | tar -x -C %s"
          (Filename.quote root) (Filename.quote dir));
    { label = ". (working tree)"; dir }
  end
  else begin
    let sha = sh_out (Printf.sprintf "git -C %s rev-parse --short %s" (Filename.quote root)
                        (Filename.quote (rev ^ "^{commit}"))) in
    let dir = Filename.concat root (Printf.sprintf "_ab/%s-%s" name sha) in
    if not (Sys.file_exists (Filename.concat dir "dune-project")) then begin
      sh (Printf.sprintf "mkdir -p %s" (Filename.quote dir));
      sh (Printf.sprintf "git -C %s archive %s | tar -x -C %s" (Filename.quote root)
            (Filename.quote sha) (Filename.quote dir))
    end;
    { label = Printf.sprintf "%s (%s)" rev sha; dir }
  end

let build s =
  Printf.printf "ab: building %s in %s\n%!" s.label s.dir;
  sh (Printf.sprintf "cd %s && dune build --root . perfbench/main.exe" (Filename.quote s.dir))

(* --- statistics (perfbench's nearest-rank quantiles) --------------------- *)

let nearest_rank q xs =
  let s = List.sort compare xs in
  let n = List.length s in
  List.nth s (max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs =
  let s = List.sort compare xs in
  let n = List.length s in
  if n mod 2 = 1 then List.nth s (n / 2)
  else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* --- runs ---------------------------------------------------------------------- *)

type run = { failed : int; attempted : int; metrics : (string * float) list }

let run_once ~root ~command ~workload ~seed ~seconds ~tag s =
  let log = Filename.concat root (Printf.sprintf "_ab/runs/%s" tag) in
  let args =
    command
    @ [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
        Printf.sprintf "%g" seconds; "--trace"; "0" ]
  in
  let code =
    Sys.command
      (Printf.sprintf "cd %s && %s > %s 2> %s" (Filename.quote s.dir)
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote (log ^ ".out")) (Filename.quote (log ^ ".err")))
  in
  let lines = String.split_on_char '\n' (String.trim (read_file (log ^ ".out"))) in
  match List.rev lines with
  | last :: _ when code = 0 && String.length last > 0 && last.[0] = '{' ->
      let j = parse_json last in
      let metrics =
        match field "metrics" j with
        | Obj kv -> List.map (fun (k, v) -> (k, num (field "value" v))) kv
        | _ -> []
      in
      Some { failed = int_of_float (num (field "failed" j));
             attempted = int_of_float (num (field "attempted" j)); metrics }
  | _ ->
      Printf.printf "ab: %s on %s exited %d without a result (see %s.err)\n%!" workload
        s.label code log;
      None

type metric = { name : string; unit_ : string; higher : bool; bound : float }

let verdict m ~pairs parent change =
  let better a b = if m.higher then a > b else a < b in
  let won = List.length (List.filter (fun (p, c) -> better c p) (List.combine parent change)) in
  let mp = median parent and mc = median change in
  let iqr = nearest_rank 0.75 parent -. nearest_rank 0.25 parent in
  let worse =
    if m.higher then mc < mp *. (1. -. m.bound) else mc > mp *. (1. +. m.bound)
  in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change
  in
  let v =
    if worse then "worse"
    else if
      pairs >= 10 && 10 * won >= 9 * pairs && better mc mp && Float.abs (mc -. mp) > iqr
    then "gain"
    else if iqr > m.bound *. Float.abs mp && not all_better then "unresolved"
    else "flat"
  in
  (won, v)

let report ~workload ~pairs metrics runs =
  Printf.printf "\n%s: %d pairs\n" workload pairs;
  Printf.printf "  %-24s %-8s %-34s %-34s %6s %7s  %s\n" "metric" "unit"
    "parent median [q1, q3]" "change median [q1, q3]" "ratio" "won" "verdict";
  let show xs =
    Printf.sprintf "%.4g [%.4g, %.4g]" (median xs) (nearest_rank 0.25 xs)
      (nearest_rank 0.75 xs)
  in
  let worse = ref false in
  List.iter
    (fun m ->
      let values side =
        List.filter_map (fun r -> List.assoc_opt m.name r.metrics) (List.map side runs)
      in
      let p = values fst and c = values snd in
      if List.length p = pairs && List.length c = pairs then begin
        let won, v = verdict m ~pairs p c in
        if v = "worse" then worse := true;
        Printf.printf "  %-24s %-8s %-34s %-34s %6.3f %4d/%-2d  %s\n" m.name m.unit_ (show p)
          (show c) (median c /. median p) won pairs v
      end
      else Printf.printf "  %-24s %-8s missing from some runs\n" m.name m.unit_)
    metrics;
  let failed side =
    String.concat " "
      (List.map (fun r -> Printf.sprintf "%d/%d" (side r).failed (side r).attempted) runs)
  in
  Printf.printf "  failed checks per run (failed/attempted): parent %s; change %s\n"
    (failed fst) (failed snd);
  (* the incremental auditor's promise: a warm sweep at least twice as
     fast as a cold one *)
  let warm_ratio side =
    let rate k r = Option.value ~default:nan (List.assoc_opt k (side r).metrics) in
    median (List.map (fun r -> rate "audit_warm_images_per_s" r /. rate "audit_images_per_s" r) runs)
  in
  let wp = warm_ratio fst and wc = warm_ratio snd in
  Printf.printf "  audit warm/cold sweep speed (median, must stay >= 2): parent %.2f; change %.2f\n%!"
    wp wc;
  !worse || not (wc >= 2.) || List.exists (fun (p, c) -> p.failed > 0 || c.failed > 0) runs

(* --- driver ------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: ab.exe [--parent REV] [--change REV|.] [--pairs N] [--seed N] \
     WORKLOAD...";
  exit 2

let () =
  let parent = ref "HEAD" and change = ref "." and pairs = ref 10 in
  let seed = ref 42 and workloads = ref [] in
  let pos_int v = match int_of_string_opt v with Some n when n > 0 -> n | _ -> usage () in
  let rec parse = function
    | "--parent" :: v :: rest -> parent := v; parse rest
    | "--change" :: v :: rest -> change := v; parse rest
    | "--pairs" :: v :: rest -> pairs := pos_int v; parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
        parse rest
    | w :: rest when String.length w > 0 && w.[0] <> '-' ->
        workloads := !workloads @ [ w ];
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let root = try sh_out "git rev-parse --show-toplevel" with Failure _ -> usage () in
  let bench = parse_json (read_file (Filename.concat root "BENCHMARK.json")) in
  let known = List.map (fun w -> str (field "name" w)) (arr (field "workloads" bench)) in
  if !workloads = [] || List.exists (fun w -> not (List.mem w known)) !workloads then usage ();
  let command = List.map str (arr (field "command" bench)) in
  let seconds = num (field "run_seconds" bench) in
  let metrics =
    List.map
      (fun j ->
        { name = str (field "name" j); unit_ = str (field "unit" j);
          higher = str (field "better" j) = "higher"; bound = num (field "bound" j) })
      (arr (field "end_to_end" bench))
  in
  let p = checkout ~root ~name:"parent" !parent and c = checkout ~root ~name:"change" !change in
  build p;
  build c;
  sh (Printf.sprintf "mkdir -p %s" (Filename.quote (Filename.concat root "_ab/runs")));
  Printf.printf "ab: parent %s vs change %s; seed %d, %g s runs\n%!" p.label c.label !seed
    seconds;
  let bad = ref false in
  List.iter
    (fun workload ->
      let runs =
        List.filter_map
          (fun i ->
            let go s name =
              let tag = Printf.sprintf "%s-seed%d-%s-%d" workload !seed name i in
              run_once ~root ~command ~workload ~seed:!seed ~seconds ~tag s
            in
            let first_parent = i mod 2 = 0 in
            let a = if first_parent then go p "parent" else go c "change" in
            let b = if first_parent then go c "change" else go p "parent" in
            let pr, cr = if first_parent then (a, b) else (b, a) in
            Printf.printf "ab: %s pair %d/%d done\n%!" workload (i + 1) !pairs;
            match (pr, cr) with
            | Some pr, Some cr -> Some (pr, cr)
            | _ ->
                bad := true;
                None)
          (List.init !pairs Fun.id)
      in
      if runs <> [] then
        if report ~workload ~pairs:(List.length runs) metrics runs then bad := true)
    !workloads;
  exit (if !bad then 1 else 0)
