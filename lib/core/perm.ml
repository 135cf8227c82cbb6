type t = GL | LD | SD | MC | SL | LG | LM | EX | SR | SE | US | U0

let all = [ GL; LG; LM; SD; SL; LD; MC; EX; SR; SE; US; U0 ]

let to_string = function
  | GL -> "GL"
  | LD -> "LD"
  | SD -> "SD"
  | MC -> "MC"
  | SL -> "SL"
  | LG -> "LG"
  | LM -> "LM"
  | EX -> "EX"
  | SR -> "SR"
  | SE -> "SE"
  | US -> "US"
  | U0 -> "U0"

let pp fmt p = Format.pp_print_string fmt (to_string p)

(* Architectural bit positions.  GL, LG, LM and SD occupy the lowest bits
   so that single-compressed-instruction masks can clear them (3.2.1). *)
let arch_bit = function
  | GL -> 0
  | LG -> 1
  | LM -> 2
  | SD -> 3
  | SL -> 4
  | LD -> 5
  | MC -> 6
  | EX -> 7
  | SR -> 8
  | SE -> 9
  | US -> 10
  | U0 -> 11

module Set = struct
  type nonrec t = int

  let empty = 0
  let add p s = s lor (1 lsl arch_bit p)
  let mem p s = s land (1 lsl arch_bit p) <> 0
  let remove p s = s land lnot (1 lsl arch_bit p)
  let of_list ps = List.fold_left (fun s p -> add p s) empty ps
  let to_list s = List.filter (fun p -> mem p s) all
  let union = ( lor )
  let inter = ( land )
  let diff a b = a land lnot b
  let subset a b = a land b = a
  let equal = Int.equal
  let cardinal s = List.length (to_list s)

  let pp fmt s =
    Format.fprintf fmt "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_string f " ")
         pp)
      (to_list s)

  let to_arch_bits s = s
  let of_arch_bits bits = bits land 0xfff
end

type format =
  | Mem_cap_rw
  | Mem_cap_ro
  | Mem_cap_wo
  | Mem_no_cap
  | Executable
  | Sealing

let bit n v = (v lsr n) land 1 = 1

(* Fig. 2, top to bottom.  Bit 5 is always GL. *)
let decode bits =
  let s = if bit 5 bits then Set.of_list [ GL ] else Set.empty in
  if bit 4 bits then
    if bit 3 bits then
      (* GL 1 1 SL LM LG : mem-cap-rw, implies LD MC SD *)
      let s = Set.union s (Set.of_list [ LD; MC; SD ]) in
      let s = if bit 2 bits then Set.add SL s else s in
      let s = if bit 1 bits then Set.add LM s else s in
      if bit 0 bits then Set.add LG s else s
    else if bit 2 bits then
      (* GL 1 0 1 LM LG : mem-cap-ro, implies LD MC *)
      let s = Set.union s (Set.of_list [ LD; MC ]) in
      let s = if bit 1 bits then Set.add LM s else s in
      if bit 0 bits then Set.add LG s else s
    else if (not (bit 1 bits)) && not (bit 0 bits) then
      (* GL 1 0 0 0 0 : mem-cap-wo, implies SD MC *)
      Set.union s (Set.of_list [ SD; MC ])
    else
      (* GL 1 0 0 LD SD : mem-no-cap *)
      let s = if bit 1 bits then Set.add LD s else s in
      if bit 0 bits then Set.add SD s else s
  else if bit 3 bits then
    (* GL 0 1 SR LM LG : executable, implies EX LD MC *)
    let s = Set.union s (Set.of_list [ EX; LD; MC ]) in
    let s = if bit 2 bits then Set.add SR s else s in
    let s = if bit 1 bits then Set.add LM s else s in
    if bit 0 bits then Set.add LG s else s
  else
    (* GL 0 0 U0 SE US : sealing *)
    let s = if bit 2 bits then Set.add U0 s else s in
    let s = if bit 1 bits then Set.add SE s else s in
    if bit 0 bits then Set.add US s else s

(* Per-format description: (implied, optional).  A set s is represented by
   a format iff implied ⊆ s and s ⊆ implied ∪ optional ∪ {GL}. *)
let format_spec = function
  | Mem_cap_rw -> (Set.of_list [ LD; MC; SD ], Set.of_list [ SL; LM; LG ])
  | Mem_cap_ro -> (Set.of_list [ LD; MC ], Set.of_list [ LM; LG ])
  | Mem_cap_wo -> (Set.of_list [ SD; MC ], Set.empty)
  | Mem_no_cap -> (Set.empty, Set.of_list [ LD; SD ])
  | Executable -> (Set.of_list [ EX; LD; MC ], Set.of_list [ SR; LM; LG ])
  | Sealing -> (Set.empty, Set.of_list [ U0; SE; US ])

let formats =
  [ Mem_cap_rw; Mem_cap_ro; Mem_cap_wo; Mem_no_cap; Executable; Sealing ]

let representable_in fmt s =
  let implied, optional = format_spec fmt in
  let expressible = Set.add GL (Set.union implied optional) in
  Set.subset implied s && Set.subset s expressible
  &&
  (* mem-cap-wo is the all-optional-zero point of the mem-no-cap shape;
     mem-no-cap must encode at least one of LD/SD to stay distinct. *)
  match fmt with
  | Mem_no_cap -> Set.mem LD s || Set.mem SD s
  | Mem_cap_rw | Mem_cap_ro | Mem_cap_wo | Executable | Sealing -> true

let format_of s = List.find_opt (fun fmt -> representable_in fmt s) formats

let encode s =
  match format_of s with
  | None -> None
  | Some fmt ->
      let gl = if Set.mem GL s then 1 lsl 5 else 0 in
      let b cond n = if cond then 1 lsl n else 0 in
      let bits =
        match fmt with
        | Mem_cap_rw ->
            (1 lsl 4) lor (1 lsl 3)
            lor b (Set.mem SL s) 2
            lor b (Set.mem LM s) 1
            lor b (Set.mem LG s) 0
        | Mem_cap_ro ->
            (1 lsl 4) lor (1 lsl 2)
            lor b (Set.mem LM s) 1
            lor b (Set.mem LG s) 0
        | Mem_cap_wo -> 1 lsl 4
        | Mem_no_cap ->
            (1 lsl 4) lor b (Set.mem LD s) 1 lor b (Set.mem SD s) 0
        | Executable ->
            (1 lsl 3)
            lor b (Set.mem SR s) 2
            lor b (Set.mem LM s) 1
            lor b (Set.mem LG s) 0
        | Sealing ->
            b (Set.mem U0 s) 2 lor b (Set.mem SE s) 1 lor b (Set.mem US s) 0
      in
      Some (gl lor bits)

(* The largest representable subset of s.  Each candidate format whose
   implied permissions are within s contributes implied ∪ (optional ∩ s);
   we keep the candidate with the most permissions.  Ties are broken by
   format order, which prefers more capable memory formats. *)
let legalize s =
  let candidate fmt =
    let implied, optional = format_spec fmt in
    if not (Set.subset implied s) then None
    else
      let kept = Set.union implied (Set.inter optional s) in
      let kept = if Set.mem GL s then Set.add GL kept else kept in
      if representable_in fmt kept then Some kept else None
  in
  let best acc fmt =
    match candidate fmt with
    | None -> acc
    | Some c -> if Set.cardinal c > Set.cardinal acc then c else acc
  in
  List.fold_left best Set.empty formats

let encode_exn s =
  match encode (legalize s) with
  | Some bits -> bits
  | None -> assert false

(* [decode] runs on every read of a capability's permissions from its
   metadata word (each capability-mode access check), [encode]/
   [encode_exn] on every record-to-word pack, and [legalize] on every
   permission derivation ([CAndPerm], the loader's capability
   derivations, load attenuation); the definitions above are bit tests
   and list walks with set algebra per candidate.  A field is 6 bits and
   a set 12, so memoize all four as 64- and 4096-entry tables; results
   are identical by construction. *)
let decode_slow = decode
let encode_slow = encode
let encode_exn_slow = encode_exn
let decode_table = Array.init 64 decode_slow
let[@inline] decode bits = Array.unsafe_get decode_table (bits land 0x3f)

let encode_table =
  Array.init 4096 (fun s -> match encode_slow s with Some b -> b | None -> -1)

let encode_exn_table =
  Array.init 4096 (fun s -> try encode_exn_slow s with Assert_failure _ -> -1)

let legalize_table = Array.init 4096 legalize
let[@inline] legalize s = Array.unsafe_get legalize_table (s land 0xfff)

let encode s =
  let b = encode_table.(s land 0xfff) in
  if b < 0 then None else Some b

let[@inline] encode_exn s =
  let b = Array.unsafe_get encode_exn_table (s land 0xfff) in
  if b >= 0 then b else encode_exn_slow s
