type space = Exec | Data

(* An immediate int: 0 is unsealed, [n] the executable otype [n] and
   [8 + n] the data otype [n].  The namespace is kept beside the 3-bit
   value so that [space] and [sentry_of_otype] need no permission set,
   and polymorphic compare orders otypes unsealed, then executable, then
   data, as it ordered the variant this replaced, so nothing that sorts
   by it changes order. *)
type t = int

let unsealed = 0
let[@inline] tagged space n = match space with Exec -> n | Data -> 8 + n

let v space n =
  if n < 1 || n > 7 then invalid_arg "Otype.v: value must be in 1..7";
  tagged space n

let[@inline] is_unsealed o = o = 0
let space o = if o = 0 then None else if o < 8 then Some Exec else Some Data
let[@inline] value o = o land 7

let[@inline] of_bits space bits =
  match bits land 7 with 0 -> 0 | n -> tagged space n

let equal = Int.equal

let pp fmt o =
  match space o with
  | None -> Format.pp_print_string fmt "unsealed"
  | Some Exec -> Format.fprintf fmt "exec:%d" (value o)
  | Some Data -> Format.fprintf fmt "data:%d" (value o)

type sentry =
  | Sentry_inherit
  | Sentry_enable
  | Sentry_disable
  | Sentry_ret_enable
  | Sentry_ret_disable

let sentry_otype = function
  | Sentry_inherit -> 1
  | Sentry_enable -> 2
  | Sentry_disable -> 3
  | Sentry_ret_enable -> 4
  | Sentry_ret_disable -> 5

let sentry_of_otype = function
  | 1 -> Some Sentry_inherit
  | 2 -> Some Sentry_enable
  | 3 -> Some Sentry_disable
  | 4 -> Some Sentry_ret_enable
  | 5 -> Some Sentry_ret_disable
  | _ -> None

let return_sentry ~interrupts_enabled =
  if interrupts_enabled then Sentry_ret_enable else Sentry_ret_disable
