type turn = int
type t = turn list

let host_probe turns = turns

let switch_probe turns = turns @ (0 :: List.rev_map (fun a -> -a) turns)

(* One walk with two cursors: [fast] moves two turns per step, so when
   it has a single turn left [slow] sits on the middle one. [back]
   collects the turns [slow] passed, nearest first — the order in which
   the retrace negates them. *)
let rec split_loopback back slow fast =
  match (slow, fast) with
  | 0 :: retrace, [ _ ] -> if mirrors back retrace then Some back else None
  | a :: slow, _ :: _ :: fast -> split_loopback (a :: back) slow fast
  | _ -> None

and mirrors back retrace =
  match (back, retrace) with
  | [], [] -> true
  | a :: back, b :: retrace -> b = -a && mirrors back retrace
  | _ -> false

let is_switch_probe_shape route = split_loopback [] route route <> None

let forward_of_switch_probe route =
  Option.map List.rev (split_loopback [] route route)

let valid ~radix route =
  List.for_all (fun a -> a > -radix && a < radix) route

let pp ppf route =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '.')
    (fun ppf a -> Format.fprintf ppf "%+d" a)
    ppf route

let to_string route = Format.asprintf "%a" pp route
