type model = Circuit | Cut_through

let model_to_string = function
  | Circuit -> "circuit"
  | Cut_through -> "cut-through"

(* [seen.(ch) = epoch] marks channel [ch] as used by the walk under
   check; each check takes a fresh epoch, so nothing is ever cleared.
   [last.(ch)] is the hop index of that use (cut-through only). *)
type t = {
  model : model;
  params : Params.t;
  mutable seen : int array;
  mutable last : int array;
  mutable epoch : int;
}

let create model params =
  { model; params; seen = [||]; last = [||]; epoch = 0 }

let model t = t.model

(* Make channel [ch] addressable; the table grows to the largest wire
   end any checked walk has crossed. *)
let reach t ch =
  if ch >= Array.length t.seen then begin
    let n = max (ch + 1) (2 * Array.length t.seen) in
    let widen a = Array.append a (Array.make (n - Array.length a) 0) in
    t.seen <- widen t.seen;
    t.last <- widen t.last
  end

(* Circuit: the first of hops [i, upto) whose key channel an earlier
   hop already used, or -1. A directed channel is the exit end; a wire
   is named by the smaller of its two ends. *)
let rec first_reuse t w i ~upto ~directed =
  if i >= upto then -1
  else
    let ch =
      if directed then Worm.exit_channel w i
      else min (Worm.exit_channel w i) (Worm.entry_channel w i)
    in
    reach t ch;
    if t.seen.(ch) = t.epoch then i
    else begin
      t.seen.(ch) <- t.epoch;
      first_reuse t w (i + 1) ~upto ~directed
    end

(* Cut-through: the head enters the channel of hop j at time
   j * hop_latency; the tail clears it [drain] later. A reuse at hop
   j > i blocks iff the head returns before the tail cleared. *)
let rec first_early_return t w j ~drain =
  if j >= Worm.hops w then -1
  else
    let ch = Worm.exit_channel w j in
    reach t ch;
    if
      t.seen.(ch) = t.epoch
      && float_of_int (j - t.last.(ch)) *. Params.hop_latency_ns t.params
         < drain
    then j
    else begin
      t.seen.(ch) <- t.epoch;
      t.last.(ch) <- j;
      first_early_return t w (j + 1) ~drain
    end

let blocking_hop t w ~upto ~directed =
  t.epoch <- t.epoch + 1;
  match t.model with
  | Circuit -> first_reuse t w 0 ~upto ~directed
  | Cut_through ->
    let drain =
      Params.worm_drain_ns t.params ~route_flits:(Worm.hops w)
    in
    if drain <= 0.0 then -1 else first_early_return t w 0 ~drain

(* A blocking self-collision is charged to the directed channel the
   head was exiting through when it stepped on its own tail. *)
let record fabric w hop =
  if hop < 0 then false
  else begin
    let fabric =
      match fabric with
      | Some _ -> fabric
      | None -> San_telemetry.Fabric_stats.current ()
    in
    Option.iter
      (fun f -> San_telemetry.Fabric_stats.collision f (Worm.exit_end w hop))
      fabric;
    true
  end

let host_probe_blocks ?fabric t w =
  record fabric w (blocking_hop t w ~upto:(Worm.hops w) ~directed:true)

let switch_probe_blocks ?fabric t ~forward_hops w =
  record fabric w
    (blocking_hop t w ~upto:(min forward_hops (Worm.hops w)) ~directed:false)
