open San_topology

type hop = { exit_end : Graph.wire_end; entry_end : Graph.wire_end }

type outcome =
  | Arrived of Graph.node
  | Illegal_turn of int
  | No_such_wire of int
  | Hit_host_too_soon of int * Graph.node
  | Stranded of Graph.node
  | Unwired_source

type trace = { hops : hop list; outcome : outcome }

type ending =
  | Reached_host
  | Turn_out_of_range
  | Vacant_port
  | Host_too_soon
  | Stopped_at_switch
  | Source_unwired

(* Hop [i] left through channel [exits.(i)] and arrived on
   [entries.(i)]; a channel is the wire end [(node, port)] encoded as
   [node * radix + port]. [turns] holds a loopback's outbound turns,
   read back negated for the retrace. *)
type walker = {
  mutable exits : int array;
  mutable entries : int array;
  mutable turns : int array;
  mutable n_hops : int;
  mutable radix : int;
  mutable ending : ending;
  mutable at : Graph.node;
  mutable index : int;
}

let walker () =
  {
    exits = Array.make 16 0;
    entries = Array.make 16 0;
    turns = Array.make 16 0;
    n_hops = 0;
    radix = 1;
    ending = Source_unwired;
    at = -1;
    index = -1;
  }

let grow a = Array.append a (Array.make (Array.length a) 0)

let push w exit_ch entry_ch =
  if w.n_hops = Array.length w.exits then begin
    w.exits <- grow w.exits;
    w.entries <- grow w.entries
  end;
  w.exits.(w.n_hops) <- exit_ch;
  w.entries.(w.n_hops) <- entry_ch;
  w.n_hops <- w.n_hops + 1

let stop w ending ~at ~index =
  w.ending <- ending;
  w.at <- at;
  w.index <- index

(* Routing flits exhausted with the head at [node]. *)
let exhausted w g node =
  if Graph.is_host g node then stop w Reached_host ~at:node ~index:(-1)
  else stop w Stopped_at_switch ~at:node ~index:(-1)

(* Consume flit [idx] (value [turn]) with the head at [(node, in_port)]:
   the far end of the wire it selects, or [None] once the walk has
   stopped. The far end is the graph's own stored option, so a hop
   allocates nothing. *)
let flit w g node in_port idx turn =
  if Graph.is_host g node then begin
    stop w Host_too_soon ~at:node ~index:idx;
    None
  end
  else
    let out = in_port + turn in
    if out < 0 || out >= w.radix then begin
      stop w Turn_out_of_range ~at:node ~index:idx;
      None
    end
    else
      match Graph.peer g node out with
      | None ->
        stop w Vacant_port ~at:node ~index:idx;
        None
      | Some (n, p) as far ->
        push w ((node * w.radix) + out) ((n * w.radix) + p);
        far

(* The retrace of a loopback: outbound turn [j] negated, for j = k-1
   down to 0. *)
let rec retrace w g node in_port idx j =
  if j < 0 then exhausted w g node
  else
    match flit w g node in_port idx (-w.turns.(j)) with
    | None -> ()
    | Some (n, p) -> retrace w g n p (idx + 1) (j - 1)

let rec outbound w g node in_port idx ~loopback = function
  | [] ->
    if not loopback then exhausted w g node
    else (
      match flit w g node in_port idx 0 with
      | None -> ()
      | Some (n, p) -> retrace w g n p (idx + 1) (idx - 1))
  | turn :: rest -> (
    if loopback then begin
      if idx = Array.length w.turns then w.turns <- grow w.turns;
      w.turns.(idx) <- turn
    end;
    match flit w g node in_port idx turn with
    | None -> ()
    | Some (n, p) -> outbound w g n p (idx + 1) ~loopback rest)

let rec in_alphabet radix = function
  | [] -> true
  | a :: rest -> a > -radix && a < radix && in_alphabet radix rest

let start w g ~src ~turns ~loopback =
  if not (Graph.is_host g src) then invalid_arg "Worm: source must be a host";
  let radix = Graph.radix g in
  if not (in_alphabet radix turns) then
    invalid_arg "Worm: turn outside the radix alphabet";
  w.radix <- radix;
  w.n_hops <- 0;
  match Graph.peer g src 0 with
  | None -> stop w Source_unwired ~at:src ~index:(-1)
  | Some (n, p) ->
    push w (src * radix) ((n * radix) + p);
    outbound w g n p 0 ~loopback turns

let walk w g ~src ~turns = start w g ~src ~turns ~loopback:false
let walk_loopback w g ~src ~turns = start w g ~src ~turns ~loopback:true

let hops w = w.n_hops
let ending w = w.ending
let at w = w.at
let index w = w.index
let exit_channel w i = w.exits.(i)
let entry_channel w i = w.entries.(i)
let wire_end w ch = (ch / w.radix, ch mod w.radix)
let exit_end w i = wire_end w w.exits.(i)
let entry_end w i = wire_end w w.entries.(i)

let outcome w =
  match w.ending with
  | Reached_host -> Arrived w.at
  | Turn_out_of_range -> Illegal_turn w.index
  | Vacant_port -> No_such_wire w.index
  | Host_too_soon -> Hit_host_too_soon (w.index, w.at)
  | Stopped_at_switch -> Stranded w.at
  | Source_unwired -> Unwired_source

let trace w =
  {
    hops =
      List.init w.n_hops (fun i ->
          { exit_end = exit_end w i; entry_end = entry_end w i });
    outcome = outcome w;
  }

let eval g ~src ~turns =
  let w = walker () in
  walk w g ~src ~turns;
  trace w

let path_nodes _g ~src trace =
  src :: List.map (fun h -> fst h.entry_end) trace.hops

let pp_outcome ppf = function
  | Arrived n -> Format.fprintf ppf "arrived at node %d" n
  | Illegal_turn i -> Format.fprintf ppf "illegal turn at index %d" i
  | No_such_wire i -> Format.fprintf ppf "no such wire at index %d" i
  | Hit_host_too_soon (i, n) ->
    Format.fprintf ppf "hit host %d too soon (index %d)" n i
  | Stranded n -> Format.fprintf ppf "stranded at switch %d" n
  | Unwired_source -> Format.fprintf ppf "source host is not wired"
