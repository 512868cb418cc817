type edge = Graph.wire_end * Graph.wire_end

(* Edge arrays in Graph.wires' canonical order, for Dense's linear-time
   machinery. Parallel wires get distinct ids, which is what keeps them
   off the bridge list. *)
let edge_arrays g =
  let edges = Array.of_list (Graph.wires g) in
  let ne = Array.length edges in
  let edge_u = Array.make ne 0 in
  let edge_v = Array.make ne 0 in
  Array.iteri
    (fun i (((a, _), (b, _)) : edge) ->
      edge_u.(i) <- a;
      edge_v.(i) <- b)
    edges;
  (edges, edge_u, edge_v)

let bridges g =
  let edges, edge_u, edge_v = edge_arrays g in
  let flags = Dense.bridge_flags ~nodes:(Graph.num_nodes g) ~edge_u ~edge_v in
  let acc = ref [] in
  for id = Array.length edges - 1 downto 0 do
    if flags.(id) then acc := edges.(id) :: !acc
  done;
  !acc

let switch_bridges g =
  List.filter
    (fun (((a, _), (b, _)) : edge) ->
      Graph.kind g a = Graph.Switch && Graph.kind g b = Graph.Switch)
    (bridges g)

(* Theorem 1's F, in one O(V+E) pass instead of a BFS per bridge:
   Dense.separation marks every node some switch-switch bridge
   separates, along with its whole side, from all hosts. *)
let separated_set g =
  let edges, edge_u, edge_v = edge_arrays g in
  let in_f, _ =
    Dense.separation ~nodes:(Graph.num_nodes g) ~edge_u ~edge_v
      ~is_host:(Graph.is_host g)
      ~candidate:(fun id ->
        let (a, _), (b, _) = edges.(id) in
        Graph.kind g a = Graph.Switch && Graph.kind g b = Graph.Switch)
      ~whole_components:false
  in
  in_f

let core_nodes g =
  let in_f = separated_set g in
  List.filter (fun v -> not in_f.(v)) (Graph.nodes g)

let core_is_empty_f g = Array.for_all not (separated_set g)

(* Flow network layout for Q(v):
   nodes 0..n-1 mirror the graph; n = sink-for-root, n+1 = sink-for-any-
   host, n+2 = supersink, n+3 = source. One network per variant serves
   every v: [entry.(u)] is the source->u arc, closed (capacity 0) except
   while u is queried, and [out_arcs.(u)] are u's wire arcs. *)
type network = {
  flow : Flow.t;
  source : int;
  sink : int;
  out_arcs : Flow.arc list array;
  entry : Flow.arc array;
}

let network g ~root ~force_root =
  let n = Graph.num_nodes g in
  let t_root = n and t_any = n + 1 and sink = n + 2 and source = n + 3 in
  let f = Flow.create (n + 4) in
  let out_arcs = Array.make n [] in
  (* A wire's two directed channels are distinct resources: the
     confirming worm travels root->v then v->host and may cross a wire
     once in each direction (the root's own cable does exactly that in
     the first-edge/last-edge case), so each arc carries up to one unit
     per walk — capacity 2. The exception is arcs leaving [v], which
     [solve] narrows to 1: the two walks must depart v through
     different wires, or the concatenated worm would U-turn there (a
     turn-0 hop the mapper never probes mid-route). *)
  let wire a b =
    out_arcs.(a) <- Flow.new_arc f ~src:a ~dst:b ~cap:2 ~cost:1 :: out_arcs.(a)
  in
  List.iter
    (fun (((a, _), (b, _)) : edge) ->
      wire a b;
      wire b a)
    (Graph.wires g);
  if force_root then begin
    Flow.add_arc f ~src:root ~dst:t_root ~cap:1 ~cost:0;
    List.iter
      (fun h -> Flow.add_arc f ~src:h ~dst:t_any ~cap:1 ~cost:0)
      (Graph.hosts g);
    Flow.add_arc f ~src:t_root ~dst:sink ~cap:1 ~cost:0;
    Flow.add_arc f ~src:t_any ~dst:sink ~cap:1 ~cost:0
  end
  else
    List.iter
      (fun h -> Flow.add_arc f ~src:h ~dst:sink ~cap:1 ~cost:0)
      (Graph.hosts g);
  let entry =
    Array.init n (fun u -> Flow.new_arc f ~src:source ~dst:u ~cap:0 ~cost:0)
  in
  { flow = f; source; sink; out_arcs; entry }

let solve net v =
  let set_v ~out ~entry =
    List.iter (fun a -> Flow.set_cap net.flow a out) net.out_arcs.(v);
    Flow.set_cap net.flow net.entry.(v) entry
  in
  set_v ~out:1 ~entry:2;
  let q =
    Flow.min_cost_flow net.flow ~source:net.source ~sink:net.sink ~amount:2
  in
  set_v ~out:2 ~entry:0;
  q

(* Each network is built at most once per call; the fallback only when
   some vertex needs it. *)
let q_of g ~root =
  if not (Graph.is_host g root) then
    invalid_arg "Core_set.q_of: root must be a host";
  let forced = lazy (network g ~root ~force_root:true) in
  let fallback = lazy (network g ~root ~force_root:false) in
  fun v ->
    match solve (Lazy.force forced) v with
    | Some c -> Some c
    | None -> solve (Lazy.force fallback) v

let q_bound g ~root =
  let in_f = separated_set g in
  let q_of = q_of g ~root in
  Graph.fold_nodes g ~init:0 ~f:(fun acc v ->
      if in_f.(v) then acc
      else match q_of v with Some q -> max acc q | None -> acc)

let search_depth g ~root = q_bound g ~root + Analysis.diameter g + 1
