let bfs_distances g src =
  let n = Graph.num_nodes g in
  let dist = Array.make n max_int in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    let du = dist.(u) in
    List.iter
      (fun (_, (v, _)) ->
        if dist.(v) = max_int then begin
          dist.(v) <- du + 1;
          Queue.add v q
        end)
      (Graph.wired_ports g u)
  done;
  dist

let distance g a b =
  let d = (bfs_distances g a).(b) in
  if d = max_int then None else Some d

(* One BFS per node, all over a flattened adjacency ([adj] from
   [off.(u)] to [off.(u+1)]) with one distance array and one int-array
   queue reused across sources. *)
let diameter g =
  let n = Graph.num_nodes g in
  let off = Array.make (n + 1) 0 in
  let ports = Array.init n (Graph.wired_ports g) in
  Array.iteri (fun u ps -> off.(u + 1) <- off.(u) + List.length ps) ports;
  let adj = Array.make off.(n) 0 in
  Array.iteri
    (fun u ps -> List.iteri (fun k (_, (v, _)) -> adj.(off.(u) + k) <- v) ps)
    ports;
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  let best = ref 0 in
  for src = 0 to n - 1 do
    Array.fill dist 0 n (-1);
    dist.(src) <- 0;
    queue.(0) <- src;
    let tail = ref 1 in
    let i = ref 0 in
    while !i < !tail do
      let u = queue.(!i) in
      incr i;
      let du = dist.(u) + 1 in
      for k = off.(u) to off.(u + 1) - 1 do
        let v = adj.(k) in
        if dist.(v) < 0 then begin
          dist.(v) <- du;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    (* BFS settles nodes in distance order: the last one is farthest. *)
    best := max !best dist.(queue.(!tail - 1))
  done;
  !best

let components g =
  let n = Graph.num_nodes g in
  let seen = Array.make n false in
  let comps = ref [] in
  for start = 0 to n - 1 do
    if not seen.(start) then begin
      let dist = bfs_distances g start in
      let comp = ref [] in
      for v = n - 1 downto 0 do
        if dist.(v) <> max_int && not seen.(v) then begin
          seen.(v) <- true;
          comp := v :: !comp
        end
      done;
      comps := !comp :: !comps
    end
  done;
  List.rev !comps

let component_of g n =
  let dist = bfs_distances g n in
  let acc = ref [] in
  for v = Array.length dist - 1 downto 0 do
    if dist.(v) <> max_int then acc := v :: !acc
  done;
  !acc

let is_connected g =
  Graph.num_nodes g <= 1 || List.length (components g) = 1

let farthest_switch_from_hosts g ~ignore =
  let considered_hosts =
    List.filter (fun h -> not (List.mem h ignore)) (Graph.hosts g)
  in
  match (Graph.switches g, considered_hosts) with
  | [], _ | _, [] -> None
  | sws, hs ->
    (* Multi-source BFS from all considered hosts at once. *)
    let n = Graph.num_nodes g in
    let dist = Array.make n max_int in
    let q = Queue.create () in
    List.iter
      (fun h ->
        dist.(h) <- 0;
        Queue.add h q)
      hs;
    while not (Queue.is_empty q) do
      let u = Queue.take q in
      List.iter
        (fun (_, (v, _)) ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
        (Graph.wired_ports g u)
    done;
    let best =
      List.fold_left
        (fun best s ->
          if dist.(s) = max_int then best
          else
            match best with
            | Some (_, d) when d >= dist.(s) -> best
            | _ -> Some (s, dist.(s)))
        None sws
    in
    Option.map fst best

let hop_histogram g src =
  let dist = bfs_distances g src in
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun d ->
      if d <> max_int then
        Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
    dist;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort compare

(* Weighted link ranking: the telemetry layer scores each wire (by
   occupancy, transit counts, route loads, ...) and this orders them
   hottest first, ties broken by the canonical end pair so post-mortem
   renderings are stable across runs. *)
let hottest_links g ~weight =
  Graph.wires g
  |> List.map (fun ends -> (ends, weight ends))
  |> List.sort (fun (ea, wa) (eb, wb) ->
         match compare wb wa with 0 -> compare ea eb | c -> c)
