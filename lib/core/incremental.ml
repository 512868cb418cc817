open San_topology
open San_simnet

type verdict = Unchanged | Changed of int

type result = {
  verdict : verdict;
  verify_probes : int;
  remap_probes : int;
  verify_elapsed_ns : float;
  total_elapsed_ns : float;
  map : (Graph.t, string) Stdlib.result;
}

(* For every switch of the map, a route (turn string) from the mapper
   and the port by which that route enters it — BFS over the map. *)
let switch_routes map ~mapper_m =
  let routes = Hashtbl.create 64 in
  (* mapper's switch: empty route, entered at its port towards the
     mapper host *)
  (match Graph.neighbor map (mapper_m, 0) with
  | None -> ()
  | Some (sw0, entry0) ->
    Hashtbl.replace routes sw0 ([], entry0);
    let q = Queue.create () in
    Queue.add sw0 q;
    while not (Queue.is_empty q) do
      let sw = Queue.take q in
      let turns, entry = Hashtbl.find routes sw in
      List.iter
        (fun (p, (peer, peer_port)) ->
          if
            (not (Graph.is_host map peer))
            && (not (Hashtbl.mem routes peer))
            && peer <> sw
          then begin
            Hashtbl.replace routes peer (turns @ [ p - entry ], peer_port);
            Queue.add peer q
          end)
        (Graph.wired_ports map sw)
    done);
  routes

let run ?policy ?depth ?remap net ~mapper ~previous =
  let g = Network.graph net in
  Network.reset_stats net;
  let full ~verify_probes ~verify_elapsed ~discrepancies =
    let map, remap_probes, remap_elapsed =
      match remap with
      | Some f -> f ~discrepancies
      | None ->
        let r = Berkeley.run ?policy ?depth net ~mapper in
        (r.Berkeley.map, Berkeley.total_probes r, r.Berkeley.elapsed_ns)
    in
    {
      verdict = Changed discrepancies;
      verify_probes;
      remap_probes;
      verify_elapsed_ns = verify_elapsed;
      total_elapsed_ns = verify_elapsed +. remap_elapsed;
      map;
    }
  in
  match Graph.host_by_name previous (Graph.name g mapper) with
  | None -> full ~verify_probes:0 ~verify_elapsed:0.0 ~discrepancies:1
  | Some mapper_m ->
    let routes = switch_routes previous ~mapper_m in
    let elapsed = ref 0.0 in
    let probes = ref 0 in
    let discrepancies = ref 0 in
    let check_port sw (turns, entry) p =
      let turn = p - entry in
      if turn <> 0 then begin
        incr probes;
        let expected = Graph.neighbor previous (sw, p) in
        match expected with
        | Some (peer, _) when Graph.is_host previous peer ->
          let resp, cost =
            Network.host_probe net ~src:mapper ~turns:(turns @ [ turn ])
          in
          elapsed := !elapsed +. cost;
          (match resp with
          | Network.Host name when name = Graph.name previous peer -> ()
          | Network.Host _ | Network.Switch | Network.Nothing ->
            incr discrepancies)
        | Some _ ->
          let resp, cost =
            Network.switch_probe net ~src:mapper ~turns:(turns @ [ turn ])
          in
          elapsed := !elapsed +. cost;
          (match resp with
          | Network.Switch -> ()
          | Network.Host _ | Network.Nothing -> incr discrepancies)
        | None -> (
          (* A vacancy: neither probe of the pair may answer. *)
          let sresp, scost =
            Network.switch_probe net ~src:mapper ~turns:(turns @ [ turn ])
          in
          elapsed := !elapsed +. scost;
          match sresp with
          | Network.Switch -> incr discrepancies
          | Network.Host _ | Network.Nothing -> (
            let hresp, hcost =
              Network.host_probe net ~src:mapper ~turns:(turns @ [ turn ])
            in
            elapsed := !elapsed +. hcost;
            match hresp with
            | Network.Host _ -> incr discrepancies
            | Network.Switch | Network.Nothing -> ()))
      end
    in
    (* Visit switches in BFS discovery order so early route breakage is
       detected before probing through it matters less. *)
    Hashtbl.iter
      (fun sw route ->
        for p = 0 to Graph.radix previous - 1 do
          check_port sw route p
        done)
      routes;
    (* Switches unreachable in the map would already make it suspect. *)
    if Hashtbl.length routes <> Graph.num_switches previous then
      incr discrepancies;
    (* A map with no switch has no routes to verify through: the
       mapper's own switch was gone. Send the empty-turn switch probe
       the mapper starts from; an answer means that switch is back. *)
    if Graph.num_switches previous = 0 then begin
      incr probes;
      let resp, cost = Network.switch_probe net ~src:mapper ~turns:[] in
      elapsed := !elapsed +. cost;
      if resp = Network.Switch then incr discrepancies
    end;
    San_obs.Obs.emit
      (San_obs.Trace.Epoch_started
         {
           name = (if !discrepancies = 0 then "verified" else "remap");
           discrepancies = !discrepancies;
         });
    San_obs.Obs.count "epoch.verifications";
    if !discrepancies = 0 then
      {
        verdict = Unchanged;
        verify_probes = !probes;
        remap_probes = 0;
        verify_elapsed_ns = !elapsed;
        total_elapsed_ns = !elapsed;
        map = Ok previous;
      }
    else
      full ~verify_probes:!probes ~verify_elapsed:!elapsed
        ~discrepancies:!discrepancies
