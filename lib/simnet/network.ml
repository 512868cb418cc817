open San_topology

type response = Switch | Host of string | Nothing

type t = {
  net_graph : Graph.t;
  net_params : Params.t;
  responding : Graph.node -> bool;
  slowdown : float;
  jitter : (float * San_util.Prng.t) option;
  traffic : (float * San_util.Prng.t) option;
  run_bias : float;
  net_stats : Stats.t;
  net_fabric : San_telemetry.Fabric_stats.t option;
  walker : Worm.walker;  (* the last probe's channels *)
  collide : Collision.t;
}

let create ?(model = Collision.Circuit) ?(params = Params.default)
    ?(responding = fun _ -> true) ?(software_slowdown = 1.0) ?jitter ?traffic
    ?fabric g =
  let run_bias =
    (* Per-run correlated load level: most runs sit within ±frac/2 of
       nominal; roughly one in ten lands on a busy machine and pays up
       to 3*frac more (the skew visible in the paper's max columns). *)
    match jitter with
    | None -> 1.0
    | Some (frac, rng) ->
      let base =
        1.0 +. (0.5 *. frac *. ((2.0 *. San_util.Prng.float rng 1.0) -. 1.0))
      in
      if San_util.Prng.float rng 1.0 < 0.1 then
        base +. (3.0 *. frac *. San_util.Prng.float rng 1.0)
      else base
  in
  {
    net_graph = g;
    net_params = params;
    responding;
    slowdown = software_slowdown;
    jitter;
    traffic;
    run_bias;
    net_stats = Stats.create ();
    net_fabric =
      (match fabric with
      | Some _ as f -> f
      | None -> San_telemetry.Fabric_stats.current ());
    walker = Worm.walker ();
    collide = Collision.create model params;
  }

(* Cross-traffic: a probe survives each wire crossing independently.
   [crossings] should count the full round trip, since the reply worm
   shares the fabric too. *)
let survives_traffic t ~crossings =
  match t.traffic with
  | None -> true
  | Some (p, rng) ->
    let q = (1.0 -. p) ** float_of_int crossings in
    San_util.Prng.float rng 1.0 < q

let jittered t cost =
  match t.jitter with
  | None -> cost
  | Some (frac, rng) ->
    cost *. t.run_bias
    *. (1.0 +. (0.5 *. frac *. ((2.0 *. San_util.Prng.float rng 1.0) -. 1.0)))

let graph t = t.net_graph
let stats t = t.net_stats
let params t = t.net_params
let model t = Collision.model t.collide
let reset_stats t = Stats.reset t.net_stats

(* Per-channel accounting for the analytic front end: every wire
   crossing the worm actually made transits the forward channel (the
   hop's exit end); a hit means the reply retraced, transiting each
   reverse channel (the hop's entry end) too. *)
let fabric_transits t ~reply =
  match t.net_fabric with
  | None -> ()
  | Some f ->
    let w = t.walker in
    for i = 0 to Worm.hops w - 1 do
      San_telemetry.Fabric_stats.transit f (Worm.exit_end w i);
      if reply then San_telemetry.Fabric_stats.transit f (Worm.entry_end w i)
    done

let probe_cost_hit t ~hops =
  let p = t.net_params in
  (t.slowdown *. (p.send_overhead_ns +. p.recv_overhead_ns))
  +. (float_of_int hops *. Params.hop_latency_ns p)
  +. p.reply_overhead_ns

let probe_cost_miss t =
  let p = t.net_params in
  (t.slowdown *. p.send_overhead_ns) +. p.probe_timeout_ns

(* Single accounting point for every probe the fabric serves: the
   per-network [Stats] record stays the per-run compatibility view
   (walk and loop probes count in the host and switch columns they
   occupy on the wire), while the global registry and tracer see the
   finer-grained kind. Charges [cost] (jittered) and answers it. *)
let account t ~(kind : San_obs.Trace.probe_kind) ~hit cost =
  let cost = jittered t cost in
  (* A hit's reply retraces the walk, except a loopback's: its route
     already contains its own retrace, so the walk is the whole
     journey. *)
  fabric_transits t ~reply:(hit && kind <> San_obs.Trace.Switch);
  let st = t.net_stats in
  let host =
    match kind with
    | San_obs.Trace.Host | San_obs.Trace.Walk -> true
    | San_obs.Trace.Switch | San_obs.Trace.Loop -> false
  in
  if host then begin
    st.Stats.host_probes <- st.Stats.host_probes + 1;
    if hit then st.Stats.host_hits <- st.Stats.host_hits + 1
  end
  else begin
    st.Stats.switch_probes <- st.Stats.switch_probes + 1;
    if hit then st.Stats.switch_hits <- st.Stats.switch_hits + 1
  end;
  Stats.add_time st cost;
  if San_obs.Obs.on () then begin
    San_obs.Obs.count (if host then "net.host_probes" else "net.switch_probes");
    if hit then
      San_obs.Obs.count (if host then "net.host_hits" else "net.switch_hits");
    San_obs.Obs.observe "net.probe_cost_ns" cost;
    San_obs.Obs.emit (San_obs.Trace.Probe_sent { kind; hit; cost_ns = cost })
  end;
  cost

let miss t ~kind = account t ~kind ~hit:false (probe_cost_miss t)

(* A hit's reply retraces the request, so the exchange crosses [hops]
   wires twice. *)
let round_trip t ~kind ~hops =
  account t ~kind ~hit:true (probe_cost_hit t ~hops:(2 * hops))

let host_probe t ~src ~turns =
  let w = t.walker in
  Worm.walk w t.net_graph ~src ~turns:(Route.host_probe turns);
  let kind = San_obs.Trace.Host in
  match Worm.ending w with
  | Worm.Reached_host
    when (not
            (Collision.host_probe_blocks ?fabric:t.net_fabric t.collide w))
         && t.responding (Worm.at w)
         && survives_traffic t ~crossings:(2 * Worm.hops w) ->
    let name = Graph.name t.net_graph (Worm.at w) in
    let cost = round_trip t ~kind ~hops:(Worm.hops w) in
    (Host name, cost)
  | _ -> (Nothing, miss t ~kind)

let walk_probe t ~src ~turns =
  let w = t.walker in
  Worm.walk w t.net_graph ~src ~turns;
  let kind = San_obs.Trace.Walk in
  let consumed =
    match Worm.ending w with
    | Worm.Reached_host when t.responding (Worm.at w) -> List.length turns
    | Worm.Host_too_soon when t.responding (Worm.at w) ->
      (* The §6 firmware tweak: the host reads the early worm and
         answers with its identity and the consumed prefix length. *)
      Worm.index w
    | _ -> -1
  in
  if
    consumed >= 0
    && (not (Collision.host_probe_blocks ?fabric:t.net_fabric t.collide w))
    && survives_traffic t ~crossings:(2 * Worm.hops w)
  then begin
    let name = Graph.name t.net_graph (Worm.at w) in
    let cost = round_trip t ~kind ~hops:(Worm.hops w) in
    (Some (name, consumed), cost)
  end
  else (None, miss t ~kind)

let loop_probe t ~src ~turns ~turn =
  let w = t.walker in
  let g = t.net_graph in
  Worm.walk w g ~src ~turns;
  let kind = San_obs.Trace.Loop in
  let hops = Worm.hops w in
  let reentry =
    match Worm.ending w with
    | Worm.Stopped_at_switch -> (
      (* The worm's head sits at [sw], which it entered through the
         last hop's entry end. *)
      let sw = Worm.at w in
      let out_port = snd (Worm.entry_end w (hops - 1)) + turn in
      if out_port < 0 || out_port >= Graph.radix g then None
      else
        match Graph.peer g sw out_port with
        | Some (peer, q) when peer = sw -> Some (q - out_port)
        | Some _ | None -> None)
    | _ -> None
  in
  match reentry with
  | Some d when survives_traffic t ~crossings:(2 * (hops + 1)) ->
    let cost = round_trip t ~kind ~hops:(hops + 1) in
    (Some d, cost)
  | Some _ | None -> (None, miss t ~kind)

let switch_probe t ~src ~turns =
  let w = t.walker in
  Worm.walk_loopback w t.net_graph ~src ~turns;
  let kind = San_obs.Trace.Switch in
  match Worm.ending w with
  | Worm.Reached_host
    when Worm.at w = src
         && (not
               (Collision.switch_probe_blocks ?fabric:t.net_fabric t.collide
                  ~forward_hops:(List.length turns + 1) w))
         && survives_traffic t ~crossings:(Worm.hops w) ->
    (Switch, account t ~kind ~hit:true (probe_cost_hit t ~hops:(Worm.hops w)))
  | _ -> (Nothing, miss t ~kind)
