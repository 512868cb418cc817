open San_topology
open San_simnet

let qcheck t = QCheck_alcotest.to_alcotest t

(* A small reference network:
     h0 - s0(p0); s0(p3) - s1(p5); s1(p0) - h1; s0(p4) - s2(p2)
   Plus a same-switch cable on s2 between ports 5 and 6. *)
let net () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~name:"s0" () in
  let s1 = Graph.add_switch g ~name:"s1" () in
  let s2 = Graph.add_switch g ~name:"s2" () in
  let h0 = Graph.add_host g ~name:"h0" in
  let h1 = Graph.add_host g ~name:"h1" in
  Graph.connect g (h0, 0) (s0, 0);
  Graph.connect g (s0, 3) (s1, 5);
  Graph.connect g (s1, 0) (h1, 0);
  Graph.connect g (s0, 4) (s2, 2);
  Graph.connect g (s2, 5) (s2, 6);
  (g, s0, s1, s2, h0, h1)

(* ---------- route strings ---------- *)

let test_route_shapes () =
  Alcotest.(check (list int)) "host probe" [ 1; -2 ] (Route.host_probe [ 1; -2 ]);
  Alcotest.(check (list int)) "switch probe" [ 1; -2; 0; 2; -1 ]
    (Route.switch_probe [ 1; -2 ]);
  Alcotest.(check bool) "loopback shape recognised" true
    (Route.is_switch_probe_shape [ 1; -2; 0; 2; -1 ]);
  Alcotest.(check bool) "host probe not loopback" false
    (Route.is_switch_probe_shape [ 1; -2 ]);
  Alcotest.(check bool) "wrong middle not loopback" false
    (Route.is_switch_probe_shape [ 1; 3; 0; 2; -1 ]);
  Alcotest.(check (option (list int))) "forward recovered" (Some [ 1; -2 ])
    (Route.forward_of_switch_probe [ 1; -2; 0; 2; -1 ]);
  Alcotest.(check bool) "validity" true (Route.valid ~radix:8 [ 7; -7 ]);
  Alcotest.(check bool) "turn 8 invalid" false (Route.valid ~radix:8 [ 8 ]);
  Alcotest.(check string) "pretty" "+1.-2" (Route.to_string [ 1; -2 ])

(* ---------- worm path semantics (§2.2) ---------- *)

let test_worm_arrives () =
  let g, _, _, _, h0, h1 = net () in
  (* h0 -> s0 (enter port 0), turn +3 -> s1 (enter port 5), turn -5 ->
     port 0 -> h1. *)
  let t = Worm.eval g ~src:h0 ~turns:[ 3; -5 ] in
  (match t.Worm.outcome with
  | Worm.Arrived n -> Alcotest.(check int) "reaches h1" h1 n
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o);
  Alcotest.(check int) "three wire crossings" 3 (List.length t.Worm.hops)

let test_worm_illegal_turn () =
  let g, _, _, _, h0, _ = net () in
  (* Enter s0 at port 0; turn -1 -> port -1: ILLEGAL TURN. *)
  let t = Worm.eval g ~src:h0 ~turns:[ -1 ] in
  (match t.Worm.outcome with
  | Worm.Illegal_turn i -> Alcotest.(check int) "at index 0" 0 i
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o);
  (* Additive, not modular: +7 from port 3 is port 10 -> illegal. *)
  let t2 = Worm.eval g ~src:h0 ~turns:[ 3; 7 ] in
  match t2.Worm.outcome with
  | Worm.Illegal_turn i -> Alcotest.(check int) "at index 1" 1 i
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o

let test_worm_no_such_wire () =
  let g, _, _, _, h0, _ = net () in
  (* s0 port 0+2=2 is vacant. *)
  let t = Worm.eval g ~src:h0 ~turns:[ 2 ] in
  match t.Worm.outcome with
  | Worm.No_such_wire i -> Alcotest.(check int) "index" 0 i
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o

let test_worm_hit_host_too_soon () =
  let g, _, _, _, h0, h1 = net () in
  (* Reaches h1 with one turn left over. *)
  let t = Worm.eval g ~src:h0 ~turns:[ 3; -5; 1 ] in
  match t.Worm.outcome with
  | Worm.Hit_host_too_soon (i, n) ->
    Alcotest.(check int) "host" h1 n;
    Alcotest.(check int) "index" 2 i
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o

let test_worm_stranded () =
  let g, _, s1, _, h0, _ = net () in
  let t = Worm.eval g ~src:h0 ~turns:[ 3 ] in
  match t.Worm.outcome with
  | Worm.Stranded n -> Alcotest.(check int) "at s1" s1 n
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o

let test_worm_zero_turn_bounce () =
  let g, _, _, _, h0, _ = net () in
  (* Loopback: out to s1 and back: 3 0 -3 retraces to h0. *)
  let t = Worm.eval g ~src:h0 ~turns:(Route.switch_probe [ 3 ]) in
  match t.Worm.outcome with
  | Worm.Arrived n -> Alcotest.(check int) "back home" h0 n
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o

let test_worm_same_switch_cable () =
  let g, _, _, s2, h0, _ = net () in
  (* h0 -> s0 (port 0), +4 -> s2 (enter 2), +3 -> port 5 -> cable ->
     re-enter s2 at port 6. *)
  let t = Worm.eval g ~src:h0 ~turns:[ 4; 3 ] in
  (match t.Worm.outcome with
  | Worm.Stranded n -> Alcotest.(check int) "still s2" s2 n
  | o -> Alcotest.failf "unexpected outcome %a" Worm.pp_outcome o);
  match List.rev t.Worm.hops with
  | last :: _ ->
    Alcotest.(check (pair int int)) "re-entered at port 6" (s2, 6) last.Worm.entry_end
  | [] -> Alcotest.fail "no hops"

let test_worm_unwired () =
  let g = Graph.create () in
  let h = Graph.add_host g ~name:"h" in
  let t = Worm.eval g ~src:h ~turns:[ 1 ] in
  Alcotest.(check bool) "unwired source" true (t.Worm.outcome = Worm.Unwired_source)

let test_worm_rejects_bad_args () =
  let g, s0, _, _, h0, _ = net () in
  Alcotest.(check bool) "switch source rejected" true
    (try
       ignore (Worm.eval g ~src:s0 ~turns:[]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "turn outside alphabet rejected" true
    (try
       ignore (Worm.eval g ~src:h0 ~turns:[ 9 ]);
       false
     with Invalid_argument _ -> true)

(* Property: a successful loopback's hop sequence is the forward hops
   followed by their exact reverses. *)
let loopback_palindrome_prop =
  QCheck.Test.make ~name:"loopback retraces its path" ~count:60
    QCheck.(pair small_int (list_of_size Gen.(1 -- 4) (int_range (-7) 7)))
    (fun (seed, turns) ->
      let turns = List.map (fun t -> if t = 0 then 1 else t) turns in
      let rng = San_util.Prng.create (seed + 1) in
      let g =
        Generators.random_connected ~rng ~switches:5 ~hosts:3 ~extra_links:3 ()
      in
      let h0 = Option.get (Graph.host_by_name g "h0") in
      let t = Worm.eval g ~src:h0 ~turns:(Route.switch_probe turns) in
      match t.Worm.outcome with
      | Worm.Arrived n when n = h0 ->
        let hops = Array.of_list t.Worm.hops in
        let m = Array.length hops in
        m mod 2 = 0
        && (let ok = ref true in
            for i = 0 to (m / 2) - 1 do
              let fwd = hops.(i) and bwd = hops.(m - 1 - i) in
              if
                fwd.Worm.exit_end <> bwd.Worm.entry_end
                || fwd.Worm.entry_end <> bwd.Worm.exit_end
              then ok := false
            done;
            !ok)
      | _ -> true)

(* ---------- collision models (§2.3.1) ---------- *)

(* Ring of three switches lets a probe reuse an edge: h0-s0, triangle
   s0-s1-s2-s0. *)
let triangle () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g () in
  let s1 = Graph.add_switch g () in
  let s2 = Graph.add_switch g () in
  let h0 = Graph.add_host g ~name:"h0" in
  let h1 = Graph.add_host g ~name:"h1" in
  Graph.connect g (h0, 0) (s0, 0);
  Graph.connect g (h1, 0) (s1, 7);
  Graph.connect g (s0, 1) (s1, 1);
  Graph.connect g (s1, 2) (s2, 2);
  Graph.connect g (s2, 3) (s0, 3);
  (g, h0)

(* Walk [turns] from [src] and ask the collision model about it: as a
   host-probe, or as the loopback of [turns] when [loopback]. *)
let blocks ?(loopback = false) model params g ~src ~turns =
  let w = Worm.walker () in
  let c = Collision.create model params in
  if loopback then begin
    Worm.walk_loopback w g ~src ~turns;
    Collision.switch_probe_blocks c ~forward_hops:(List.length turns + 1) w
  end
  else begin
    Worm.walk w g ~src ~turns;
    Collision.host_probe_blocks c w
  end

let test_circuit_host_probe_same_direction_blocks () =
  let g, h0 = triangle () in
  (* Around the triangle twice in the same direction, then to h1:
     turns around: s0 in0 out1; s1 in1 out2; s2 in2 out3; s0 in3 out1
     (turn -2); s1 in1 out7 -> h1. First lap then reuse edge s0->s1. *)
  let lap_then_host = [ 1; 1; 1; -2; 6 ] in
  let t = Worm.eval g ~src:h0 ~turns:lap_then_host in
  (match t.Worm.outcome with
  | Worm.Arrived _ -> ()
  | o -> Alcotest.failf "should structurally arrive, got %a" Worm.pp_outcome o);
  Alcotest.(check bool) "circuit blocks same-direction reuse" true
    (blocks Collision.Circuit Params.default g ~src:h0 ~turns:lap_then_host);
  Alcotest.(check bool) "cut-through with tiny worm survives" false
    (blocks Collision.Cut_through Params.default g ~src:h0 ~turns:lap_then_host)

let test_circuit_simple_path_ok () =
  let g, h0 = triangle () in
  Alcotest.(check bool) "simple path never blocks" false
    (blocks Collision.Circuit Params.default g ~src:h0 ~turns:[ 1; 6 ])

let test_circuit_switch_probe_either_direction_blocks () =
  let g, h0 = triangle () in
  (* Forward path crosses edge s0-s1 and then comes back over it in the
     opposite direction before bouncing: s0 out1 -> s1 in1, turn 0 is
     the bounce... instead make the forward path itself reuse the edge
     in reverse: s0 ->(1) s1 ->(back, turn 0 not allowed in forward) ...
     Use the triangle: forward = 1,1,1 ends at s0 having used three
     distinct edges; then -2 crosses s0->s1 again: either-direction
     reuse means undirected reuse; test with forward path 1,1,1,-2. *)
  Alcotest.(check bool) "switch probe blocked on undirected reuse" true
    (blocks ~loopback:true Collision.Circuit Params.default g ~src:h0
       ~turns:[ 1; 1; 1; -2 ])

let test_switch_probe_clean_loop_ok () =
  let g, h0 = triangle () in
  let turns = [ 1; 1 ] in
  let t = Worm.eval g ~src:h0 ~turns:(Route.switch_probe turns) in
  (match t.Worm.outcome with
  | Worm.Arrived n -> Alcotest.(check int) "home" h0 n
  | o -> Alcotest.failf "unexpected %a" Worm.pp_outcome o);
  Alcotest.(check bool) "clean loopback not blocked (circuit)" false
    (blocks ~loopback:true Collision.Circuit Params.default g ~src:h0 ~turns)

let test_cut_through_blocks_big_worm () =
  let g, h0 = triangle () in
  (* A worm longer than the per-port buffering with a short return gap
     must step on its own tail. *)
  let params = { Params.default with Params.probe_payload_bytes = 10_000 } in
  Alcotest.(check bool) "fat worm blocks in cut-through" true
    (blocks Collision.Cut_through params g ~src:h0 ~turns:[ 1; 1; 1; -2; 6 ])

let test_drain_model () =
  Alcotest.(check (float 1e-9)) "small worm fully buffered" 0.0
    (Params.worm_drain_ns Params.default ~route_flits:4);
  let p = { Params.default with Params.probe_payload_bytes = 208 } in
  let drain = Params.worm_drain_ns p ~route_flits:0 in
  Alcotest.(check bool) "100 bytes over the buffer take time" true
    (drain > 0.0 && drain < 1000.0)

(* ---------- the probe service ---------- *)

let test_network_host_probe () =
  let g, _, _, _, h0, _ = net () in
  let n = Network.create g in
  (match Network.host_probe n ~src:h0 ~turns:[ 3; -5 ] with
  | Network.Host name, cost ->
    Alcotest.(check string) "found h1" "h1" name;
    Alcotest.(check bool) "hit cheaper than timeout" true
      (cost < Network.probe_cost_miss n)
  | _ -> Alcotest.fail "expected host response");
  (match Network.host_probe n ~src:h0 ~turns:[ 2 ] with
  | Network.Nothing, cost ->
    Alcotest.(check (float 1.0)) "miss costs timeout" (Network.probe_cost_miss n) cost
  | _ -> Alcotest.fail "expected nothing");
  let st = Network.stats n in
  Alcotest.(check int) "host probes counted" 2 st.Stats.host_probes;
  Alcotest.(check int) "host hits counted" 1 st.Stats.host_hits

let test_network_switch_probe () =
  let g, _, _, _, h0, _ = net () in
  let n = Network.create g in
  (match Network.switch_probe n ~src:h0 ~turns:[ 3 ] with
  | Network.Switch, _ -> ()
  | _ -> Alcotest.fail "expected switch response");
  (* A probe towards a host must not report a switch. *)
  (match Network.switch_probe n ~src:h0 ~turns:[ 3; -5 ] with
  | Network.Nothing, _ -> ()
  | _ -> Alcotest.fail "host direction gives nothing");
  let st = Network.stats n in
  Alcotest.(check int) "switch probes" 2 st.Stats.switch_probes;
  Alcotest.(check int) "switch hits" 1 st.Stats.switch_hits

let test_network_silent_host () =
  let g, _, _, _, h0, h1 = net () in
  let n = Network.create ~responding:(fun x -> x <> h1) g in
  (match Network.host_probe n ~src:h0 ~turns:[ 3; -5 ] with
  | Network.Nothing, _ -> ()
  | _ -> Alcotest.fail "silent host must not answer");
  (* The mapper's own daemon responds. *)
  match Network.host_probe n ~src:h0 ~turns:(Route.switch_probe [ 3 ]) with
  | Network.Host name, _ -> Alcotest.(check string) "self-reply" "h0" name
  | _ -> Alcotest.fail "mapper answers itself"

let test_network_loop_probe () =
  let g, _, _, _, h0, _ = net () in
  let n = Network.create g in
  (* s2 reached via [4]; its ports 5 and 6 are cabled together: from
     entry port 2, turn +3 exits port 5, re-entering at 6 (d = +1). *)
  (match Network.loop_probe n ~src:h0 ~turns:[ 4 ] ~turn:3 with
  | Some d, _ -> Alcotest.(check int) "relative re-entry" 1 d
  | None, _ -> Alcotest.fail "loopback cable not seen");
  match Network.loop_probe n ~src:h0 ~turns:[ 3 ] ~turn:1 with
  | None, _ -> ()
  | Some _, _ -> Alcotest.fail "no cable on s1"

let test_network_jitter_reproducible () =
  let g, _, _, _, h0, _ = net () in
  let run seed =
    let n = Network.create ~jitter:(0.1, San_util.Prng.create seed) g in
    let _, c1 = Network.host_probe n ~src:h0 ~turns:[ 3; -5 ] in
    let _, c2 = Network.host_probe n ~src:h0 ~turns:[ 2 ] in
    (c1, c2)
  in
  Alcotest.(check bool) "same seed, same costs" true (run 5 = run 5);
  Alcotest.(check bool) "different seed, different costs" true (run 5 <> run 6)

let test_network_embedded_slowdown () =
  let g, _, _, _, h0, _ = net () in
  let fastn = Network.create g in
  let slown = Network.create ~software_slowdown:2.0 g in
  let _, cf = Network.host_probe fastn ~src:h0 ~turns:[ 3; -5 ] in
  let _, cs = Network.host_probe slown ~src:h0 ~turns:[ 3; -5 ] in
  Alcotest.(check bool) "slowdown raises cost" true (cs > cf)

(* Property: host_probe responses are consistent with bare worm
   evaluation — a Host response implies the worm structurally arrives
   at a host of that name. *)
let response_consistency_prop =
  QCheck.Test.make ~name:"probe response consistent with worm semantics"
    ~count:100
    QCheck.(pair small_int (list_of_size Gen.(0 -- 5) (int_range (-7) 7)))
    (fun (seed, turns) ->
      let turns = List.map (fun t -> if t = 0 then 2 else t) turns in
      let rng = San_util.Prng.create (seed + 1) in
      let g =
        Generators.random_connected ~rng ~switches:6 ~hosts:4 ~extra_links:2 ()
      in
      let h0 = Option.get (Graph.host_by_name g "h0") in
      let n = Network.create g in
      match Network.host_probe n ~src:h0 ~turns with
      | Network.Host name, _ -> (
        let t = Worm.eval g ~src:h0 ~turns in
        match t.Worm.outcome with
        | Worm.Arrived h -> Graph.name g h = name
        | _ -> false)
      | Network.Nothing, _ -> true
      | Network.Switch, _ -> false)

(* ---------- the probe service against a list-walking reference ---------- *)

(* The four probe kinds re-derived the slow, obvious way: evaluate the
   worm to a hop list, materialise the loopback route, and look for
   self-collisions by scanning that list. Network must agree with it on
   every observable: response, cost, Stats, and the per-channel transit
   and collision counters. *)
module Reference = struct
  module Fs = San_telemetry.Fabric_stats

  type t = {
    g : Graph.t;
    model : Collision.model;
    params : Params.t;
    responding : Graph.node -> bool;
    traffic : (float * San_util.Prng.t) option;
    fabric : Fs.t option;
    stats : Stats.t;
    costs : Network.t;  (** consulted for its cost formulas only *)
  }

  let create ~model ~params ~responding ~traffic ~fabric g =
    {
      g;
      model;
      params;
      responding;
      traffic;
      fabric;
      stats = Stats.create ();
      costs = Network.create ~params g;
    }

  let undirected (h : Worm.hop) =
    (min h.exit_end h.entry_end, max h.exit_end h.entry_end)

  (* The first hop whose key an earlier hop already had. *)
  let rec first_repeat key seen = function
    | [] -> None
    | h :: rest ->
      let k = key h in
      if List.mem k seen then Some h else first_repeat key (k :: seen) rest

  (* Cut-through: hop j blocks when the latest earlier use of its
     directed channel is so recent that the tail has not drained. *)
  let first_early_return params hops =
    let drain = Params.worm_drain_ns params ~route_flits:(List.length hops) in
    let rec go j earlier = function
      | [] -> None
      | (h : Worm.hop) :: rest -> (
        match List.assoc_opt h.exit_end earlier with
        | Some i
          when float_of_int (j - i) *. Params.hop_latency_ns params < drain ->
          Some h
        | Some _ | None -> go (j + 1) ((h.exit_end, j) :: earlier) rest)
    in
    if drain <= 0.0 then None else go 0 [] hops

  let blocks r ?forward_hops hops =
    let hit =
      match (r.model, forward_hops) with
      | Collision.Circuit, None ->
        first_repeat (fun (h : Worm.hop) -> h.exit_end) [] hops
      | Collision.Circuit, Some k ->
        first_repeat undirected [] (List.filteri (fun i _ -> i < k) hops)
      | Collision.Cut_through, _ -> first_early_return r.params hops
    in
    match hit with
    | None -> false
    | Some h ->
      Option.iter (fun f -> Fs.collision f h.Worm.exit_end) r.fabric;
      true

  let survives r ~crossings =
    match r.traffic with
    | None -> true
    | Some (p, rng) ->
      San_util.Prng.float rng 1.0 < (1.0 -. p) ** float_of_int crossings

  let account r ~host ~hit ~reply (hops : Worm.hop list) cost =
    Option.iter
      (fun f ->
        List.iter
          (fun (h : Worm.hop) ->
            Fs.transit f h.exit_end;
            if reply then Fs.transit f h.entry_end)
          hops)
      r.fabric;
    let st = r.stats in
    if host then begin
      st.Stats.host_probes <- st.Stats.host_probes + 1;
      if hit then st.Stats.host_hits <- st.Stats.host_hits + 1
    end
    else begin
      st.Stats.switch_probes <- st.Stats.switch_probes + 1;
      if hit then st.Stats.switch_hits <- st.Stats.switch_hits + 1
    end;
    Stats.add_time st cost;
    cost

  let miss r ~host hops =
    account r ~host ~hit:false ~reply:false hops (Network.probe_cost_miss r.costs)

  let host_probe r ~src ~turns =
    let tr = Worm.eval r.g ~src ~turns in
    let n = List.length tr.hops in
    let name =
      match tr.outcome with
      | Worm.Arrived h when (not (blocks r tr.hops)) && r.responding h ->
        Some (Graph.name r.g h)
      | _ -> None
    in
    match name with
    | Some name when survives r ~crossings:(2 * n) ->
      ( Network.Host name,
        account r ~host:true ~hit:true ~reply:true tr.hops
          (Network.probe_cost_hit r.costs ~hops:(2 * n)) )
    | Some _ | None -> (Network.Nothing, miss r ~host:true tr.hops)

  let walk_probe r ~src ~turns =
    let tr = Worm.eval r.g ~src ~turns in
    let n = List.length tr.hops in
    let answer =
      match tr.outcome with
      | Worm.Arrived h when r.responding h ->
        Some (Graph.name r.g h, List.length turns)
      | Worm.Hit_host_too_soon (idx, h) when r.responding h ->
        Some (Graph.name r.g h, idx)
      | _ -> None
    in
    let answer =
      match answer with Some _ when blocks r tr.hops -> None | a -> a
    in
    match answer with
    | Some a when survives r ~crossings:(2 * n) ->
      ( Some a,
        account r ~host:true ~hit:true ~reply:true tr.hops
          (Network.probe_cost_hit r.costs ~hops:(2 * n)) )
    | Some _ | None -> (None, miss r ~host:true tr.hops)

  let loop_probe r ~src ~turns ~turn =
    let tr = Worm.eval r.g ~src ~turns in
    let n = List.length tr.hops in
    let answer =
      match (tr.outcome, List.rev tr.hops) with
      | Worm.Stranded sw, last :: _ -> (
        let out = snd last.Worm.entry_end + turn in
        if out < 0 || out >= Graph.radix r.g then None
        else
          match Graph.neighbor r.g (sw, out) with
          | Some (peer, q) when peer = sw -> Some (q - out)
          | Some _ | None -> None)
      | _ -> None
    in
    match answer with
    | Some d when survives r ~crossings:(2 * (n + 1)) ->
      ( Some d,
        account r ~host:false ~hit:true ~reply:true tr.hops
          (Network.probe_cost_hit r.costs ~hops:(2 * (n + 1))) )
    | Some _ | None -> (None, miss r ~host:false tr.hops)

  let switch_probe r ~src ~turns =
    let tr = Worm.eval r.g ~src ~turns:(Route.switch_probe turns) in
    let n = List.length tr.hops in
    let home =
      match tr.outcome with
      | Worm.Arrived h ->
        h = src
        && not (blocks r ~forward_hops:(List.length turns + 1) tr.hops)
      | _ -> false
    in
    if home && survives r ~crossings:n then
      ( Network.Switch,
        account r ~host:false ~hit:true ~reply:false tr.hops
          (Network.probe_cost_hit r.costs ~hops:n) )
    else (Network.Nothing, miss r ~host:false tr.hops)
end

(* Turn strings that mostly follow wired ports, so worms travel far,
   bounce (turn 0) and revisit their own channels; after the first
   step off the wiring the tail is uniform over the alphabet. *)
let guided_turns rng g ~src ~len =
  let radix = Graph.radix g in
  let uniform () = San_util.Prng.int_in rng (-(radix - 1)) (radix - 1) in
  let rec go at k acc =
    if k = 0 then List.rev acc
    else
      match at with
      | Some (node, in_port) when not (Graph.is_host g node) ->
        let turn =
          match Graph.wired_ports g node with
          | _ :: _ as ports when San_util.Prng.int rng 5 > 0 ->
            fst (List.nth ports (San_util.Prng.int rng (List.length ports)))
            - in_port
          | _ -> uniform ()
        in
        let out = in_port + turn in
        let next =
          if out < 0 || out >= radix then None else Graph.neighbor g (node, out)
        in
        go next (k - 1) (turn :: acc)
      | Some _ | None -> go None (k - 1) (uniform () :: acc)
  in
  go (Graph.neighbor g (src, 0)) len []

(* The walker's loopback, read back, is the walk of the materialised
   loopback route: same outcome (flit indices included) and hops. *)
let loopback_matches_eval w g ~src ~turns =
  Worm.walk_loopback w g ~src ~turns;
  let tr = Worm.eval g ~src ~turns:(Route.switch_probe turns) in
  Worm.outcome w = tr.Worm.outcome
  && Worm.hops w = List.length tr.Worm.hops
  && List.for_all Fun.id
       (List.mapi
          (fun i (h : Worm.hop) ->
            Worm.exit_end w i = h.exit_end && Worm.entry_end w i = h.entry_end)
          tr.Worm.hops)

let walker_corpus () =
  let fuzz =
    List.init 30 (fun seed ->
        let c = San_check.Fuzz_gen.gen ~seed in
        let silent =
          List.filter_map (Graph.host_by_name c.graph) c.San_check.Fuzz_gen.silent
        in
        (Printf.sprintf "fuzz seed %d" seed, c.graph,
         fun n -> not (List.mem n silent)))
  in
  let preset name =
    ( name,
      (Option.get (San_fabric.Fabric.find_preset name)).San_fabric.Fabric.p_build
        ~seed:1,
      fun _ -> true )
  in
  fuzz @ [ preset "ft-100"; preset "now-cab" ]

(* host hits, switch hits, circuit collisions, cut-through collisions *)
let walker_tally = Array.make 4 0

let fat_worm = { Params.default with Params.probe_payload_bytes = 400 }

let compare_walkers ~model ~params ~traffic ~installed (name, g, responding) =
  let module Fs = San_telemetry.Fabric_stats in
  let fa = Fs.create () and fr = Fs.create () in
  let traffic_of seed = Option.map (fun p -> (p, San_util.Prng.create seed)) traffic in
  let net =
    if installed then begin
      Fs.install fa;
      Fun.protect ~finally:Fs.uninstall (fun () ->
          Network.create ~model ~params ~responding ?traffic:(traffic_of 7) g)
    end
    else Network.create ~model ~params ~responding ?traffic:(traffic_of 7) g
  in
  let r =
    Reference.create ~model ~params ~responding ~traffic:(traffic_of 7)
      ~fabric:(if installed then Some fr else None)
      g
  in
  let what =
    Printf.sprintf "%s [%s, payload %d%s%s]" name
      (Collision.model_to_string model)
      params.Params.probe_payload_bytes
      (if traffic = None then "" else ", traffic")
      (if installed then ", fabric stats" else "")
  in
  let rng = San_util.Prng.create (Hashtbl.hash name) in
  let radix = Graph.radix g in
  let resp = function
    | Network.Switch -> "switch"
    | Network.Host h -> "host " ^ h
    | Network.Nothing -> "nothing"
  in
  let pair show (a, ca) (b, cb) = (show a, ca) = (show b, cb) in
  let opt show = function None -> "none" | Some x -> show x in
  let hosts = Graph.hosts g in
  let w = Worm.walker () in
  List.iteri
    (fun i src ->
      if i < 3 then
        for _ = 1 to 25 do
          let turns () = guided_turns rng g ~src ~len:(San_util.Prng.int rng 9) in
          let tr = turns () in
          if
            not
              (pair resp (Network.host_probe net ~src ~turns:tr)
                 (Reference.host_probe r ~src ~turns:tr))
          then Alcotest.failf "%s: host probe %s" what (Route.to_string tr);
          let tr = turns () in
          if
            not
              (pair resp (Network.switch_probe net ~src ~turns:tr)
                 (Reference.switch_probe r ~src ~turns:tr))
          then Alcotest.failf "%s: switch probe %s" what (Route.to_string tr);
          if not (loopback_matches_eval w g ~src ~turns:tr) then
            Alcotest.failf "%s: loopback walk of %s" what (Route.to_string tr);
          let tr = turns () in
          if
            not
              (pair
                 (opt (fun (h, k) -> Printf.sprintf "%s@%d" h k))
                 (Network.walk_probe net ~src ~turns:tr)
                 (Reference.walk_probe r ~src ~turns:tr))
          then Alcotest.failf "%s: walk probe %s" what (Route.to_string tr);
          let tr = turns () in
          let turn = San_util.Prng.int_in rng (-(radix - 1)) (radix - 1) in
          if
            not
              (pair (opt string_of_int)
                 (Network.loop_probe net ~src ~turns:tr ~turn)
                 (Reference.loop_probe r ~src ~turns:tr ~turn))
          then
            Alcotest.failf "%s: loop probe %s turn %d" what (Route.to_string tr)
              turn
        done)
    hosts;
  let st = Network.stats net and rs = r.Reference.stats in
  Alcotest.(check (list int)) (what ^ ": stats")
    [ rs.Stats.host_probes; rs.Stats.host_hits; rs.Stats.switch_probes;
      rs.Stats.switch_hits ]
    [ st.Stats.host_probes; st.Stats.host_hits; st.Stats.switch_probes;
      st.Stats.switch_hits ];
  Alcotest.(check (float 0.0)) (what ^ ": serial time") rs.Stats.serial_time_ns
    st.Stats.serial_time_ns;
  let counters f e =
    match Fs.port_stat f e with
    | None -> (0, 0)
    | Some p -> (p.Fs.transits, p.Fs.collisions)
  in
  List.iter
    (fun n ->
      for p = 0 to Graph.ports_of g n - 1 do
        let a = counters fa (n, p) and b = counters fr (n, p) in
        if a <> b then
          Alcotest.failf "%s: channel (%d,%d) transits/collisions %d/%d, \
                          reference %d/%d"
            what n p (fst a) (snd a) (fst b) (snd b)
      done)
    (Graph.nodes g);
  Alcotest.(check int) (what ^ ": total transits") (Fs.total_transits fr)
    (Fs.total_transits fa);
  (* Coverage tally: the corpus must exercise hits of both columns and
     blocking self-collisions, or agreement proves little. *)
  let tally = walker_tally in
  tally.(0) <- tally.(0) + rs.Stats.host_hits;
  tally.(1) <- tally.(1) + rs.Stats.switch_hits;
  List.iter
    (fun n ->
      for p = 0 to Graph.ports_of g n - 1 do
        tally.(if model = Collision.Circuit then 2 else 3) <-
          tally.(if model = Collision.Circuit then 2 else 3) + snd (counters fr (n, p))
      done)
    (Graph.nodes g)

let test_walker_differential () =
  let corpus = walker_corpus () in
  List.iter
    (fun model ->
      List.iter
        (fun params ->
          List.iter
            (fun (traffic, installed) ->
              List.iter
                (compare_walkers ~model ~params ~traffic ~installed)
                corpus)
            [ (None, false); (None, true); (Some 0.05, true) ])
        [ Params.default; fat_worm ])
    [ Collision.Circuit; Collision.Cut_through ];
  Array.iteri
    (fun i what ->
      if walker_tally.(i) = 0 then Alcotest.failf "corpus never produced %s" what)
    [| "a host hit"; "a switch hit"; "a circuit collision";
       "a cut-through collision" |]

let () =
  Alcotest.run "san_simnet"
    [
      ("route", [ Alcotest.test_case "shapes" `Quick test_route_shapes ]);
      ( "worm",
        [
          Alcotest.test_case "arrives" `Quick test_worm_arrives;
          Alcotest.test_case "illegal turn" `Quick test_worm_illegal_turn;
          Alcotest.test_case "no such wire" `Quick test_worm_no_such_wire;
          Alcotest.test_case "hit host too soon" `Quick test_worm_hit_host_too_soon;
          Alcotest.test_case "stranded" `Quick test_worm_stranded;
          Alcotest.test_case "zero-turn bounce" `Quick test_worm_zero_turn_bounce;
          Alcotest.test_case "same-switch cable" `Quick test_worm_same_switch_cable;
          Alcotest.test_case "unwired source" `Quick test_worm_unwired;
          Alcotest.test_case "bad arguments" `Quick test_worm_rejects_bad_args;
          qcheck loopback_palindrome_prop;
        ] );
      ( "collision",
        [
          Alcotest.test_case "circuit host same-direction" `Quick
            test_circuit_host_probe_same_direction_blocks;
          Alcotest.test_case "circuit simple ok" `Quick test_circuit_simple_path_ok;
          Alcotest.test_case "circuit switch either-direction" `Quick
            test_circuit_switch_probe_either_direction_blocks;
          Alcotest.test_case "clean loopback ok" `Quick test_switch_probe_clean_loop_ok;
          Alcotest.test_case "cut-through fat worm" `Quick
            test_cut_through_blocks_big_worm;
          Alcotest.test_case "drain model" `Quick test_drain_model;
        ] );
      ( "network",
        [
          Alcotest.test_case "host probe" `Quick test_network_host_probe;
          Alcotest.test_case "switch probe" `Quick test_network_switch_probe;
          Alcotest.test_case "silent host" `Quick test_network_silent_host;
          Alcotest.test_case "loop probe" `Quick test_network_loop_probe;
          Alcotest.test_case "jitter reproducible" `Quick
            test_network_jitter_reproducible;
          Alcotest.test_case "embedded slowdown" `Quick
            test_network_embedded_slowdown;
          qcheck response_consistency_prop;
          Alcotest.test_case "walker matches reference" `Quick
            test_walker_differential;
        ] );
    ]
