open San_topology
open San_simnet
open San_mapper

let qcheck t = QCheck_alcotest.to_alcotest t

let map_ok ?policy ?depth ?(model = Collision.Circuit) g mapper_name =
  let net = Network.create ~model g in
  let mapper = Option.get (Graph.host_by_name g mapper_name) in
  let r = Berkeley.run ?policy ?depth net ~mapper in
  (r, mapper)

let assert_iso ?policy ?depth ?model name g mapper_name =
  let r, _ = map_ok ?policy ?depth ?model g mapper_name in
  match r.Berkeley.map with
  | Error e -> Alcotest.failf "%s: export failed: %s" name e
  | Ok m -> (
    let exclude = Core_set.separated_set g in
    match Iso.check ~map:m ~actual:g ~exclude () with
    | Ok () -> r
    | Error e -> Alcotest.failf "%s: not isomorphic: %s" name e)

(* ---------- correctness on named topologies (Theorem 1) ---------- *)

let test_maps_subcluster_c () =
  let g, _ = Generators.now_c () in
  let r = assert_iso "C" g "C-util" in
  Alcotest.(check bool) "explorations happened" true (r.Berkeley.explorations > 13);
  Alcotest.(check bool) "hosts all found" true
    (match r.Berkeley.map with
    | Ok m -> Graph.num_hosts m = 36
    | Error _ -> false)

let test_maps_now_full () =
  let g, _ = Generators.now_cab () in
  let r = assert_iso "NOW" g "C-util" in
  (* Figure 8's end state: 140 actual nodes. *)
  Alcotest.(check int) "140 live model nodes" 140 r.Berkeley.live_vertices

let test_maps_from_any_host () =
  let g, _ = Generators.now_c () in
  List.iter
    (fun h -> ignore (assert_iso "C" g h))
    [ "C-h0"; "C-h17"; "C-h34"; "C-util" ]

let test_maps_classic_topologies () =
  ignore (assert_iso "star" (Generators.star ~leaves:4 ()) "h0");
  ignore (assert_iso "ring" (Generators.ring ~switches:7 ~hosts_per_switch:1 ()) "h0-0");
  ignore (assert_iso "mesh" (Generators.mesh ~rows:3 ~cols:4 ()) "h0-0");
  ignore (assert_iso "torus" (Generators.torus ~rows:3 ~cols:3 ()) "h0-0");
  ignore (assert_iso "hypercube" (Generators.hypercube ~dim:4 ()) "h0");
  ignore
    (assert_iso "fat tree"
       (Generators.fat_tree ~leaves:4 ~hosts_per_leaf:3 ~spines:2 ())
       "h0-0")

let test_maps_parallel_links () =
  (* Torus with a 2-long dimension has doubled wires. *)
  ignore (assert_iso "torus2xN" (Generators.torus ~rows:2 ~cols:4 ()) "h0-0")

let test_prunes_f () =
  let g = Generators.pendant_branch () in
  let r = assert_iso "pendant" g "h0" in
  match r.Berkeley.map with
  | Ok m ->
    (* The hostless tail behind the switch-bridge must be absent. *)
    Alcotest.(check int) "only core switches" 2 (Graph.num_switches m)
  | Error _ -> Alcotest.fail "export failed"

let test_cut_through_model_maps () =
  let g, _ = Generators.now_c () in
  ignore (assert_iso "C cut-through" ~model:Collision.Cut_through g "C-util")

let test_exhaustive_policy_small () =
  let g = Generators.star ~leaves:3 () in
  ignore (assert_iso "star exhaustive" ~policy:Berkeley.exhaustive g "h0")

let test_policies_agree () =
  (* The faithful optimizations must not change the result. *)
  let rng = San_util.Prng.create 50 in
  for _ = 1 to 5 do
    let g =
      Generators.random_connected ~rng ~switches:4 ~hosts:3 ~extra_links:2 ()
    in
    let r1, _ = map_ok ~policy:Berkeley.faithful g "h0" in
    let r2, _ = map_ok ~policy:Berkeley.exhaustive ~depth:(Berkeley.Fixed 7) g "h0" in
    match (r1.Berkeley.map, r2.Berkeley.map) with
    | Ok m1, Ok m2 ->
      Alcotest.(check bool) "faithful == exhaustive (up to iso)" true
        (Iso.equal ~map:m1 ~actual:m2 ());
      Alcotest.(check bool) "faithful sends fewer probes" true
        (Berkeley.total_probes r1 <= Berkeley.total_probes r2)
    | Error e, _ | _, Error e -> Alcotest.failf "export failed: %s" e
  done

let test_depth_too_small_degrades () =
  let g, _ = Generators.now_cab () in
  let r, _ = map_ok ~depth:(Berkeley.Fixed 3) g "C-util" in
  match r.Berkeley.map with
  | Ok m ->
    Alcotest.(check bool) "shallow map misses switches" true
      (Graph.num_switches m < 40)
  | Error _ -> () (* unresolved replicates are also an acceptable signal *)

let test_depth_threshold_now () =
  (* Completeness ablation: the NOW needs depth 7 from C-util; 6 loses
     the two hostless B-roots. *)
  let g, _ = Generators.now_cab () in
  let r6, _ = map_ok ~depth:(Berkeley.Fixed 6) g "C-util" in
  let r7, _ = map_ok ~depth:(Berkeley.Fixed 7) g "C-util" in
  (match r6.Berkeley.map with
  | Ok m -> Alcotest.(check int) "depth 6 misses the hostless roots" 38
      (Graph.num_switches m)
  | Error _ -> Alcotest.fail "depth 6 should still export");
  match r7.Berkeley.map with
  | Ok m ->
    Alcotest.(check int) "depth 7 complete" 40 (Graph.num_switches m);
    Alcotest.(check bool) "depth 7 isomorphic" true (Iso.equal ~map:m ~actual:g ())
  | Error _ -> Alcotest.fail "depth 7 should export"

let test_stats_accounting () =
  let g, _ = Generators.now_c () in
  let r, _ = map_ok g "C-util" in
  Alcotest.(check bool) "hits bounded by probes" true
    (r.Berkeley.host_hits <= r.Berkeley.host_probes
    && r.Berkeley.switch_hits <= r.Berkeley.switch_probes);
  Alcotest.(check bool) "elapsed positive" true (r.Berkeley.elapsed_ns > 0.0);
  Alcotest.(check bool) "created >= live" true
    (r.Berkeley.created_vertices >= r.Berkeley.live_vertices)

let test_trace_monotone () =
  let g, _ = Generators.now_c () in
  let net = Network.create g in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let r = Berkeley.run ~record_trace:true net ~mapper in
  let tr = r.Berkeley.trace in
  Alcotest.(check int) "one point per exploration" r.Berkeley.explorations
    (List.length tr);
  let rec monotone = function
    | (a : Berkeley.trace_point) :: (b :: _ as rest) ->
      a.Berkeley.step < b.Berkeley.step
      && a.Berkeley.created_nodes <= b.Berkeley.created_nodes
      && a.Berkeley.elapsed_ns <= b.Berkeley.elapsed_ns
      && a.Berkeley.hosts_found <= b.Berkeley.hosts_found
      && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "trace monotone" true (monotone tr);
  (* After the last exploration the frontier holds only vertices that
     will be popped and skipped (already-explored classes). *)
  Alcotest.(check int) "all 36 hosts found" 36
    (match List.rev tr with last :: _ -> last.Berkeley.hosts_found | [] -> 0)

let test_silent_hosts_dont_break_mapping () =
  let g, _ = Generators.now_c () in
  (* One silent host: its link vanishes from the map, everything else
     is still mapped. *)
  let silent = Option.get (Graph.host_by_name g "C-h7") in
  let net = Network.create ~responding:(fun h -> h <> silent) g in
  let mapper = Option.get (Graph.host_by_name g "C-util") in
  let r = Berkeley.run net ~mapper in
  match r.Berkeley.map with
  | Ok m ->
    Alcotest.(check int) "one host missing" 35 (Graph.num_hosts m);
    Alcotest.(check int) "all switches present" 13 (Graph.num_switches m)
  | Error e -> Alcotest.failf "export failed: %s" e

let test_degraded_network_maps () =
  (* Dynamic reconfiguration: cut links, map again. *)
  let g, _ = Generators.now_c () in
  let rng = San_util.Prng.create 21 in
  let g' = Faults.remove_random_links ~rng g ~count:4 in
  if Analysis.is_connected g' then ignore (assert_iso "degraded C" g' "C-util")

let test_unwired_mapper () =
  let g = Graph.create () in
  let h = Graph.add_host g ~name:"lonely" in
  let _s = Graph.add_switch g () in
  let h2 = Graph.add_host g ~name:"other" in
  ignore h2;
  let net = Network.create g in
  let r = Berkeley.run net ~mapper:h in
  match r.Berkeley.map with
  | Ok m ->
    Alcotest.(check int) "just the mapper host" 1 (Graph.num_hosts m);
    Alcotest.(check int) "no switches" 0 (Graph.num_switches m)
  | Error e -> Alcotest.failf "degenerate export failed: %s" e

(* ---------- the paper's theorem as a property ---------- *)

let theorem1_prop model name =
  QCheck.Test.make ~name ~count:40
    QCheck.(triple small_int (int_range 2 9) (int_range 2 5))
    (fun (seed, switches, hosts) ->
      let rng = San_util.Prng.create ((seed * 31) + switches) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts
          ~extra_links:(seed mod 4) ()
      in
      (* The cut-through statement of Theorem 1 requires empty F. *)
      QCheck.assume
        (model = Collision.Circuit || Core_set.core_is_empty_f g);
      let net = Network.create ~model g in
      let mapper = Option.get (Graph.host_by_name g "h0") in
      let r = Berkeley.run net ~mapper in
      match r.Berkeley.map with
      | Error _ -> false
      | Ok m ->
        let exclude = Core_set.separated_set g in
        Iso.equal ~map:m ~actual:g ~exclude ())

let theorem1_circuit =
  theorem1_prop Collision.Circuit "theorem 1: random nets, circuit model"

let theorem1_cut_through =
  theorem1_prop Collision.Cut_through
    "theorem 1: random nets, cut-through, empty F"

(* The whole stack is parametric in the switch radix; the paper's 8 is
   just Myrinet's value. *)
let radix4_prop =
  QCheck.Test.make ~name:"theorem 1 on radix-4 switches" ~count:25
    QCheck.(pair small_int (int_range 2 7))
    (fun (seed, switches) ->
      let rng = San_util.Prng.create ((seed * 19) + switches) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts:3 ~extra_links:1
          ~radix:4 ()
      in
      let net = Network.create g in
      let mapper = Option.get (Graph.host_by_name g "h0") in
      let r = Berkeley.run net ~mapper in
      match r.Berkeley.map with
      | Error _ -> false
      | Ok m ->
        Graph.radix m = 4
        && Iso.equal ~map:m ~actual:g ~exclude:(Core_set.separated_set g) ())

let test_radix16_maps () =
  let g = Generators.fat_tree ~radix:16 ~leaves:6 ~hosts_per_leaf:10 ~spines:4 () in
  let net = Network.create g in
  let mapper = Option.get (Graph.host_by_name g "h0-0") in
  let r = Berkeley.run net ~mapper in
  match r.Berkeley.map with
  | Ok m ->
    Alcotest.(check bool) "radix-16 fat tree maps" true (Iso.equal ~map:m ~actual:g ())
  | Error e -> Alcotest.failf "radix-16 failed: %s" e

let model_invariants_prop =
  QCheck.Test.make ~name:"model invariants hold through explore and prune"
    ~count:25
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, switches) ->
      let rng = San_util.Prng.create (seed + 100) in
      let g =
        Generators.random_connected ~rng ~switches ~hosts:3 ~extra_links:2 ()
      in
      let net = Network.create g in
      let mapper = Option.get (Graph.host_by_name g "h0") in
      let depth_used = Core_set.search_depth g ~root:mapper in
      let model =
        Model.create ~mapper_name:(Graph.name g mapper) ~radix:(Graph.radix g)
      in
      let _ =
        Berkeley.explore_from ~policy:Berkeley.faithful ~depth_used
          ~record_trace:false net ~mapper model
          [ Model.root_switch model ]
      in
      let after_explore = Model.check_invariants model in
      (* The skip predicates resolve the class once; they must agree
         with the slot and window queries they stand for. *)
      let same_answers = ref true in
      for v = 0 to Model.created_vertices model - 1 do
        List.iter
          (fun turn ->
            let slot = Model.turn_slot model v turn in
            if
              Probe_order.already_known model v ~turn
              <> Model.slot_occupied model v slot
              || Probe_order.provably_illegal model v ~turn
                 <> not (Model.window_admits model v ~slot)
            then same_answers := false)
          (Probe_order.turn_order ~radix:(Graph.radix g))
      done;
      Model.prune model;
      let after_prune = Model.check_invariants model in
      !same_answers && after_explore = Ok () && after_prune = Ok ())

(* ---------- pinned mapping outputs ---------- *)

(* Default Berkeley.run (faithful policy, oracle depth, Circuit
   collisions) from the first host, fabric seed 1. Recorded from the
   list-walking simulator and the allocating merge engine: probe order,
   merge order and vertex numbering all feed these numbers, so a change
   to any of them moves at least one column. [md5] digests the exported
   JSON followed by the DOT text, the two byte streams the CLI writes. *)
let fabric_preset name () =
  (Option.get (San_fabric.Fabric.find_preset name)).San_fabric.Fabric.p_build
    ~seed:1

let ft324 () =
  match San_fabric.Fabric.of_string "levels=3,radix=12,edge=54,hosts=6" with
  | Ok spec -> San_fabric.Fabric.build ~seed:1 spec
  | Error e -> failwith e

type pin = {
  probes : int;
  explorations : int;
  created : int;
  live : int;
  elapsed : string;  (** simulated ns, "%.17g" *)
  md5 : string;
}

let pinned =
  [
    ( "ft-324", ft324,
      { probes = 66084; explorations = 38247; created = 39085; live = 459;
        elapsed = "22249228200"; md5 = "31e4d7d2013b72cbe698cf57f648f032" } );
    ( "ft-100", fabric_preset "ft-100",
      { probes = 1719; explorations = 592; created = 755; live = 138;
        elapsed = "657595000"; md5 = "96f8a0bbfedc30df4dcf5e4547777977" } );
    ( "now-cab", fabric_preset "now-cab",
      { probes = 3772; explorations = 735; created = 893; live = 140;
        elapsed = "1683175200"; md5 = "b7da43972cf4f836bac2856521080f9c" } );
    ( "ft-1k-degraded", fabric_preset "ft-1k-degraded",
      { probes = 687693; explorations = 122234; created = 124515; live = 1278;
        elapsed = "318672577000"; md5 = "1b613ac4e5968776b9364c66c426d383" } );
    ( "mesh 4x5", (fun () -> Generators.mesh ~rows:4 ~cols:5 ()),
      { probes = 1197; explorations = 72; created = 104; live = 40;
        elapsed = "590449000"; md5 = "450962b30211f58c75546a7add286e82" } );
    ( "ccc3", (fun () -> Generators.cube_connected_cycles ~dim:3 ()),
      { probes = 1159; explorations = 64; created = 101; live = 48;
        elapsed = "571588500"; md5 = "f9e0082ee29bb8736e690af2794b1d42" } );
  ]

let run_first_host g =
  let net = Network.create g in
  Berkeley.run net ~mapper:(List.hd (Graph.hosts g))

let map_md5 m =
  Digest.to_hex
    (Digest.string (San_util.Json.to_string (Serial.to_json m) ^ Dot.to_string m))

let test_pinned_outputs (name, build, pin) () =
  let r = run_first_host (build ()) in
  let check what = Alcotest.(check int) (name ^ " " ^ what) in
  check "probes" pin.probes (Berkeley.total_probes r);
  check "explorations" pin.explorations r.Berkeley.explorations;
  check "created vertices" pin.created r.Berkeley.created_vertices;
  check "live vertices" pin.live r.Berkeley.live_vertices;
  Alcotest.(check string) (name ^ " elapsed_ns") pin.elapsed
    (Printf.sprintf "%.17g" r.Berkeley.elapsed_ns);
  match r.Berkeley.map with
  | Ok m -> Alcotest.(check string) (name ^ " export md5") pin.md5 (map_md5 m)
  | Error e -> Alcotest.failf "%s: export failed: %s" name e

(* The provenance ledger of a now-cab map, entry by entry as JSON. *)
let test_pinned_why_ledger () =
  let g = fabric_preset "now-cab" () in
  let snap =
    San_why.Why.set_enabled true;
    Fun.protect ~finally:(fun () -> San_why.Why.set_enabled false) @@ fun () ->
    ignore (run_first_host g);
    San_why.Why.capture ()
  in
  let text =
    String.concat "\n"
      (List.map
         (fun (i, e) -> San_util.Json.to_string (San_why.Why.entry_to_json i e))
         (San_why.Why.entries snap))
  in
  Alcotest.(check int) "ledger entries" 5419 (San_why.Why.size snap);
  Alcotest.(check string) "ledger md5" "5ad5084e5c20a52da203aa0279ae3668"
    (Digest.to_hex (Digest.string text))

(* A seeded map's model, kept for inspection: what [Berkeley.run] does,
   from the first host. *)
let mapped_model g =
  let net = Network.create g in
  let mapper = List.hd (Graph.hosts g) in
  let depth_used = Berkeley.resolve_depth net ~mapper Berkeley.Oracle in
  let model =
    Model.create ~mapper_name:(Graph.name g mapper) ~radix:(Graph.radix g)
  in
  let explorations, elapsed, trace =
    Berkeley.explore_from ~policy:Berkeley.faithful ~depth_used
      ~record_trace:false net ~mapper model [ Model.root_switch model ]
  in
  ignore (Berkeley.finish ~model ~explorations ~elapsed ~depth_used ~trace net);
  model

let probe_digest model =
  let b = Buffer.create 4096 in
  for v = 0 to Model.created_vertices model - 1 do
    Buffer.add_string b (Route.to_string (Model.probe_string model v));
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every vertex's probe string, recorded from the model that kept one
   list per vertex. The randomized run splices 2000 coupon paths into a
   hypercube; some of its vertices are created by probes that do not
   extend their parent vertex's probe, so both storage cases are
   covered. *)
let test_pinned_probe_strings () =
  List.iter
    (fun (name, digest) ->
      Alcotest.(check string) (name ^ " probe strings") digest
        (probe_digest (mapped_model (fabric_preset name ()))))
    [
      ("ft-100", "d9dfc4f9afe0ed017bb8a2a291855211");
      ("now-cab", "f8da09f92541b38b06e910d51dcb8d09");
    ];
  let g = Generators.hypercube ~dim:4 () in
  let r =
    Randomized.run ~samples:2000 ~rng:(San_util.Prng.create 3)
      (Network.create g) ~mapper:(List.hd (Graph.hosts g))
  in
  Alcotest.(check int) "randomized vertices" 80
    (Model.created_vertices r.Randomized.model);
  Alcotest.(check string) "randomized probe strings"
    "2558dd1c7aa3c06d6bb7d85ef5443cf1" (probe_digest r.Randomized.model)

(* The model's footprint after a seeded ft-100 map, ledger off: 15,366
   words with probe strings as one shared forest, merged-away vertex
   records released and dead edges dropped; 31,137 words when every
   vertex kept its own probe list and record and every dead edge
   stayed listed. *)
let test_model_footprint () =
  let model = mapped_model (fabric_preset "ft-100" ()) in
  let words = Obj.reachable_words (Obj.repr model) in
  if words > 16_000 then
    Alcotest.failf "ft-100 model holds %d words, over the 16,000 bound" words

let test_pinned_merge_counter () =
  List.iter
    (fun (name, merges) ->
      let module Obs = San_obs.Obs in
      Obs.reset ();
      Obs.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
          ignore (run_first_host (fabric_preset name ())));
      Alcotest.(check int) (name ^ " mapper.merges") merges
        (San_obs.Metrics.counter_value
           (San_obs.Metrics.counter Obs.registry "mapper.merges")))
    [ ("now-cab", 753); ("ft-100", 617) ];
  San_obs.Obs.reset ()

let () =
  Alcotest.run "san_mapper.berkeley"
    [
      ( "topologies",
        [
          Alcotest.test_case "subcluster C" `Quick test_maps_subcluster_c;
          Alcotest.test_case "full NOW" `Quick test_maps_now_full;
          Alcotest.test_case "any mapper host" `Quick test_maps_from_any_host;
          Alcotest.test_case "classic interconnects" `Quick
            test_maps_classic_topologies;
          Alcotest.test_case "parallel links" `Quick test_maps_parallel_links;
          Alcotest.test_case "prunes F" `Quick test_prunes_f;
          Alcotest.test_case "cut-through model" `Quick test_cut_through_model_maps;
        ] );
      ( "policies",
        [
          Alcotest.test_case "exhaustive on small net" `Quick
            test_exhaustive_policy_small;
          Alcotest.test_case "faithful == exhaustive" `Quick test_policies_agree;
          Alcotest.test_case "shallow depth degrades" `Quick
            test_depth_too_small_degrades;
          Alcotest.test_case "NOW depth threshold" `Quick test_depth_threshold_now;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "stats" `Quick test_stats_accounting;
          Alcotest.test_case "trace" `Quick test_trace_monotone;
        ] );
      ( "failures",
        [
          Alcotest.test_case "silent host" `Quick test_silent_hosts_dont_break_mapping;
          Alcotest.test_case "degraded network" `Quick test_degraded_network_maps;
          Alcotest.test_case "unwired mapper" `Quick test_unwired_mapper;
        ] );
      ( "properties",
        [
          qcheck theorem1_circuit;
          qcheck theorem1_cut_through;
          qcheck model_invariants_prop;
          qcheck radix4_prop;
        ] );
      ( "radix generality",
        [ Alcotest.test_case "radix-16 fat tree" `Quick test_radix16_maps ] );
      ( "pinned outputs",
        List.map
          (fun ((name, _, _) as p) ->
            Alcotest.test_case name `Quick (test_pinned_outputs p))
          pinned
        @ [
            Alcotest.test_case "now-cab why-ledger" `Quick test_pinned_why_ledger;
            Alcotest.test_case "merge counter" `Quick test_pinned_merge_counter;
            Alcotest.test_case "probe strings" `Quick test_pinned_probe_strings;
            Alcotest.test_case "model footprint" `Quick test_model_footprint;
          ] );
    ]
