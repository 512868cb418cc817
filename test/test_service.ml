open San_topology
open San_service
module D = San_routing.Distribute
module Slo = San_telemetry.Slo

(* ---------- world ---------- *)

let test_world_kill_revive () =
  let g, _ = Generators.now_c () in
  let w = World.create g in
  let h = List.hd (Graph.hosts (World.graph w)) in
  let name = Graph.name (World.graph w) h in
  Alcotest.(check bool) "initially responding" true (World.responding w h);
  World.kill_host w name;
  Alcotest.(check bool) "down after kill" true (World.is_down w name);
  Alcotest.(check bool) "silent to probes" false (World.responding w h);
  Alcotest.(check bool) "switches always respond" true
    (World.responding w (List.hd (Graph.switches (World.graph w))));
  World.revive_host w name;
  Alcotest.(check bool) "answers again" true (World.responding w h)

let test_world_deferred_repair () =
  let g, _ = Generators.now_c () in
  let w = World.create g in
  let wires = Graph.num_wires (World.graph w) in
  World.defer w ~at_epoch:3 ~label:"noop repair" (fun g -> g);
  Alcotest.(check (list string)) "not due yet" [] (World.due_repairs w ~epoch:2);
  Alcotest.(check (list string)) "due at 3" [ "noop repair" ]
    (World.due_repairs w ~epoch:3);
  Alcotest.(check (list string)) "applied once" [] (World.due_repairs w ~epoch:3);
  Alcotest.(check int) "wiring untouched by noop" wires
    (Graph.num_wires (World.graph w))

(* ---------- schedule ---------- *)

let test_schedule_parse () =
  match Schedule.parse "2:cut,4:flap=3,6:isolate,8:kill-leader,9:revive=C-h4" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check int) "last epoch" 9 (Schedule.last_epoch s);
    Alcotest.(check bool) "cut at 2" true
      (Schedule.actions_at s 2 = [ Schedule.Cut_links 1 ]);
    Alcotest.(check bool) "flap at 4" true
      (Schedule.actions_at s 4 = [ Schedule.Flap_link 3 ]);
    Alcotest.(check bool) "nothing at 5" true (Schedule.actions_at s 5 = []);
    Alcotest.(check bool) "kill-leader at 8" true
      (Schedule.actions_at s 8 = [ Schedule.Kill_leader ]);
    Alcotest.(check bool) "revive at 9" true
      (Schedule.actions_at s 9 = [ Schedule.Revive_host "C-h4" ])

let test_schedule_parse_rejects () =
  List.iter
    (fun s ->
      match Schedule.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed schedule %S" s)
    [ "nonsense"; "1:warp"; "x:cut"; "1:cut=many"; "-1:cut" ]

let test_schedule_empty () =
  match Schedule.parse "" with
  | Ok s -> Alcotest.(check int) "empty schedule" (-1) (Schedule.last_epoch s)
  | Error e -> Alcotest.fail e

(* ---------- delta planning ---------- *)

let table_of g = San_routing.Routes.compute g

let test_delta_cold_ledger_ships_full () =
  let g, _ = Generators.now_c () in
  let table = table_of g in
  let p = Delta.plan ~installed:Delta.empty table in
  Alcotest.(check int) "one slice per host" (Graph.num_hosts g)
    (List.length p.Delta.slices);
  List.iter
    (fun (s : Delta.slice) ->
      Alcotest.(check bool) ("cold slice is full: " ^ s.Delta.owner) true
        (s.Delta.kind = Delta.Full))
    p.Delta.slices;
  Alcotest.(check int) "delta cost equals full cost" p.Delta.full_bytes
    p.Delta.delta_bytes;
  Alcotest.(check int) "nothing unchanged" 0 p.Delta.unchanged_hosts

let test_delta_identical_table_ships_nothing () =
  let g, _ = Generators.now_c () in
  let table = table_of g in
  let p = Delta.plan ~installed:(Delta.of_routes table) table in
  Alcotest.(check int) "every host unchanged" (Graph.num_hosts g)
    p.Delta.unchanged_hosts;
  Alcotest.(check int) "no bytes to ship" 0 p.Delta.delta_bytes

let test_delta_distribute_advances_ledger () =
  let g, _ = Generators.now_c () in
  let table = table_of g in
  let leader = Option.get (Graph.host_by_name g "C-util") in
  match Delta.distribute ~installed:Delta.empty table ~actual:g ~leader with
  | Error e -> Alcotest.fail e
  | Ok rep ->
    Alcotest.(check int) "all slices land" 0 rep.Delta.dist.D.hosts_missed;
    Alcotest.(check bool) "cold start ships real bytes" true
      (rep.Delta.sent_bytes > 0);
    (* a second distribution of the same table has nothing to say *)
    let p = Delta.plan ~installed:rep.Delta.installed table in
    Alcotest.(check int) "ledger now current" (Graph.num_hosts g)
      p.Delta.unchanged_hosts

(* ---------- the acceptance scenario ---------- *)

(* A scripted link cut on a fixed-seed topology: the daemon must catch
   it with the cheap incremental sweep, remap, and restore full route
   coverage by delta distribution within 2 epochs of detection —
   shipping strictly fewer bytes than a full redistribution would. *)
let test_daemon_converges_after_link_cut () =
  let g, _ = Generators.now_c () in
  let schedule = Result.get_ok (Schedule.parse "2:cut") in
  let o =
    Result.get_ok (Daemon.run ~schedule ~epochs:6 g)
  in
  let report e = List.nth o.Daemon.reports e in
  (* quiet epoch before the fault: verified, no distribution *)
  let r1 = report 1 in
  Alcotest.(check bool) "epoch 1 verified" true (r1.Daemon.verdict = Daemon.Verified);
  Alcotest.(check bool) "epoch 1 ships nothing" true (r1.Daemon.dist = None);
  (* the cut is detected by incremental verify at epoch 2 *)
  let r2 = report 2 in
  (match r2.Daemon.verdict with
  | Daemon.Changed n -> Alcotest.(check bool) "discrepancies seen" true (n > 0)
  | _ -> Alcotest.fail "epoch 2 should detect the cut");
  Alcotest.(check bool) "remap phase entered" true
    (List.mem Daemon.Remapping r2.Daemon.phases);
  (* routes re-installed with hosts_missed = 0 within 2 epochs *)
  let converged =
    List.exists
      (fun (r : Daemon.epoch_report) ->
        r.Daemon.epoch >= 2 && r.Daemon.epoch <= 4
        && r.Daemon.hosts_total > 0
        && r.Daemon.hosts_covered = r.Daemon.hosts_total
        &&
        match r.Daemon.dist with
        | Some d -> d.Delta.dist.D.hosts_missed = 0
        | None -> false)
      o.Daemon.reports
  in
  Alcotest.(check bool) "full coverage within 2 epochs of the fault" true
    converged;
  let inc =
    match o.Daemon.incidents with
    | [ i ] -> i
    | l -> Alcotest.failf "expected exactly one incident, got %d" (List.length l)
  in
  Alcotest.(check int) "detected at epoch 2" 2 inc.Daemon.detected_epoch;
  Alcotest.(check bool) "resolved within 2 epochs" true
    (inc.Daemon.resolved_epoch <= 4);
  Alcotest.(check bool) "convergence time is positive" true
    (inc.Daemon.converge_ns > 0.0);
  (* the localized fault ships strictly fewer bytes than a full
     redistribution of every slice *)
  let d2 = Option.get r2.Daemon.dist in
  Alcotest.(check bool) "delta strictly beats full redistribution" true
    (d2.Delta.sent_bytes < d2.Delta.full_sent_bytes);
  Alcotest.(check bool) "most slices untouched by a single cut" true
    (d2.Delta.plan.Delta.unchanged_hosts > Graph.num_hosts g / 2);
  Alcotest.(check bool) "daemon ends stable" true
    (o.Daemon.final_phase = Daemon.Stable)

let test_daemon_deterministic () =
  let g, _ = Generators.now_c () in
  let schedule = Result.get_ok (Schedule.parse "1:cut,3:flap=2") in
  let run () = Result.get_ok (Daemon.run ~schedule ~epochs:6 g) in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical epoch reports" true
    (a.Daemon.reports = b.Daemon.reports);
  Alcotest.(check bool) "identical incidents" true
    (a.Daemon.incidents = b.Daemon.incidents)

let test_daemon_reelects_on_leader_death () =
  let g, _ = Generators.now_c () in
  let schedule = Result.get_ok (Schedule.parse "2:kill-leader") in
  let o = Result.get_ok (Daemon.run ~schedule ~epochs:6 g) in
  Alcotest.(check int) "two elections" 2 o.Daemon.elections;
  let r0 = List.nth o.Daemon.reports 0 in
  let r2 = List.nth o.Daemon.reports 2 in
  Alcotest.(check bool) "new leader took over" true
    (r2.Daemon.elected && r2.Daemon.leader <> r0.Daemon.leader);
  Alcotest.(check bool) "still converges" true
    (o.Daemon.final_phase = Daemon.Stable)

let test_daemon_quiet_run_never_redistributes () =
  let g, _ = Generators.now_c () in
  let o = Result.get_ok (Daemon.run ~epochs:5 g) in
  Alcotest.(check int) "one cold-start remap only" 1 o.Daemon.remaps;
  List.iteri
    (fun i (r : Daemon.epoch_report) ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "epoch %d ships nothing" i)
          true (r.Daemon.dist = None))
    o.Daemon.reports

(* A rolling upgrade that pulls the leader's own switch leaves a
   one-host map with no switch, hence no routes to verify through; the
   daemon must still notice when that switch comes back and remap. *)
let test_daemon_sees_leader_switch_return () =
  let g, _ = Generators.now_cab () in
  let schedule =
    Schedule.of_list (Result.get_ok (Schedule.scenario ~epochs:10 "rolling"))
  in
  let config = { Daemon.default_config with Daemon.seed = 12 } in
  let o = Result.get_ok (Daemon.run ~config ~schedule ~epochs:10 g) in
  let r7 = List.nth o.Daemon.reports 7 and r8 = List.nth o.Daemon.reports 8 in
  Alcotest.(check int) "switchless map at epoch 7" 1 r7.Daemon.hosts_total;
  Alcotest.(check int) "its verification sends the switch probe" 1
    r7.Daemon.probes;
  Alcotest.(check bool) "the returned switch triggers a remap" true
    (match r8.Daemon.verdict with Daemon.Changed _ -> true | _ -> false);
  let last = List.nth o.Daemon.reports 9 in
  Alcotest.(check (pair int int)) "ends with every host covered" (100, 100)
    (last.Daemon.hosts_covered, last.Daemon.hosts_total)

(* The alert story of a seeded storm under hotspot load, pinned from
   the daemon as it stood when health rules and SLO objectives were
   two separate engines: every epoch's raised/cleared lists, the final
   health history and the SLO statuses. *)
let storm_alert_story () =
  let g = Generators.fat_tree ~leaves:2 ~hosts_per_leaf:2 ~spines:4 () in
  let schedule =
    Schedule.of_list (Result.get_ok (Schedule.scenario ~epochs:8 "storm"))
  in
  let config =
    {
      Daemon.default_config with
      Daemon.seed = 5;
      load =
        Some (San_slo.Load.spec ~pattern:San_slo.Load.Hotspot 1.0);
      slos = Slo.defaults;
    }
  in
  let o = Result.get_ok (Daemon.run ~config ~schedule ~epochs:8 g) in
  let names l = String.concat "," l in
  List.map
    (fun (r : Daemon.epoch_report) ->
      Printf.sprintf "epoch %d health +[%s] -[%s] slo +[%s] -[%s]"
        r.Daemon.epoch (names r.Daemon.alerts_raised)
        (names r.Daemon.alerts_cleared) (names r.Daemon.slo_raised)
        (names r.Daemon.slo_cleared))
    o.Daemon.reports
  @ List.map
      (fun (a : Slo.alert) ->
        Printf.sprintf "alert %s raised %d cleared %s worst %h"
          a.Slo.objective.Slo.name a.Slo.raised_epoch
          (match a.Slo.cleared_epoch with
          | Some e -> string_of_int e
          | None -> "-")
          a.Slo.worst)
      o.Daemon.health
  @ List.map
      (fun (st : Slo.status) ->
        Printf.sprintf "slo %s eligible %d bad %d burn %h streak %d alerting %b"
          st.Slo.st_objective.Slo.name st.Slo.st_eligible st.Slo.st_bad
          st.Slo.st_burn_rate st.Slo.st_streak st.Slo.st_alerting)
      o.Daemon.slo

let storm_alert_story_pinned =
  [
    "epoch 0 health +[] -[] slo +[] -[]";
    "epoch 1 health +[] -[] slo +[] -[]";
    "epoch 2 health +[coverage] -[] slo +[] -[]";
    "epoch 3 health +[] -[coverage] slo +[slo:coverage-p95] -[]";
    "epoch 4 health +[coverage] -[] slo +[] -[]";
    "epoch 5 health +[] -[] slo +[] -[]";
    "epoch 6 health +[] -[] slo +[] -[]";
    "epoch 7 health +[] -[] slo +[] -[]";
    "alert coverage raised 2 cleared 3 worst 0x0p+0";
    "alert coverage raised 4 cleared - worst 0x0p+0";
    "slo converge-p95 eligible 5 bad 0 burn 0x0p+0 streak 0 alerting false";
    "slo epoch-p99 eligible 7 bad 0 burn 0x0p+0 streak 0 alerting false";
    "slo drop-p95 eligible 0 bad 0 burn 0x0p+0 streak 0 alerting false";
    "slo coverage-p95 eligible 7 bad 5 burn 0x1.c92492492491ep+3 streak 6 \
     alerting true";
  ]

let test_daemon_storm_alert_story () =
  Alcotest.(check (list string)) "alert story" storm_alert_story_pinned
    (storm_alert_story ())

let test_daemon_rejects_hostless_net () =
  let g = Graph.create () in
  ignore (Graph.add_switch g ());
  match Daemon.run ~epochs:1 g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a network with no hosts cannot be daemonized"

let () =
  Alcotest.run "san_service"
    [
      ( "world",
        [
          Alcotest.test_case "kill and revive" `Quick test_world_kill_revive;
          Alcotest.test_case "deferred repair" `Quick test_world_deferred_repair;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "parse" `Quick test_schedule_parse;
          Alcotest.test_case "rejects garbage" `Quick test_schedule_parse_rejects;
          Alcotest.test_case "empty" `Quick test_schedule_empty;
        ] );
      ( "delta",
        [
          Alcotest.test_case "cold ledger ships full" `Quick
            test_delta_cold_ledger_ships_full;
          Alcotest.test_case "identical table ships nothing" `Quick
            test_delta_identical_table_ships_nothing;
          Alcotest.test_case "distribute advances ledger" `Quick
            test_delta_distribute_advances_ledger;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "converges after link cut" `Quick
            test_daemon_converges_after_link_cut;
          Alcotest.test_case "deterministic" `Quick test_daemon_deterministic;
          Alcotest.test_case "sees the leader's switch return" `Quick
            test_daemon_sees_leader_switch_return;
          Alcotest.test_case "storm alert story" `Quick
            test_daemon_storm_alert_story;
          Alcotest.test_case "re-elects on leader death" `Quick
            test_daemon_reelects_on_leader_death;
          Alcotest.test_case "quiet run" `Quick
            test_daemon_quiet_run_never_redistributes;
          Alcotest.test_case "rejects hostless net" `Quick
            test_daemon_rejects_hostless_net;
        ] );
    ]
