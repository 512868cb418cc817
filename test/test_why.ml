(* The provenance layer end to end: explain resolves every Figure-3
   switch to justification trees terminating only in probe/axiom
   leaves, blame attributes map diffs to probes, flight recordings
   round-trip through postmortem, and a stuck election co-simulation
   surfaces as a typed outcome instead of an exception. *)

open San_topology
module Why = San_why.Why
module Explain = San_why.Explain
module Replay = San_why.Replay

let with_why f =
  Why.set_enabled true;
  Fun.protect ~finally:(fun () -> Why.set_enabled false) f

(* Map a fabric with the ledger on; returns (map, snapshot taken after
   route computation so orientation entries are recorded too). *)
let map_with_why ?(routes = false) g ~mapper_name =
  with_why (fun () ->
      let mapper = Option.get (Graph.host_by_name g mapper_name) in
      let net = San_simnet.Network.create g in
      let r = San_mapper.Berkeley.run net ~mapper in
      let map = Result.get_ok r.San_mapper.Berkeley.map in
      if routes then ignore (San_routing.Routes.compute map);
      (map, Why.capture ()))

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)

let test_explain_every_switch_terminates_in_probes () =
  let g, _ = Generators.now_c () in
  let map, snap = map_with_why g ~mapper_name:"C-util" in
  let replay = Replay.build snap in
  List.iter
    (fun s ->
      let name = Graph.name map s in
      match Explain.roots_of ~actual:g ~map ~snap ~replay (Explain.Switch name)
      with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok (_, roots) ->
        Alcotest.(check bool)
          (name ^ ": non-empty roots") true (roots <> []);
        let leaves = List.concat_map (Explain.leaves snap) roots in
        Alcotest.(check bool) (name ^ ": has leaves") true (leaves <> []);
        List.iter
          (fun (did, e) ->
            match e with
            | Why.Probe _ | Why.Axiom _ -> ()
            | Why.Deduced _ ->
              Alcotest.failf "%s: leaf d%d is a deduction" name did)
          leaves;
        Alcotest.(check bool)
          (name ^ ": at least one probe leaf")
          true
          (List.exists
             (fun (_, e) -> match e with Why.Probe _ -> true | _ -> false)
             leaves))
    (Graph.switches map)

let test_explain_resolves_actual_names () =
  let g, _ = Generators.now_c () in
  let map, snap = map_with_why g ~mapper_name:"C-util" in
  let replay = Replay.build snap in
  (* Every actual switch should be reachable through Diff.correspond. *)
  List.iter
    (fun s ->
      let name = Graph.name g s in
      match Explain.roots_of ~actual:g ~map ~snap ~replay (Explain.Switch name)
      with
      | Error e -> Alcotest.failf "actual name %s: %s" name e
      | Ok (header, roots) ->
        Alcotest.(check bool) (name ^ ": roots") true (roots <> []);
        Alcotest.(check bool)
          (name ^ ": header names the actual switch")
          true
          (Astring.String.is_infix ~affix:name header))
    (Graph.switches g)

let test_explain_link_and_orientation () =
  let g, _ = Generators.now_c () in
  let map, snap = map_with_why ~routes:true g ~mapper_name:"C-util" in
  let replay = Replay.build snap in
  (* The mapper's own cable: an axiom plus an orientation entry. *)
  let util = Option.get (Graph.host_by_name map "C-util") in
  let _, other = List.hd (Graph.wired_ports map util) in
  let q =
    Result.get_ok
      (Explain.parse_query
         (Printf.sprintf "link:C-util.0-%s" (Explain.map_end_name map other)))
  in
  match Explain.roots_of ~actual:g ~map ~snap ~replay q with
  | Error e -> Alcotest.fail e
  | Ok (_, roots) ->
    let rendered = Format.asprintf "%a" (Explain.pp_roots snap) roots in
    Alcotest.(check bool) "mentions the axiom or a probe" true
      (Astring.String.is_infix ~affix:"axiom" rendered
      || Astring.String.is_infix ~affix:"probe" rendered);
    Alcotest.(check bool) "cites the up*/down* orientation" true
      (Astring.String.is_infix ~affix:"updown_orient" rendered)

let test_explain_route_per_hop () =
  let g, _ = Generators.now_c () in
  let map, snap = map_with_why ~routes:true g ~mapper_name:"C-util" in
  let replay = Replay.build snap in
  let table = San_routing.Routes.compute map in
  let src = Option.get (Graph.host_by_name map "C-h2") in
  let dst = Option.get (Graph.host_by_name map "C-h9") in
  let turns = Option.get (San_routing.Routes.route table ~src ~dst) in
  let tr = San_simnet.Worm.eval map ~src ~turns in
  let hops = tr.San_simnet.Worm.hops in
  Alcotest.(check bool) "route has hops" true (hops <> []);
  let per_hop = Explain.route_roots ~map ~snap ~replay ~hops in
  Alcotest.(check int) "one root set per hop" (List.length hops)
    (List.length per_hop);
  List.iter
    (fun (desc, roots) ->
      Alcotest.(check bool) (desc ^ ": justified") true (roots <> []))
    per_hop

let test_explain_parse_query () =
  let ok q = Result.is_ok (Explain.parse_query q) in
  Alcotest.(check bool) "switch" true (ok "switch:m3");
  Alcotest.(check bool) "link with dashes in names" true
    (ok "link:C-h0.0-C-leaf0.4");
  Alcotest.(check bool) "route" true (ok "route:h0->h1");
  Alcotest.(check bool) "garbage" false (ok "why:me");
  Alcotest.(check bool) "half a link" false (ok "link:h0.0")

let test_dot_export_well_formed () =
  let g = Generators.star ~leaves:3 () in
  let map, snap = map_with_why g ~mapper_name:"h0" in
  let replay = Replay.build snap in
  let sw = List.hd (Graph.switches map) in
  let vid =
    match San_why.Replay.vid_of_map_switch (Graph.name map sw) with
    | Some v -> v
    | None -> Alcotest.fail "map switch name did not parse"
  in
  let roots = Explain.roots_for_switch snap replay ~vid in
  let dot = Explain.dot_of_roots snap roots in
  Alcotest.(check bool) "digraph" true
    (Astring.String.is_prefix ~affix:"digraph why" dot);
  Alcotest.(check bool) "closes" true
    (Astring.String.is_suffix ~affix:"}\n" dot)

(* ------------------------------------------------------------------ *)
(* Ledger invariants and serialization                                 *)

let test_ledger_entries_cite_backwards () =
  let g, _ = Generators.now_c () in
  let _, snap = map_with_why ~routes:true g ~mapper_name:"C-util" in
  List.iter
    (fun (did, e) ->
      match e with
      | Why.Deduced { probes; deps; _ } ->
        List.iter
          (fun p ->
            if p < 0 || p >= did then
              Alcotest.failf "d%d cites d%d (not strictly earlier)" did p)
          (probes @ deps)
      | _ -> ())
    (Why.entries snap)

let test_entry_json_roundtrip () =
  let entries =
    [
      (0, Why.Probe { kind = Why.Host_probe; turns = [ 1; -2 ]; resp = "host h3" });
      (1, Why.Probe { kind = Why.Switch_probe; turns = []; resp = "silence" });
      (2, Why.Axiom { fact = lazy "ground truth" });
      ( 3,
        Why.Deduced
          {
            rule = "d1_slot_conflict";
            fact = lazy "v1 = v2";
            probes = [ 0; 1 ];
            deps = [ 2 ];
          } );
    ]
  in
  List.iter
    (fun (did, e) ->
      let j = Why.entry_to_json did e in
      match Why.entry_of_json j with
      | None -> Alcotest.failf "d%d did not parse back" did
      | Some (did', e') ->
        Alcotest.(check int) "did" did did';
        Alcotest.(check string)
          "same rendering"
          (Format.asprintf "%a" Why.pp_entry (did, e))
          (Format.asprintf "%a" Why.pp_entry (did', e')))
    entries

let test_disabled_ledger_records_nothing () =
  Why.set_enabled false;
  Alcotest.(check int) "record_probe" (-1)
    (Why.record_probe ~kind:Why.Host_probe ~turns:[ 1 ] ~resp:"x");
  Alcotest.(check int) "deduce" (-1)
    (Why.deduce ~rule:"r" ~fact:(lazy "f") ());
  Alcotest.(check bool) "last_probe" true (Why.last_probe () = None)

(* ------------------------------------------------------------------ *)
(* Blame                                                               *)

let blame_side g ~mapper_name =
  with_why (fun () ->
      let mapper = Option.get (Graph.host_by_name g mapper_name) in
      let net = San_simnet.Network.create g in
      let r = San_mapper.Berkeley.run net ~mapper in
      {
        San_why.Blame.b_map = Result.get_ok r.San_mapper.Berkeley.map;
        b_snap = Why.capture ();
      })

let test_blame_identical_maps_agree () =
  let g = Generators.star ~leaves:4 () in
  let old_ = blame_side g ~mapper_name:"h0" in
  let new_ = blame_side g ~mapper_name:"h0" in
  Alcotest.(check int) "no attributions" 0
    (List.length (San_why.Blame.run ~old_ ~new_))

let test_blame_attributes_new_branch () =
  let old_ = blame_side (Generators.star ~leaves:2 ()) ~mapper_name:"h0" in
  let new_ = blame_side (Generators.star ~leaves:4 ()) ~mapper_name:"h0" in
  let attrs = San_why.Blame.run ~old_ ~new_ in
  Alcotest.(check bool) "found changes" true (attrs <> []);
  (* The two extra hosts must be attributed to actual probes. *)
  List.iter
    (fun name ->
      let hit =
        List.find_opt
          (fun (a : San_why.Blame.attribution) ->
            Astring.String.is_infix ~affix:("host " ^ name) a.San_why.Blame.a_change)
          attrs
      in
      match hit with
      | None -> Alcotest.failf "no attribution mentions host %s" name
      | Some a ->
        Alcotest.(check bool)
          (name ^ " attributed to a probe")
          true
          (a.San_why.Blame.a_probe_did <> None))
    [ "h2"; "h3" ]

(* The turn-0 self-probe story (fuzz-campaign bug 3): an unwired
   mapper and a mapper on an otherwise-empty switch differ only in
   whether the self-probe bounces back, and blame must pin the map
   difference on exactly that probe. *)
let test_blame_turn0_self_probe () =
  let old_ = blame_side (Generators.lone_host ()) ~mapper_name:"h0" in
  let new_ = blame_side (Generators.stub_switch ()) ~mapper_name:"h0" in
  match San_why.Blame.run ~old_ ~new_ with
  | [ a ] ->
    Alcotest.(check bool)
      "the stub switch appeared" true
      (Astring.String.is_infix ~affix:"switch m1 appeared"
         a.San_why.Blame.a_change);
    Alcotest.(check bool)
      "pinned on the turn-0 self-probe" true
      (Astring.String.is_infix ~affix:"host-probe [0]" a.San_why.Blame.a_note);
    (* And the kept root's own evidence cites the same probe. *)
    let replay = San_why.Replay.build new_.San_why.Blame.b_snap in
    let roots =
      San_why.Explain.roots_for_switch new_.San_why.Blame.b_snap replay ~vid:1
    in
    let leaves =
      List.concat_map
        (San_why.Explain.leaves new_.San_why.Blame.b_snap)
        roots
    in
    Alcotest.(check bool)
      "root_confirmed reaches a probe leaf" true
      (List.exists
         (fun (_, e) -> match e with Why.Probe _ -> true | _ -> false)
         leaves)
  | attrs ->
    Alcotest.failf "expected exactly one attribution, got %d"
      (List.length attrs)

(* ------------------------------------------------------------------ *)
(* Flight recorder and postmortem                                      *)

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "san_why_test_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

let test_flight_roundtrip_postmortem () =
  San_obs.Obs.set_enabled true;
  San_obs.Obs.reset ();
  Fun.protect
    ~finally:(fun () -> San_obs.Obs.set_enabled false)
    (fun () ->
      with_why (fun () ->
          San_obs.Obs.emit
            (San_obs.Trace.Daemon_transition
               { epoch = 3; from_ = "stable"; to_ = "degraded" });
          ignore (Why.deduce ~rule:"test_rule" ~fact:(lazy "a test fact") ());
          let path = Filename.concat (temp_dir ()) "flight-roundtrip.jsonl" in
          (match
             San_why.Flight.write ~path ~note:"unit test" ~epoch:3 ()
           with
          | Error e -> Alcotest.fail e
          | Ok () -> ());
          match San_why.Postmortem.read path with
          | Error e -> Alcotest.fail e
          | Ok t ->
            let tl = String.concat "\n" (San_why.Postmortem.timeline t) in
            Alcotest.(check bool) "timeline has the transition" true
              (Astring.String.is_infix ~affix:"stable -> degraded" tl);
            let pp = Format.asprintf "%a" San_why.Postmortem.pp t in
            Alcotest.(check bool) "pp mentions the note" true
              (Astring.String.is_infix ~affix:"unit test" pp);
            Alcotest.(check bool) "pp shows the ledger tail" true
              (Astring.String.is_infix ~affix:"test_rule" pp)))

(* A cut flight file — what a crash mid-write leaves — reads as the
   intact lines before the cut, at every cut offset, and says how many
   bytes it dropped. A bad line that is followed by more lines is
   corruption, not a cut: it fails with a one-line error. *)
let test_cut_flight_reads_its_prefix () =
  San_obs.Obs.set_enabled true;
  San_obs.Obs.reset ();
  Fun.protect
    ~finally:(fun () -> San_obs.Obs.set_enabled false)
    (fun () ->
      with_why (fun () ->
          for e = 0 to 3 do
            San_obs.Obs.emit
              (San_obs.Trace.Daemon_transition
                 { epoch = e; from_ = "stable"; to_ = "verifying" });
            San_obs.Obs.emit
              (San_obs.Trace.Alert_raised { name = "coverage"; epoch = e })
          done;
          ignore (Why.deduce ~rule:"cut_rule" ~fact:(lazy "a cut fact") ());
          let dir = temp_dir () in
          let path = Filename.concat dir "flight-cut-full.jsonl" in
          (match San_why.Flight.write ~path ~note:"cut test" ~epoch:3 () with
          | Error e -> Alcotest.fail e
          | Ok () -> ());
          let full = Result.get_ok (San_why.Postmortem.read path) in
          let text = In_channel.with_open_bin path In_channel.input_all in
          let cut = Filename.concat dir "flight-cut.jsonl" in
          let write s =
            Out_channel.with_open_bin cut (fun oc -> output_string oc s)
          in
          let rec is_prefix a b =
            match (a, b) with
            | [], _ -> true
            | x :: a', y :: b' -> x = y && is_prefix a' b'
            | _ :: _, [] -> false
          in
          for off = 0 to String.length text do
            write (String.sub text 0 off);
            match San_why.Postmortem.read cut with
            | exception ex ->
              Alcotest.failf "offset %d: %s escaped" off (Printexc.to_string ex)
            | Error e -> Alcotest.failf "offset %d: %s" off e
            | Ok t ->
              let kept =
                match String.rindex_from_opt text (max 0 (off - 1)) '\n' with
                | Some i when off > 0 -> i + 1
                | _ -> 0
              in
              Alcotest.(check int)
                (Printf.sprintf "offset %d: dropped bytes" off)
                (off - kept) t.San_why.Postmortem.dropped_bytes;
              if
                not
                  (is_prefix t.San_why.Postmortem.records
                     full.San_why.Postmortem.records
                  && is_prefix t.San_why.Postmortem.entries
                       full.San_why.Postmortem.entries)
              then Alcotest.failf "offset %d: not a prefix of the recording" off
          done;
          Alcotest.(check int) "the intact file drops nothing" 0
            full.San_why.Postmortem.dropped_bytes;
          (* Corrupt the second line and keep the rest: an error, one
             line long, naming the line. *)
          let lines = String.split_on_char '\n' text in
          write
            (String.concat "\n"
               (List.mapi
                  (fun i l ->
                    if i = 1 then String.sub l 0 (String.length l / 2) else l)
                  lines));
          match San_why.Postmortem.read cut with
          | Ok _ -> Alcotest.fail "a corrupt middle line must not read"
          | Error e ->
            Alcotest.(check bool) "names the line" true
              (Astring.String.is_prefix ~affix:"line 2: " e);
            Alcotest.(check bool) "one line" false (String.contains e '\n')))

let test_daemon_flight_reproduces_epoch_story () =
  (* Drive the daemon into Degraded (kill every host on a small star),
     then reconstruct the run from the flight file alone. *)
  let dir = temp_dir () in
  Array.iter
    (fun f ->
      if Astring.String.is_prefix ~affix:"flight-" f then
        Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  San_obs.Obs.set_enabled true;
  San_obs.Obs.reset ();
  Fun.protect
    ~finally:(fun () -> San_obs.Obs.set_enabled false)
    (fun () ->
      let g = Generators.star ~leaves:3 () in
      let schedule =
        Result.get_ok
          (San_service.Schedule.parse "2:kill-leader,3:kill-leader,4:kill-leader")
      in
      let config =
        { San_service.Daemon.default_config with flight_dir = Some dir }
      in
      (match San_service.Daemon.run ~config ~schedule ~epochs:6 g with
      | Error e -> Alcotest.fail e
      | Ok o ->
        Alcotest.(check string)
          "parked degraded" "degraded"
          (San_service.Daemon.phase_to_string o.San_service.Daemon.final_phase));
      let flights =
        List.filter
          (fun f ->
            Astring.String.is_prefix ~affix:"flight-" f
            && f <> "flight-final.jsonl")
          (Array.to_list (Sys.readdir dir))
      in
      Alcotest.(check bool) "a degraded-transition flight exists" true
        (flights <> []);
      let t =
        Result.get_ok
          (San_why.Postmortem.read (Filename.concat dir (List.hd flights)))
      in
      let tl = String.concat "\n" (San_why.Postmortem.timeline t) in
      (* The epoch story from the file alone: cold start, the elections
         as leaders die, and the transition into degraded. *)
      Alcotest.(check bool) "cold start epoch" true
        (Astring.String.is_infix ~affix:"epoch 0" tl);
      Alcotest.(check bool) "reaches degraded" true
        (Astring.String.is_infix ~affix:"-> degraded" tl);
      Alcotest.(check bool) "epoch verdicts present" true
        (Astring.String.is_infix ~affix:"closed:" tl))

(* ------------------------------------------------------------------ *)
(* Election stuck outcome                                              *)

let test_election_normal_run_completes () =
  let g = Generators.star ~leaves:3 () in
  let r = San_mapper.Election_sim.run ~rng:(San_util.Prng.create 5) g in
  (match r.San_mapper.Election_sim.outcome with
  | San_mapper.Election_sim.Completed -> ()
  | San_mapper.Election_sim.Stuck _ -> Alcotest.fail "unexpected Stuck");
  Alcotest.(check bool) "map ok" true
    (Result.is_ok r.San_mapper.Election_sim.map)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "why"
    [
      ( "explain",
        [
          Alcotest.test_case "every Figure-3 switch terminates in probes"
            `Quick test_explain_every_switch_terminates_in_probes;
          Alcotest.test_case "actual names resolve through the map" `Quick
            test_explain_resolves_actual_names;
          Alcotest.test_case "link cites discovery and orientation" `Quick
            test_explain_link_and_orientation;
          Alcotest.test_case "route justifies every hop" `Quick
            test_explain_route_per_hop;
          Alcotest.test_case "query parser" `Quick test_explain_parse_query;
          Alcotest.test_case "dot export well-formed" `Quick
            test_dot_export_well_formed;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "entries cite strictly backwards" `Quick
            test_ledger_entries_cite_backwards;
          Alcotest.test_case "json roundtrip" `Quick test_entry_json_roundtrip;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_ledger_records_nothing;
        ] );
      ( "blame",
        [
          Alcotest.test_case "identical maps agree" `Quick
            test_blame_identical_maps_agree;
          Alcotest.test_case "new branch attributed to probes" `Quick
            test_blame_attributes_new_branch;
          Alcotest.test_case "turn-0 self-probe pinpointed" `Quick
            test_blame_turn0_self_probe;
        ] );
      ( "flight",
        [
          Alcotest.test_case "write/read roundtrip" `Quick
            test_flight_roundtrip_postmortem;
          Alcotest.test_case "cut flight reads its prefix" `Quick
            test_cut_flight_reads_its_prefix;
          Alcotest.test_case "daemon flight reproduces the epoch story"
            `Quick test_daemon_flight_reproduces_epoch_story;
        ] );
      ( "election",
        [
          Alcotest.test_case "normal run completes" `Quick
            test_election_normal_run_completes;
        ] );
    ]
