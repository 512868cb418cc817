(* The SLO observatory: digest merge algebra (merge of digests equals
   the digest of the concatenated streams, exactly), quantile accuracy
   within the guaranteed relative error, load-window
   coupling, and burn-rate alerts raising and clearing under a
   scripted load ramp. *)

open San_slo
module Digest = San_obs.Digest
module Slo = San_telemetry.Slo

let close ?(rel = 0.10) msg expected got =
  let ok = Float.abs (got -. expected) <= rel *. Float.abs expected in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected ~%g, got %g" msg expected got)
    true ok

(* Deterministic pseudo-random samples without depending on the global
   Random state. *)
let samples seed n =
  let rng = San_util.Prng.create seed in
  List.init n (fun _ -> San_util.Prng.float rng 1e6)

(* ------------------------------------------------------------------ *)
(* Digest merge algebra                                                *)

(* Equality up to float addition order: bucket counts and quantiles
   must agree exactly, [sum] only to rounding (merge adds partial sums
   in a different order than streaming). *)
let digests_equal msg a b =
  Alcotest.(check int) (msg ^ ": count") (Digest.count a) (Digest.count b);
  close ~rel:1e-9 (msg ^ ": sum") (Digest.sum a) (Digest.sum b);
  List.iter
    (fun q ->
      close ~rel:1e-9
        (Printf.sprintf "%s: q%.2f" msg q)
        (Digest.quantile a q) (Digest.quantile b q))
    [ 0.0; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ]

let test_merge_is_concat () =
  let xs = samples 1 700 and ys = samples 2 300 in
  let merged = Digest.merge (Digest.of_list xs) (Digest.of_list ys) in
  digests_equal "merge = concat" merged (Digest.of_list (xs @ ys))

let test_merge_commutes_and_associates () =
  let a = Digest.of_list (samples 3 100)
  and b = Digest.of_list (samples 4 200)
  and c = Digest.of_list (samples 5 50) in
  digests_equal "commute" (Digest.merge a b) (Digest.merge b a);
  digests_equal "associate"
    (Digest.merge (Digest.merge a b) c)
    (Digest.merge a (Digest.merge b c));
  digests_equal "merge_all" (Digest.merge_all [ a; b; c ])
    (Digest.merge (Digest.merge a b) c)

let test_merge_empty_identity () =
  let a = Digest.of_list (samples 6 120) in
  digests_equal "empty right" a (Digest.merge a (Digest.create ()));
  digests_equal "empty left" a (Digest.merge (Digest.create ()) a);
  Alcotest.(check bool) "empty is empty" true
    (Digest.is_empty (Digest.merge_all []))

let test_merge_does_not_mutate () =
  let a = Digest.of_list (samples 7 40) in
  let before = San_util.Json.to_string (Digest.to_json a) in
  ignore (Digest.merge a (Digest.of_list (samples 8 40)));
  Alcotest.(check string) "left argument untouched" before
    (San_util.Json.to_string (Digest.to_json a))

let test_quantile_accuracy () =
  (* 1..10_000: the rank-q element is known exactly, the digest must
     answer within its guaranteed relative error. *)
  let d = Digest.create () in
  for i = 1 to 10_000 do
    Digest.add d (float_of_int i)
  done;
  List.iter
    (fun q ->
      close ~rel:Digest.relative_error
        (Printf.sprintf "p%02.0f of 1..10k" (q *. 100.))
        (q *. 10_000.0) (Digest.quantile d q))
    [ 0.5; 0.9; 0.95; 0.99 ];
  (* Extremes answer a bucket midpoint clamped into [min, max], so
     they too are within the guaranteed error of the true extremes. *)
  close ~rel:0.05 "p0 near min" 1.0 (Digest.quantile d 0.0);
  close ~rel:0.05 "p100 near max" 10_000.0 (Digest.quantile d 1.0)

let test_zero_and_negative_bucket () =
  (* Non-positive values share one zero bucket that answers 0.0; the
     geometric buckets only resolve positive values. *)
  let d = Digest.of_list [ -5.0; 0.0; 0.0; 10.0 ] in
  Alcotest.(check int) "count" 4 (Digest.count d);
  Alcotest.(check (float 0.0)) "p0 answers from the zero bucket" 0.0
    (Digest.quantile d 0.0);
  Alcotest.(check (float 0.0)) "p50 still in the zero bucket" 0.0
    (Digest.quantile d 0.5);
  close ~rel:0.05 "p100 near max" 10.0 (Digest.quantile d 1.0)

let test_quantile_empty_and_single () =
  (* The serving/bench paths take p99 of whatever a run produced,
     including nothing: an empty digest must answer 0.0 (never index
     out of range or leak vmin = +inf), and a one-sample digest must
     answer that sample exactly at every q via the [vmin, vmax]
     clamp. *)
  let e = Digest.create () in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "empty q=%g" q)
        0.0 (Digest.quantile e q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  let one = Digest.of_list [ 42.0 ] in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single q=%g" q)
        42.0 (Digest.quantile one q))
    [ 0.0; 0.5; 0.99; 1.0 ]

(* ------------------------------------------------------------------ *)
(* SLO burn rate under a scripted ramp                                 *)

let sample ?(epoch = 0) ?(load = 0.1) ?converge ?(epoch_ns = 1e6)
    ?(drop = 0.0) ?(coverage = 1.0) () =
  {
    Slo.epoch;
    load;
    coverage;
    convergence_epochs = 0;
    converge_ns = converge;
    epoch_ns;
    delta_bytes = 0;
    missed_slices = 0;
    probe_drop_rate = 0.0;
    drop_rate = drop;
  }

let test_burn_raise_and_clear () =
  (* p50 drop-rate objective (budget 0.5), 10-epoch window, raise
     after 2 sustained burning epochs: a load ramp pushes the bad
     fraction past half the window, the alert raises once burn has
     held >= 1.0 for two epochs, and clears when the ramp backs off
     and the bad epochs age out of the window. *)
  let o =
    Slo.objective ~name:"drop" ~quantile:0.5 ~window:10 ~for_epochs:2
      ~metric:Slo.Drop_rate ~cmp:Slo.Below 0.2
  in
  let t = Slo.create ~label:"slo" [ o ] in
  let feed epoch drop = Slo.observe t (sample ~epoch ~drop ()) in
  (* Healthy epochs: no alert. *)
  for e = 0 to 3 do
    let raised, cleared = feed e 0.05 in
    Alcotest.(check (list string)) "healthy: nothing raised" [] raised;
    Alcotest.(check (list string)) "healthy: nothing cleared" [] cleared
  done;
  (* The ramp: drops breach the limit every epoch. Burn only reaches
     1.0 once half the window is bad (epoch 7: 4/8 bad against the
     50% budget) and must sustain [for_epochs] before raising. *)
  for e = 4 to 7 do
    let raised, _ = feed e 0.9 in
    Alcotest.(check (list string))
      (Printf.sprintf "epoch %d: not yet" e)
      [] raised
  done;
  let raised, _ = feed 8 0.9 in
  Alcotest.(check (list string)) "second burning epoch raises"
    [ "slo:drop" ] raised;
  let st = List.hd (Slo.status t) in
  Alcotest.(check bool) "alerting" true st.Slo.st_alerting;
  Alcotest.(check bool)
    (Printf.sprintf "burning (%.2f)" st.Slo.st_burn_rate)
    true (st.Slo.st_burn_rate >= 1.0);
  (* Re-raising while active would be alert spam. *)
  let raised, _ = feed 9 0.9 in
  Alcotest.(check (list string)) "no re-raise while active" [] raised;
  (* Back off: bad epochs age out of the window until burn < 1. *)
  let cleared = ref [] in
  for e = 10 to 25 do
    let _, c = feed e 0.05 in
    cleared := !cleared @ c
  done;
  Alcotest.(check (list string)) "recovery clears" [ "slo:drop" ] !cleared;
  let st = List.hd (Slo.status t) in
  Alcotest.(check bool) "not alerting after clear" false st.Slo.st_alerting

let test_max_load_exempts () =
  (* Epochs above the objective's load contract are never charged. *)
  let o =
    Slo.objective ~name:"drop" ~quantile:0.5 ~max_load:0.3 ~window:10
      ~for_epochs:1 ~metric:Slo.Drop_rate ~cmp:Slo.Below 0.2
  in
  let t = Slo.create ~label:"slo" [ o ] in
  for e = 0 to 5 do
    let raised, _ =
      Slo.observe t (sample ~epoch:e ~load:2.0 ~drop:0.99 ())
    in
    Alcotest.(check (list string)) "over-contract epochs exempt" [] raised
  done;
  let st = List.hd (Slo.status t) in
  Alcotest.(check int) "nothing eligible" 0 st.Slo.st_eligible

let test_converge_charged_only_on_incidents () =
  let o =
    Slo.objective ~name:"cvg" ~quantile:0.5 ~window:10 ~for_epochs:1
      ~metric:Slo.Converge_ns ~cmp:Slo.Below 100.0
  in
  let t = Slo.create ~label:"slo" [ o ] in
  (* Quiet epochs carry no incident: not eligible. *)
  for e = 0 to 4 do
    ignore (Slo.observe t (sample ~epoch:e ()))
  done;
  Alcotest.(check int) "quiet epochs not charged" 0
    (List.hd (Slo.status t)).Slo.st_eligible;
  let raised, _ = Slo.observe t (sample ~epoch:5 ~converge:500.0 ()) in
  Alcotest.(check (list string)) "slow incident raises" [ "slo:cvg" ] raised

let test_coverage_is_lower_bound () =
  let o =
    Slo.objective ~name:"cov" ~quantile:0.5 ~window:10 ~for_epochs:1
      ~metric:Slo.Coverage ~cmp:Slo.Above 0.5
  in
  let t = Slo.create ~label:"slo" [ o ] in
  let raised, _ = Slo.observe t (sample ~coverage:0.2 ()) in
  Alcotest.(check (list string)) "low coverage raises" [ "slo:cov" ] raised

let test_parse_roundtrip () =
  List.iter
    (fun s ->
      match Slo.parse s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok o ->
        Alcotest.(check string)
          (Printf.sprintf "roundtrip %S" s)
          s (Slo.to_string o))
    [ "converge:p99<2e+08@0.3"; "drop:p95<0.25"; "coverage:p90>0.8" ];
  List.iter
    (fun s ->
      match Slo.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parse %S should have failed" s)
    [ ""; "converge"; "converge:p0<1"; "bogus:p95<1"; "drop:p95!0.2" ];
  (* The ship-with defaults round-trip through the grammar too. *)
  List.iter
    (fun o ->
      match Slo.parse (Slo.to_string o) with
      | Error e -> Alcotest.failf "default %S: %s" (Slo.to_string o) e
      | Ok o' ->
        Alcotest.(check string) "default roundtrips" (Slo.to_string o)
          (Slo.to_string o'))
    Slo.defaults

(* ------------------------------------------------------------------ *)
(* Load windows on a live graph                                        *)

let test_load_drive_and_coupling () =
  let g, _ = San_topology.Generators.now_cab () in
  let table = San_routing.Routes.compute g in
  let rng = San_util.Prng.create 11 in
  let r = Load.drive ~rng (Load.spec ~pattern:Load.Incast 5.0) ~table g in
  Alcotest.(check bool) "worms injected" true (r.Load.r_injected > 0);
  Alcotest.(check int) "injections accounted" r.Load.r_injected
    (r.Load.r_delivered + r.Load.r_dropped_reset
   + r.Load.r_dropped_bad_route);
  Alcotest.(check bool) "drop rate in [0,1]" true
    (r.Load.r_drop_rate >= 0.0 && r.Load.r_drop_rate <= 1.0);
  Alcotest.(check bool) "loss clamped" true
    (r.Load.r_loss_per_crossing >= 0.0
    && r.Load.r_loss_per_crossing <= 0.5);
  Alcotest.(check int) "latency digest counts deliveries"
    r.Load.r_delivered
    (Digest.count r.Load.r_latency);
  match Load.traffic_of_report r (San_util.Prng.create 12) with
  | None ->
    Alcotest.(check bool) "no traffic only when lossless" true
      (r.Load.r_loss_per_crossing = 0.0)
  | Some (p, _) ->
    close ~rel:1e-9 "coupled loss is the measured loss"
      r.Load.r_loss_per_crossing p

let test_daemon_under_load_runs_slos () =
  (* End to end: daemon with background load and the default SLOs;
     every steady-state epoch gets a load report and the outcome
     carries a status per objective. *)
  let g, _ = San_topology.Generators.now_cab () in
  let config =
    {
      San_service.Daemon.default_config with
      San_service.Daemon.seed = 5;
      load = Some (Load.spec ~pattern:Load.Hotspot 1.0);
      slos = Slo.defaults;
    }
  in
  match San_service.Daemon.run ~config ~epochs:5 g with
  | Error e -> Alcotest.failf "daemon: %s" e
  | Ok o ->
    Alcotest.(check int) "one status per objective"
      (List.length Slo.defaults)
      (List.length o.San_service.Daemon.slo);
    let loaded =
      List.filter
        (fun (r : San_service.Daemon.epoch_report) ->
          r.San_service.Daemon.load <> None)
        o.San_service.Daemon.reports
    in
    Alcotest.(check bool) "steady-state epochs drove load" true
      (List.length loaded >= 3)

let () =
  Alcotest.run "san_slo"
    [
      ( "digest",
        [
          Alcotest.test_case "merge = concat" `Quick test_merge_is_concat;
          Alcotest.test_case "commutes/associates" `Quick
            test_merge_commutes_and_associates;
          Alcotest.test_case "empty identity" `Quick
            test_merge_empty_identity;
          Alcotest.test_case "merge pure" `Quick test_merge_does_not_mutate;
          Alcotest.test_case "quantile accuracy" `Quick
            test_quantile_accuracy;
          Alcotest.test_case "zero bucket" `Quick
            test_zero_and_negative_bucket;
          Alcotest.test_case "empty and single-sample quantiles" `Quick
            test_quantile_empty_and_single;
        ] );
      ( "slo",
        [
          Alcotest.test_case "burn raises and clears" `Quick
            test_burn_raise_and_clear;
          Alcotest.test_case "max_load exempts" `Quick test_max_load_exempts;
          Alcotest.test_case "converge charged on incidents" `Quick
            test_converge_charged_only_on_incidents;
          Alcotest.test_case "coverage lower bound" `Quick
            test_coverage_is_lower_bound;
          Alcotest.test_case "spec grammar roundtrips" `Quick
            test_parse_roundtrip;
        ] );
      ( "load",
        [
          Alcotest.test_case "drive and coupling" `Quick
            test_load_drive_and_coupling;
          Alcotest.test_case "daemon under load" `Slow
            test_daemon_under_load_runs_slos;
        ] );
    ]
