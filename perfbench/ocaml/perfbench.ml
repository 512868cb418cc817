(* One benchmark workload, measured in this process on one thread.

   perfbench.exe --workload W --seed N --seconds S [--trace] [--spans F]
                 [--tmp DIR]

   Set-up runs once; then the workload's unit operation is repeated
   until the next one would overrun S seconds (always at least the
   minimum the workload needs). Once the heap figure has been read,
   set-up is timed several times over between operations. Every
   operation's output is checked. The process prints one JSON
   object on stdout: raw samples, deterministic values, check counts
   and, with --trace, the per-layer numbers from the span recorder.
   perfbench/run.py turns that into the benchmark's metrics. *)

open San_topology
module B = San_mapper.Berkeley
module Json = San_util.Json
module Prng = San_util.Prng

let clock = Unix.gettimeofday
let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let traced = ref false
let spans_file = ref ""
let tmp_dir = ref ""

(* ------------------------------------------------------------------ *)
(* What a run reports                                                  *)

type acc = {
  mutable setup_s : float list;
  mutable setup_cal : float list;  (** kernel time (ms) around each *)
  mutable op_ms : float list;  (** host latency of each unit operation *)
  mutable op_t : float list;  (** and its start, on [clock] *)
  mutable work : float;  (** work units done by the timed operations *)
  mutable busy_s : float;  (** host time of the timed operations *)
  mutable work_parts : (float * float * float) list;
      (** work, host seconds and start of each piece of timed work *)
  mutable ops : int;
  mutable gc_words : float;  (** allocated by the timed operations *)
  mutable gc_majors : int;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable det : (string * float) list;
      (** deterministic per-operation values; a traced run must
          reproduce them exactly *)
  mutable values : (string * float) list;  (** workload-level values *)
  mutable samples : (string * float list) list;
  mutable layers : (string * float) list;  (** per-layer values (traced) *)
  mutable heap_mb : float option;
      (** Gc top heap after set-up and a fixed number of operations *)
}

let acc =
  {
    setup_s = [];
    setup_cal = [];
    op_ms = [];
    op_t = [];
    work = 0.0;
    busy_s = 0.0;
    work_parts = [];
    ops = 0;
    gc_words = 0.0;
    gc_majors = 0;
    attempted = 0;
    failed = 0;
    failures = [];
    det = [];
    values = [];
    samples = [];
    layers = [];
    heap_mb = None;
  }

let check ?(n = 1) ?(bad = 0) what =
  acc.attempted <- acc.attempted + n;
  if bad > 0 then begin
    acc.failed <- acc.failed + bad;
    if List.length acc.failures < 20 then acc.failures <- what :: acc.failures
  end

let ok cond what = check ~bad:(if cond then 0 else 1) what
(* Start of the last [measured] call. *)
let op_start = ref 0.0

let record_work ~t0 ~s ~work =
  acc.work <- acc.work +. work;
  acc.busy_s <- acc.busy_s +. s;
  acc.work_parts <- (work, s, t0) :: acc.work_parts

let record_op ~ms ~work =
  acc.op_ms <- ms :: acc.op_ms;
  acc.op_t <- !op_start :: acc.op_t;
  record_work ~t0:!op_start ~s:(ms /. 1e3) ~work

(* The heap figure is read at a fixed point of the operation sequence,
   so it does not depend on how many operations the time allows. *)
let mark_heap () =
  if acc.heap_mb = None then
    acc.heap_mb <-
      Some (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0)

let value k v = acc.values <- (k, v) :: acc.values
let layer k v = acc.layers <- (k, v) :: acc.layers
let sample k vs = acc.samples <- (k, vs) :: acc.samples

(* Deterministic values must agree across every operation of the run
   (and, checked by run.py, between the untraced and traced runs). *)
let det k v =
  match List.assoc_opt k acc.det with
  | None -> acc.det <- (k, v) :: acc.det
  | Some v0 ->
    ok (v0 = v)
      (Printf.sprintf "%s changed between operations: %.17g then %.17g" k v0 v)

(* Words allocated so far in this domain's minor heap. This count is
   exact and repeats run to run; OCaml 5's major-heap counters include
   promotion bookkeeping that varies with collection timing, so
   blocks allocated directly in the major heap (large arrays) are left
   out of every allocation figure. *)
let allocated () = Gc.minor_words ()

let majors () = (Gc.quick_stat ()).Gc.major_collections

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let time f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

(* The calibration kernel: a fixed piece of work in the style of the
   code under test but independent of it (a balanced-tree build and
   fold, a list sort), run between set-up samples and between
   operations at most every quarter second. The host's speed drifts by
   tens of percent, at times by half, over seconds to minutes for the
   same code. run.py divides each timed piece (a set-up sample, an
   operation, a daemon epoch) by the kernel time around it, so that
   this drift cancels out.

   The kernel's garbage would add to the heap figure, so no kernel runs
   before that figure is read: set-up runs once untimed, the workload's
   first operations run, the heap figure is read, and only then are
   the set-up samples taken and the kernel started. *)
module IM = Map.Make (Int)

(* Kernel times (ms) among the operations, and when each ran (its
   midpoint, on [clock]). *)
let cal_ms = ref []
let cal_t = ref []
let last_cal = ref 0.0
let last_kernel_ms = ref 0.0

(* [passes] kernel runs; with [~ops:false] their times are not counted
   among the operations' kernel times. *)
let calibrate ?(passes = 3) ?(ops = true) () =
  for _ = 1 to passes do
    let t0 = clock () in
    let m = ref IM.empty in
    for i = 0 to 39_999 do
      m := IM.add ((i * 40503) land 0xFFFFF) i !m
    done;
    let s = IM.fold (fun k v a -> a + k + v) !m 0 in
    let l = List.sort compare (List.init 40_000 (fun i -> (i * 7919) land 0xFFFF)) in
    let t1 = clock () in
    ignore (Sys.opaque_identity (s + List.hd l));
    let ms = (t1 -. t0) *. 1e3 in
    if ops then begin
      cal_ms := ms :: !cal_ms;
      cal_t := ((t0 +. t1) /. 2.0) :: !cal_t
    end;
    last_cal := t1;
    last_kernel_ms := ms
  done

(* A set-up sample, in seconds, and the kernel time (ms) it is to be
   divided by. *)
let setup_sample ~s ~kernel_ms =
  acc.setup_s <- s :: acc.setup_s;
  acc.setup_cal <- kernel_ms :: acc.setup_cal

(* Set-up samples: [reps] repetitions of [per] set-ups each, timed as
   one and divided by [per], each paired with the mean of the kernel
   runs just before and just after it, so that sample and kernel see
   the same host speed. A full collection before each sample gives
   every sample the same heap to start from. *)
let time_setup ~reps ~per f =
  calibrate ~passes:1 ~ops:false ();
  for _ = 1 to reps do
    let before = !last_kernel_ms in
    Gc.full_major ();
    let t0 = clock () in
    for _ = 1 to per do
      ignore (Sys.opaque_identity (f ()))
    done;
    let s = (clock () -. t0) /. float_of_int per in
    calibrate ~passes:1 ~ops:false ();
    setup_sample ~s ~kernel_ms:((before +. !last_kernel_ms) /. 2.0)
  done

(* Set-up timing waiting for the heap figure to be read. *)
let pending_setup = ref None

(* The workload's set-up: run once, untimed, for the workload to use;
   its samples are taken once the heap figure has been read. *)
let setup ~reps ?(per = 1) f =
  pending_setup := Some (fun () -> time_setup ~reps ~per f);
  f ()

let after_heap_mark () =
  match !pending_setup with
  | Some t ->
    pending_setup := None;
    t ()
  | None -> ()

(* Run [op i] for i = 0, 1, ... : at least [min] times, then only while
   the next operation, predicted to last as long as the previous one,
   still ends before the deadline. Returns the number run. *)
let repeat ?(min = 1) ~deadline op =
  let rec go i last =
    if acc.heap_mb <> None then begin
      after_heap_mark ();
      if clock () -. !last_cal > 0.25 then calibrate ()
    end;
    if i >= min && clock () +. last > deadline then i
    else begin
      let t0 = clock () in
      op i;
      go (i + 1) (clock () -. t0)
    end
  in
  go 0 0.0

(* A timed operation: host time, plus its allocation and major
   collections into the run's totals. *)
let measured f =
  op_start := clock ();
  let w0 = allocated () and g0 = majors () in
  let r, dt = time f in
  acc.ops <- acc.ops + 1;
  acc.gc_words <- acc.gc_words +. (allocated () -. w0);
  acc.gc_majors <- acc.gc_majors + (majors () - g0);
  (r, dt)

let median_time ~reps f = median (List.init reps (fun _ -> snd (time f)))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let tr = lazy (Spans.create !traced)
let sid name = Spans.id (Lazy.force tr) name
let span name f = Spans.span (Lazy.force tr) (sid name) f

(* Mean time of one [name] span. *)
let mean_span name =
  let a = Spans.find (Lazy.force tr) name in
  a.Spans.total_s /. float_of_int (max 1 a.Spans.count)

let span_layers ~per names =
  let t = Lazy.force tr in
  List.iter
    (fun (metric, spans, self) ->
      let sum =
        List.fold_left
          (fun s n ->
            let a = Spans.find t n in
            s +. if self then a.Spans.self_s else a.Spans.total_s)
          0.0 spans
      in
      layer metric (sum /. float_of_int (max 1 per)))
    names

(* Set-up samples: a fabric build takes under a millisecond, so a
   sample is thirty of them; a serving-plane set-up takes a sixth of a
   second. *)
let fabric_reps = 25
let fabric_per = 30
let serve_reps = 15

let ft1k ~seed =
  match San_fabric.Fabric.find_preset "ft-1k" with
  | Some p -> p.San_fabric.Fabric.p_build ~seed
  | None -> failwith "ft-1k preset missing"

(* The map and shard paths run on ft-324: ft-1k's tiers and radix
   style at a third of its size (324 hosts, 135 switches). A ft-1k map
   is a 9-second operation and this host's speed drifts on that time
   scale, so runs of two ft-1k maps did not give a steady median (a
   spread of 0.16 to 0.19 over ten seeds, against 0.05 for the
   short-operation workloads). A ft-324 map takes about 1.5 s, and the
   oracle is still half of it. *)
let ft324_spec = "levels=3,radix=12,edge=54,hosts=6"

let ft324 ~seed =
  match San_fabric.Fabric.of_string ft324_spec with
  | Ok spec -> San_fabric.Fabric.build ~seed spec
  | Error e -> failwith e

(* The CLI's default mapper host. *)
let first_host g = List.hd (Graph.hosts g)

(* ------------------------------------------------------------------ *)
(* The map path: oracle depth, Berkeley.run, Iso.check, export         *)

(* Berkeley.run is [reset_stats; resolve_depth; Model.create;
   explore_service over service_of_network; finish]; the benchmark
   calls those public parts itself so that a traced run can time each
   one and wrap the probe service. The untraced run makes the same
   calls with the service unwrapped. *)
let wrap_service (sv : B.service) =
  let t = Lazy.force tr in
  let hid = Spans.id t "simnet.host_probe"
  and sid = Spans.id t "simnet.switch_probe" in
  {
    sv with
    B.sv_host_probe =
      (fun ~turns ->
        Spans.enter t hid;
        let r = sv.B.sv_host_probe ~turns in
        Spans.exit t;
        r);
    sv_switch_probe =
      (fun ~turns ->
        Spans.enter t sid;
        let r = sv.B.sv_switch_probe ~turns in
        Spans.exit t;
        r);
  }

type map_out = {
  m_result : B.result;
  m_map : Graph.t option;  (** the verified map *)
  m_words : float;  (** allocated during exploration and finish *)
  m_json : string;
  m_dot : string;
}

let map_once ~depth g ~mapper =
  let net = San_simnet.Network.create g in
  let sv = B.service_of_network net ~mapper in
  let sv = if !traced then wrap_service sv else sv in
  span "map" @@ fun () ->
  let depth_used =
    match depth with
    | Some d -> d
    | None -> span "topology.oracle" (fun () -> B.resolve_depth net ~mapper B.Oracle)
  in
  let w0 = allocated () in
  San_simnet.Network.reset_stats net;
  let model =
    San_mapper.Model.create ~mapper_name:(Graph.name g mapper)
      ~radix:(Graph.radix g)
  in
  let explorations, elapsed, trace =
    span "mapper.explore" (fun () ->
        B.explore_service ~policy:B.faithful ~depth_used ~record_trace:false sv
          model
          [ San_mapper.Model.root_switch model ])
  in
  let r =
    span "mapper.finish" (fun () ->
        B.finish ~model ~explorations ~elapsed ~depth_used ~trace net)
  in
  let words = allocated () -. w0 in
  let verified =
    span "topology.iso" (fun () ->
        match r.B.map with
        | Error e -> Error ("export failed: " ^ e)
        | Ok m -> (
          match
            Iso.check ~map:m ~actual:g ~exclude:(Core_set.separated_set g) ()
          with
          | Ok () -> Ok m
          | Error e -> Error ("map not isomorphic to N - F: " ^ e)))
  in
  let json, dot =
    span "topology.export" (fun () ->
        match verified with
        | Ok m -> (Json.to_string (Serial.to_json m), Dot.to_string m)
        | Error _ -> ("", ""))
  in
  (match verified with Ok _ -> ok true "" | Error e -> ok false e);
  {
    m_result = r;
    m_map = Result.to_option verified;
    m_words = words;
    m_json = json;
    m_dot = dot;
  }

(* The exported JSON must load back to the same map, and the DOT text
   must hold a statement per host at least. *)
let check_export o =
  match o.m_map with
  | None -> ()
  | Some m ->
    let back =
      match Json.of_string o.m_json with
      | Error e -> Error e
      | Ok j -> Serial.of_json j
    in
    ok
      (match back with Ok m' -> Iso.equal ~map:m' ~actual:m () | Error _ -> false)
      "exported JSON does not load back to the map";
    let nodes = ref 0 in
    String.iter (fun c -> if c = ';' then incr nodes) o.m_dot;
    ok
      (String.length o.m_dot > 0 && !nodes >= Graph.num_hosts m)
      "exported DOT is shorter than the map"

let map_det o =
  let r = o.m_result in
  det "probes" (float_of_int (B.total_probes r));
  det "sim_ms" (r.B.elapsed_ns /. 1e6);
  det "explorations" (float_of_int r.B.explorations);
  det "depth" (float_of_int r.B.depth_used);
  det "alloc_words" o.m_words

let mapper_layers ~per (r : B.result) ~words =
  span_layers ~per
    [
      ("topology.oracle_s", [ "topology.oracle" ], false);
      ("topology.iso_s", [ "topology.iso" ], false);
      ("topology.export_s", [ "topology.export" ], false);
      ("simnet.probe_s", [ "simnet.host_probe"; "simnet.switch_probe" ], false);
      ("mapper.explore_self_s", [ "mapper.explore" ], true);
      ("mapper.finish_s", [ "mapper.finish" ], false);
    ];
  let probes = B.total_probes r in
  layer "simnet.probes" (float_of_int probes);
  layer "simnet.hit_ratio"
    (float_of_int (r.B.host_hits + r.B.switch_hits) /. float_of_int (max 1 probes));
  layer "mapper.explorations" (float_of_int r.B.explorations);
  layer "mapper.live_created_ratio"
    (float_of_int r.B.live_vertices /. float_of_int (max 1 r.B.created_vertices));
  layer "mapper.alloc_words_per_probe" (words /. float_of_int (max 1 probes))

let map_ft324 ~deadline =
  let g =
    setup ~reps:fabric_reps ~per:fabric_per (fun () ->
        span "fabric.build" (fun () -> ft324 ~seed:!seed))
  in
  let mapper = first_host g in
  let last = ref None in
  let n =
    repeat ~min:2 ~deadline (fun _ ->
        let o, dt = measured (fun () -> map_once ~depth:None g ~mapper) in
        mark_heap ();
        check_export o;
        map_det o;
        record_op ~ms:(dt *. 1e3) ~work:(float_of_int (B.total_probes o.m_result));
        last := Some o)
  in
  match !last with
  | None -> ()
  | Some o ->
    value "probes" (float_of_int (B.total_probes o.m_result));
    value "sim_ms" (o.m_result.B.elapsed_ns /. 1e6);
    if !traced then begin
      layer "fabric.build_s" (mean_span "fabric.build");
      mapper_layers ~per:n o.m_result ~words:o.m_words
    end

(* ------------------------------------------------------------------ *)
(* The sharded map path                                                *)

let shards = 4

(* The simulated parallel wall without the coordinator's merge, which
   Runner times on the host clock: wall_ns is this plus merge_ns. *)
let slowest_shard_ms (r : San_shard.Runner.result) =
  List.fold_left
    (fun m s -> Float.max m s.San_shard.Runner.s_elapsed_ns)
    0.0 r.San_shard.Runner.reports
  /. 1e6

(* The region plan keeps the CLI's default seed: plan costs differ by
   up to a third between plan seeds, which would swamp the effect of a
   change. The workload seed is the fabric seed, as for map-ft324. *)
let plan_seed = 1

let shard_ft324 ~deadline =
  let g =
    setup ~reps:fabric_reps ~per:fabric_per (fun () ->
        span "fabric.build" (fun () -> ft324 ~seed:!seed))
  in
  let last = ref None in
  let merges = ref [] in
  let n =
    repeat ~min:3 ~deadline (fun _ ->
        let r, dt =
          measured (fun () ->
              span "shard" @@ fun () ->
              let r =
                span "shard.run" (fun () ->
                    San_shard.Runner.run ~seed:plan_seed g ~shards)
              in
              span "topology.iso" (fun () ->
                  match r with
                  | Error e -> Error ("shard plan failed: " ^ e)
                  | Ok r -> (
                    match r.San_shard.Runner.map with
                    | Error e -> Error ("merge failed: " ^ e)
                    | Ok m -> (
                      match
                        Iso.check ~map:m ~actual:g
                          ~exclude:(Core_set.separated_set g) ()
                      with
                      | Ok () -> Ok r
                      | Error e -> Error ("merged map not isomorphic to N - F: " ^ e)))))
        in
        mark_heap ();
        match r with
        | Error e -> ok false e
        | Ok r ->
          ok true "";
          let open San_shard.Runner in
          det "probes" (float_of_int r.total_probes);
          det "sim_ms" (slowest_shard_ms r);
          merges := r.merge_ns :: !merges;
          record_op ~ms:(dt *. 1e3) ~work:(float_of_int r.total_probes);
          last := Some r)
  in
  match !last with
  | None -> ()
  | Some r ->
    let open San_shard.Runner in
    value "probes" (float_of_int r.total_probes);
    value "sim_ms" (slowest_shard_ms r);
    if !traced then begin
      layer "fabric.build_s" (mean_span "fabric.build");
      span_layers ~per:n [ ("topology.iso_s", [ "topology.iso" ], false) ];
      let probes = San_simnet.Stats.total_probes r.stats in
      layer "simnet.probes" (float_of_int probes);
      layer "simnet.hit_ratio"
        (float_of_int (San_simnet.Stats.total_hits r.stats)
        /. float_of_int (max 1 probes));
      let per_shard = List.map (fun s -> s.s_probes) r.reports in
      let mx = List.fold_left max 0 per_shard in
      let mean =
        float_of_int (List.fold_left ( + ) 0 per_shard)
        /. float_of_int (max 1 (List.length per_shard))
      in
      layer "shard.max_shard_probes" (float_of_int mx);
      layer "shard.balance" (float_of_int mx /. mean);
      layer "shard.merge_s" (median !merges /. 1e9);
      layer "shard.plan_s"
        (median_time ~reps:3 (fun () ->
             ignore (San_shard.Region.plan ~seed:plan_seed g ~shards)));
      (* The same mapper alone, at the oracle depth, prices the
         shards' extra probes. *)
      let solo = map_once ~depth:None g ~mapper:(first_host g) in
      layer "shard.probe_overhead"
        (float_of_int r.total_probes
        /. float_of_int (max 1 (B.total_probes solo.m_result)))
    end

(* ------------------------------------------------------------------ *)
(* The route-serving plane                                             *)

let batch_size = 10_000
let hot_size = 16
let cold_size = 96
let cache_limit = 64
let trickle_every = 10
let det_batches = 500

let serve_ft1k ~deadline =
  let module S = San_routing.Serve in
  let rng = Prng.create !seed in
  (* The fabric is a pure function of the seed: this copy picks the hot
     and outside sets, the set-up below builds its own. *)
  let g = ft1k ~seed:!seed in
  let hosts = Array.of_list (Graph.hosts g) in
  let nh = Array.length hosts in
  let order = Array.copy hosts in
  Prng.shuffle rng order;
  let hot = Array.sub order 0 hot_size in
  let cold = Array.sub order hot_size cold_size in
  let is_hot = Array.make (Graph.num_nodes g) false in
  Array.iter (fun h -> is_hot.(h) <- true) hot;
  let serve =
    setup ~reps:serve_reps (fun () ->
        let g = span "fabric.build" (fun () -> ft1k ~seed:!seed) in
        let s = S.create ~cache_limit g in
        Array.iter (fun dst -> S.warm s ~dst) hot;
        s)
  in
  let buf = Array.make (Graph.num_nodes g + 1) 0 in
  let gen_batch () =
    let q =
      Array.init batch_size (fun _ ->
          let dst = hot.(Prng.int rng hot_size) in
          let rec src () =
            let s = hosts.(Prng.int rng nh) in
            if s = dst then src () else s
          in
          (src (), dst))
    in
    if Prng.int rng trickle_every = 0 then begin
      let dst = cold.(Prng.int rng (Array.length cold)) in
      let rec src () =
        let s = hosts.(Prng.int rng nh) in
        if s = dst then src () else s
      in
      q.(Prng.int rng batch_size) <- (src (), dst)
    end;
    q
  in
  (* A batch's destinations in first-touch order. *)
  let seen = Array.make (Graph.num_nodes g) false in
  let distinct q =
    let l =
      Array.fold_left
        (fun l (_, d) ->
          if seen.(d) then l
          else begin
            seen.(d) <- true;
            d :: l
          end)
        [] q
    in
    List.iter (fun d -> seen.(d) <- false) l;
    List.rev l
  in
  let sample = ref [] in
  let queries = ref 0 and misses = ref 0 in
  let compile_before = (S.stats serve).S.destinations in
  let n =
    repeat ~min:det_batches ~deadline (fun i ->
        let q = gen_batch () in
        (* Sampled for the delivery check: four queries of each of the
           first 64 batches, and every outside destination's query in
           the first 200. *)
        if i < 64 then
          List.iter (fun k -> sample := q.(k * batch_size / 4) :: !sample) [ 0; 1; 2; 3 ];
        if i < 200 then
          Array.iter (fun ((_, d) as sd) -> if not is_hot.(d) then sample := sd :: !sample) q;
        let served, dt =
          if !traced then begin
            (* Warming the batch's destinations in first-touch order
               compiles the tables the batch would, in the order it
               would (a batch holds far fewer destinations than the
               cache, so none is evicted before its queries run); the
               batch then runs on warm tables. *)
            let dsts = distinct q in
            let before = (S.stats serve).S.destinations in
            let r =
              measured (fun () ->
                  span "serve.batch" @@ fun () ->
                  span "routing.compile" (fun () ->
                      List.iter (fun dst -> S.warm serve ~dst) dsts);
                  span "routing.lookup" (fun () -> S.batch serve q ~buf))
            in
            misses := !misses + (S.stats serve).S.destinations - before;
            r
          end
          else measured (fun () -> S.batch serve q ~buf)
        in
        queries := !queries + batch_size;
        check ~n:batch_size ~bad:(batch_size - served) "unanswered queries";
        record_op ~ms:(dt *. 1e3) ~work:(float_of_int served);
        if i + 1 = det_batches then begin
          mark_heap ();
          let st = S.stats serve in
          det "compiles" (float_of_int (st.S.destinations - compile_before));
          det "pool_cells" (float_of_int st.S.pool_cells)
        end)
  in
  let st = S.stats serve in
  value "batches" (float_of_int n);
  value "compiles" (float_of_int (st.S.destinations - compile_before));
  (* Served sample: every route delivers, and together they are
     deadlock-free. *)
  let routes =
    List.filter_map
      (fun (src, dst) ->
        match S.lookup serve ~src ~dst with
        | None ->
          ok false "sampled query unanswered";
          None
        | Some turns ->
          let arrived =
            match (San_simnet.Worm.eval g ~src ~turns).San_simnet.Worm.outcome with
            | San_simnet.Worm.Arrived h -> h = dst
            | _ -> false
          in
          ok arrived "served route does not deliver";
          Some (src, turns))
      !sample
  in
  (match San_routing.Deadlock.check_acyclic g routes with
  | Ok () -> ok true ""
  | Error e -> ok false ("served sample not deadlock-free: " ^ e));
  value "sampled_routes" (float_of_int (List.length routes));
  if !traced then begin
    layer "fabric.build_s" (mean_span "fabric.build");
    let t = Lazy.force tr in
    let lk = Spans.find t "routing.lookup" and cp = Spans.find t "routing.compile" in
    layer "routing.lookup_ns" (lk.Spans.total_s *. 1e9 /. float_of_int (max 1 !queries));
    layer "routing.compile_ms" (cp.Spans.total_s *. 1e3 /. float_of_int (max 1 !misses));
    layer "routing.compiles" (List.assoc "compiles" acc.det);
    layer "routing.pool_cells" (List.assoc "pool_cells" acc.det);
    layer "routing.warm_hit_ratio"
      (float_of_int (!queries - !misses) /. float_of_int (max 1 !queries))
  end

(* ------------------------------------------------------------------ *)
(* The control-plane daemon                                            *)

let daemon_epochs = 10
let daemon_min_runs = 8
let now_graph = lazy (fst (Generators.now_cab ()))

type daemon_run = {
  outcome : San_service.Daemon.outcome;
  epoch_s : (San_service.Daemon.epoch_report * float * float) list;
      (** each epoch's host seconds and start, in order *)
  build_s : float;
}

(* One daemon run as `san_map daemon -t now-cab --scenario rolling
   --seed S` runs it by default: ledger, observability and the flight
   recorder on. Each run starts from a fresh ledger and registry, as a
   new process would. *)
let daemon_once ?(why = true) ?(obs = true) ?(spans = false)
    ?(on_cold = ignore) ~seed () =
  let module D = San_service.Daemon in
  let g, build_s = time (fun () -> fst (Generators.now_cab ())) in
  let schedule =
    match San_service.Schedule.scenario ~epochs:daemon_epochs "rolling" with
    | Ok l -> San_service.Schedule.of_list l
    | Error e -> failwith e
  in
  let config =
    {
      D.default_config with
      D.seed;
      flight_dir = (if !tmp_dir = "" then None else Some !tmp_dir);
    }
  in
  San_obs.Obs.set_enabled obs;
  San_obs.Obs.reset ();
  San_why.Why.set_enabled why;
  San_why.Why.reset ();
  let t = Lazy.force tr in
  let ep = Spans.id t "service.epoch" and tail = Spans.id t "service.wrapup" in
  let spans = spans && Spans.enabled t in
  let times = ref [] in
  let last = ref (clock ()) in
  let on_epoch r =
    if r.D.verdict = D.Cold_start then on_cold ();
    let now = clock () in
    times := (r, now -. !last, !last) :: !times;
    last := now;
    if spans then begin
      Spans.exit t;
      Spans.enter t (if r.D.epoch = daemon_epochs - 1 then tail else ep)
    end
  in
  if spans then Spans.enter t ep;
  let result =
    Fun.protect
      ~finally:(fun () ->
        if spans then Spans.exit t;
        San_obs.Obs.set_enabled false;
        San_why.Why.set_enabled false)
      (fun () -> D.run ~config ~schedule ~on_epoch ~epochs:daemon_epochs g)
  in
  match result with
  | Error e -> Error e
  | Ok outcome -> Ok { outcome; epoch_s = List.rev !times; build_s }

let is_remap (r : San_service.Daemon.epoch_report) =
  match r.San_service.Daemon.verdict with
  | San_service.Daemon.Changed _ -> true
  | _ -> false

let is_cold (r : San_service.Daemon.epoch_report) =
  r.San_service.Daemon.verdict = San_service.Daemon.Cold_start

let remap_ms run =
  List.filter_map
    (fun (r, s, _) -> if is_remap r then Some (s *. 1e3) else None)
    run.epoch_s

(* Successive daemon runs take their schedule seeds from the workload
   seed, so one measurement pools several rolling upgrades. *)
let daemon_now ~deadline =
  let module D = San_service.Daemon in
  let rng = Prng.create !seed in
  let seeds = ref [] in
  let first = ref None in
  let final_frac = ref [] in
  let runs =
    repeat ~min:daemon_min_runs ~deadline (fun _ ->
        let seed = Prng.int rng 1_000_000_000 in
        seeds := seed :: !seeds;
        (* The run's cold start is a set-up sample, paired with a
           kernel run just before it and, like every set-up sample,
           taken after a full collection; the first run's is not,
           because no kernel runs before the heap figure is read. *)
        let kernel_ms =
          if acc.heap_mb = None then None
          else begin
            calibrate ~passes:1 ();
            Gc.full_major ();
            Some !last_kernel_ms
          end
        in
        (* The heap figure is read after the first cold start: the
           peak of a run's remaps depends on which switches its
           schedule pulls. *)
        match fst (measured (daemon_once ~spans:true ~on_cold:mark_heap ~seed)) with
        | Error e -> ok false ("daemon: " ^ e)
        | Ok run ->
          let o = run.outcome in
          List.iter
            (fun (r, s, t0) ->
              if is_cold r then
                Option.iter (fun kernel_ms -> setup_sample ~s:(run.build_s +. s) ~kernel_ms) kernel_ms
              else begin
                let ended_degraded =
                  match List.rev r.D.phases with D.Degraded :: _ -> true | _ -> false
                in
                ok (not ended_degraded)
                  (Printf.sprintf "seed %d epoch %d ended Degraded" seed r.D.epoch);
                record_work ~t0 ~s ~work:(float_of_int r.D.probes);
                if is_remap r then begin
                  acc.op_ms <- (s *. 1e3) :: acc.op_ms;
                  acc.op_t <- t0 :: acc.op_t
                end
              end)
            run.epoch_s;
          (match List.rev o.D.reports with
          | final :: _ ->
            check ~n:final.D.hosts_total
              ~bad:(final.D.hosts_total - final.D.hosts_covered)
              (Printf.sprintf "seed %d: hosts uncovered at the last epoch" seed)
          | [] -> ok false "daemon ran no epoch");
          (* The fleet is whole again at the last epoch, so the final
             map must hold every host of the NOW. *)
          let hosts = Graph.num_hosts (Lazy.force now_graph) in
          let mapped = match o.D.map with Some m -> Graph.num_hosts m | None -> 0 in
          check ~n:hosts ~bad:(hosts - mapped)
            (Printf.sprintf "seed %d: the final map holds %d of the NOW's %d hosts"
               seed mapped hosts);
          final_frac := (float_of_int mapped /. float_of_int hosts) :: !final_frac;
          if !first = None then first := Some (seed, run))
  in
  value "daemon_runs" (float_of_int runs);
  match !first with
  | None -> ()
  | Some (seed0, run) ->
    let o = run.outcome in
    (* The first run's figures are deterministic for the workload seed. *)
    value "daemon_seed" (float_of_int seed0);
    value "probes" (float_of_int o.D.total_probes);
    value "delta_bytes" (float_of_int o.D.delta_bytes);
    det "probes" (float_of_int o.D.total_probes);
    det "delta_bytes" (float_of_int o.D.delta_bytes);
    det "remaps" (float_of_int o.D.remaps);
    det "converge_ns_sum"
      (List.fold_left (fun s i -> s +. i.D.converge_ns) 0.0 o.D.incidents);
    sample "converge_sim_ms" (List.map (fun i -> i.D.converge_ns /. 1e6) o.D.incidents);
    if !traced then begin
      let reports = o.D.reports in
      let dists = List.filter_map (fun r -> r.D.dist) reports in
      layer "service.remaps" (float_of_int o.D.remaps);
      layer "service.delta_ratio"
        (float_of_int o.D.delta_bytes /. float_of_int (max 1 o.D.full_bytes));
      layer "service.dist_messages"
        (float_of_int
           (List.fold_left
              (fun s d -> s + d.San_service.Delta.dist.San_routing.Distribute.total_messages)
              0 dists));
      layer "service.hosts_missed"
        (float_of_int
           (List.fold_left
              (fun s d -> s + d.San_service.Delta.dist.San_routing.Distribute.hosts_missed)
              0 dists));
      layer "service.final_map_host_frac"
        (List.fold_left ( +. ) 0.0 !final_frac /. float_of_int (max 1 runs));
      (* Ledger and observability cost: the first run again with both
         on, with the ledger off and with observability off, twice over,
         interleaved. *)
      let pools = [| []; []; [] |] in
      for _ = 1 to 2 do
        List.iteri
          (fun i (why, obs) ->
            match daemon_once ~why ~obs ~seed:seed0 () with
            | Ok r -> pools.(i) <- remap_ms r @ pools.(i)
            | Error e -> ok false ("daemon: " ^ e))
          [ (true, true); (false, true); (true, false) ]
      done;
      let base = median pools.(0) in
      layer "why.overhead_frac" ((base /. median pools.(1)) -. 1.0);
      layer "obs.overhead_frac" ((base /. median pools.(2)) -. 1.0);
      (* Replays on the unchanged NOW from the run's leader: one traced
         remap (oracle, exploration, finish), a verify-only epoch, and
         the route computation and distribution a remap is followed by. *)
      let g = Lazy.force now_graph in
      let leader =
        match Option.bind (List.nth_opt reports 0) (fun r -> Graph.host_by_name g r.D.leader) with
        | Some h -> h
        | None -> List.hd (Graph.hosts g)
      in
      layer "fabric.build_s" (median_time ~reps:5 (fun () -> ignore (Generators.now_cab ())));
      let m = map_once ~depth:None g ~mapper:leader in
      mapper_layers ~per:1 m.m_result ~words:m.m_words;
      match m.m_map with
      | None -> ()
      | Some map ->
        layer "mapper.verify_ms"
          (1e3
          *. median_time ~reps:5 (fun () ->
                 let net = San_simnet.Network.create g in
                 let v = San_mapper.Incremental.run net ~mapper:leader ~previous:map in
                 ok (v.San_mapper.Incremental.verdict = San_mapper.Incremental.Unchanged)
                   "verify replay found a change on the unchanged NOW"));
        let routes = San_routing.Routes.compute map in
        layer "routing.routes_compute_ms"
          (1e3 *. median_time ~reps:5 (fun () -> ignore (San_routing.Routes.compute map)));
        layer "routing.distribute_ms"
          (1e3
          *. median_time ~reps:5 (fun () ->
                 match San_routing.Distribute.simulate routes ~actual:g ~leader with
                 | Ok d ->
                   ok (d.San_routing.Distribute.hosts_missed = 0)
                     "distribute replay missed hosts"
                 | Error e -> ok false ("distribute replay: " ^ e)))
    end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let num f = if Float.is_finite f then Json.Num f else Json.Null
let nums l = Json.Arr (List.map num (List.rev l))
let obj kvs = Json.Obj (List.rev_map (fun (k, v) -> (k, num v)) kvs)

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set traced, " record spans and per-layer numbers");
      ("--spans", Arg.Set_string spans_file, "FILE write recorded spans here");
      ("--tmp", Arg.Set_string tmp_dir, "DIR scratch directory (flight recordings)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S [--trace]";
  let run =
    match !workload with
    | "map-ft324" -> map_ft324
    | "shard-ft324" -> shard_ft324
    | "serve-ft1k" -> serve_ft1k
    | "daemon-now" -> daemon_now
    | w ->
      prerr_endline ("perfbench: unknown workload " ^ w);
      exit 2
  in
  ignore (Lazy.force tr);
  let t0 = clock () in
  run ~deadline:(t0 +. !seconds);
  let wall_s = clock () -. t0 in
  if !traced then begin
    let per = float_of_int (max 1 acc.ops) in
    layer "gc.alloc_words" (acc.gc_words /. per);
    layer "gc.major_collections" (float_of_int acc.gc_majors /. per)
  end;
  mark_heap ();
  after_heap_mark ();
  calibrate ();
  sample "cal_ms" !cal_ms;
  sample "cal_t" !cal_t;
  let t = Lazy.force tr in
  if !traced && !spans_file <> "" then Spans.write_events t !spans_file;
  let out =
    Json.Obj
      [
        ("workload", Json.Str !workload);
        ("seed", Json.int !seed);
        ("traced", Json.Bool !traced);
        ("wall_s", num wall_s);
        ("setup_s", nums acc.setup_s);
        ("setup_cal_ms", nums acc.setup_cal);
        ("op_ms", nums acc.op_ms);
        ("op_t", nums acc.op_t);
        ( "work_parts",
          Json.Arr
            (List.rev_map (fun (w, s, t) -> Json.Arr [ num w; num s; num t ]) acc.work_parts) );
        ("work", num acc.work);
        ("busy_s", num acc.busy_s);
        ("ops", Json.int acc.ops);
        ("heap_peak_mb", num (Option.get acc.heap_mb));
        ("attempted", Json.int acc.attempted);
        ("failed", Json.int acc.failed);
        ("failures", Json.Arr (List.rev_map (fun s -> Json.Str s) acc.failures));
        ("det", obj acc.det);
        ("values", obj acc.values);
        ( "samples",
          Json.Obj (List.rev_map (fun (k, v) -> (k, nums v)) acc.samples) );
        ("layers", obj acc.layers);
        ( "spans",
          Json.Obj
            (List.map
               (fun a ->
                 ( a.Spans.name,
                   Json.Obj
                     [
                       ("count", Json.int a.Spans.count);
                       ("total_s", num a.Spans.total_s);
                       ("self_s", num a.Spans.self_s);
                     ] ))
               (Spans.aggregates t)) );
        ("spans_dropped", Json.int (Spans.dropped t));
      ]
  in
  print_string (Json.to_string ~pretty:false out);
  print_newline ()
