(* In-memory span recorder for the traced benchmark run.

   Spans are opened and closed around calls into the libraries' public
   functions, from the benchmark's own code; nothing inside lib/ is
   instrumented. Every span is aggregated by name (count, total time,
   self time = total minus the time of its direct children), and the
   first [capacity] spans are also kept as events (name, parent,
   start, end) and written out as JSON lines when the run ends.

   Recording allocates nothing: names are interned up front, the open
   span stack and the event log live in preallocated arrays, and the
   clock read is unboxed. So a traced run allocates exactly what the
   untraced run does, and allocation counts can be compared between
   the two. A disabled recorder makes [enter]/[exit] a single test. *)

let max_names = 64
let max_depth = 64

type t = {
  enabled : bool;
  names : string array;
  mutable n_names : int;
  count : int array;
  total : Float.Array.t;
  self : Float.Array.t;
  (* open spans *)
  st_id : int array;
  st_start : Float.Array.t;
  st_child : Float.Array.t;
  st_ev : int array;
  mutable depth : int;
  (* event log *)
  capacity : int;
  ev_id : int array;
  ev_parent : int array;
  ev_start : Float.Array.t;
  ev_end : Float.Array.t;
  mutable n_ev : int;
  mutable dropped : int;
  origin : float;
}

let create ?(capacity = 50_000) enabled =
  let capacity = if enabled then capacity else 0 in
  {
    enabled;
    names = Array.make max_names "";
    n_names = 0;
    count = Array.make max_names 0;
    total = Float.Array.make max_names 0.0;
    self = Float.Array.make max_names 0.0;
    st_id = Array.make max_depth 0;
    st_start = Float.Array.make max_depth 0.0;
    st_child = Float.Array.make max_depth 0.0;
    st_ev = Array.make max_depth (-1);
    depth = 0;
    capacity;
    ev_id = Array.make capacity 0;
    ev_parent = Array.make capacity (-1);
    ev_start = Float.Array.make capacity 0.0;
    ev_end = Float.Array.make capacity 0.0;
    n_ev = 0;
    dropped = 0;
    origin = Unix.gettimeofday ();
  }

let enabled t = t.enabled

(* Intern a span name; cold path, call before measuring. *)
let id t name =
  let rec find i =
    if i >= t.n_names then begin
      if t.n_names >= max_names then invalid_arg "Spans.id: too many names";
      t.names.(t.n_names) <- name;
      t.n_names <- t.n_names + 1;
      t.n_names - 1
    end
    else if t.names.(i) = name then i
    else find (i + 1)
  in
  find 0

let enter t id =
  if t.enabled then begin
    let d = t.depth in
    if d >= max_depth then invalid_arg "Spans.enter: nesting too deep";
    let now = Unix.gettimeofday () in
    t.st_id.(d) <- id;
    Float.Array.unsafe_set t.st_start d now;
    Float.Array.unsafe_set t.st_child d 0.0;
    if t.n_ev < t.capacity then begin
      let e = t.n_ev in
      t.ev_id.(e) <- id;
      t.ev_parent.(e) <- (if d = 0 then -1 else t.st_ev.(d - 1));
      Float.Array.unsafe_set t.ev_start e now;
      t.st_ev.(d) <- e;
      t.n_ev <- e + 1
    end
    else begin
      t.st_ev.(d) <- -1;
      t.dropped <- t.dropped + 1
    end;
    t.depth <- d + 1
  end

let exit t =
  if t.enabled then begin
    let d = t.depth - 1 in
    if d < 0 then invalid_arg "Spans.exit: no open span";
    let now = Unix.gettimeofday () in
    let dur = now -. Float.Array.unsafe_get t.st_start d in
    let id = t.st_id.(d) in
    t.count.(id) <- t.count.(id) + 1;
    Float.Array.unsafe_set t.total id (Float.Array.unsafe_get t.total id +. dur);
    Float.Array.unsafe_set t.self id
      (Float.Array.unsafe_get t.self id
      +. dur
      -. Float.Array.unsafe_get t.st_child d);
    if d > 0 then
      Float.Array.unsafe_set t.st_child (d - 1)
        (Float.Array.unsafe_get t.st_child (d - 1) +. dur);
    let e = t.st_ev.(d) in
    if e >= 0 then Float.Array.unsafe_set t.ev_end e now;
    t.depth <- d
  end

let span t id f =
  enter t id;
  match f () with
  | r ->
    exit t;
    r
  | exception e ->
    exit t;
    raise e

type agg = { name : string; count : int; total_s : float; self_s : float }

let find t name =
  let rec go i =
    if i >= t.n_names then { name; count = 0; total_s = 0.0; self_s = 0.0 }
    else if t.names.(i) = name then
      {
        name;
        count = t.count.(i);
        total_s = Float.Array.get t.total i;
        self_s = Float.Array.get t.self i;
      }
    else go (i + 1)
  in
  go 0

let aggregates t =
  List.init t.n_names (fun i -> find t t.names.(i))
  |> List.filter (fun a -> a.count > 0)

let dropped t = t.dropped

(* One JSON object per recorded span, in start order; times are
   seconds since the recorder was created. *)
let write_events t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for e = 0 to t.n_ev - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n"
          e t.names.(t.ev_id.(e)) t.ev_parent.(e)
          (Float.Array.get t.ev_start e -. t.origin)
          (Float.Array.get t.ev_end e -. t.origin)
      done)
