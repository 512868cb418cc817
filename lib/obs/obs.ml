(* Process-wide observability switchboard.

   Instrumented modules report here unconditionally; everything is a
   no-op until [set_enabled true], so the hot paths pay one boolean
   test when observability is off. *)

let enabled = ref false

let set_enabled b = enabled := b
let on () = !enabled

let registry = Metrics.create ()
let tracer = Trace.create ~capacity:65536 ()

let reset () =
  Metrics.reset registry;
  Trace.clear tracer

let emit event = if !enabled then Trace.emit tracer event

let count ?by name =
  if !enabled then Metrics.incr ?by (Metrics.counter registry name)

let set_gauge name v =
  if !enabled then Metrics.set (Metrics.gauge registry name) v

let observe name v =
  if !enabled then Digest.add (Metrics.histogram registry name) v

let with_span name f =
  if not !enabled then f ()
  else begin
    Trace.emit tracer (Trace.Span_begin { name });
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let elapsed_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
        Digest.add
          (Metrics.histogram registry ("span." ^ name))
          elapsed_ns;
        Trace.emit tracer (Trace.Span_end { name; elapsed_ns }))
      f
  end
