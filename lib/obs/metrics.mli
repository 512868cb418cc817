(** Named counters, gauges and histograms.

    The mapping experiments are accounting experiments — probe counts,
    hit ratios, latency distributions — so the registry is the shared
    vocabulary every layer reports into. Instruments are created on
    first use; [reset] zeroes values in place, keeping cached handles
    valid across per-run resets. *)

type t
(** A registry. *)

type counter
type gauge

val create : unit -> t

val counter : t -> string -> counter
(** Find or create the counter of that name. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> Digest.t
(** Find or create the histogram of that name: a {!Digest.t} the
    registry owns, fed with {!Digest.add}. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1). In debug mode, raises [Invalid_argument] on
    a negative increment or a counter driven below zero, so
    monotonicity bugs fail at the call site instead of exporting as
    nonsense. *)

val set_debug : bool -> unit
(** Enable/disable debug mode (also enabled at startup by the
    [SAN_DEBUG_COUNTERS] environment variable). *)

val counter_value : counter -> int
val counter_name : counter -> string

val set : gauge -> float -> unit
val gauge_value : gauge -> float
val gauge_name : gauge -> string

val reset : t -> unit
(** Zero every instrument in place (handles remain valid). *)

(** {1 Snapshots} *)

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * float) list;
  s_histograms : (string * Digest.t) list;
}

val snapshot : t -> snapshot
(** A name-sorted view holding copies of the histograms, so later
    observations do not reach it. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Activity between two snapshots of the same registry: counters
    subtract, histograms subtract through {!Digest.diff}, gauges keep
    the later value.

    An instrument that restarted mid-window (a {!reset} between the
    snapshots: its counter went backwards, or a histogram's total,
    zero bucket or any individual bucket shrank) is reported as its
    [after] state wholesale — everything since the reset is the
    window's activity — so deltas are never negative even when the
    window holds only new buckets. *)

val counter_in : snapshot -> string -> int option
val gauge_in : snapshot -> string -> float option
val histogram_in : snapshot -> string -> Digest.t option

val to_json : snapshot -> San_util.Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {name:
    {count,sum,min,max,p50,p90,p99}}}]. *)

val pp : Format.formatter -> snapshot -> unit
