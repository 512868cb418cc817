(** Reconstruct what a daemon believed from a flight file alone.

    Parses a {!Flight} recording and rebuilds the epoch-by-epoch story:
    state-machine transitions, closed-epoch verdicts, alerts raised and
    still open, the stuck-election marker if one fired, and the last
    deductions the mapper committed before the recording was cut. *)

type t = {
  note : string;
  epoch : int option;  (** epoch stamped on the recording, if any *)
  records : San_obs.Trace.record list;  (** oldest first *)
  entries : (int * Why.entry) list;  (** ledger tail, oldest first *)
  dropped_bytes : int;
      (** bytes of an unfinished last line that [read] dropped; 0 for
          an intact file *)
}

val read : string -> (t, string) result
(** Parse a flight JSON-lines file. A cut file — its last line has no
    terminating newline, as a crash mid-write leaves it — reads as the
    intact lines before the cut, with the dropped tail counted in
    [dropped_bytes]. Any complete line that does not parse is an
    error, one line naming the line number. *)

val open_alerts : t -> (string * int) list
(** Alerts raised in the recording and never cleared, with the epoch
    each was raised at. *)

val timeline : t -> string list
(** Human-readable control-plane happenings, oldest first. *)

val pp : Format.formatter -> t -> unit
