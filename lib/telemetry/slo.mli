(** Declarative objectives over per-epoch samples, and the one alert
    tracker.

    An objective is the sentence an operator writes — ["p99 convergence
    below 200 simulated ms at offered load up to 0.3"], concretely
    ["converge:p99<2e8@0.3"] — and the quantile fixes its error
    budget: p99 tolerates 1% bad epochs. A tracker folds per-epoch
    {!sample}s into each objective's sliding window and reports the
    burn rate, (bad fraction among eligible epochs) / budget: burn 1.0
    is spending the budget exactly; burn at or above 1.0 for
    [for_epochs] consecutive observations raises a
    {!San_obs.Trace.Alert_raised}, and the first observation back under
    1.0 clears it ([Alert_cleared]).

    Fabric health rules are objectives with a one-epoch window
    ({!health_rules}): with one eligible epoch the burn reaches 1.0
    exactly when that epoch breaches, so health alerts and burn-rate
    SLO alerts share one streak/raise/clear implementation. The daemon
    runs two trackers: the health rules (alerts named after the rule)
    and the configured SLOs, labelled ["slo"] (alerts ["slo:<name>"],
    burn rates published as ["slo.<name>.burn_rate"] gauges, so they
    reach the Prometheus exposition with no extra plumbing).

    Out-of-contract epochs (offered load above [max_load]) are never
    charged; convergence objectives are charged only on epochs that
    actually resolved an incident. *)

type sample = {
  epoch : int;
  load : float;  (** offered background load, 0 when quiescent *)
  coverage : float;  (** fraction of hosts with current routes, 0..1 *)
  convergence_epochs : int;
      (** epochs an incident has been open (0 when the fabric is quiet) *)
  converge_ns : float option;
      (** convergence time of an incident resolved this epoch *)
  epoch_ns : float;  (** simulated work this epoch *)
  delta_bytes : int;  (** route bytes shipped this epoch *)
  missed_slices : int;  (** hosts whose slice distribution failed *)
  probe_drop_rate : float;  (** dropped/attempted control messages, 0..1 *)
  drop_rate : float;
      (** background-load drop rate, or [probe_drop_rate] without load *)
}
(** One epoch as the daemon lived it. *)

type metric =
  | Coverage
  | Convergence_epochs
  | Converge_ns  (** charged only on epochs with [converge_ns] *)
  | Epoch_ns
  | Delta_bytes
  | Missed_slices
  | Probe_drop_rate
  | Drop_rate

val metric_to_string : metric -> string

val metric_of_string : string -> metric option
(** The metrics the SLO grammar names: [converge], [epoch], [drop],
    [coverage] (plus the [_ns]/[_rate] spellings). *)

type cmp = Below | Above
(** Where the objective wants the value: [Below] the limit (a higher
    value is bad) or [Above] it. *)

type objective = private {
  name : string;
  metric : metric;
  quantile : float;
  cmp : cmp;
  limit : float;
  max_load : float;
  window : int;
  for_epochs : int;
}

val objective :
  ?name:string ->
  ?quantile:float ->
  ?max_load:float ->
  ?window:int ->
  ?for_epochs:int ->
  metric:metric ->
  cmp:cmp ->
  float ->
  objective
(** Defaults: p95, any load, 20-epoch window, raise after 2 sustained
    epochs. @raise Invalid_argument on a quantile outside (0,1) or an
    empty window. *)

val budget : objective -> float
(** The error budget, [1 - quantile]. *)

val parse : string -> (objective, string) result
(** [METRIC:pNN<LIMIT[@MAXLOAD]] (or [>] for lower-bound objectives
    like coverage), e.g. ["converge:p99<2e8@0.3"]. *)

val to_string : objective -> string

val defaults : objective list
(** Loose ship-with SLOs: convergence p95, epoch-time p99, drop p95
    under load, coverage p95. *)

val health_rules : objective list
(** One-epoch-window rules: full coverage expected every epoch; any
    missed slice alerts; an incident open beyond 2 epochs alerts;
    probe drops alert only after two consecutive epochs above 25%. *)

type alert = {
  objective : objective;
  raised_epoch : int;
  mutable cleared_epoch : int option;
  mutable worst : float;
      (** the value furthest past the limit seen while the alert built
          up and stayed open *)
}

type status = {
  st_objective : objective;
  st_eligible : int;  (** eligible epochs currently in the window *)
  st_bad : int;
  st_burn_rate : float;
  st_streak : int;
  st_alerting : bool;
}

type t

val create : ?label:string -> objective list -> t
(** A tracker over these objectives. With a [label], alert names are
    ["<label>:<name>"] and every observation publishes the burn rate
    as the ["<label>.<name>.burn_rate"] gauge; without one, alerts
    carry the bare objective name and no gauge is published. *)

val observe : t -> sample -> string list * string list
(** Feed one epoch; returns the (raised, cleared) alert names in
    objective order, having emitted the trace events. *)

val history : t -> alert list
(** Every alert raised so far, oldest first; open ones have no
    [cleared_epoch]. *)

val status : t -> status list
val pp_status : Format.formatter -> status -> unit
