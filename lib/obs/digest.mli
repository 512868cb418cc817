(** Mergeable streaming quantile digests — the one log-bucket sketch.

    Observations bin at geometric boundaries [gamma^i] with
    [gamma = 2^(1/8)] (~9% relative resolution); non-positive values go
    to a dedicated zero bucket. The registry's histograms
    ({!Metrics.histogram}) are digests. Merging is {e exact}: bucket
    counts add, so the merge of two streams' digests equals the digest
    of their concatenation. Shard runners summarize locally and the
    coordinator composes fleet percentiles without ever seeing raw
    samples. *)

type t

val create : unit -> t
val add : t -> float -> unit
val of_list : float list -> t

val reset : t -> unit
(** Empty the digest in place. *)

val copy : t -> t
(** A detached copy: later [add]s to either side do not reach the
    other. *)

val count : t -> int
val sum : t -> float

val min : t -> float
(** The smallest observation, 0 when empty. *)

val max : t -> float
(** The largest observation, 0 when empty. *)

val zero : t -> int
(** Observations in the zero bucket (non-positive values). *)

val buckets : t -> (int * int) list
(** Non-empty log buckets [(i, n)], sorted by [i]; bucket [i] holds
    positive values in [(gamma^i, gamma^(i+1)\]]. *)

val is_empty : t -> bool

val merge : t -> t -> t
(** A fresh digest equal to the digest of the concatenated streams.
    Associative and commutative; neither argument is mutated. *)

val merge_all : t list -> t

val diff : before:t -> after:t -> t
(** The observations [after] holds beyond [before], for two states of
    one digest: counts, sum and buckets subtract; min/max come from
    [after] (window extremes are not recoverable from summaries). A
    digest that restarted in between (a {!reset}: its total, zero
    bucket or any individual bucket shrank) yields a copy of [after]
    wholesale — everything since the reset is the window — so counts
    are never negative. Neither argument is mutated. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0,1]: the geometric midpoint of the
    bucket holding the rank-[q] observation, clamped to the observed
    min/max. 0 when empty. *)

val relative_error : float
(** Guaranteed worst-case relative error of [quantile] for positive
    observations: [sqrt gamma - 1] (~4.4%). *)

val to_json : t -> San_util.Json.t
(** [{count, sum, min, max, zero, buckets, p50, p95, p99}]. *)
