(** The two §2.3.1 worm-collision models.

    A quiescent network means a probe can only collide with itself
    ("stepping on one's tail"). Links are full duplex — each wire
    carries two independent directed channels — so what matters is
    which {e directed} channel a worm re-enters and when:

    - {b Circuit}: worms hold their whole path, so a host-probe fails
      as soon as its path reuses a directed channel, and a loopback
      (switch-) probe additionally fails when its outbound half reuses
      a wire in {e either} direction, because the retrace doubles every
      crossing.
    - {b Cut_through}: a reused channel has been released iff the
      worm's tail has already drained past it, which depends on worm
      length, per-port buffering, and how many hops the head travelled
      in between; reuse "may or may not fail" (the paper's words), and
      with Myrinet's 108-byte buffers short probes practically always
      survive.

    A blocked worm deadlocks on itself and is destroyed by the
    hardware; the mapper simply observes a timeout. *)

type model = Circuit | Cut_through

val model_to_string : model -> string

type t
(** A collision checker: the model, the worm parameters, and a
    per-channel scratch table reused by every check, so a check
    allocates nothing. *)

val create : model -> Params.t -> t
val model : t -> model

val host_probe_blocks :
  ?fabric:San_telemetry.Fabric_stats.t -> t -> Worm.walker -> bool
(** Does the walker's last walk, taken as a host-probe worm, block on
    itself? A blocking collision is charged to the directed channel
    where the head stepped on its tail in [fabric] (default: the
    process-wide {!San_telemetry.Fabric_stats.current} slot, if
    installed). *)

val switch_probe_blocks :
  ?fabric:San_telemetry.Fabric_stats.t -> t -> forward_hops:int ->
  Worm.walker -> bool
(** Does the walker's last walk, taken as a loopback worm, block on
    itself? [forward_hops] is the number of wire crossings of the
    outbound half (k+1 for a probe of k turns). Collision attribution
    as in {!host_probe_blocks}. *)
