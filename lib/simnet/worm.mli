(** Worm path evaluation: the §2.2 message-path semantics.

    Given a source host and a turn string, computes the path the worm
    head takes through the actual network and how the attempt ends.
    Path legality is purely structural here; whether the worm survives
    its own edge reuse is the {!Collision} module's concern. *)

open San_topology

type hop = {
  exit_end : Graph.wire_end;  (** the (node, port) the head leaves through *)
  entry_end : Graph.wire_end;  (** the (node, port) it arrives at *)
}

type outcome =
  | Arrived of Graph.node
      (** routing flits exhausted exactly as the head reached this host *)
  | Illegal_turn of int
      (** turn index whose sum left the port range (ILLEGAL TURN) *)
  | No_such_wire of int  (** turn index selecting a vacant port *)
  | Hit_host_too_soon of int * Graph.node
      (** arrived at a host with turns left; the hardware discards it *)
  | Stranded of Graph.node  (** flits exhausted at a switch *)
  | Unwired_source  (** the source host has no cable at all *)

type trace = { hops : hop list; outcome : outcome }
(** [hops] lists every wire crossing the head performed, in order,
    including crossings on a failed attempt up to the failure point. *)

val eval : Graph.t -> src:Graph.node -> turns:Route.t -> trace
(** Drive a worm with the given turn string out of host [src]: a fresh
    {!walker} run by {!walk}, read back as a hop list.
    @raise Invalid_argument if [src] is not a host or a turn is outside
    the radix alphabet. *)

(** {1 The walker}

    The probe service's allocation-free form of {!eval}: a reusable
    buffer records the channels the head crosses, and the outcome is
    read from accessors instead of a variant. A {e channel} is a wire
    end [(node, port)] encoded as the int [node * radix + port], so
    channel order is wire-end order. *)

type walker

type ending =
  | Reached_host  (** [Arrived] at host {!at} *)
  | Turn_out_of_range  (** [Illegal_turn] at flit {!index} *)
  | Vacant_port  (** [No_such_wire] at flit {!index} *)
  | Host_too_soon  (** [Hit_host_too_soon] at flit {!index}, host {!at} *)
  | Stopped_at_switch  (** [Stranded] at switch {!at} *)
  | Source_unwired  (** [Unwired_source] *)

val walker : unit -> walker
(** An empty buffer; it grows to the longest walk it records. *)

val walk : walker -> Graph.t -> src:Graph.node -> turns:Route.t -> unit
(** [walk w g ~src ~turns] is {!eval} recorded into [w], replacing the
    previous walk. Same exceptions as {!eval}. *)

val walk_loopback : walker -> Graph.t -> src:Graph.node -> turns:Route.t -> unit
(** The walk of [Route.switch_probe turns], with the bounce and the
    negated retrace read from [turns] rather than built as a list. *)

val hops : walker -> int
(** Wire crossings of the last walk, as [List.length (eval ...).hops]. *)

val ending : walker -> ending
val at : walker -> Graph.node
val index : walker -> int

val outcome : walker -> outcome
(** The last walk's outcome as {!eval} reports it. *)

val exit_channel : walker -> int -> int
(** [exit_channel w i]: the channel hop [i] left through. *)

val entry_channel : walker -> int -> int
(** [entry_channel w i]: the channel hop [i] arrived on. *)

val exit_end : walker -> int -> Graph.wire_end
val entry_end : walker -> int -> Graph.wire_end

val path_nodes : Graph.t -> src:Graph.node -> trace -> Graph.node list
(** The node sequence [h0; n1; ...] visited by the head. *)

val pp_outcome : Format.formatter -> outcome -> unit
