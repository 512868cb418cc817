(** Minimal min-cost max-flow solver: successive shortest augmenting
    paths, each found by Dijkstra on reduced costs (Johnson
    potentials).

    Used to compute the paper's exploration-depth parameter [Q]
    (Definition 2/3): [Q(v)] is the length of the shortest trail from
    the mapper through [v] to any host, which equals the minimum total
    cost of two edge-disjoint unit paths out of [v] — a 2-unit min-cost
    flow. The oracle solves one such flow per core vertex, so a network
    is built once and queried many times: arc handles let a caller
    change a few base capacities between queries, and the search state
    (distances, predecessors, potentials, an int-keyed binary heap) is
    allocated at {!create} and reused. Because {!add_arc} rejects
    negative costs, zero potentials are valid at the start of every
    query, and after each path the potentials keep every residual
    reduced cost non-negative — so Dijkstra stays exact even on the
    negative-cost reverse arcs a later path may cancel. *)

type t

type arc
(** Handle on an arc added by {!new_arc}. *)

val create : int -> t
(** [create n] builds an empty flow network on nodes [0 .. n-1]. *)

val add_arc : t -> src:int -> dst:int -> cap:int -> cost:int -> unit
(** Add a directed arc.
    @raise Invalid_argument on a negative cost or a node out of range. *)

val new_arc : t -> src:int -> dst:int -> cap:int -> cost:int -> arc
(** {!add_arc}, returning a handle for {!set_cap}. *)

val set_cap : t -> arc -> int -> unit
(** [set_cap t a c] makes [c] the base capacity of [a] from the next
    query on. *)

val min_cost_flow : t -> source:int -> sink:int -> amount:int -> int option
(** [min_cost_flow t ~source ~sink ~amount] ships exactly [amount]
    units and returns the minimum total cost, or [None] when the
    network cannot carry that much flow. Resets any previous flow. *)

val max_flow_value : t -> source:int -> sink:int -> int
(** Maximum shippable amount (costs ignored). Resets previous flow. *)
