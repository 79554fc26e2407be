(** Dinic's maximum-flow algorithm on integer-capacity networks, over
    linked edge lists — a test oracle.

    The library's vertex min-cuts run on the CSR slot kernel inside
    [Dmc_flow.Vertex_cut]; this general network is what that kernel
    replaced, kept so tests can check it flow for flow.
    {!Vertex_cut_oracle} builds its split networks here, and the tests
    compare the kernel against it in value, in budget ticks and in the
    [dinic.*] counters, which both implementations bump.  Capacities
    are non-negative ints; use {!infinite} for "uncuttable" edges.

    A network keeps its BFS/DFS scratch across rounds and queries, and
    can be rewound to a saved base state ({!snapshot}/{!restore}), so a
    caller asking many questions of one graph builds the shared part
    once and appends only the per-query edges. *)

type t

val infinite : int
(** A capacity that no finite cut will saturate ([max_int / 4]). *)

val create : int -> t
(** [create n] is an empty network over nodes [0 .. n-1]. *)

val n_nodes : t -> int

val add_edge : t -> src:int -> dst:int -> cap:int -> int
(** Add a directed edge and its residual twin; returns an edge id for
    {!flow_on}.  Raises [Invalid_argument] on bad endpoints or negative
    capacity. *)

val set_capacity : t -> int -> int -> unit
(** [set_capacity net id cap] resets the residual capacity of the
    forward edge [id] to [cap]; meant between {!restore} and
    {!max_flow}, to vary a snapshotted network per query.  Raises
    [Invalid_argument] on an unknown or twin id, or a negative
    capacity. *)

val snapshot : t -> unit
(** Record the current edges, adjacency and capacities as the base
    state.  A fresh network's base state is the empty network. *)

val restore : t -> unit
(** Rewind to the last {!snapshot}: drop the edges added since, and
    reset every capacity (flows included) to its snapshotted value.
    Edge ids below the snapshot stay valid and keep their order, so a
    restored network plus the same appended edges is, edge for edge,
    the network a fresh build would produce. *)

val max_flow : ?budget:Dmc_util.Budget.t -> t -> src:int -> dst:int -> int
(** Maximum [src]->[dst] flow.  Flows accumulate in the network, so
    ask one question per network state: {!snapshot} the shared part
    once, then {!restore} before each query.  Raises
    [Invalid_argument] if [src = dst].  [budget] is ticked once per
    BFS node visit and once per blocking-flow DFS step, so long phases
    on big networks raise [Dmc_util.Budget.Exhausted] promptly; the
    network is then mid-flow until the next {!restore}. *)

val flow_on : t -> int -> int
(** Flow currently routed through the edge with the given id.  Raises
    [Invalid_argument "Maxflow.flow_on: edge id out of range"] on an
    unknown id. *)

val min_cut_source_side : t -> src:int -> Dmc_util.Bitset.t
(** After {!max_flow}: the set of nodes reachable from [src] in the
    residual network.  Edges leaving this set form a minimum cut. *)

val iter_out : t -> node:int -> (id:int -> dst:int -> unit) -> unit
(** Iterate the {e forward} edges (the ones created by {!add_edge},
    not their residual twins) leaving a node, with their ids — the raw
    material for flow decomposition. *)

val edge_dst : t -> int -> int
(** Destination node of an edge id.  Raises
    [Invalid_argument "Maxflow.edge_dst: edge id out of range"] on an
    unknown id. *)
