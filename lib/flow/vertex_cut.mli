module Cdag := Dmc_cdag.Cdag

(** Minimum vertex cuts in CDAGs via node splitting.

    [min_vertex_cut g ~from_set ~to_set ~uncuttable] computes the
    smallest set [W] of vertices, disjoint from [uncuttable], such that
    every directed path from a vertex of [from_set] to a vertex of
    [to_set] passes through some member of [W].  Members of [from_set]
    themselves may be chosen for [W] unless listed uncuttable.

    Implementation: the standard reduction where each vertex [v] is
    split into [v_in -> v_out] with capacity 1 (or infinite when
    uncuttable), every CDAG edge gets infinite capacity, a super-source
    feeds every [from_set] vertex's [v_in], and every [to_set] vertex's
    [v_out] drains to a super-sink.  Menger's theorem makes the max flow
    equal the min cut, and the saturated split edges on the source-side
    boundary of the residual graph name the cut vertices.

    One Dinic kernel runs every entry point here.  It stores the split
    network of a graph as CSR slots built once from the CDAG's own rows
    ({!prepare}): nodes [v_in = 2v], [v_out = 2v+1], source [2n], sink
    [2n+1].  [v_in] holds a front slot, the twins of its in-edges by
    predecessor descending, then its split edge; [v_out] a front slot,
    its out-edges by successor descending, then its split twin; the
    source and the sink hold the query's terminal edges in reverse list
    order.  A front slot carries the node's terminal edge when the
    vertex is a terminal and is skipped otherwise.  Each node's slots
    are the edges a linked-list network lists for the same query, in
    the same order, so every BFS dequeue, DFS edge try, [budget] tick
    and [dinic.*] count is that network's.  A query restores the base
    capacities with one blit and clears the front slots it used, so
    each answer, and each tick spent reaching it, is what a fresh
    {!min_vertex_cut} gives.

    [budget] is ticked once per BFS dequeue and once per DFS edge try.
    The kernel counts the ticks under {!Dmc_util.Budget.headroom} in a
    local integer and charges them with {!Dmc_util.Budget.replay} at
    the first tick past it and when the query ends, normally or by
    exception: [Dmc_util.Budget.Exhausted] is raised, and the clock and
    the cancellation hook are polled, at exactly the tick single ticks
    would.

    Each terminal list may name a vertex once: a repeat raises
    [Invalid_argument], since one front slot holds one terminal
    edge. *)

val infinite : int
(** The capacity of an uncuttable split edge and of every CDAG edge
    ([max_int / 4]); a cut of that size or more means "no finite
    cut". *)

type result = {
  size : int;                    (** [|W|], the max-flow value *)
  cut : Cdag.vertex list;        (** the cut vertices, ascending *)
  source_side : Dmc_util.Bitset.t;
      (** vertices whose [v_in] is reachable from the super-source in
          the residual network: the "S side" of the induced convex
          partition *)
}

val min_vertex_cut :
  ?budget:Dmc_util.Budget.t ->
  Cdag.t ->
  from_set:Cdag.vertex list ->
  to_set:Cdag.vertex list ->
  ?uncuttable:Cdag.vertex list ->
  unit ->
  result
(** Raises [Invalid_argument] when [from_set] and [to_set] intersect or
    either is empty.  The result size is guaranteed finite when
    [to_set] vertices are uncuttable but every path from [from_set]
    contains some cuttable vertex; if not, [size] may be
    {!infinite}-scaled (treat as "no finite cut"). *)

type prepared
(** The split network of one CDAG, reusable across queries.  Mutable:
    one query at a time. *)

val prepare : Cdag.t -> prepared

val cut_size :
  ?budget:Dmc_util.Budget.t ->
  prepared ->
  from_set:Cdag.vertex list ->
  to_set:Cdag.vertex list ->
  ?uncuttable:Cdag.vertex list ->
  unit ->
  int
(** [(min_vertex_cut g ...).size] on [g]'s prepared network, without
    the cut extraction.  Same errors.  A query cut short by [budget]
    leaves nothing behind: the next query starts from the prepared
    state. *)

val wavefront_cut : ?budget:Dmc_util.Budget.t -> prepared -> Cdag.vertex -> int
(** The Lemma-2 query of [x]: [cut_size p ~from_set:(x :: Anc(x))
    ~to_set:Desc(x) ~uncuttable:Desc(x) ()] with both sets ascending,
    tick for tick, but with the terminal sets marked straight into the
    kernel: two searches over the prepared slots with stamped marks,
    then one descending scan of the marked ids fills the source (Anc(x)
    descending, then [x]) and the sink (Desc(x) descending).  No list
    or set is built.  Raises [Invalid_argument] when [x] is out of
    range or has no successors (its [Desc(x)] is empty). *)

val path_witness :
  ?budget:Dmc_util.Budget.t ->
  Cdag.t ->
  from_set:Cdag.vertex list ->
  to_set:Cdag.vertex list ->
  ?uncuttable:Cdag.vertex list ->
  unit ->
  Cdag.vertex list list
(** A {e witness} for {!min_vertex_cut}: [size]-many directed paths
    from [from_set] to [to_set], pairwise vertex-disjoint except on
    [uncuttable] vertices, obtained by decomposing the maximum flow.
    By Menger's theorem their existence proves the cut cannot be
    smaller — a machine-checkable lower-bound certificate.  Each path
    is listed source-first.  Raises [Dmc_util.Budget.Internal_error]
    (with the stuck node and flow value) if the decomposition cannot
    make progress — an invariant violation, not a resource
    condition. *)

val disjoint_paths :
  ?budget:Dmc_util.Budget.t -> Cdag.t -> src:Cdag.vertex -> dst:Cdag.vertex -> int
(** Maximum number of internally vertex-disjoint directed paths from
    [src] to [dst] (endpoints excluded from the disjointness
    requirement), as a flow from [src]'s [v_out] to [dst]'s [v_in].  A
    direct edge [src -> dst] is one such path, with no interior vertex.
    Used by the CG/GMRES wavefront arguments, which rest on "disjoint
    paths from the predecessors to the descendants". *)

val disjoint_set_paths :
  Cdag.t -> from_set:Cdag.vertex list -> to_set:Cdag.vertex list -> int
(** Maximum number of pairwise vertex-disjoint directed paths from
    [from_set] to [to_set], endpoints included: no two paths share any
    vertex, and a vertex in both sets is a one-vertex path. *)
