module Cdag := Dmc_cdag.Cdag

(** Minimum vertex cuts in CDAGs via node splitting, over the
    linked-list {!Maxflow} network — the oracle for
    [Dmc_flow.Vertex_cut].

    Same signatures and errors as the library module it stands in for.
    Each vertex [v] is split into [v_in -> v_out] with capacity 1 (or
    infinite when uncuttable), every CDAG edge gets infinite capacity,
    a super-source feeds every [from_set] vertex's [v_in], and every
    [to_set] vertex's [v_out] drains to a super-sink.  {!prepare} adds
    the split and CDAG edges once; per query the uncuttable split
    capacities and the terminal edges are appended, always in the same
    order, so each answer and each budget tick is what a fresh build
    gives.  The library kernel visits the same edges in the same order:
    the tests hold the two equal in value, [Budget.spent] and the
    [dinic.*] counters.

    One known difference: {!disjoint_paths} here gives a direct
    [src -> dst] edge infinite capacity, so adjacent vertices answer
    {!Maxflow.infinite}; the kernel counts that edge as one path. *)

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
    {!Maxflow.infinite}-scaled (treat as "no finite cut"). *)

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
    requirement).  Used by the CG/GMRES wavefront arguments, which rest
    on "disjoint paths from the predecessors to the descendants". *)

val disjoint_set_paths :
  Cdag.t -> from_set:Cdag.vertex list -> to_set:Cdag.vertex list -> int
(** Maximum number of pairwise vertex-disjoint directed paths from
    [from_set] to [to_set], endpoints included: no two paths share any
    vertex, and a vertex in both sets is a one-vertex path. *)
