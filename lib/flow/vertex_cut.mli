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

    Every function here builds that network through {!prepare}: the
    split and CDAG edges once, then per query the uncuttable split
    capacities and the terminal edges, always in the same order.  A
    caller with many queries on one graph keeps the {!prepared} network
    and asks {!cut_size} repeatedly; each answer, and each budget tick
    spent reaching it, is exactly what a fresh {!min_vertex_cut} gives. *)

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
