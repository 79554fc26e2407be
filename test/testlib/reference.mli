module Cdag := Dmc_cdag.Cdag
module Implicit := Dmc_cdag.Implicit
module Subgraph := Dmc_cdag.Subgraph
module Bitset := Dmc_util.Bitset

(** Straightforward reference implementations, kept only as test
    oracles: builds for the direct CSR fills of {!Subgraph.induced},
    {!Implicit.window} and {!Implicit.materialize}, and for
    {!Dmc_gen.Grid.iter_footprint} — each goes through {!Cdag.Builder}
    one vertex and one edge at a time, with every label formatted up
    front — and the unpruned wavefront sweeps below. *)

val induced : Cdag.t -> Bitset.t -> Subgraph.part
(** The induced sub-CDAG with Theorem-2 tagging, built vertex by vertex
    with part label [i] = [Cdag.label g to_parent.(i)]. *)

val materialize : Implicit.t -> Cdag.t
(** Every vertex (labelled), every successor edge, then the tags. *)

val induced_ids : Implicit.t -> int array -> Subgraph.part
(** The sub-CDAG of an implicit graph induced by an ascending id array,
    with membership through a hash table keyed by parent id. *)

val star_neighbors : Dmc_gen.Grid.t -> int -> int list
(** The von Neumann neighbors of a point, excluding it, ascending. *)

val box_neighbors : Dmc_gen.Grid.t -> int -> int list
(** The Moore neighbors of a point, excluding it, ascending. *)

(** {1 Full wavefront sweeps}

    One min-cut query per vertex, in order, with no ceiling to prune
    the sweep: oracles for the values of {!Dmc_core.Wavefront}'s and
    {!Dmc_core.Decompose}'s pruned sweeps. *)

val wmax_exact : Cdag.t -> int
(** The max of [Wavefront.min_wavefront] over every vertex. *)

val wmax_sampled : Dmc_util.Rng.t -> Cdag.t -> samples:int -> int
(** The max over [samples] vertices drawn from the generator, each
    queried as it is drawn. *)

val lower_bound : ?samples:int -> ?rng:Dmc_util.Rng.t -> Cdag.t -> s:int -> int
(** [Wavefront.lower_bound]'s formula over both Corollary-2 strips, each
    swept by {!wmax_exact} up to [Wavefront.exact_threshold] vertices,
    else by {!wmax_sampled}. *)

val wavefront_sum :
  pieces:(Subgraph.part * Cdag.vertex list) array -> s:int -> int
(** [Decompose.wavefront_sum]: per piece, the inputs-stripped graph's
    best Lemma-2 term over the mapped targets plus [|dI|], summed. *)

(** {1 Degraded rows}

    The two hand-written supervisor-side fallbacks that
    {!Dmc_core.Bounds.degraded_row} replaced: oracles for the row a
    lost worker's engine degrades to. *)

val max_indeg : Cdag.t -> int
(** The largest in-degree of a non-input vertex. *)

val seq_degraded_row :
  Cdag.t -> s:int -> engine:string -> kind:Dmc_core.Bounds.kind ->
  failure:Dmc_util.Budget.failure -> elapsed:float -> Dmc_core.Bounds.row
(** A sequential engine: the I/O floor for lower-bound and exact
    engines, the trivial schedule for upper-bound ones when S exceeds
    the max in-degree. *)

val mp_degraded_row :
  Cdag.t -> p:int -> s:int -> engine:string ->
  failure:Dmc_util.Budget.failure -> elapsed:float -> Dmc_core.Bounds.row
(** An mp/pc engine: its floor, or its trivial schedule when S admits
    one ([mp-time-ub] replays it through {!Dmc_core.Mp_game.run}). *)

(** {1 Comparisons} *)

val graph_diff : Cdag.t -> Cdag.t -> string option
(** [None] when the two graphs serialize byte-identically and agree on
    every predecessor row and every label; otherwise the first
    difference. *)

val part_diff : parent_n:int -> Subgraph.part -> Subgraph.part -> string option
(** {!graph_diff} on the part graphs, plus equal [to_parent] and equal
    [of_parent] on every id in [\[-2, parent_n + 2)]. *)
