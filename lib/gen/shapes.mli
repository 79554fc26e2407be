module Cdag := Dmc_cdag.Cdag

(** Small structural CDAG families used as fixtures by the tests, the
    exhaustive-optimal validation experiments, and the related-work
    graph classes (binomial graphs, r-pyramids) mentioned in Section 6.
    [chain], [reduction_tree] and [diamond] are the materialized
    {!Implicit_gen} graphs of the same names. *)

val chain : int -> Cdag.t
(** [chain n]: a path of [n] vertices; first tagged input, last output. *)

val reduction_tree : int -> Cdag.t
(** [reduction_tree leaves]: complete binary reduction over the given
    number of input leaves down to one output. *)

val broadcast_tree : int -> Cdag.t
(** Mirror image of {!reduction_tree}: one input fans out to the given
    number of output leaves. *)

val diamond : rows:int -> cols:int -> Cdag.t
(** The diamond/grid DAG: vertex [(i,j)] depends on [(i-1,j)] and
    [(i,j-1)].  [(0,0)] is the input, [(rows-1, cols-1)] the output. *)

val binomial : int -> Cdag.t
(** [binomial k]: the binomial graph B_k of Ranjan–Savage–Zubair,
    defined recursively — B_0 is a single vertex; B_k joins two copies
    of B_{k-1} with an edge from each vertex of the first copy to its
    twin in the second.  [2^k] vertices, in-degree up to [k]. *)

val pyramid : int -> Cdag.t
(** [pyramid h] is the 2-pyramid of height [h]: row [0] has [h+1] input
    vertices; each row-[r+1] vertex depends on two adjacent row-[r]
    vertices; the apex is the output.  [(h+1)(h+2)/2] vertices. *)

val independent : int -> Cdag.t
(** [independent n]: [n] isolated vertices, each both an input-free
    compute vertex and a tagged output — a degenerate fixture for edge
    cases of the games. *)

val two_level_fanin : fanin:int -> mids:int -> Cdag.t
(** [mids] middle vertices each reading the same [fanin] inputs, and a
    single output reading every middle vertex — a high-sharing fixture
    where tagging choices matter. *)
