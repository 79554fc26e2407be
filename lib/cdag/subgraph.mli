(** Induced subgraphs and the decomposition transforms of Section 3.2.

    The decomposition theorem (Theorem 2) lets one partition the vertex
    set of a CDAG arbitrarily, analyze each induced sub-CDAG
    independently, and {e add} the per-part lower bounds.  The functions
    here build those induced sub-CDAGs, keeping the tagging rules of the
    theorem: part inputs are [I ∩ V_i] and part outputs are [O ∩ V_i]
    (edges crossing parts are simply dropped). *)

module Bitset := Dmc_util.Bitset

type part = {
  graph : Cdag.t;                 (** the induced sub-CDAG *)
  to_parent : Cdag.vertex array;  (** part id -> original id *)
  of_parent : Cdag.vertex -> Cdag.vertex option;
      (** original id -> part id, [None] when outside the part *)
}

val induced : Cdag.t -> Bitset.t -> part
(** Sub-CDAG induced by a vertex set, with Theorem-2 tagging
    ([I_i = I ∩ V_i], [O_i = O ∩ V_i]).  One counting pass and one
    fill over the set's successor rows, straight into {!Cdag.of_rows};
    no row is re-sorted.  Part vertex [i] is labelled, on demand,
    [Cdag.label g to_parent.(i)] (so an unlabeled parent vertex reads
    ["v<parent id>"]); the part therefore keeps [g] reachable.

    Inducing on every vertex (a set of capacity and cardinality
    [n_vertices g]) builds nothing: the part is [g] itself, with
    identity maps. *)

val induced_list : Cdag.t -> Cdag.vertex list -> part

val partition : Cdag.t -> int array -> part array
(** [partition g color] splits [g] by the per-vertex color (an
    arbitrary, not necessarily convex, assignment; colors must be dense
    in [0 .. k-1]).  Returns the [k] induced parts of Theorem 2. *)

val boundary_in : Cdag.t -> Bitset.t -> Bitset.t
(** [In(V_i)] of Definition 5: vertices outside the set with at least
    one successor inside. *)

val boundary_out : Cdag.t -> Bitset.t -> Bitset.t
(** [Out(V_i)] of Definition 5: vertices of the set that are tagged
    outputs or have at least one successor outside the set. *)

val drop_inputs : Cdag.t -> part * int
(** Corollary 2 restricted to the input side: remove every tagged
    input vertex, keep the output tagging on the survivors, and return
    the remaining CDAG with [|dI|].  This is the minimal surgery that
    makes Lemma 2 (which requires [I = ∅] but tolerates outputs)
    applicable.  With no tagged input it induces on every vertex, so
    only the tagging is rebuilt (see {!induced}). *)

val drop_io : Cdag.t -> part * int * int
(** The input/output-deletion transform of Corollary 2: remove every
    tagged input vertex ([dI]) and every tagged output vertex ([dO],
    excluding those already counted in [dI]), returning the remaining
    CDAG — which has empty input and output sets — as a {!part} (so
    surviving vertices can be mapped), together with [|dI|] and [|dO|].
    A lower bound [Q] on the result yields the bound [Q + |dI| + |dO|]
    on the original.  With neither inputs nor outputs tagged, only the
    tagging is rebuilt. *)
