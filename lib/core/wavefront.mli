module Budget := Dmc_util.Budget
module Cdag := Dmc_cdag.Cdag
module Rng := Dmc_util.Rng

(** The min-cut / wavefront lower bound of Section 3.3.

    For a vertex [x], any schedule must at some instant hold the whole
    wavefront [W(x)] — the evaluated vertices that still have
    unevaluated successors, plus [x] itself — simultaneously "live".
    The minimum cardinality wavefront [Wmin(x)] over all valid convex
    partitions [(S_x, T_x)] (with [S_x ⊇ {x} ∪ Anc(x)] and
    [T_x ⊇ Desc(x)]) is a vertex min-cut, computable by max-flow.
    Lemma 2 then gives, for a CDAG with no inputs,
    [IO >= 2 (|Wmin(x)| - S)]. *)

val min_wavefront : ?budget:Budget.t -> Cdag.t -> Cdag.vertex -> int
(** [|Wmin(x)|]: the vertex min-cut separating [{x} ∪ Anc(x)] from
    [Desc(x)] (descendants uncuttable).  Returns 1 when [x] has no
    descendants (only [x] itself is live).

    Staged: [min_wavefront ?budget g] builds [g]'s flow network once
    (on first need) and the returned function reuses it for every
    vertex it is applied to, one vertex at a time.  A sweep over many
    vertices should apply it once to [g] and keep the result. *)

val wmax_exact : ?budget:Budget.t -> Cdag.t -> int
(** [w_max = max_x |Wmin(x)|] over every vertex — one max-flow per
    vertex, so quadratic-ish; intended for small and mid-size CDAGs. *)

val wmax_sampled : ?budget:Budget.t -> Rng.t -> Cdag.t -> samples:int -> int
(** Max of [|Wmin(x)|] over a random sample of vertices.  Always a
    valid (possibly weaker) stand-in for [w_max] in {!lemma2_bound},
    because Lemma 2 holds for {e every} [x]. *)

val wmax_sampled_anytime :
  ?budget:Budget.t -> Rng.t -> Cdag.t -> samples:int -> int
(** Like {!wmax_sampled}, but budget exhaustion mid-sweep returns the
    best wavefront found so far instead of raising — the graceful
    degradation rung of the CLI's fallback ladder.  With no completed
    sample the result is 0 (so {!lower_bound}-style formulas fall back
    to their floors). *)

val lemma2_bound : wavefront:int -> s:int -> int
(** [max 0 (2 * (wavefront - s))]. *)

(** {1 Certificates}

    A wavefront bound of [k] at [x] is witnessed by [k] directed paths
    from [{x} ∪ Anc(x)] into [Desc(x)] that are pairwise
    vertex-disjoint outside [Desc(x)]: by Menger's theorem any valid
    convex partition must then hold [k] distinct live vertices when [x]
    fires.  The witness is extracted from the max-flow and can be
    re-checked independently of the flow machinery. *)

type witness = {
  x : Cdag.vertex;
  paths : Cdag.vertex list list;
}

val witness : Cdag.t -> Cdag.vertex -> witness
(** A maximum witness for [x]; [List.length paths = min_wavefront g x]
    (both are the max-flow value).  For a descendant-free [x] the
    witness is the trivial [{ x; paths = [] }]. *)

val verify_witness : Cdag.t -> witness -> bool
(** Re-check a witness from first principles: every path is a directed
    path in the graph, starts at [x] or an ancestor of [x], ends in
    [Desc(x)], and the paths share no vertex outside [Desc(x)].
    Deliberately reimplements nothing from the flow layer. *)

val lower_bound_via : (Cdag.t -> int) -> Cdag.t -> s:int -> int
(** The {!lower_bound} formula with a caller-supplied max-min-wavefront
    sweep: strips inputs (resp. inputs and outputs), applies [wmax] to
    each stripped graph, and combines via {!lemma2_bound} plus the
    dropped-tag credits.  Sound for any [wmax] that returns
    [|Wmin(x)|] of {e some} vertex [x] (Lemma 2 holds for every
    vertex) — this is the hook the graceful-degradation ladder uses to
    swap {!wmax_exact} for {!wmax_sampled_anytime}. *)

val lower_bound :
  ?budget:Budget.t -> ?samples:int -> ?rng:Rng.t -> Cdag.t -> s:int -> int
(** End-to-end bound for an arbitrary CDAG: strip the tagged
    input/output vertices (Corollary 2), compute the max min-wavefront
    of the remainder — exactly when it has at most [exact_threshold]
    vertices, else over [samples] sampled vertices (default 64) — and
    return [2 (w - S) + |dI| + |dO|], clamped below by
    [|dI| + |dO|]. *)

val exact_threshold : int
(** Vertex-count cutoff (512) below which {!lower_bound} uses
    {!wmax_exact}. *)
