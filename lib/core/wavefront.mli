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
    descendants (only [x] itself is live); a vertex without successors
    answers so at once, with no reachability search and no flow.

    Every query asked of it, sink or not, counts once in
    [wavefront.mincut_calls] and is observed in [wavefront.cut_size].
    The sweeps below ask only the queries their ceilings cannot rule
    out, so those observations count the queries asked, not the
    vertices swept.

    Staged: [min_wavefront ?budget g] builds [g]'s flow network once
    (on first need) and the returned function reuses it for every
    vertex it is applied to, one vertex at a time.  A sweep over many
    vertices should apply it once to [g] and keep the result. *)

val cut_ceiling : Cdag.t -> Cdag.vertex -> int
(** A flow-free upper bound on {!min_wavefront}: 1 for a vertex without
    successors, else [min (1 + |Anc(x)|) |In(Desc(x))|], where [In(D)]
    is the set of vertices outside [D] with an edge into [D].

    Proof: both sets are cuts that avoid the uncuttable [Desc(x)].  The
    source set [{x} ∪ Anc(x)] is one, since every path starts in it.
    [In(Desc(x))] is the other: a path from the source set into
    [Desc(x)] starts outside [Desc(x)] (the graph is acyclic), so the
    vertex just before its first vertex in [Desc(x)] lies in
    [In(Desc(x))].  The min cut is at most either size.  Costs one
    descendant and one ancestor search, no flow. *)

val wmax_over :
  Cdag.t -> at_least:int -> Cdag.vertex array -> int * Cdag.vertex option
(** [wmax_over g ~at_least vs] is [max at_least (max_{x ∈ vs}
    min_wavefront g x)], and [Some x] for the first vertex whose cut
    set that value when it exceeds [at_least] ([None] otherwise).

    The one primitive behind every unbudgeted max-of-cuts sweep: it
    computes the {!cut_ceiling} of each distinct vertex of [vs], visits
    them in descending ceiling order (ties by first position), and
    stops at the first ceiling that does not exceed the best value so
    far, which starts at [at_least].  No skipped vertex could have
    raised the maximum, so the value is the full sweep's; only the
    number of flows changes.  A Lemma-2 consumer passes [~at_least:s],
    since [2 max(0, w - S)] is the same for [max w S] as for [w]. *)

val wmax_exact : Cdag.t -> int
(** [w_max = max_x |Wmin(x)|] over every vertex: {!wmax_over} with
    [~at_least:0], so one max-flow per vertex whose ceiling beats the
    best cut found so far — at worst one per vertex.  Intended for
    small and mid-size CDAGs. *)

val wmax_sampled : Rng.t -> Cdag.t -> samples:int -> int
(** Max of [|Wmin(x)|] over [samples] vertices drawn from [rng] (all
    drawn before any flow runs, so a shared generator stays in step),
    through {!wmax_over}.  Always a valid (possibly weaker) stand-in
    for [w_max] in {!lemma2_bound}, because Lemma 2 holds for
    {e every} [x]. *)

val wmax_sampled_anytime :
  ?budget:Budget.t -> Rng.t -> Cdag.t -> samples:int -> int
(** Like {!wmax_sampled}, but budget exhaustion mid-sweep returns the
    best wavefront found so far instead of raising — the loop of the
    fallback ladder's {!sampled_rung}.  With no completed
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

val lower_bound : ?samples:int -> ?rng:Rng.t -> Cdag.t -> s:int -> int
(** End-to-end bound for an arbitrary CDAG, through Corollary 2's two
    stripped graphs: [g] with its tagged inputs dropped (credit
    [|dI|]), and [g] with its tagged inputs and outputs dropped (credit
    [|dI| + |dO|]).  For each, take the max min-wavefront [w] of the
    remainder — exactly when it has at most {!exact_threshold}
    vertices, else over [samples] draws (default 64) from [rng]
    (default: a fresh generator seeded [0x5eed] per stripped graph) —
    and return the better of the two [2 max(0, w - S) + credit].  Each
    sweep is {!wmax_over} with [~at_least:s], so no flow runs on a
    vertex whose ceiling is at most [S]. *)

val exact_threshold : int
(** Vertex-count cutoff (512) below which {!lower_bound} uses
    {!wmax_exact}. *)

(** {1 The fallback ladder}

    The governed wavefront row, and the [mp-comm-lb] and [mp-time-lb]
    rows ([Bounds.row] on each), computes the
    {!lower_bound} formula twice under separate budgets: an exact rung
    over every vertex, then an anytime sampled rung when the exact one
    runs out.  Both rungs ask the same min-cut queries of the same two
    stripped graphs, so a {!ladder} holds one set of them:

    - {b one network per stripped graph}: the graph is stripped once
      (inputs dropped; inputs and outputs dropped) and each stripped
      graph keeps its prepared split network;
    - {b records}: every query asked under a budget records the ticks
      it spent, and its value when it completed.  A query cut short
      keeps the ticks it ran before it raised: a lower bound on its
      cost;
    - {b replay}: a recorded vertex asked again does not run the flow —
      its ticks are re-charged with [Budget.replay], which raises
      exactly where that many single ticks would, and the recorded
      value is returned.  A vertex cut short after [k] ticks, asked
      again with at most [k] node ticks left, exhausts through the
      same replay: its flow could not have finished either.  With more
      budget left its flow runs.

    Each query's ticks are a function of the graph and the vertex alone
    (the prepared network restores to the same base network every
    time), so a rung's result and [Budget.spent] are the ones a fresh
    network per rung gives.  The exact rung's sweep order is free: it
    exhausts iff its per-vertex ticks sum to at least the node budget,
    and then [spent] equals the budget; otherwise it returns the same
    maximum.  It therefore visits first the vertices the sampled rung
    would draw if none of its queries were cut short, so that when the
    exact rung exhausts, the sampled rung is almost all replay.  What
    does change is how many flows run: the [wavefront.mincut_calls],
    [wavefront.cut_size] and [dinic.*] observations count only the
    queries actually flowed.

    The same argument carries records across ladders: a {!record} is a
    pure memo of (stripped graph, vertex) → (value, ticks), valid at
    any S, p, budget and sample count.  A ladder seeded with one
    answers every rung exactly as a fresh ladder would, value and
    [Budget.spent] alike, and flows only the queries the record cannot
    settle. *)

type ladder
(** One graph's stripped graphs, their prepared networks and query
    records.  Mutable: one rung at a time. *)

type record
(** An exported copy of a ladder's query records: per stripped graph
    and vertex, the min cut of every completed query and the ticks of
    every query asked.  Plain data: comparable with [=]. *)

val ladder : ?samples:int -> ?record:record -> Cdag.t -> ladder
(** Strip the graph (Corollary 2's two variants).  [samples]
    (default 64) is the sampled rung's draw count per stripped graph.
    [record] seeds the ladder's query records with a copy of its own.
    Raises [Invalid_argument] when it does not {!record_fits} [g]. *)

val record : ladder -> record
(** A copy of the ladder's query records, as they stand. *)

val record_fits : record -> Cdag.t -> bool
(** The record's per-stripped-graph lengths are the vertex counts of
    [g]'s two stripped graphs. *)

val record_to_json : record -> Dmc_util.Json.t
(** [{"inputs": {"n": N, "queries": [[x, value, ticks], ...]}, "io":
    ...}], listing only the vertices asked ([value] [-1]: cut
    short). *)

val record_of_json : Dmc_util.Json.t -> (record, string) result
(** The inverse of {!record_to_json}; [Error] on a missing count or
    query list, or an entry out of range. *)

val exact_rung : ?budget:Budget.t -> ladder -> s:int -> int
(** The {!lower_bound} formula with the exact max min-wavefront of both
    stripped graphs.  Visits the sampled rung's draws first (seed
    [0x5eed], [samples] per stripped graph, inputs-dropped first, each
    vertex once), then every other vertex in id order.  Raises
    [Budget.Exhausted] when [budget] runs out. *)

val sampled_rung : ?budget:Budget.t -> ladder -> s:int -> int
(** The same formula over {!wmax_sampled_anytime}'s loop: one
    generator (seed [0x5eed]) across both stripped graphs,
    inputs-dropped first, [samples] draws each, and budget exhaustion
    keeps the best wavefront found so far instead of raising.  Sound
    for the same reason: Lemma 2 holds for every vertex. *)
