module Budget := Dmc_util.Budget
module Cdag := Dmc_cdag.Cdag
module Hierarchy := Dmc_machine.Hierarchy

(** Schedulers that emit {e valid} RBW / P-RBW games, giving measured
    upper bounds on I/O.

    The lower-bound engines are only half of the paper's story: to show
    a bound is informative one needs an execution whose cost approaches
    it.  Each function here produces a move list that the corresponding
    game engine accepts (the tests replay every schedule through
    {!Rbw_game.run} / {!Prbw_game.run}).  The I/O counts {!io},
    {!mp_io} and {!pc_io} (and {!mp_stats}) are the counts of the
    game's own checker ({!Rbw_game}, {!Mp_game}, {!Pc_game}), which
    plays each move as the scheduler emits it, so they are certified
    upper bounds on the optimum without the move list being built; a
    move the checker rejects raises
    {!Dmc_util.Budget.Internal_error}, never a count.

    The five policy schedulers are layered on two shared pieces: one
    walk over the compute order (each value's use positions, a cursor
    giving its next use, its last touch for LRU, the pinned operands
    of the vertex in flight) and one victim rule (the unpinned resident
    with the furthest next use under Belady, the oldest touch under
    LRU, the smallest vertex among equals; a scan visits only the at
    most S residents of a fast memory, not all n vertices).  On these
    sits one p-processor policy cache: private fast
    memories over one slow memory, operands loaded on demand, live
    victims stored before eviction, dead values dropped eagerly,
    cross-processor values published through slow memory.  Its p = 1
    game is {!schedule}, its p-processor game is {!mp_schedule}, and
    its accumulator game is {!pc_schedule}; each game only spells the
    moves, and every move goes to a sink: a list for the schedules, the
    game's checker for the counts.  {!hierarchical} and {!smp_shared}
    share one cache level (staging from memory with an input's first
    read, policy eviction with live victims moved down, release of dead
    non-outputs, the output flush, input whitening) and differ only in
    their register level.  {!trivial} and {!mp_trivial} are one
    no-reuse game, at p = 1 and round-robin. *)

val default_order : Cdag.t -> Cdag.vertex array
(** The deterministic topological order of the non-input vertices
    (smallest-id-first Kahn), the default compute order everywhere. *)

val dfs_order : Cdag.t -> Cdag.vertex array
(** A depth-first post-order of the non-input vertices, rooted at the
    outputs (remaining vertices appended in the same style).  On trees
    and other fan-in-dominated CDAGs this keeps the live set small —
    it reaches the exhaustive optimum on reduction trees where the
    breadth-first {!default_order} spills. *)

type policy =
  | Lru     (** evict the least-recently-used value — models real caches *)
  | Belady  (** evict the value with the furthest next use — the optimal
                offline policy for a fixed compute order, hence the
                tighter upper bound *)

val schedule :
  ?budget:Budget.t ->
  ?policy:policy ->
  ?order:Cdag.vertex array ->
  Cdag.t ->
  s:int ->
  Rbw_game.move list
(** Execute the compute vertices in [order] (default: the deterministic
    topological order of {!Dmc_cdag.Topo.order}, restricted to non-input
    vertices) with [s] red pebbles and the given eviction policy.
    Operands are loaded on demand; victims still live (or tagged
    outputs not yet in slow memory) are stored before eviction; dead
    values are deleted eagerly; never-used inputs are loaded once at the
    end so the white-pebble completion condition holds.

    Raises [Failure] when some vertex needs more than [s - 1] operands,
    or [Invalid_argument] when [order] is not a permutation of the
    non-input vertices or not topological.  [budget] is ticked once per
    fired vertex, so huge schedules can be deadline-bounded; internal
    invariant violations raise {!Dmc_util.Budget.Internal_error} with
    the graph size, capacities and step. *)

val io :
  ?budget:Budget.t ->
  ?policy:policy ->
  ?order:Cdag.vertex array ->
  Cdag.t ->
  s:int ->
  int
(** I/O cost of {!schedule}: the count of {!Rbw_game}'s checker,
    which plays the moves as they are emitted (no list is built).  The
    graph need not keep the RBW convention. *)

val trivial : Cdag.t -> Rbw_game.move list
(** The no-reuse baseline: every operand is loaded just before each
    use and every result stored immediately — cost
    [Σ_v (indeg v + 1) + #unused inputs].  Valid whenever
    [s >= max indegree + 1]. *)

val trivial_io : Cdag.t -> int
(** I/O cost of {!trivial} without materializing the moves. *)

val hierarchical :
  ?policy:policy ->
  ?order:Cdag.vertex array ->
  Cdag.t ->
  s1:int ->
  s2:int ->
  Prbw_game.move list
(** A single-processor execution through the paper's three-level shape
    (registers of [s1] words, a cache of [s2] words, one unbounded
    memory; see {!Dmc_machine.Hierarchy.cluster} with one node and one
    core): operands are staged memory→cache→registers with
    policy-driven eviction at both levels; values evicted from the
    registers that are still live are written back into the cache, and
    from the cache into memory, so every emitted game is valid.  The
    resulting {!Prbw_game.stats} expose the per-boundary traffic that
    Theorems 5 and 6 bound.  Requires [s2 >= 2] spare cache slots
    beyond the register working set; raises [Failure] when a vertex's
    operand set cannot fit. *)

val hierarchical_hierarchy : s1:int -> s2:int -> Hierarchy.t
(** The hierarchy {!hierarchical} games are valid against. *)

val smp_shared :
  ?policy:policy ->
  ?order:Cdag.vertex array ->
  Cdag.t ->
  cores:int ->
  s1:int ->
  s2:int ->
  Prbw_game.move list
(** A multi-core, shared-cache execution (the within-node half of
    Fig. 1): [cores] processors with [s1]-word register files under one
    [s2]-word cache and one memory.  Compute vertices are assigned
    round-robin over the cores in [order]; operands are staged
    memory→cache→the owning core's registers, results written back to
    the cache, registers cleared after each fire.  Produces a valid
    P-RBW game against {!smp_hierarchy}; its cache↔memory boundary
    traffic is what Theorem 5 bounds with the {e shared} capacity
    [S_2].  Requires [s1 >= max indegree + 1]. *)

val smp_hierarchy : cores:int -> s1:int -> s2:int -> Hierarchy.t
(** [cores x s1] register files over one [s2]-word cache over one
    unbounded memory. *)

val mp_schedule :
  ?budget:Budget.t ->
  ?policy:policy ->
  ?order:Cdag.vertex array ->
  Cdag.t ->
  p:int ->
  s:int ->
  Mp_game.move list
(** A [p]-processor execution with private [s]-word fast memories for
    the multi-processor game: compute vertices are assigned round-robin
    over the processors in [order]; a value produced on one processor
    and consumed on another is published through slow memory (store at
    the producer, load at the consumer), so the emitted game's I/O
    count is the execution's communication volume.  Per-processor
    eviction mirrors {!schedule} (policy-driven victims, live victims
    stored first, dead values dropped eagerly, unused inputs read once
    at the end).  At [p = 1] the emitted game is move-for-move
    {!schedule}'s, so measured I/O agrees exactly with the
    single-processor upper bound.  Every emitted game replays cleanly
    through {!Mp_game.run}.  Raises [Failure] when some vertex needs
    more than [s - 1] operands. *)

val mp_io :
  ?budget:Budget.t ->
  ?policy:policy ->
  ?order:Cdag.vertex array ->
  Cdag.t ->
  p:int ->
  s:int ->
  int
(** I/O cost (= communication volume) of {!mp_schedule}: the
    [io] of {!mp_stats}. *)

val mp_stats :
  ?budget:Budget.t ->
  ?policy:policy ->
  ?order:Cdag.vertex array ->
  Cdag.t ->
  p:int ->
  s:int ->
  Mp_game.stats
(** The stats of {!mp_schedule}'s game in {!Mp_game}'s checker, which
    plays the moves as they are emitted: its I/O, and its makespan with
    every compute and I/O move costing 1. *)

val mp_trivial : Cdag.t -> p:int -> Mp_game.move list
(** The no-reuse multi-processor baseline: operands loaded just before
    each use, every result stored immediately, vertices round-robin
    over the processors.  Valid whenever [s >= max indegree + 1]. *)

val mp_trivial_io : Cdag.t -> int
(** I/O cost of {!mp_trivial} — independent of [p]. *)

val pc_schedule :
  ?budget:Budget.t ->
  ?policy:policy ->
  ?order:Cdag.vertex array ->
  Cdag.t ->
  s:int ->
  Pc_game.move list
(** A partial-computation execution: each vertex is begun as an
    accumulator, absorbs its operands one at a time (so only the
    accumulator and the operand in flight are pinned — any in-degree
    fits in two red pebbles), and is finished before its consumers
    run.  Operand residency is managed by the same policy-driven cache
    as {!schedule}.  Every emitted game replays cleanly through
    {!Pc_game.run}.  Raises [Invalid_argument] when [s < 2]. *)

val pc_io :
  ?budget:Budget.t ->
  ?policy:policy ->
  ?order:Cdag.vertex array ->
  Cdag.t ->
  s:int ->
  int
(** I/O cost of {!pc_schedule}: the count of {!Pc_game}'s checker,
    which plays the moves as they are emitted. *)

val spmd :
  Cdag.t ->
  Hierarchy.t ->
  owner:(Cdag.vertex -> int) ->
  ?order:Cdag.vertex array ->
  unit ->
  Prbw_game.move list
(** A bulk-synchronous parallel execution for a two-level hierarchy
    with one level-[L] memory per processor ([L = 2], [N_2 = N_1]):
    vertices are fired in [order] by their owning processor; operands
    owned remotely are fetched with [Remote_get] (counted as horizontal
    traffic) the first time the local memory needs them; every result
    is written back to the owner's memory.  Registers hold only the
    operands of the vertex in flight, so [S_1 >= max indegree + 1]
    suffices.  Raises [Invalid_argument] on an unsupported hierarchy
    shape or a bad owner index. *)
