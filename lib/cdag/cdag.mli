(** Computational directed acyclic graphs (CDAGs).

    A CDAG is the 4-tuple [C = (I, V, E, O)] of Definition 1 of the
    paper: a finite DAG whose vertices model operations and whose edges
    model the flow of values, together with a set [I] of vertices tagged
    as {e inputs} (initially resident in slow memory) and a set [O]
    tagged as {e outputs} (required in slow memory at the end).

    Following the red-blue-white (RBW) model of Section 3, the tagging
    is {e flexible}: a vertex without predecessors need not be an input,
    and a vertex without successors need not be an output.  Use
    {!Validate.hong_kung} to check the stricter Hong–Kung convention
    when needed.

    Graphs are built with a mutable {!Builder.t} and then {e frozen}
    into an immutable CSR (compressed sparse row) representation; all
    analyses run over the frozen form.  Every frozen graph — built,
    parsed, windowed or induced — goes through the one validating
    constructor {!of_rows}.  Vertex ids are dense integers
    [0 .. n_vertices-1] in creation order. *)

module Bitset := Dmc_util.Bitset

type vertex = int

type t

(** {1 Construction} *)

val of_rows :
  label:(vertex -> string) ->
  inputs:Bitset.t ->
  outputs:Bitset.t ->
  succ_off:int array ->
  succ:int array ->
  int ->
  t
(** [of_rows ~label ~inputs ~outputs ~succ_off ~succ n] is the graph
    on [0 .. n-1] whose vertex [v] has the successors
    [succ.(succ_off.(v)) .. succ.(succ_off.(v+1) - 1)].

    - The graph takes ownership of all four arrays and sets: they may
      be rewritten in place and are kept, so the caller must not touch
      them afterwards.  [succ] may be longer than [succ_off.(n)]; the
      slack is dropped.
    - A row may arrive in any order and with duplicates; such a row is
      sorted and deduplicated in place.  A row that is already strictly
      ascending is only checked, never re-sorted.
    - Predecessor rows are the transpose of the successor rows, built
      in one pass (ascending and duplicate-free by construction).
    - Validation is O(n + e): every successor in range, no self-loop.
      The acyclicity check (Kahn) runs only when some edge descends;
      an edge set in which every edge ascends is acyclic.
    - [label v] names vertex [v], or is [""] for an unlabeled one.  It
      is called on demand by {!label}, never at construction, so it
      must be pure; a closure over another graph keeps that graph
      reachable as long as this one is.
    - [inputs] and [outputs] are the tag sets [I] and [O]; both must
      have capacity [n].

    Raises [Invalid_argument] on malformed offsets, a tag set of the
    wrong capacity, an out-of-range successor, a self-loop or a
    cycle. *)

module Builder : sig
  type graph := t

  type t

  val create : ?hint:int -> unit -> t
  (** Fresh builder; [hint] pre-sizes internal storage (the label table
      for [hint] vertices, the edge lists for [4 * hint] edges).  The
      hint is advisory: under-hinted builders grow all storage by
      amortized doubling, so construction stays linear even when the
      final size exceeds the hint by orders of magnitude. *)

  val add_vertex : ?label:string -> t -> vertex
  (** Append a vertex and return its id (ids are consecutive from 0). *)

  val add_edge : t -> vertex -> vertex -> unit
  (** [add_edge b u v] adds the dependence [u -> v].  Both endpoints
      must already exist; self-loops are rejected ([Invalid_argument]).
      Duplicate edges are coalesced at freeze time. *)

  val n_vertices : t -> int

  val freeze : ?inputs:vertex list -> ?outputs:vertex list -> t -> graph
  (** Produce the immutable graph through {!of_rows}: one counting sort
      of the edge list into successor rows (insertion order within a
      row), so only the rows whose edges were not added in strictly
      ascending order get sorted and deduplicated.  When [inputs]
      (resp. [outputs]) is omitted, every vertex without predecessors
      (resp. successors) is tagged, i.e. the Hong–Kung convention.
      Raises [Invalid_argument] if the edge relation has a cycle or a
      tag is out of range. *)
end

(** {1 Size and structure} *)

val n_vertices : t -> int

val n_edges : t -> int

val in_degree : t -> vertex -> int

val out_degree : t -> vertex -> int

val iter_succ : t -> vertex -> (vertex -> unit) -> unit
(** Apply to each immediate successor, in ascending id order. *)

val iter_pred : t -> vertex -> (vertex -> unit) -> unit

val fold_succ : t -> vertex -> ('a -> vertex -> 'a) -> 'a -> 'a

val fold_pred : t -> vertex -> ('a -> vertex -> 'a) -> 'a -> 'a

val succ_list : t -> vertex -> vertex list

val pred_list : t -> vertex -> vertex list

val iter_edges : t -> (vertex -> vertex -> unit) -> unit
(** Apply to each edge [(u, v)], grouped by source in ascending order. *)

val has_edge : t -> vertex -> vertex -> bool
(** Binary search over the successor row; O(log out-degree). *)

val label : t -> vertex -> string
(** The label given at construction, or ["v<id>"] when none was.
    Resolved on demand from the constructor's label source, so windows
    and induced parts format no label until one is asked for. *)

(** {1 Input/output tagging} *)

val is_input : t -> vertex -> bool

val is_output : t -> vertex -> bool

val inputs : t -> vertex list
(** Ascending ids of the tagged inputs (the set [I]). *)

val outputs : t -> vertex list

val n_inputs : t -> int

val n_outputs : t -> int

val n_compute : t -> int
(** [n_vertices - n_inputs]: the operation set [V - I] of the paper,
    i.e. the vertices that must fire with rule R3. *)

val retag : t -> inputs:vertex list -> outputs:vertex list -> t
(** Same DAG, different tagging — the (un)tagging transform of
    Theorem 3.  Shares the frozen adjacency arrays with the original. *)

(** {1 Whole-graph iteration} *)

val iter_vertices : t -> (vertex -> unit) -> unit

val fold_vertices : t -> ('a -> vertex -> 'a) -> 'a -> 'a

val sources : t -> vertex list
(** Vertices with no predecessors (whether or not tagged as inputs). *)

val sinks : t -> vertex list

(** {1 Pretty-printing} *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: vertex/edge/input/output counts. *)
