module Expr := Dmc_symbolic.Expr

(** Symbolic recombination: closed-form lower bounds for regular CDAGs
    at sizes that can never be materialized.

    Theorem 2 decomposes a CDAG into disjoint pieces and sums per-piece
    I/O lower bounds.  For the regular families — stencil blocks, FFT
    rank bands, reduction-tree groups, lattice tiles, chain segments —
    the pieces fall into a handful of isomorphism classes whose
    isomorphisms preserve the Theorem-2 tagging, so the induced pieces
    freeze to byte-identical structures and the (deterministic)
    wavefront engine gives every copy the same value as its class
    representative.  The whole-graph bound becomes

    {v sum over classes of count(class) * engine(representative) v}

    with the counts closed forms in the size variable [n] (built from
    {!Dmc_symbolic.Expr}, heavy on [floor(n / w)] factors).  Only one
    small representative per class is ever materialized: a bound for a
    billion-node Jacobi instance costs a few tile analyses and an
    expression evaluation.

    The same module computes the {e numeric reference} — the identical
    partition over the materialized instance, every piece bounded by
    the identical engine — which must agree with the symbolic value
    {e exactly} on any size small enough to materialize.  That
    equality is the cross-validation the test suite and the CI leg
    enforce; it holds because both sides run the same engine on the
    same frozen structures, not because of any numeric tolerance. *)

type cls = {
  cls_name : string;
  cls_count : Expr.t;
      (** copies of this class as a closed form in [Var "n"] — the
          size parameter for chain/tree/jacobi, the side for (square)
          diamond, the row width [2^K] for fft *)
  cls_count_now : int;  (** the count evaluated at this instance *)
  cls_bound : int;  (** engine bound of the class representative *)
  cls_tile_vertices : int;
}

type t = {
  family : string;
  spec : string;
  size : int;
  s : int;
  tile : int;
  samples : int;
  formula : Expr.t;  (** simplified [sum count_c * bound_c] in [n] *)
  value : int;  (** the formula at this instance — a valid I/O bound *)
  classes : cls list;
  dropped : string option;
      (** pieces bounded by the trivial 0 (e.g. the reduction tree's
          top recombination piece); [None] when the class sum covers
          every piece with an engine bound *)
  n_vertices : int;  (** instance size, from the implicit generator *)
}

val families : string list
(** chain, tree, diamond (square), fft, jacobi1d/2d/3d.  matmul is
    deliberately absent: its per-tile wavefront sums add nothing over
    the analytic [Formulas.matmul_lb], which stays the tight bound. *)

val supports : string -> bool

val default_samples : int
(** 8 — fewer than the numeric CLI default because each sample runs on
    a tile-sized graph and only class representatives are analyzed. *)

val bound :
  ?samples:int -> ?tile:int -> spec:string -> s:int -> unit -> (t, string) result
(** Build the plan for [spec] (a workload spec, checked by
    [Dmc_gen.Workload.resolve ~implicit:true], so trailing parameters
    default as for every implicit spec), bound one
    representative per class, and recombine.  [tile] is the block
    width (stages per band for fft); the default scales with [s] and
    is capped so representatives stay small.  Cost is independent of
    the instance size. *)

val numeric_reference :
  ?samples:int -> ?tile:int -> spec:string -> s:int -> unit -> (int, string) result
(** Materialize the instance, apply the same partition, bound every
    piece with the same engine (dropped pieces contribute the same
    trivial 0), and sum.  Must equal {!bound}'s [value] exactly;
    requires a materializable size. *)

val to_json : t -> Dmc_util.Json.t
