(** The regular generator families, as implicit (never-materialized)
    CDAGs — the one description of each family.

    Each function here is a {!Dmc_cdag.Implicit.t} whose adjacency is
    pure index arithmetic.  The frozen {!Shapes.chain},
    {!Shapes.reduction_tree}, {!Shapes.diamond}, {!Fft.butterfly},
    {!Linalg.matmul} and {!Stencil.jacobi} graphs are derived from
    these: each checks its own arguments and returns
    {!Dmc_cdag.Implicit.materialize} of the namesake here, so both
    forms have the same vertex ids, edges, input/output tagging and
    labels by construction.  Construction is O(1) (plus O(log n)
    tables for the reduction tree), so sizes far beyond what a frozen
    CSR can hold (n = 10^9 and up) cost nothing until a consumer
    actually walks or windows the graph.

    All generators are id-monotone: every edge goes from a lower id to
    a higher one, and iterators emit neighbors in ascending id order —
    the contract streaming consumers and {!Dmc_cdag.Implicit.window}
    rely on.  Sizes that would overflow the OCaml integer range raise
    [Invalid_argument]. *)

val chain : int -> Dmc_cdag.Implicit.t
(** A path of [n] vertices labelled [c0 .. c(n-1)]; materialized by
    [Shapes.chain]. *)

val reduction_tree : int -> Dmc_cdag.Implicit.t
(** Pairwise reduction over [leaves] inputs with odd carry-over, level
    by level; per-level id tables are O(log leaves).  Materialized by
    [Shapes.reduction_tree]. *)

val diamond : rows:int -> cols:int -> Dmc_cdag.Implicit.t
(** The [rows x cols] lattice, vertex [(i,j)] at id [i*cols + j];
    materialized by [Shapes.diamond]. *)

val butterfly : int -> Dmc_cdag.Implicit.t
(** The [2^k]-input butterfly, vertex [(rank, i)] at id [rank*2^k + i];
    materialized by [Fft.butterfly], which adds a [k <= 24] cap (any
    [k <= 55] is accepted here). *)

val jacobi :
  ?shape:Grid.footprint ->
  dims:int list ->
  steps:int ->
  unit ->
  Dmc_cdag.Implicit.t
(** Point [i] at time [t] is id [t * npts + i] (default shape [Star]);
    materialized by [Stencil.jacobi]. *)

val jacobi_1d : n:int -> steps:int -> Dmc_cdag.Implicit.t

val jacobi_2d : n:int -> steps:int -> Dmc_cdag.Implicit.t
(** Box (9-point) neighborhood, [Stencil.jacobi_2d]'s default. *)

val jacobi_3d : n:int -> steps:int -> Dmc_cdag.Implicit.t

val matmul : int -> Dmc_cdag.Implicit.t
(** A and B entries, then per-(i,j) multiply/accumulate chains of
    [2n-1] vertices; materialized by [Linalg.matmul], whose
    [Linalg.mm] index maps are arithmetic on this layout. *)
