module Cdag := Dmc_cdag.Cdag

(** CDAG generators for the dense linear-algebra kernels analyzed in
    Sections 2–3 of the paper.  {!matmul} is the materialized
    {!Implicit_gen.matmul}. *)

val dot_product : int -> Cdag.t
(** [dot_product n]: inputs [x_0..x_{n-1}], [y_0..y_{n-1}], one multiply
    vertex per element and a binary reduction tree to a single tagged
    output.  [4n - 1] vertices. *)

val saxpy : int -> Cdag.t
(** [saxpy n]: inputs scalar [a] and vectors [x], [y]; outputs
    [y_i + a*x_i], one compute vertex per element. *)

val outer_product : int -> Cdag.t
(** [outer_product n]: inputs two [n]-vectors, outputs the [n^2]
    products.  Data movement is inherently [2n + n^2] (Sec. 3). *)

val matvec : int -> Cdag.t
(** [matvec n]: dense [n x n] matrix times [n]-vector, with multiply
    vertices and per-row accumulation chains. *)

val matmul : int -> Cdag.t
(** [matmul n]: the classical [n^3] algorithm — a multiply vertex per
    [(i,j,k)] and a length-[n] accumulation chain per [(i,j)].  Inputs
    are the [2n^2] matrix elements, outputs the [n^2] results.  The
    asymptotic I/O lower bound is [n^3 / (2 sqrt(2S))] (Sec. 3). *)

type mm = {
  mm_graph : Cdag.t;
  mm_n : int;
  a : Cdag.vertex array;      (** inputs of A, row-major [n x n] *)
  b : Cdag.vertex array;      (** inputs of B *)
  mult : int -> int -> int -> Cdag.vertex;
      (** [mult i j k] is the product vertex [a_ik * b_kj] *)
  acc : int -> int -> int -> Cdag.vertex;
      (** [acc i j k] is the running sum after adding [mult i j k];
          [acc i j 0 = mult i j 0], and [acc i j (n-1)] is the tagged
          output [c_ij] *)
}

val matmul_indexed : int -> mm
(** Same CDAG as {!matmul}, with the index maps needed by the blocked
    execution order — arithmetic on {!Implicit_gen.matmul}'s id
    layout.  The maps raise [Invalid_argument] on an index outside
    [0 .. n-1]. *)

val blocked_matmul_order : mm -> block:int -> Cdag.vertex array
(** A topological order of the compute vertices following the
    classical [b x b x b]-blocked loop nest.  Played against a pebble
    game with [S = Θ(b^2)] red pebbles it attains the [Θ(n^3/sqrt S)]
    upper bound matching the Hong–Kung lower bound. *)

val blocked2_matmul_order : mm -> inner:int -> outer:int -> Cdag.vertex array
(** Two-level blocking: [outer]-sized cache tiles subdivided into
    [inner]-sized register tiles ([inner] need not divide [outer]; both
    positive, [inner <= outer]).  Driven through the three-level
    scheduler this attains [Θ(n^3/sqrt S_1)] traffic at the register
    boundary and [Θ(n^3/sqrt S_2)] at the cache boundary
    simultaneously — the multi-level tightness behind Theorems 5/6. *)

type lu = {
  lu_graph : Cdag.t;
  lu_n : int;
  pivot : int -> Cdag.vertex;
      (** [pivot k]: the value of [a_kk] at the start of step [k] *)
  multiplier : int -> int -> Cdag.vertex;
      (** [multiplier i k = a_ik / a_kk], the [L] entry, for [i > k] *)
  update : int -> int -> int -> Cdag.vertex;
      (** [update i j k]: [a_ij] after step [k]'s rank-1 update, for
          [i, j > k] *)
}

val lu_factor : int -> lu
(** Right-looking LU factorization without pivoting of an [n x n]
    matrix: step [k] computes the column of multipliers
    [l_ik = a_ik / a_kk] and the rank-1 Schur update
    [a_ij - l_ik a_kj].  Inputs are the [n^2] matrix entries, outputs
    the [L] multipliers and the [U] rows (each entry's final value).
    [n^2 + n(n-1)/2 + Σ_k (n-1-k)^2] vertices; the communication lower
    bound is [Θ(n^3 / sqrt S)], the same regime as matrix
    multiplication (Demmel et al., cited in Section 6). *)

val cholesky : int -> Cdag.t
(** Left-looking Cholesky factorization of an [n x n] symmetric matrix
    (lower triangle stored): column [j] is updated by all columns
    [k < j] ([a_ij - l_ik l_jk]), then scaled by the diagonal square
    root.  Inputs are the [n(n+1)/2] lower-triangle entries, outputs
    the [L] factor.  Same [Θ(n^3 / sqrt S)] communication regime as LU
    with half the work. *)

type composite = {
  graph : Cdag.t;
  n : int;
  a_vertices : Cdag.vertex array;  (** A = p q^T, row-major [n x n] *)
  b_vertices : Cdag.vertex array;  (** B = r s^T *)
  c_mults : Cdag.vertex array;     (** multiply vertices of C = AB, [(i,j,k)] row-major *)
  sum_vertex : Cdag.vertex;        (** the final accumulation result *)
}

val composite : int -> composite
(** The motivating example of Section 3:

    {v
    A = p q^T;  B = r s^T;  C = A B;  sum = Σ_ij C_ij
    v}

    Inputs are the four [n]-vectors, the single output is [sum].  With
    [4n + 4] fast-memory words the whole computation needs only
    [4n + 1] I/Os even though the embedded matrix multiplication alone
    has an [n^3/(2 sqrt(2S))] bound — the example that motivates the
    RBW decomposition machinery.  Note the CDAG here forbids
    recomputation (RBW), so the paper's 4n+1 game is not literally
    playable; the point reproduced by the benches is that the composite
    bound is far below the sum of per-step Hong–Kung bounds. *)
