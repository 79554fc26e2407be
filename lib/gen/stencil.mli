module Cdag := Dmc_cdag.Cdag

(** CDAG generators for iterative stencil (Jacobi-style) computations
    on d-dimensional grids — the workload of Section 5.4 and the
    heat-equation discretization of Section 5.1.  {!jacobi}'s graph is
    the materialized {!Implicit_gen.jacobi}. *)

type shape = Grid.footprint =
  | Star  (** von Neumann neighborhood: [2d + 1] points (5-point in 2D) *)
  | Box   (** Moore neighborhood: [3^d] points (9-point in 2D) *)

type t = {
  graph : Cdag.t;
  grid : Grid.t;
  steps : int;
  vertex : int -> int -> Cdag.vertex;
      (** [vertex t i] is the vertex of grid point [i] at time [t],
          with [t = 0] the inputs and [t = steps] the outputs: the id
          [t * npts + i] for a grid of [npts] points. *)
}

val jacobi : ?shape:shape -> dims:int list -> steps:int -> unit -> t
(** [jacobi ~dims ~steps ()] builds the CDAG with one vertex per
    (time, grid point): point [p] at time [t+1] depends on [p] and its
    neighbors at time [t].  Time-0 vertices are tagged inputs, final
    ones outputs.  Theorem 10 gives the I/O lower bound
    [n^d T / (4 P (2S)^{1/d})] for these CDAGs. *)

val jacobi_1d : n:int -> steps:int -> t
(** 3-point stencil on a bar of [n] points — the discretized heat
    equation of Fig. 2. *)

val jacobi_2d : ?shape:shape -> n:int -> steps:int -> unit -> t
(** [n x n] grid; [Box] gives the paper's 9-point variant. *)

val jacobi_3d : n:int -> steps:int -> t
(** [n^3] star stencil. *)

val natural_order : t -> Cdag.vertex array
(** The untiled execution order: full time sweeps, points in row-major
    order within each step.  Exposes no temporal reuse, so its I/O is
    [Θ(n^d)] per step — the baseline the tiled order is compared to. *)

val skewed_order : t -> tile:int -> Cdag.vertex array
(** A topological order of the compute vertices following skewed
    (parallelogram) space-time tiles of spatial side [tile] and
    temporal height [tile]: tile [(band, k_1..k_d)] holds grid point
    [x] at local time [τ] when [x_j + τ ∈ [k_j*tile, (k_j+1)*tile)].
    Sliding each tile window one step back in space per time step makes
    every dependence point into the same tile or an
    already-processed one, so the order is topological; with
    [S = Θ(tile^d)] red pebbles it attains the [Θ(n^d T / S^{1/d})]
    I/O upper bound that matches Theorem 10's lower bound.  Raises
    [Invalid_argument] when [tile <= 0]. *)
