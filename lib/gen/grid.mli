(** Row-major indexing of d-dimensional grids.

    All stencil and solver generators describe vectors as points of an
    [n_1 x ... x n_d] grid; this module centralizes the coordinate
    arithmetic. *)

type t

val create : int list -> t
(** [create dims] with every dimension positive. *)

val dims : t -> int list

val rank : t -> int
(** Number of dimensions [d]. *)

val size : t -> int
(** Total number of points (product of the dimensions). *)

val index : t -> int list -> int
(** Row-major linear index of a coordinate; raises [Invalid_argument]
    when out of range or of the wrong rank. *)

val coord : t -> int -> int list
(** Inverse of {!index}. *)

val in_range : t -> int list -> bool

type footprint =
  | Star  (** the point and its von Neumann neighbors: [2d + 1] points *)
  | Box   (** the point and its Moore neighbors: [3^d] points *)

val iter_footprint : t -> footprint -> int -> (int -> unit) -> unit
(** [iter_footprint g shape i f] applies [f] to the linear index of
    every point of [i]'s footprint — [i] itself plus its in-range star
    or box neighbors — in ascending order, allocating nothing.  Boundary
    points (and size-1 axes) have fewer neighbors.  Raises
    [Invalid_argument] when [i] is out of range.  The one place the
    neighborhood arithmetic lives: the neighbor lists below and the
    stencil generators all read it. *)

val star_neighbors : t -> int -> int list
(** Linear indices of the points one step along each axis (the
    [2d]-point von Neumann neighborhood), excluding the point itself,
    ascending; boundary points have fewer.  The [Star] footprint
    without [i]. *)

val box_neighbors : t -> int -> int list
(** The full Moore neighborhood ([3^d - 1] points), excluding the point
    itself, ascending.  The [Box] footprint without [i]. *)

val iter : t -> (int -> unit) -> unit
(** Apply to every linear index in ascending order. *)
