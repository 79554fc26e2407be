(** Fixed-capacity dense bitsets over the integer range [0, capacity).

    Used throughout the pebble-game engines and graph traversals where
    membership sets over vertex ids must be cheap to create, copy and
    intersect.  All operations besides {!copy}, {!union}, {!inter},
    {!diff} and {!elements} run in O(1) or O(capacity/64). *)

type t

val create : int -> t
(** [create n] is an empty bitset with capacity [n] (members may range
    over [0 .. n-1]).  Raises [Invalid_argument] if [n < 0]. *)

val capacity : t -> int
(** Maximum number of distinct members the set can hold. *)

val mem : t -> int -> bool
(** [mem s i] tests membership.  Raises [Invalid_argument] if [i] is
    outside [0 .. capacity-1]. *)

val add : t -> int -> unit
(** [add s i] inserts [i]; a no-op if already present. *)

val remove : t -> int -> unit
(** [remove s i] deletes [i]; a no-op if absent. *)

val cardinal : t -> int
(** Number of members (maintained incrementally; O(1)). *)

val is_empty : t -> bool

val clear : t -> unit
(** Remove every member. *)

val copy : t -> t
(** Independent duplicate. *)

val equal : t -> t -> bool
(** Set equality; requires equal capacities. *)

val union : t -> t -> t
(** [union a b] is a fresh set; capacities must match. *)

val inter : t -> t -> t

val diff : t -> t -> t
(** [diff a b] is the members of [a] not in [b]. *)

val subset : t -> t -> bool
(** [subset a b] is true when every member of [a] is in [b]. *)

val iter : (int -> unit) -> t -> unit
(** Iterate members in increasing order, skipping all-zero 64-bit
    blocks and empty bytes.  A member that [f] adds beyond the one it
    is visiting is visited later; one it removes there is not. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list
(** Members in increasing order. *)

val of_list : int -> int list -> t
(** [of_list n xs] is a capacity-[n] set containing [xs]. *)

val choose : t -> int option
(** Smallest member, if any. *)

val pp : Format.formatter -> t -> unit
