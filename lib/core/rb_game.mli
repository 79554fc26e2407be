module Cdag := Dmc_cdag.Cdag

(** The original Hong–Kung red-blue pebble game (Definition 2).

    [S] red pebbles model the fast memory, unboundedly many blue
    pebbles the slow memory.  Recomputation {e is} allowed: a vertex
    may fire with rule R3 any number of times.  The I/O cost of a game
    is the number of R1 (load) plus R2 (store) moves.

    The engine replays a proposed move sequence, rejecting the first
    illegal move, and checks the completion condition (a blue pebble on
    every output).  It is the ground truth against which both the
    strategies (upper bounds) and the bound engines (lower bounds) are
    validated.  The checker is incremental: {!start}, one {!step} per
    move, then {!finish}; {!run} is that fold over a move list, so a
    scheduler can check its moves as it emits them without building
    the list.  {!Rbw_game}'s checker is this one plus the white-pebble
    rules. *)

type move =
  | Load of Cdag.vertex     (** R1: blue -> red *)
  | Store of Cdag.vertex    (** R2: red -> blue *)
  | Compute of Cdag.vertex  (** R3: all predecessors red -> red *)
  | Delete of Cdag.vertex   (** R4: remove a red pebble *)

val pp_move : Format.formatter -> move -> unit

type stats = {
  loads : int;
  stores : int;
  io : int;            (** [loads + stores] *)
  computes : int;
  max_red : int;       (** peak number of red pebbles in use *)
}

type error = {
  step : int;          (** 0-based index of the offending move, or the
                           move-list length for a completion failure *)
  reason : string;
}

(** {2 Incremental checking}

    Every game's checker ({!Rbw_game}, {!Mp_game}, {!Pc_game} too)
    follows this protocol. *)

type ('m, 's) checker
(** A game in progress under some rule set: its state, the number of
    moves played, and the first illegal move, if any. *)

val step : ('m, 's) checker -> 'm -> unit
(** Play one move.  The first illegal move is remembered; every later
    one is ignored. *)

val finish : ('m, 's) checker -> ('s, error) result
(** The first illegal move, or else the completion check and the
    game's counters. *)

val replay : ('m, 's) checker -> 'm list -> ('s, error) result
(** {!step} on each move, then {!finish}: every game's [run]. *)

val illegal : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Reject the move being played (or the completion check) with the
    formatted reason.  Only a checker's [play] and [complete] may call
    it: {!step} and {!finish} catch what it raises. *)

val checker : play:('m -> unit) -> complete:(unit -> 's) -> ('m, 's) checker
(** A checker over a game's rules: [play] applies one move and
    [complete] checks the end and returns the counters; either rejects
    with {!illegal}, and the checker numbers the step. *)

val start : Cdag.t -> s:int -> (move, stats) checker
(** The initial state: a blue pebble on each tagged input, no red
    pebble.  Rules enforced: loads need a blue pebble, stores a red
    one, computes need every predecessor red (and the vertex must be a
    non-input), and the red-pebble count never exceeds [S]; at the end
    every output holds a blue pebble.  Raises [Invalid_argument] when
    [s <= 0]. *)

val start_white : Cdag.t -> s:int -> (move, stats) checker
(** {!start} with the white-pebble rules of Definition 4 added: loads
    and computes also place a white pebble, a white vertex cannot fire
    again, and the end also wants a white pebble on every vertex.  This
    is {!Rbw_game.start}. *)

val run : Cdag.t -> s:int -> move list -> (stats, error) result
(** Play a complete game: {!replay} from {!start}. *)

val validate : Cdag.t -> s:int -> move list -> error option
(** [None] when {!run} succeeds. *)
