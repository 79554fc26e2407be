module Cdag := Dmc_cdag.Cdag

(** The red-blue-white pebble game of Definition 4 — the paper's
    sequential model.

    Differences from the Hong–Kung game ({!Rb_game}):
    - flexible tagging: untagged sources fire freely with R3 and
      untagged sinks need no final blue pebble;
    - a white pebble marks a vertex as evaluated; R1 and R3 both place
      it, and a white-pebbled vertex can never fire again
      ({e no recomputation});
    - completion requires a white pebble on {e every} vertex (so every
      input is loaded at least once) and a blue pebble on every output.

    Move sequences are shared with {!Rb_game} so one strategy output
    can be checked under both rule sets, and so is the checker: the
    RBW checker is the RB checker plus exactly these white-pebble
    rules, as Definition 4 is Definition 2 plus them. *)

type move = Rb_game.move =
  | Load of Cdag.vertex
  | Store of Cdag.vertex
  | Compute of Cdag.vertex
  | Delete of Cdag.vertex

type stats = Rb_game.stats = {
  loads : int;
  stores : int;
  io : int;
  computes : int;
  max_red : int;
}

type error = Rb_game.error = { step : int; reason : string }

type checker = (move, stats) Rb_game.checker

val start : Cdag.t -> s:int -> checker
(** {!Rb_game.start_white}: a blue pebble on each tagged input, no red
    or white pebble.  Raises [Invalid_argument] when [s <= 0].  It
    does not check the RBW convention, which is a precondition on the
    graph rather than a rule on the moves. *)

val step : checker -> move -> unit
(** Play one move under the RB rules and the white-pebble rules; the
    first illegal move is remembered and every later one ignored. *)

val finish : checker -> (stats, error) result
(** The first illegal move, or else the completion check (a white
    pebble on every vertex, a blue one on every output). *)

val run : Cdag.t -> s:int -> move list -> (stats, error) result
(** Play a complete RBW game: {!start}, {!step} on each move,
    {!finish}.  Raises [Invalid_argument] when [s <= 0] or when the
    graph violates the RBW convention (an input with a predecessor,
    see {!Dmc_cdag.Validate.rbw}). *)

val validate : Cdag.t -> s:int -> move list -> error option

val io_of : Cdag.t -> s:int -> move list -> int
(** The I/O cost of a game known to be valid; raises [Failure] with
    the error message otherwise. *)
