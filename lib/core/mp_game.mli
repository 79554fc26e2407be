module Cdag := Dmc_cdag.Cdag

(** The multi-processor red-blue pebble game (after "Red-Blue Pebbling
    with Multiple Processors: Time, Communication and Memory
    Trade-offs", arXiv 2409.03898).

    [p] processors each own a private fast memory of [S] red pebbles;
    one unbounded slow memory holds the blue pebbles.  A value moves
    between processors only through slow memory: the producer stores
    it (red -> blue) and the consumer loads it (blue -> red), so every
    communication is witnessed by I/O moves and the total I/O count is
    the communication volume of the execution.  Recomputation is
    forbidden under the strict rules: each vertex fires exactly once,
    on exactly one processor.

    The engine replays a proposed move sequence ({!start}, one
    {!step} per move, {!finish}), rejecting the first illegal move,
    and checks the completion condition: a blue pebble
    on every output and every input loaded at least once by some
    processor (the white-pebble convention of {!Rbw_game}, which keeps
    {!Bounds.io_floor} a sound lower bound).  Beyond the counters it
    computes a list-scheduling makespan under the cost model
    [compute = 1, I/O move = g_cost], where a load additionally waits
    until the value it reads has become blue — the time axis of the
    paper's time/communication trade-off. *)

type move =
  | Load of { proc : int; v : Cdag.vertex }
      (** blue -> a red pebble of [proc] *)
  | Store of { proc : int; v : Cdag.vertex }
      (** a red pebble of [proc] -> blue *)
  | Compute of { proc : int; v : Cdag.vertex }
      (** all predecessors red on [proc] -> red on [proc]; at most once
          per vertex across all processors *)
  | Delete of { proc : int; v : Cdag.vertex }
      (** remove one of [proc]'s red pebbles *)

val pp_move : Format.formatter -> move -> unit

type stats = {
  loads : int;
  stores : int;
  io : int;  (** [loads + stores] — the communication volume *)
  computes : int;
  max_red : int;  (** peak red pebbles in use on any single processor *)
  per_proc_io : int array;
  per_proc_computes : int array;
  makespan : int;
      (** completion time under [compute = 1, I/O = g_cost] with loads
          waiting for their value's store to complete *)
}

type error = Rb_game.error = {
  step : int;
      (** 0-based index of the offending move, or the move-list length
          for a completion failure *)
  reason : string;
}

type checker = (move, stats) Rb_game.checker
(** A game in progress: every processor's red pebbles, the blue and
    computed sets, the clocks, and the first illegal move, if any. *)

val start : g_cost:int -> Cdag.t -> p:int -> s:int -> checker
(** The initial state: a blue pebble on each tagged input and every
    fast memory empty.  [g_cost] is the time per I/O move.  Raises
    [Invalid_argument] when [p <= 0], [s <= 0] or [g_cost < 0]. *)

val step : checker -> move -> unit
(** Play one move; the first illegal move is remembered and every
    later one ignored. *)

val finish : checker -> (stats, error) result
(** The first illegal move, or else the completion check (a blue
    pebble on every output, every input loaded by some processor) and
    the game's counters and makespan. *)

val run :
  ?g_cost:int -> Cdag.t -> p:int -> s:int -> move list -> (stats, error) result
(** Play a complete game: {!start} ([g_cost] defaults to 1), {!step}
    on each move, {!finish}. *)
