module Cdag := Dmc_cdag.Cdag

(** The red-blue pebble game with partial computations (after "The
    Impact of Partial Computations on the Red-Blue Pebble Game",
    arXiv 2506.10854).

    The classic compute rule R3 demands every predecessor red {e
    simultaneously}, so a vertex of in-degree [d] needs [d + 1] red
    pebbles at its firing instant.  For associative accumulations
    (sums, max-reductions, dot products) that is too strict: a partial
    result can absorb one operand at a time.  This game splits R3 into
    three rules: [Begin] allocates an accumulator red pebble, [Absorb]
    folds one {e complete} red predecessor into it (each predecessor
    exactly once), and [Finish] seals it once every predecessor has
    been absorbed — so two red pebbles suffice for any in-degree.
    Only complete values (loaded inputs or finished vertices) may be
    stored or absorbed; deleting an in-progress accumulator discards
    its partial sums; re-beginning a finished vertex is forbidden
    (strict no-recompute, as in {!Rbw_game}).

    Completion follows the white-pebble convention: a blue pebble on
    every output and every input loaded at least once, keeping
    {!Bounds.io_floor} a sound lower bound even though the S-partition
    machinery of the classic game does not transfer. *)

type move =
  | Load of Cdag.vertex  (** blue -> red; the loaded copy is complete *)
  | Store of Cdag.vertex  (** red -> blue; complete values only *)
  | Delete of Cdag.vertex
      (** remove a red pebble; an unfinished accumulator loses its
          partial sums *)
  | Begin of Cdag.vertex  (** allocate an accumulator red pebble *)
  | Absorb of { v : Cdag.vertex; pred : Cdag.vertex }
      (** fold the complete red operand [pred] into [v]'s accumulator;
          each predecessor exactly once *)
  | Finish of Cdag.vertex
      (** seal the accumulator once all predecessors are absorbed *)

val pp_move : Format.formatter -> move -> unit

type stats = {
  loads : int;
  stores : int;
  io : int;  (** [loads + stores] *)
  finishes : int;  (** completed vertices — the R3 analogue *)
  absorbs : int;
  max_red : int;
}

type error = Rb_game.error = {
  step : int;
      (** 0-based index of the offending move, or the move-list length
          for a completion failure *)
  reason : string;
}

type checker = (move, stats) Rb_game.checker
(** A game in progress.  An open accumulator keeps one bit per
    predecessor, not one per vertex of the graph. *)

val start : Cdag.t -> s:int -> checker
(** The initial state: a blue pebble on each tagged input, no red
    pebble.  Raises [Invalid_argument] when [s <= 0]. *)

val step : checker -> move -> unit
(** Play one move; the first illegal move is remembered and every
    later one ignored. *)

val finish : checker -> (stats, error) result
(** The first illegal move, or else the completion check (a blue
    pebble on every output, every input loaded) and the counters. *)

val run : Cdag.t -> s:int -> move list -> (stats, error) result
(** Play a complete game: {!start}, {!step} on each move, {!finish}. *)
