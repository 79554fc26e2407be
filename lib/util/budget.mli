(** Resource governance for the exhaustive engines.

    Every exponential search in the toolkit (optimal pebble games,
    S-span, S-partition enumeration, repeated max-flows) runs under a
    {!t}: a guard combining a wall-clock deadline, a search-node
    budget, and a cooperative cancellation hook.  Engines call {!tick}
    from their inner loops; when a resource runs out the tick raises
    {!Exhausted}, which the result-typed wrappers in
    [Dmc_core.Bounds.Engine] turn into an [Error].

    The same module owns the shared failure taxonomy, so that a
    timeout, an exhausted node budget, a graph that is structurally too
    large, invalid input, and a broken internal invariant are
    distinguishable everywhere — in the CLI status columns, in the
    checkpoints, and in the fuzzer's reproducer files. *)

type failure =
  | Timeout  (** the wall-clock deadline passed mid-search *)
  | Budget_exhausted  (** the node/state budget ran out *)
  | Cancelled  (** the cooperative cancellation hook returned [true] *)
  | Too_large of string
      (** the instance is structurally beyond the engine's encodable
          range (e.g. more than 20 vertices for the packed-int games) *)
  | Invalid_input of string
      (** a precondition on the input failed (bad [s], convention
          violation, malformed file) *)
  | Internal of string
      (** an engine invariant broke — always a bug, never a resource
          condition *)

val failure_to_string : failure -> string
(** Short machine-friendly rendering: ["timeout"],
    ["budget-exhausted"], ["cancelled"], ["too-large: ..."],
    ["invalid-input: ..."], ["internal: ..."]. *)

val pp_failure : Format.formatter -> failure -> unit

val failure_of_string : string -> failure option
(** Exact inverse of {!failure_to_string}, for failures that crossed a
    process boundary (worker-pool result frames, checkpoint files).
    [None] on an unrecognized rendering. *)

exception Exhausted of failure
(** Raised by {!tick} ({!Timeout}, {!Budget_exhausted} or
    {!Cancelled} only). *)

exception Internal_error of { where : string; details : string }
(** An invariant violation with context (which engine, graph size,
    step...), distinguishable from resource exhaustion.  Raise it with
    {!internal_error}. *)

val internal_error : where:string -> ('a, unit, string, 'b) format4 -> 'a
(** [internal_error ~where fmt ...] raises {!Internal_error} with the
    formatted details. *)

val now : unit -> float
(** The wall clock the guard reads ([Unix.gettimeofday]); exposed so
    callers timing their own ladder rungs agree with the deadlines. *)

type t

val unlimited : t
(** Never exhausts.  [tick] on it still counts, so {!spent} works. *)

val create :
  ?deadline:float -> ?nodes:int -> ?cancel:(unit -> bool) -> unit -> t
(** A fresh guard.  [deadline] is in {e seconds from now} (wall
    clock); [nodes] caps the number of {!tick} calls; [cancel] is
    polled at the same cadence as the clock.  Omitted components are
    unlimited. *)

val tick : t -> unit
(** Account one unit of search work.  Raises {!Exhausted} when the
    node budget is spent, and — every few hundred ticks, to keep the
    fast path allocation-free — when the deadline has passed or
    [cancel] returns [true]. *)

val tick_n : t -> int -> unit
(** [tick_n b k] accounts [k] units at once — for engine steps whose
    cost is proportional to the graph size (a whole partition-validity
    check, say), so the deadline overshoot stays proportional to wall
    time rather than to step count.  [k <= 0] is a no-op.

    All [k] ticks are charged even when the node limit falls inside
    them: {!spent} overshoots the limit by the rest of the step.  The
    2S-partition search's fixed leaf charge relies on this, so its
    budgets and anytime values stay where they were. *)

val replay : t -> int -> unit
(** [replay b k] has exactly the effect of [k] calls to {!tick}: it
    stops where the [k] single ticks would — at the tick that spends
    the node limit (one tick on an already-exhausted guard), or at the
    first clock poll that finds the deadline passed or [cancel] true —
    with the same {!spent}, and raises the same {!Exhausted}.  Unlike
    {!tick_n} it never charges past that point.  For re-charging work
    whose tick count was recorded when it ran: a min-cut query asked
    again costs its recorded ticks without running the flow.  [k <= 0]
    is a no-op. *)

val headroom : t -> int
(** [headroom b] is how many more single {!tick}s would neither raise
    nor poll: the smaller of the node ticks left before the limit
    ([nodes_left - 1]) and the ticks left before the next clock poll
    (the poll distance alone without a node limit).  Never negative:
    0 on an exhausted guard, and 0 when the very next tick polls.

    A hot loop may count its ticks in a local integer while under the
    headroom, then charge the pending ticks plus the next one with
    {!replay}: that raises or polls exactly where single ticks would.
    Charge whatever is still pending when the loop ends, normally or
    by exception, with {!replay} too. *)

val spends_limit_within : t -> int -> bool
(** [spends_limit_within b k]: [b] has a node limit and [k] single
    {!tick}s would reach it, so [replay b k] raises (on the node limit,
    or at an earlier clock poll).  For work whose cost is known to be
    at least [k] ticks: it cannot finish on this guard. *)

val check : t -> failure option
(** Non-raising probe of the same conditions (checks the clock
    unconditionally). *)

val spent : t -> int
(** Ticks consumed so far. *)

val elapsed : t -> float
(** Seconds since {!create}. *)

val guard : ?budget:t -> (unit -> 'a) -> ('a, failure) result
(** Run a thunk, catching {!Exhausted} and {!Internal_error} (other
    exceptions propagate).  [budget] is only probed once up front, so
    an already-exhausted guard short-circuits. *)
