module Cdag := Dmc_cdag.Cdag

(** One-stop lower/upper-bound analysis of a concrete CDAG, combining
    every engine in this library.  This is what the CLI and the
    validation experiments call. *)

type report = {
  s : int;
  n_vertices : int;
  n_edges : int;
  io_floor : int;
      (** the tagging floor: every input must be loaded once (white
          pebbles) and every non-input output stored once *)
  wavefront_lb : int;   (** {!Wavefront.lower_bound} *)
  partition_lb : int option;
      (** {!Spartition.lower_bound_exact} when the graph is small
          enough for the exhaustive search, else [None] *)
  partition_u_lb : int option;
      (** {!Spartition.lower_bound_u} when feasible *)
  span_lb : int option;
      (** {!Span.lower_bound} (Savage's S-span) when the graph is small
          enough for the exhaustive span search *)
  best_lb : int;        (** max of the above *)
  belady_ub : int;      (** measured I/O of the Belady schedule *)
  lru_ub : int;         (** measured I/O of the LRU schedule *)
  trivial_ub : int;     (** {!Strategy.trivial_io} *)
  optimal_io : int option;
      (** exhaustive optimum when the graph has at most
          [optimal_limit] vertices *)
}

val io_floor : Cdag.t -> int

val analyze :
  ?exact_partition_limit:int ->
  ?optimal_limit:int ->
  Cdag.t ->
  s:int ->
  report
(** Run every applicable engine.  [exact_partition_limit] (default 9)
    caps the compute-vertex count for the exhaustive partition search;
    [optimal_limit] (default 0, i.e. disabled) caps the vertex count
    for the exhaustive optimal game. *)

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Dmc_util.Json.t
(** The report as JSON, for the CLI's [--json] output. *)

(** {1 Result-typed engines and governed analysis}

    The raising entry points above stay for small-graph callers; the
    governed layer wraps every engine in a
    {!Dmc_util.Budget.t}-governed, result-typed API and degrades
    gracefully down a fallback ladder instead of failing. *)

type failure = Dmc_util.Budget.failure =
  | Timeout
  | Budget_exhausted
  | Cancelled
  | Too_large of string
  | Invalid_input of string
  | Internal of string
(** Re-export of the shared failure taxonomy so callers of this module
    need not also name [Dmc_util.Budget]. *)

module Engine : sig
  type 'a outcome = ('a, failure) result

  val run : ?budget:Dmc_util.Budget.t -> (unit -> 'a) -> 'a outcome
  (** Run a thunk under the unified failure taxonomy:
      [Budget.Exhausted] becomes its carried failure,
      [Budget.Internal_error] becomes [Internal], {!Optimal.Too_large}
      becomes [Too_large] (as does [Stack_overflow] from a too-deep
      search recursion), and [Invalid_argument]/[Failure] become
      [Invalid_input].  An already-exhausted [budget] short-circuits
      without running the thunk. *)

  val rbw_io :
    ?budget:Dmc_util.Budget.t -> ?max_states:int -> Cdag.t -> s:int ->
    int outcome

  val rb_io :
    ?budget:Dmc_util.Budget.t -> ?max_states:int -> Cdag.t -> s:int ->
    int outcome

  val min_balanced_horizontal :
    ?budget:Dmc_util.Budget.t -> ?slack:int -> Cdag.t -> procs:int ->
    (int * int array) outcome

  val span_lb :
    ?budget:Dmc_util.Budget.t -> ?max_nodes:int -> Cdag.t -> s:int ->
    int outcome

  val partition_lb :
    ?budget:Dmc_util.Budget.t -> ?max_nodes:int -> Cdag.t -> s:int ->
    int outcome

  val partition_u_lb :
    ?budget:Dmc_util.Budget.t -> Cdag.t -> s:int -> int outcome

  val strategy_io :
    ?budget:Dmc_util.Budget.t -> ?policy:Strategy.policy ->
    ?order:Cdag.vertex array -> Cdag.t -> s:int -> int outcome
end

type kind = Lower | Upper | Exact
(** What a governed row's value means: a sound lower bound, a measured
    (achievable) upper bound, or the exhaustive optimum.  An [Exact]
    row that fell back down its ladder carries a lower bound instead —
    its [rung] says so. *)

type row = {
  engine : string;  (** ["wavefront"], ["partition-h"], ["belady"], ... *)
  kind : kind;
  value : int option;  (** [None] only when every rung failed *)
  rung : string;
      (** the ladder rung that produced [value]: ["exact"],
          ["sampled"], ["wavefront"], ["floor"], ["trivial"], or ["-"] *)
  attempts : (string * failure) list;
      (** the rungs that failed before [rung], in attempt order *)
  elapsed : float;  (** wall-clock seconds spent on the whole ladder *)
}

type governed = {
  gov_s : int;
  gov_n_vertices : int;
  gov_n_edges : int;
  gov_rows : row list;
  gov_best_lb : int;
      (** max over [Lower] and [Exact] rows — every rung of those
          ladders yields a sound lower bound *)
  gov_best_ub : int option;
      (** min over [Upper] rows and non-degraded [Exact] rows; [None]
          when no upper-bound engine completed (e.g. [s] too small) *)
}

val kind_to_string : kind -> string
(** ["lb"], ["ub"], ["exact"]. *)

val row_status : row -> string
(** ["ok"] when the first rung won, else
    ["timeout(fallback=sampled)"]-style: the first failure's class and
    the rung that finally produced the value. *)

val analyze_governed :
  ?timeout:float -> ?node_budget:int -> ?samples:int -> Cdag.t -> s:int ->
  governed
(** Run every engine under its own fresh budget ([timeout] seconds
    and/or [node_budget] ticks {e per ladder rung}) and degrade down a
    fallback ladder instead of failing: exact engines fall back to the
    wavefront row's achieved value and then to {!io_floor}; the
    wavefront row itself falls back from the exact sweep to the
    anytime sampler ([samples] draws, default 64); the eviction-policy
    upper bounds fall back to the trivial schedule.  Never raises on
    resource exhaustion — every failure is recorded in the row. *)

(** {2 Per-engine rows}

    The worker pool ({!Dmc_runtime.Pool}) runs each governed engine in
    its own child process, so the ladder of a single engine must be
    computable in isolation and its row must cross a process boundary
    as JSON. *)

val governed_engines : (string * kind) list
(** Every engine {!analyze_governed} runs, in output order:
    ["floor"], ["wavefront"], ["partition-h"], ["partition-u"],
    ["span"], ["optimal"], ["belady"], ["lru"]. *)

val run_ladder :
  ?timeout:float -> ?node_budget:int -> engine:string -> kind:kind ->
  (string * (Dmc_util.Budget.t option -> int)) list -> row
(** The ladder runner behind {!governed_row} and [Mp_bounds.row]: try
    the named rungs in order and return the first value.  Every rung
    runs under its own fresh budget ([timeout] seconds and/or
    [node_budget] ticks; none when both are omitted), except the
    terminal rungs named ["floor"] and ["trivial"] and every rung of
    the ["floor"] engine, which run unbudgeted.  Each rung runs in an
    [engine/rung] span noting its [outcome] and, when budgeted, its
    [ticks], which are also added to the [budget.ticks] counter.  A row
    whose rungs all fail has no value. *)

val wavefront_rungs :
  ?samples:int -> Cdag.t ->
  (string * (Dmc_util.Budget.t option -> s:int -> int)) list
(** The wavefront ladder's budgeted rungs, ["exact"] then ["sampled"]
    ([samples] draws per stripped graph, default 64), sharing one
    {!Wavefront.ladder} built on first use: the sampled rung replays
    the exact rung's completed min-cuts instead of re-running them. *)

val governed_row :
  ?timeout:float -> ?node_budget:int -> ?samples:int -> ?wavefront:int ->
  Cdag.t -> s:int -> string -> row
(** One engine's full fallback ladder.  [wavefront] is the
    already-computed wavefront bound used as the middle rung of the
    other lower-bound ladders; when omitted it is derived on demand
    (value-deterministic: the sampler seed is fixed).  Raises
    [Invalid_argument] on an engine name not in {!governed_engines}. *)

val degraded_row :
  Cdag.t -> s:int -> engine:string -> kind:kind -> failure:failure ->
  elapsed:float -> row
(** The supervisor-side terminal rung for an engine whose whole worker
    was lost (crashed, hard-killed, or protocol-broken): lower/exact
    engines degrade to the O(n) I/O floor, upper engines to the
    trivial schedule when [s] admits one.  [failure] is recorded as a
    failed ["worker"] rung so the status column shows what forced the
    fallback. *)

val assemble_governed : Cdag.t -> s:int -> row list -> governed
(** Recompute the best-bound summary from independently produced rows
    (same soundness rules as {!analyze_governed}: lower and exact rows
    feed [gov_best_lb]; upper rows and non-degraded exact rows feed
    [gov_best_ub]). *)

val row_to_json : row -> Dmc_util.Json.t
val row_of_json : Dmc_util.Json.t -> row option
(** Inverses, up to the derived [status] field; the worker protocol
    ships rows as [row_to_json] frames. *)

val pp_governed : Format.formatter -> governed -> unit
(** Status table: one line per engine with value, status, winning rung
    and elapsed time, then the best-bound summary. *)

val governed_to_json : governed -> Dmc_util.Json.t

val certify_wavefront : ?samples:int -> Cdag.t -> s:int -> bool
(** Re-derive the wavefront component of {!analyze}'s bound with a
    Menger witness and verify it from first principles
    ({!Wavefront.verify_witness}): find the maximizing vertex of the
    input-stripped graph (exactly below {!Wavefront.exact_threshold}
    vertices, else over [samples] draws), extract its disjoint-path
    witness, and check both the paths and that their count equals the
    min-cut value.  [true] means the certificate checks out. *)
