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

  val partition_lb :
    ?budget:Dmc_util.Budget.t -> ?max_nodes:int -> Cdag.t -> s:int ->
    int outcome
end

type kind = Lower | Upper | Exact
(** What a governed row's value means: a sound lower bound, a measured
    (achievable) upper bound, or the exhaustive optimum.  An [Exact]
    row that fell back down its ladder carries a lower bound instead —
    its [rung] says so. *)

type quantity =
  | Seq  (** sequential RBW I/O at capacity S *)
  | Mp_comm  (** p-processor communication volume *)
  | Mp_time  (** p-processor makespan *)
  | Pc_io  (** partial-computation I/O *)
(** What an engine's rows bound.  Rows only sandwich rows of the same
    quantity. *)

val quantity_to_string : quantity -> string
(** ["seq"], ["mp-comm"], ["mp-time"], ["pc-io"]. *)

val reads_p : quantity -> bool
(** Only the [Mp_comm] and [Mp_time] engines read the processor count;
    every other row is the same at any p. *)

type ladder_read =
  | Never  (** no rung reads the wavefront ladder *)
  | First  (** the first rung does: every row runs its min-cuts *)
  | Fallback
      (** a later rung does: only a row whose own exact rung fails
          runs them *)
(** Where an engine's ladder reads the wavefront ladder: the S- and
    p-independent min-cut queries that {!wavefront_record} computes
    once per graph and [row ~record] replays. *)

type ctx
(** What a ladder reads: the graph, p, S, the sample count, and the
    I/O floor and wavefront value, each computed on first use. *)

type engine = {
  name : string;
  kind : kind;
  quantity : quantity;
  reads_ladder : ladder_read;
  doc : string;  (** one line, shown by [dmc bounds --list-engines] *)
  ladder : ctx -> (string * (Dmc_util.Budget.t option -> int)) list;
      (** the named rungs, first choice first; the last is the O(n)
          terminal rung (the floor, or the trivial schedule) *)
}
(** One entry of {!engines}.  Declared before {!row}, so an
    unannotated [r.kind] still means a row's kind. *)

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

(** {2 The engine table}

    Every engine — the eight sequential red-blue-white engines and the
    six engines of the multi-processor and partial-computation games
    (arXiv 2409.03898, 2506.10854) — is one entry of {!engines}: its
    name, kind, the quantity it bounds, its [--list-engines] line and
    its fallback ladder.  {!row} runs any entry at [(p, S)],
    and the worker pool ({!Dmc_runtime.Pool}) runs each in its own
    child process, so a single engine's ladder is computable in
    isolation and its row crosses a process boundary as JSON. *)

val engines : engine list
(** In presentation order: ["floor"], ["wavefront"], ["partition-h"],
    ["partition-u"], ["span"], ["optimal"], ["belady"], ["lru"], then
    ["mp-comm-lb"], ["mp-comm-ub"], ["mp-time-lb"], ["mp-time-ub"],
    ["pc-io-lb"], ["pc-io-ub"]. *)

val find : string -> engine option

val governed_engines : (string * kind) list
(** The [Seq] entries of {!engines} — every engine {!analyze_governed}
    runs, in output order. *)

val wavefront_rungs :
  ?samples:int -> ?record:Wavefront.record -> Cdag.t ->
  (string * (Dmc_util.Budget.t option -> s:int -> int)) list
(** The wavefront ladder's budgeted rungs, ["exact"] then ["sampled"]
    ([samples] draws per stripped graph, default 64), sharing one
    {!Wavefront.ladder} built on first use (seeded with [record]): the
    sampled rung replays the exact rung's recorded min-cuts instead of
    re-running them. *)

val row :
  ?timeout:float -> ?node_budget:int -> ?samples:int -> ?wavefront:int ->
  ?record:Wavefront.record -> ?p:int -> Cdag.t -> s:int -> string -> row
(** One engine's full fallback ladder at [(p, s)]; [p] defaults to 1,
    and only engines whose quantity {!reads_p} read it.  [samples]
    (default 64) sizes the sampled wavefront rungs.  [wavefront] is the
    already-computed wavefront bound used as the middle rung of the
    other sequential lower-bound ladders; when omitted it is derived on
    demand (value-deterministic: the sampler seed is fixed).  [record]
    seeds the row's wavefront ladder ({!wavefront_record}): under a
    node budget the row's value, rungs and budget ticks are the
    unseeded row's, and only the min-cuts the record cannot settle
    run.  Raises [Invalid_argument]
    on an engine name not in {!engines}, on [p] or [s] below 1, or on
    a record that does not {!Wavefront.record_fits} [g]. *)

val engine_reads_p : string -> bool
(** {!reads_p} of the named engine's quantity; [false] for a name not
    in {!engines}. *)

val takes_record : string -> bool
(** Some rung of the named engine reads the wavefront ladder (its
    [reads_ladder] is not [Never]): its rows replay a
    {!wavefront_record} when given one. *)

val wants_record : ?node_budget:int -> string list -> bool
(** Whether the rows of these engines should replay one
    {!wavefront_record} per graph: a node budget is set, and some
    engine reads the ladder at its [First] rung, so its every row runs
    the min-cuts the record holds.  [Fallback] engines alone do not
    ask for one: when their exact rungs succeed, no row would replay
    it.  Without a budget the record would be unbounded work in the
    caller's process, out of reach of a worker timeout; under a
    deadline alone, a row reaching a query that the record's deadline
    cut short runs its flow again until its own deadline (only a node
    limit lets the cut-short ticks settle it), so the record would add
    serial work without shortening the rows whose ladders time out. *)

val wavefront_record :
  ?timeout:float -> ?node_budget:int -> ?samples:int -> Cdag.t ->
  Wavefront.record
(** The wavefront ladder's min-cut record for [g], as a row's ladder
    would leave it: the exact rung, then the sampled rung if the exact
    one fails, each under a fresh budget of [timeout] seconds and/or
    [node_budget] ticks, exactly as {!row} gives its rungs.  Runs
    outside any row: no rung span, no [budget.ticks].  With neither
    limit every query completes and is recorded.  Neither S nor p
    enters it, so one record serves every row of the graph. *)

val degraded_row :
  ?p:int -> Cdag.t -> s:int -> engine:string -> failure:failure ->
  elapsed:float -> row
(** The supervisor-side row for an engine whose whole worker was lost
    (crashed, hard-killed, or protocol-broken): the engine's last rung,
    run without a budget.  Its rung reads ["floor"] for lower-bound and
    exact engines and ["trivial"] for upper-bound ones; if the last
    rung fails too (an upper bound at an [s] no trivial schedule fits),
    the row has no value and rung ["-"].  [failure] is recorded as the
    one failed ["worker"] rung so the status column shows what forced
    the fallback. *)

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
