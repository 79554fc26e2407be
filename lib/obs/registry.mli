(** Global-but-resettable instrumentation state.

    All of {!Dmc_obs} shares one registry: an enabled flag (the single
    load-and-branch every instrumentation site checks), a
    clamped-monotone wall clock, a name-keyed counter table and a
    bounded buffer of completed spans.  The registry is process-global
    on purpose — instrumentation must not thread a context value
    through every engine signature — but fully resettable, so tests and
    forked pool workers can start from a clean slate.

    Determinism contract: counters count {e work} (nodes expanded,
    augmenting paths, evictions), never time, so two identical runs —
    or the same jobs split across [--jobs 1] and [--jobs 2] workers —
    produce identical counter snapshots.  Only span timestamps and
    durations vary between runs. *)

type counter = { c_name : string; mutable c_value : int }
(** A registered counter.  Increment through {!Dmc_obs.Counter}, which
    honours the enabled flag — never mutate [c_value] directly. *)

type event = {
  ev_name : string;
  mutable ev_attrs : (string * string) list;
  mutable ev_ts : float;  (** microseconds since the registry epoch *)
  mutable ev_dur : float;  (** microseconds *)
  mutable ev_tid : int;
      (** 0 in-process; [job index + 1] for spans merged from a pool
          worker *)
  mutable ev_src : int;
      (** trace lane ({!source} id): 0 for spans recorded in this
          process, the origin host's lane for merged snapshots *)
  ev_depth : int;  (** nesting depth at the time the span opened *)
}
(** A completed span. *)

val enabled : bool ref
(** The master switch.  Instrumentation sites compile to one load of
    this ref and a conditional branch when it is [false]; do not write
    it directly — use {!set_enabled}, which also arms the epoch. *)

val is_enabled : unit -> bool

val set_enabled : bool -> unit
(** Switch instrumentation on or off.  The first enable captures the
    clock epoch; subsequent enables keep it, so timestamps from before
    and after a disable window remain comparable. *)

val now : unit -> float
(** [Unix.gettimeofday] clamped to be non-decreasing, so NTP steps can
    never produce a negative span duration. *)

val now_us : unit -> float
(** Microseconds since the epoch, on the clamped clock. *)

val source : string -> int
(** Find or create the trace lane registered under [name].  Lane 0 is
    always this process (registered as ["dmc"]); every other name gets
    the next id in first-registration order, so a fleet's lanes are
    stable within a run.  Like {!counter}, registration is idempotent
    and survives {!reset}. *)

val source_name : int -> string option
(** The name a lane id was registered under. *)

val fold_sources : ('a -> int -> string -> 'a) -> 'a -> 'a
(** Fold over registered lanes in id order (deterministic). *)

val counter : string -> counter
(** Find or create the counter registered under [name].  Creation is
    idempotent, so modules may register at initialisation time and
    merged child snapshots can never introduce duplicates. *)

val fold_counters : ('a -> counter -> 'a) -> 'a -> 'a
(** Fold over all registered counters in name order (deterministic). *)

type histogram = {
  h_name : string;
  h_counts : int array;  (** one slot per log bucket *)
  mutable h_sum : int;
  mutable h_n : int;
}
(** A log-bucketed histogram of non-negative ints.  Bucket 0 holds the
    value 0; bucket [b >= 1] the values in [2^(b-1), 2^b).  All state
    is integral, so merging worker snapshots is bucket-wise addition —
    commutative and exact — and derived quantiles are byte-identical
    across [--jobs] widths.  Observe through {!Dmc_obs.Histogram}. *)

val hist_buckets : int
(** Number of buckets ([63]). *)

val bucket_of_value : int -> int
(** Bucket index for a value; negatives clamp to bucket 0. *)

val bucket_lo : int -> int
(** Smallest value a bucket admits. *)

val bucket_hi : int -> int
(** Largest value a bucket admits. *)

val histogram : string -> histogram
(** Find or create, like {!counter}. *)

val fold_histograms : ('a -> histogram -> 'a) -> 'a -> 'a
(** Fold in name order (deterministic). *)

type gauge = { g_name : string; mutable g_value : float; mutable g_set : bool }
(** A last-value gauge (heap words, RSS).  Not part of the determinism
    contract: gauges measure state, not work.  Merging across the fork
    boundary takes the maximum, so merge order still cannot matter. *)

val gauge : string -> gauge
(** Find or create, like {!counter}. *)

val fold_gauges : ('a -> gauge -> 'a) -> 'a -> 'a
(** Fold in name order (deterministic). *)

val set_gauge : gauge -> float -> unit
val merge_gauge : gauge -> float -> unit
(** [merge_gauge g v] is [set_gauge g (max g.g_value v)] once [g] has
    been set, plain [set_gauge] before. *)

val sample_gc : unit -> unit
(** Refresh the [gc.*] gauges: [gc.minor_words] from [Gc.minor_words],
    the others still from [Gc.quick_stat] (which reads 0 before the
    first minor collection).  Runs automatically at every span close
    and inside {!snapshot_json}. *)

val max_events : unit -> int
(** Completed-span buffer bound; beyond it spans are counted as dropped
    instead of allocated. *)

val set_max_events : int -> unit
(** Lower (or restore) the span-buffer bound — how tests exercise the
    drop path without recording a million spans.  Clamped to [>= 1]. *)

val on_span_close : (string -> unit) option ref
(** Invoked with the span name after every span close (when spans are
    being recorded).  The pool's forked workers hook this to emit
    rate-limited heartbeat frames; engines never see it. *)

val iter_events : (event -> unit) -> unit
(** Iterate completed spans in completion order. *)

val event_count : unit -> int
val dropped : unit -> int

type flight_entry = {
  fl_ts : float;  (** microseconds since the registry epoch *)
  fl_kind : string;  (** ["span"], ["dispatch"], ["verdict"], ... *)
  fl_name : string;
  fl_detail : string;
}
(** One flight-recorder moment.  The recorder is a small bounded ring
    of the {e most recent} notes — the opposite retention policy from
    the span buffer, because a postmortem wants what happened just
    before a crash, not what happened first. *)

val default_flight_capacity : int
(** [256]. *)

val set_flight_capacity : int -> unit
(** Resize (and clear) the ring.  Clamped to [>= 1]. *)

val flight_note : kind:string -> name:string -> detail:string -> unit
(** Append a note (no-op while the registry is disabled).  Span closes
    note themselves automatically; the pool supervisor notes
    dispatches, heartbeat phases and verdicts. *)

val flight_entries : unit -> flight_entry list
(** The ring's contents, oldest first. *)

val flight_count : unit -> int
(** Total notes ever pushed (≥ the ring length once it wraps). *)

val open_span : name:string -> attrs:(string * string) list -> event
(** Used by {!Dmc_obs.Span}; callers outside the library should prefer
    [Span.with_]. *)

val close_span : event -> unit
val innermost : unit -> event option

val add_event :
  name:string ->
  ?attrs:(string * string) list ->
  ts_us:float ->
  dur_us:float ->
  ?tid:int ->
  ?src:int ->
  ?depth:int ->
  unit ->
  unit
(** Append an already-timed span — how the pool supervisor records the
    synthetic ["pool.job"] span around each worker attempt.  An attr
    [("ph", "i")] marks the event as an {e instant} (a lease grant, a
    quarantine) rather than a duration slice; the Chrome exporter
    renders those with [ph:"i"]. *)

val reset : unit -> unit
(** Zero every counter, discard all spans and re-arm the epoch.  The
    counter {e registrations} survive, so a reset-run-snapshot cycle is
    reproducible. *)

val child_reset : unit -> unit
(** What a forked worker calls first: like {!reset} but the epoch (and
    the enabled flag) are inherited from the parent, so the child's
    timestamps land on the parent's timeline. *)

val snapshot_json : unit -> Dmc_util.Json.t
(** Serialize non-zero counters, non-empty histograms (sparse bucket
    pairs), set gauges (after a final {!sample_gc}), the dropped count
    and all completed spans — the payload a pool worker appends to its
    {!Dmc_util.Ipc} result frame. *)

val merge_snapshot :
  ?tid:int -> ?src:int -> ?shift_us:float -> Dmc_util.Json.t -> unit
(** Fold a worker snapshot into this registry: counters and histogram
    buckets add (commutes, so completion order cannot affect the merged
    profile), gauges max-merge, spans append with [ev_tid] forced to
    [tid] and [ev_src] to [src] (the origin host's trace lane).
    [shift_us] translates the snapshot's timestamps onto this
    registry's timeline — a remote [dmc worker] is a fresh process
    whose epoch is its own start, so the supervisor shifts by the
    attempt's dispatch time.  Malformed sub-structures are skipped —
    observability must never turn a good result into a protocol
    error. *)
