(** Supervised worker pool over pluggable transports.

    Jobs run outside the supervisor's process — by default in forked
    local workers ({!Transport.Fork}), optionally in a spawned command
    such as [ssh host dmc worker] ({!Transport.Command}) — so nothing a
    worker does — blow the OCaml stack, exhaust the heap, segfault, spin
    forever in a non-cooperative loop — can take the supervisor down or
    corrupt a sibling.

    A local worker is forked once per slot and runs attempts one after
    another; a command host starts one process per attempt.  Forking per
    attempt made every attempt pay copy-on-write faults on the inherited
    heap, which cost more than most sweep rows' engine work.  A local
    worker sees the parent's state as of its own fork, not as of the
    attempt's dispatch, and holds the payloads of the jobs submitted
    before that fork: an idle worker only takes a job submitted before
    it was forked, and a later job gets a fresh worker.  An attempt ends
    when its result frame is complete; [Done] and [Engine_failure] leave
    the worker alive for the next one, while a crash, a deadline kill or
    a protocol error retires it, so a retry always runs in a fresh
    process.  The supervisor enforces a {e hard} wall-clock
    deadline per attempt with SIGKILL (no reliance on the cooperative
    {!Dmc_util.Budget} polling the engines do internally), classifies
    every way an attempt can end into the closed {!verdict} type, and
    retries transient verdicts with capped exponential backoff and
    deterministic jitter.

    With multiple {!Host}s, every attempt is a {e lease}: the pool
    picks the healthiest host with a free slot, attributes each
    attempt's evidence to that host ({!Host.record}), and when a host
    is quarantined — repeated transport failures, or garbage instead of
    protocol — takes back its in-flight leases (SIGKILL), {e refunds}
    the jobs' attempt counts and requeues them on surviving backends
    (re-sharding).  A job only burns its own retry budget on evidence
    about the job; a run only fails to make progress when every backend
    is gone.  None of this machinery is observable in the committed
    results: outcomes depend on the job alone, so the byte-determinism
    contract below holds for any host set and any failure schedule.

    Results are {e committed in submission order}: [on_result] fires
    for job [i] only once jobs [0..i-1] have fired, regardless of
    which worker finished first.  Output streams and checkpoints built
    in [on_result] are therefore byte-deterministic for any [jobs]
    count — [--jobs 4] produces exactly the bytes [--jobs 1] does.

    Workers speak length-prefixed JSON ({!Dmc_util.Ipc}) over a pipe:
    per attempt, optional [{"hb": {"phase": ...}}] heartbeat frames
    (only when [config.on_progress] is set), then one result frame
    [{"ok": payload}] or [{"err": failure}].  A command worker then
    exits; a local worker reads its next request.  Anything else —
    garbage bytes, a truncated frame, a silent exit, trailing bytes
    after the result — is a {!Worker_protocol_error}. *)

type verdict =
  | Done of Dmc_util.Json.t  (** the worker returned a payload *)
  | Timed_out
      (** the supervisor SIGKILLed the attempt at the hard deadline *)
  | Crashed of int
      (** the worker died on a signal it did not expect (OCaml signal
          number, e.g. [Sys.sigabrt]; render with {!signal_name}) *)
  | Engine_failure of Dmc_util.Budget.failure
      (** the worker function itself reported a governed failure —
          deterministic, so never retried *)
  | Worker_protocol_error of string
      (** the worker ended the attempt without a well-formed result
          frame *)

type outcome = {
  verdict : verdict;
  attempts : int;  (** total attempts, including the final one *)
  backoffs : float list;
      (** the delay slept before each retry, in retry order — empty
          when the first attempt was final *)
  elapsed : float;  (** dispatch of attempt 1 to final verdict *)
}

type config = {
  jobs : int;  (** max concurrent workers (>= 1) *)
  timeout : float option;  (** hard per-attempt deadline, seconds *)
  max_retries : int;  (** extra attempts allowed for transient verdicts *)
  backoff_base : float;  (** first retry delay, seconds *)
  backoff_cap : float;  (** upper bound on the un-jittered delay *)
  faults : Fault.t list;
  should_stop : unit -> bool;
      (** polled between supervision steps; [true] stops dispatch,
          kills in-flight workers and returns early (see {!run}) *)
  accept_more : unit -> bool;
      (** polled before each dispatch; [false] switches to draining —
          in-flight attempts run to completion, but nothing new (first
          attempts or retries) starts, and every job past the
          committed prefix finalizes as [Engine_failure Cancelled].
          How [--timeout] stops a run between units while keeping
          every committed unit's result. *)
  on_progress : (Progress.t -> unit) option;
      (** called from the supervisor loop at most ~4 times a second
          with a snapshot of scheduling state and worker heartbeat
          phases.  Setting it also switches workers into heartbeat
          mode: each worker enables its registry and reports its
          innermost closing span name as a rate-limited phase tick
          over the result pipe.  [None] (the default) keeps the wire
          protocol exactly one result frame per attempt. *)
  postmortem_dir : string option;
      (** when set, every attempt that ends crashed / timed-out /
          protocol-broken dumps the flight-recorder ring to a
          timestamped [postmortem-*.json] in this directory (created
          if needed) via {!Dmc_obs.Flight.write}.  Best-effort: a
          failed dump warns on stderr and never perturbs
          supervision. *)
}

val default : config
(** [jobs = 1], no timeout, [max_retries = 2], base 0.1 s, cap 2 s,
    no faults (callers wanting the [DMC_FAULT] hook add
    {!Fault.of_env} explicitly), never stops, always accepts. *)

val is_transient : verdict -> bool
(** [Timed_out], [Crashed] and [Worker_protocol_error] are worth
    retrying; [Done] and [Engine_failure] are final. *)

val backoff_delay : config -> job:int -> attempt:int -> float
(** The delay slept before retrying [job] (0-based) after failed
    attempt [attempt] (1-based): [min cap (base * 2^(attempt-1))]
    plus up to 25% deterministic jitter derived from [(job, attempt)]
    alone — identical across runs, so retry schedules are
    reproducible. *)

val signal_name : int -> string
(** ["SIGABRT"], ["SIGKILL"], ... for the OCaml signal numbers the
    toolkit can meet; ["signal <n>"] otherwise. *)

val verdict_to_string : verdict -> string
(** ["ok"], ["timed-out"], ["crashed: SIGABRT"],
    ["engine-failure: timeout"], ["protocol-error: ..."]. *)

val verdict_failure : verdict -> Dmc_util.Budget.failure option
(** The non-[Done] verdicts mapped into the PR-1 failure taxonomy, so
    callers can record a pool verdict in an existing degradation
    ladder: [Timed_out] is [Timeout], [Crashed]/[Worker_protocol_error]
    are [Internal] (with the signal or protocol detail), and
    [Engine_failure] carries its own failure through. *)

(** {1 Streaming handle}

    The batch {!run} below is the right shape for a driver that knows
    its whole job list up front.  A daemon does not: queries arrive one
    at a time and its event loop must keep accepting connections while
    workers grind.  The handle API exposes the same supervised pool —
    identical deadline enforcement, retry/backoff, verdict
    classification and fault injection, because {!run} itself is a
    driver over this state — as three primitives a caller can embed in
    its own [select] loop: {!submit} a job, {!watch_fds} to fold worker
    pipes into the caller's select set, {!step} to advance supervision
    one bounded iteration. *)

type 'a t

val create :
  ?ordered:bool ->
  ?hosts:Host.t list ->
  ?encode:('a -> Dmc_util.Json.t) ->
  config ->
  worker:(int -> 'a -> (Dmc_util.Json.t, Dmc_util.Budget.failure) result) ->
  on_commit:(int -> outcome -> unit) ->
  unit ->
  'a t
(** A pool with no jobs yet.  [ordered] (default [true]) selects the
    commit policy: [true] releases outcomes in submission order (the
    byte-determinism contract {!run} documents), [false] commits each
    job the moment it finalizes — what a server wants, so a fast
    query's reply never waits behind a slow unrelated one.

    [hosts] (default one local fork host of capacity [cfg.jobs])
    selects the backends; remote ({!Transport.Command}) hosts require
    [encode], the payload serializer whose JSON a [dmc worker] process
    can dispatch ([worker] itself never runs for a remote attempt —
    the remote end computes from the encoded payload, and its result
    frames are classified exactly like a fork worker's).  Callers
    wanting the degrade-to-local guarantee should include a local
    host (see {!Host.normalize}); with a remote-only host set, jobs
    finalize as [Engine_failure Internal] once every backend is
    poisoned.

    [on_commit] is the commit hook; an exception it raises propagates
    out of {!step}.  Raises [Invalid_argument] if [cfg.jobs < 1], or
    if a remote host is given without [encode]. *)

val submit : 'a t -> 'a -> int
(** Enqueue a job; returns its id (sequential from 0 in submission
    order — the index [worker] and [on_commit] receive). *)

val step : ?max_wait:float -> 'a t -> unit
(** One supervision iteration: promote elapsed retry backoffs, dispatch
    queued jobs into free worker slots (unless [cfg.accept_more ()] is
    false), select on worker pipes for at most [max_wait] seconds
    (default 0.2, capped tighter by the nearest deadline or retry
    wake-up), drain output, settle local attempts whose result frame
    is complete, SIGKILL attempts past their hard deadline, reap exited
    workers and settle their verdicts (commit or schedule a retry), and
    retire idle local workers once every job is final.  Callers embedding the pool in their own event loop pass
    [~max_wait:0.] after their own select says a worker pipe (or
    nothing) is ready. *)

val watch_fds : 'a t -> Unix.file_descr list
(** The worker pipe descriptors currently worth selecting on — one per
    in-flight attempt that has not yet hit EOF.  Valid until the next
    {!step}, which may close any of them. *)

val unfinished : 'a t -> int
(** Jobs submitted but not yet final (queued, awaiting retry, or
    running) — the admission-control number: a server rejects new work
    when this exceeds its bound. *)

val running : 'a t -> int
(** In-flight attempts, one worker process each (reaped-but-unsettled
    attempts included; idle local workers are not counted). *)

val outcome : 'a t -> int -> outcome option
(** The final outcome of job [id], or [None] while it is still
    pending (or the id was never issued).  An unordered handle forgets
    committed jobs at the next {!submit} — a daemon's handle must not
    grow with every query it answered — so ask before submitting
    more. *)

val abandon : 'a t -> unit
(** SIGKILL and reap every worker, busy or idle, then finalize every
    non-committed job as [Engine_failure Cancelled] {e without} an
    [on_commit] call (the {!run} cancellation invariant).  The handle
    is dead afterwards: outcomes remain queryable via {!outcome}, but
    no further {!submit}/{!step} is meaningful. *)

val run :
  ?hosts:Host.t list ->
  ?encode:('a -> Dmc_util.Json.t) ->
  config ->
  worker:(int -> 'a -> (Dmc_util.Json.t, Dmc_util.Budget.failure) result) ->
  ?on_result:(int -> outcome -> unit) ->
  'a list ->
  outcome array
(** [run cfg ~worker jobs] executes [worker i job_i] for each job in a
    forked local worker (or on a remote host — [hosts]/[encode] as in
    {!create}) and returns one outcome per job, in submission order.
    Every job is submitted before the first worker forks, so the run's
    workers serve all of its jobs, and none outlives [run].

    [worker] runs {e in the worker process} (it sees a copy of the
    parent's state as of the worker's fork, so closures need no
    serialization); its result crosses back as one IPC frame.  An exception escaping
    [worker] is mapped like {!Dmc_core.Bounds.Engine.run} would:
    [Budget.Exhausted]/[Internal_error] to their failures,
    [Stack_overflow] to [Too_large], anything else to [Internal].

    [on_result] is the in-order commit hook (checkpoint writes,
    streamed output).  It runs in the supervisor; an exception it
    raises aborts the pool (in-flight workers are killed and reaped)
    and propagates.

    If [cfg.should_stop] turns [true], in-flight workers are
    SIGKILLed and reaped, and every job past the committed prefix —
    including attempts that finished out of order behind a still-open
    gap — is reported as [Engine_failure Cancelled] {e without} an
    [on_result] call.  The invariant callers rely on: the number of
    non-[Cancelled] outcomes equals the number of [on_result] calls,
    so progress accounting always matches what checkpoints and output
    streams actually contain. *)
