(** Where a pool attempt runs: the transport abstraction.

    The supervised pool ({!Pool}) historically forked every attempt.
    That backend is now one {!t} among two:

    - {!Fork} runs the pool's worker {e closure} in a forked local
      worker that serves attempts one after another — no
      serialization, and a copy of the parent's state as of the
      worker's fork (not of each attempt's dispatch);
    - {!Command} spawns an arbitrary argv (typically
      [ssh host dmc worker], or a local [dmc worker] in tests), writes
      the {e serialized} job to its stdin as one length-prefixed JSON
      call frame, and reads the same frames the fork backend's pipe
      carries from its stdout.

    Both speak the identical wire protocol ({!Dmc_util.Ipc}) per
    attempt: optional [{"hb": ...}] heartbeat frames, then exactly one
    result frame [{"ok": payload}] or [{"err": failure}] — then EOF
    from a command, or the next attempt from a fork worker.  The supervisor
    therefore classifies, retries and commits attempts the same way
    whichever transport produced them — the submission-order-commit
    byte-determinism contract is transport-independent. *)

type t =
  | Fork  (** run the worker closure in a reused forked worker *)
  | Command of { argv : string array }
      (** spawn [argv]; stdin carries the call frame, stdout the
          result frames, stderr passes through to the supervisor's *)

type proc = { pid : int; fd : Unix.file_descr }
(** A spawned attempt: the local process to SIGKILL at the hard
    deadline (for [Command] that is the transport client, e.g. the
    [ssh] process) and the descriptor its result frames arrive on. *)

val name : t -> string
(** ["fork"], or the first argv word for commands. *)

val is_remote : t -> bool
(** [Command] transports are remote: their jobs cross as JSON, their
    failures are attributed to the {e host}, not the job. *)

val call_version : int

type trace = { run : string; host : string; lease : string }
(** The trace context a supervisor threads through a remote call: run
    id, the host lane the lease was granted on, and the lease id
    ([job:attempt]).  Pure telemetry — optional on the wire, ignored
    by classification — so it rides v{!call_version} envelopes without
    a version bump. *)

val envelope :
  hb:bool ->
  ?obs:bool ->
  ?trace:trace ->
  fault:Fault.kind option ->
  Dmc_util.Json.t ->
  Dmc_util.Json.t
(** Wrap a serialized job payload into the one call frame a [Command]
    worker reads from stdin:
    [{"kind": "dmc-worker-call", "v": 1, "job": payload, "hb": bool,
      "obs": bool?, "trace": {run, host, lease}?,
      "fault": "hang" | null}].  [fault] ships worker-side fault
    injection to the remote end, so chaos schedules reach every
    transport; [obs] (default false) asks the worker to enable its
    registry and attach a snapshot even when heartbeats are off — how
    a profiling supervisor gets remote counters home. *)

type call = {
  job : Dmc_util.Json.t;
  hb : bool;
  obs : bool;
  trace : trace option;
  fault : Fault.kind option;
}
(** A parsed call frame.  [obs]/[trace] default to off/absent, so old
    supervisors' envelopes still parse. *)

val parse_envelope : Dmc_util.Json.t -> (call, string) result
(** [Error] on anything that is not a v{!call_version}
    [dmc-worker-call]. *)

val spawn_command : argv:string array -> envelope:Dmc_util.Json.t -> proc
(** Start [argv] and write the call frame to its stdin (bounded: a
    worker that never reads — already dead, wedged before its first
    read — cannot stall the supervisor; the write gives up after a few
    seconds and classification reports the failure).  SIGPIPE is
    ignored process-wide on first use. *)

val attempt_body :
  fault:Fault.kind option ->
  hb:bool ->
  ?obs:bool ->
  ?trace:trace ->
  output:Unix.file_descr ->
  (unit -> (Dmc_util.Json.t, Dmc_util.Budget.failure) result) ->
  unit
(** The worker side of one attempt, shared by the fork worker and the
    [dmc worker] process: honour a worker-kind fault (hang / abort /
    garbage), enable the registry when [hb] or [obs] asks for
    telemetry, optionally stream rate-limited heartbeat phase frames
    from span closes (tagged with the trace context's host/lease when
    present), run the thunk with the standard exception mapping
    ([Budget.Exhausted] / [Internal_error] / [Stack_overflow] /
    anything else), attach the obs snapshot (and echo the trace
    context) when the registry is enabled, and write the single result
    frame.  Never raises. *)

val run_call :
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  dispatch:(Dmc_util.Json.t -> (Dmc_util.Json.t, Dmc_util.Budget.failure) result) ->
  unit ->
  int
(** The whole [dmc worker] body: read one call frame from [input],
    dispatch the job, answer on [output] via {!attempt_body}.  Returns
    the process exit code (0 even for engine failures — those are
    well-formed [{"err": ...}] replies; non-zero only when the call
    frame itself was unreadable). *)
