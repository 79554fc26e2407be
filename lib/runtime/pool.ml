module Json = Dmc_util.Json
module Budget = Dmc_util.Budget
module Ipc = Dmc_util.Ipc

type verdict =
  | Done of Json.t
  | Timed_out
  | Crashed of int
  | Engine_failure of Budget.failure
  | Worker_protocol_error of string

type outcome = {
  verdict : verdict;
  attempts : int;
  backoffs : float list;
  elapsed : float;
}

type config = {
  jobs : int;
  timeout : float option;
  max_retries : int;
  backoff_base : float;
  backoff_cap : float;
  faults : Fault.t list;
  should_stop : unit -> bool;
  accept_more : unit -> bool;
  on_progress : (Progress.t -> unit) option;
  postmortem_dir : string option;
}

let default =
  {
    jobs = 1;
    timeout = None;
    max_retries = 2;
    backoff_base = 0.1;
    backoff_cap = 2.0;
    faults = [];
    should_stop = (fun () -> false);
    accept_more = (fun () -> true);
    on_progress = None;
    postmortem_dir = None;
  }

let is_transient = function
  | Timed_out | Crashed _ | Worker_protocol_error _ -> true
  | Done _ | Engine_failure _ -> false

let backoff_delay cfg ~job ~attempt =
  let base = min cfg.backoff_cap (cfg.backoff_base *. (2. ** float_of_int (attempt - 1))) in
  let rng = Dmc_util.Rng.create (((job + 1) * 1_000_003) + attempt) in
  base *. (1. +. Dmc_util.Rng.float rng 0.25)

let signal_name s =
  if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigfpe then "SIGFPE"
  else if s = Sys.sigill then "SIGILL"
  else if s = Sys.sigpipe then "SIGPIPE"
  else Printf.sprintf "signal %d" s

(* Observability: dispatch/retry/verdict counters plus a synthetic
   ["pool.job"] span per finished attempt.  Verdict counters are
   pre-registered so the counter set (and hence the profile table) does
   not depend on which verdicts a particular run happens to produce. *)
let c_dispatch = Dmc_obs.Counter.make "pool.dispatch"
let c_retry = Dmc_obs.Counter.make "pool.retry"
let c_reshard = Dmc_obs.Counter.make "pool.reshard"

let verdict_token = function
  | Done _ -> "ok"
  | Timed_out -> "timed-out"
  | Crashed _ -> "crashed"
  | Engine_failure _ -> "engine-failure"
  | Worker_protocol_error _ -> "protocol-error"

let c_verdicts =
  List.map
    (fun t -> (t, Dmc_obs.Counter.make ("pool.verdict." ^ t)))
    [ "ok"; "timed-out"; "crashed"; "engine-failure"; "protocol-error" ]

let verdict_to_string = function
  | Done _ -> "ok"
  | Timed_out -> "timed-out"
  | Crashed s -> "crashed: " ^ signal_name s
  | Engine_failure f -> "engine-failure: " ^ Budget.failure_to_string f
  | Worker_protocol_error msg -> "protocol-error: " ^ msg

let verdict_failure = function
  | Done _ -> None
  | Timed_out -> Some Budget.Timeout
  | Crashed s -> Some (Budget.Internal ("worker crashed: " ^ signal_name s))
  | Engine_failure f -> Some f
  | Worker_protocol_error msg ->
      Some (Budget.Internal ("worker protocol error: " ^ msg))

(* Fleet telemetry: every host is a trace lane (a Chrome-trace [pid]);
   lease grants, quarantines and re-shards land on that lane as
   instant events, and the same moments feed the flight-recorder ring
   so a postmortem shows what the fleet was doing just before a crash.
   All of it is span-side — wall-clock, outside the determinism
   contract — and gated on the registry being enabled. *)
let instant ~name ~host attrs =
  if Dmc_obs.Registry.is_enabled () then
    Dmc_obs.Registry.add_event ~name
      ~attrs:(("ph", "i") :: ("host", host.Host.name) :: attrs)
      ~ts_us:(Dmc_obs.Registry.now_us ())
      ~dur_us:0.
      ~src:(Dmc_obs.Registry.source host.Host.name)
      ()

(* ------------------------------------------------------------------ *)
(* Supervisor side                                                     *)

(* A local worker is forked once and then runs attempts one after
   another: the supervisor writes one request frame per attempt on
   [req]; the worker answers on [res] with heartbeats and one result
   frame, then reads [req] again.  It holds the payloads of the jobs
   submitted before its fork, so it can run job [i] only if
   [i < mark]. *)
type worker = {
  wpid : int;
  req : Unix.file_descr;  (* supervisor's write end: request frames *)
  res : Unix.file_descr;  (* supervisor's read end: heartbeats, results *)
  mark : int;
  mutable closed : bool;
}

type slot = {
  pid : int;
  fd : Unix.file_descr;
  local : worker option;
      (* the local worker running this attempt; it owns [fd] *)
  buf : Buffer.t;
  job : int;
  attempt : int;
  shost : Host.t;
  deadline : float option;
  started : float; (* registry clock, microseconds; 0 when obs is off *)
  mutable eof : bool;
  mutable status : Unix.process_status option;
  mutable timeout_killed : bool;
  mutable resharded : bool;
      (* the supervisor took the lease back (host quarantined under it)
         and killed the attempt: refund, requeue, don't judge the job *)
  mutable off : int; (* frames before this buffer offset are consumed *)
  mutable phase : string; (* last heartbeat phase *)
  mutable result : Json.t option; (* first non-heartbeat frame *)
}

type job_state = Queued | Waiting of float | Running | Final of outcome

type job_rec = {
  jid : int;
  mutable jstate : job_state;
  mutable jattempts : int;
  mutable jreshards : int; (* refunded attempts taken back from bad hosts *)
  mutable jbackoffs : float list; (* newest first *)
  mutable jfirst : float; (* first-dispatch instant; nan until then *)
}

(* A streaming pool: jobs arrive one at a time ([submit]) and the
   supervision loop advances one bounded iteration at a time ([step]),
   so a long-running caller — the [dmc serve] connection loop — can
   multiplex worker supervision with its own descriptors.  The batch
   [run] below is a driver over this same state, so both paths share
   every supervision invariant (hard deadlines, retry backoff, verdict
   classification, fault injection). *)
type 'a t = {
  cfg : config;
  run_id : string;
      (* trace-context run id: ties a remote worker's frames to this
         pool instance; wall-clock domain, outside determinism *)
  worker : int -> 'a -> (Json.t, Budget.failure) result;
  encode : ('a -> Json.t) option;
  hosts : Host.t list;
  reshard_cap : int;
  on_commit : int -> outcome -> unit;
  ordered : bool;
  jobs : (int, job_rec) Hashtbl.t;
      (* ordered: every job; unordered: pending jobs, plus those
         committed since the last [submit] *)
  payloads : (int, 'a) Hashtbl.t;  (* jobs not yet final *)
  queue : int Queue.t;
  mutable in_flight : slot list;
  mutable idle : worker list;  (* local workers between attempts *)
  mutable exiting : int list;  (* retired workers not yet reaped *)
  mutable committed : int list;  (* unordered: ids to forget at [submit] *)
  mutable next_id : int;  (* ids handed out so far *)
  mutable next_commit : int;  (* ordered mode: first uncommitted id *)
  mutable not_final : int;  (* jobs whose state is not yet Final *)
  mutable waiting : int;  (* jobs whose state is Waiting *)
  mutable retries_total : int;
  started : float;
  mutable last_progress : float;
  chunk : Bytes.t;  (* every pipe read lands here first *)
}

let flush_parent_output () =
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  flush stdout;
  flush stderr

let worker_fault cfg ~job ~attempt =
  (* Server-loop fault kinds (drop/truncate/slow) are not worker
     faults: a spec can drive the connection loop and the pool from the
     same string, so attempts only honour their own kinds. *)
  match Fault.applies cfg.faults ~job ~attempt with
  | Some k when Fault.is_worker_kind k -> Some k
  | Some _ | None -> None

(* [pid <= 0] marks an attempt whose transport never started (command
   spawn failure): there is no process to signal or reap, and passing 0
   to kill/waitpid would address the whole process group. *)
let kill_quietly pid =
  if pid > 0 then try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec wait_blocking pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_blocking pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 127

(* [Some status] once [pid] has exited, [None] while it runs. *)
let wait_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, st -> Some st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 127)

(* ------------------------------------------------------------------ *)
(* Local workers (fork transport)                                      *)

(* The descriptors a freshly forked worker must close: the supervisor's
   ends of every live worker's pipes.  A sibling holding a request pipe
   open would keep its worker from ever seeing EOF.  In a worker this
   holds the worker's own ends, so a pool it runs in turn does not leak
   them into its own workers. *)
let private_ends : Unix.file_descr list ref = ref []

let close_worker w =
  if not w.closed then begin
    w.closed <- true;
    private_ends :=
      List.filter (fun fd -> fd <> w.req && fd <> w.res) !private_ends;
    close_quietly w.req;
    close_quietly w.res
  end

(* EOF on the request pipe ends an idle worker's loop; it is reaped
   without blocking ([step] keeps trying, [shutdown] waits). *)
let retire t w =
  close_worker w;
  if wait_nohang w.wpid = None then t.exiting <- w.wpid :: t.exiting

let request_frame ~job ~fault =
  Json.Obj
    [
      ("job", Json.Int job);
      ( "fault",
        match fault with
        | None -> Json.Null
        | Some k -> Json.String (Fault.kind_to_string k) );
    ]

let parse_request json =
  Option.map
    (fun job ->
      ( job,
        Option.bind
          (Option.bind (Json.mem json "fault") Json.as_string)
          Fault.kind_of_string ))
    (Option.bind (Json.mem json "job") Json.as_int)

(* The worker side: one attempt per request frame, each exactly what a
   [dmc worker] process does with its call ({!Transport.attempt_body}).
   Every attempt starts from a clean registry (the fork inherited the
   parent's spans and counts, the previous attempt left its own) but
   keeps the parent's epoch, so snapshots land on the supervisor's
   timeline.  EOF on [input] is the supervisor retiring this worker (or
   dying).  The worker leaves with [Unix._exit], never [exit], which
   would run the parent's [at_exit] hooks and flush a copy of any
   buffered parent output. *)
let worker_loop t ~input ~output =
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  let hb = t.cfg.on_progress <> None in
  let rec loop () =
    match Result.map parse_request (Ipc.read_frame input) with
    | Ok (Some (job, fault)) ->
        Dmc_obs.Registry.child_reset ();
        Transport.attempt_body ~fault ~hb ~output (fun () ->
            t.worker job (Hashtbl.find t.payloads job));
        (* garbage must be followed by EOF, never by another attempt *)
        if fault = Some Fault.Garbage then Unix._exit 0;
        loop ()
    | Ok None | Error _ -> Unix._exit 0
  in
  loop ()

let fork_worker t =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  flush_parent_output ();
  match Unix.fork () with
  | 0 ->
      List.iter close_quietly (req_w :: res_r :: !private_ends);
      private_ends := [ req_r; res_w ];
      worker_loop t ~input:req_r ~output:res_w
  | pid ->
      Unix.close req_r;
      Unix.close res_w;
      private_ends := req_w :: res_r :: !private_ends;
      { wpid = pid; req = req_w; res = res_r; mark = t.next_id; closed = false }
  | exception e ->
      List.iter close_quietly [ req_r; req_w; res_r; res_w ];
      raise e

(* A worker that died while idle must not take the supervisor with it:
   SIGPIPE is ignored for the one write, which then fails with EPIPE. *)
let send_request w frame =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let sent =
    match Ipc.write_frame w.req frame with
    | () -> true
    | exception Unix.Unix_error _ -> false
  in
  Sys.set_signal Sys.sigpipe prev;
  sent

(* Hand attempt [job] to a local worker: an idle one that holds the
   job's payload, else a fresh fork.  Idle workers forked before the job
   was submitted retire on the way.  A request that fails found a
   worker that died while idle: it retires and the attempt goes to
   another worker, the job charged nothing.  A fresh worker that died
   before its first request ends the attempt like any other death. *)
let rec local_worker t ~job ~fault =
  let frame = request_frame ~job ~fault in
  let stale, usable = List.partition (fun w -> w.mark <= job) t.idle in
  List.iter (retire t) stale;
  match usable with
  | w :: rest ->
      t.idle <- rest;
      if send_request w frame then w
      else begin
        kill_quietly w.wpid;
        retire t w;
        local_worker t ~job ~fault
      end
  | [] ->
      t.idle <- [];
      let w = fork_worker t in
      ignore (send_request w frame : bool);
      w

let spawn t ~host ~job ~attempt =
  let cfg = t.cfg in
  let fault = worker_fault cfg ~job ~attempt in
  let pid, fd, local =
    match host.Host.transport with
    | Transport.Fork ->
        let w = local_worker t ~job ~fault in
        (w.wpid, w.res, Some w)
    | Transport.Command { argv } ->
        let encode =
          match t.encode with
          | Some e -> e
          | None ->
              (* create/run refuse remote hosts without an encoder, so
                 this is unreachable; fail loudly if the invariant
                 breaks rather than ship a garbage frame. *)
              invalid_arg "Pool: remote host without an encoder"
        in
        let payload = encode (Hashtbl.find t.payloads job) in
        let envelope =
          Transport.envelope ~hb:(cfg.on_progress <> None)
            ~obs:(Dmc_obs.Registry.is_enabled ())
            ~trace:
              {
                Transport.run = t.run_id;
                host = host.Host.name;
                lease = Printf.sprintf "%d:%d" job attempt;
              }
            ~fault payload
        in
        let proc = Transport.spawn_command ~argv ~envelope in
        (proc.Transport.pid, proc.Transport.fd, None)
  in
  {
    pid;
    fd;
    local;
    buf = Buffer.create 256;
    job;
    attempt;
    shost = host;
    deadline = Option.map (fun tmo -> Budget.now () +. tmo) cfg.timeout;
    started =
      (if Dmc_obs.Registry.is_enabled () then Dmc_obs.Registry.now_us ()
       else 0.);
    eof = false;
    status = None;
    timeout_killed = false;
    resharded = false;
    off = 0;
    phase = "";
    result = None;
  }

(* The attempt's output is over (EOF, or its process is gone).  A local
   attempt's pipe belongs to its worker, which goes with it. *)
let end_output slot =
  if not slot.eof then begin
    slot.eof <- true;
    match slot.local with
    | Some w -> close_worker w
    | None -> close_quietly slot.fd
  end

let reap_blocking slot =
  if slot.status = None then
    slot.status <-
      Some (if slot.pid <= 0 then Unix.WEXITED 127 else wait_blocking slot.pid);
  end_output slot

(* Record a finished attempt in the registry: bump the verdict counter,
   merge the worker's snapshot under this job's tid and close the
   synthetic per-attempt span. *)
let record_attempt slot verdict obs =
  if Dmc_obs.Registry.is_enabled () then begin
    let tid = slot.job + 1 in
    (match List.assoc_opt (verdict_token verdict) c_verdicts with
    | Some c -> Dmc_obs.Counter.incr c
    | None -> ());
    (match obs with
    | Some snap ->
        (* The worker's spans land on its host's lane.  A fork worker
           shares the supervisor's epoch, so its timestamps are already
           on our timeline; a command worker is a fresh process whose
           epoch is its own start — shift by the dispatch instant. *)
        let shift_us = if Host.is_remote slot.shost then slot.started else 0. in
        Dmc_obs.Registry.merge_snapshot ~tid
          ~src:(Dmc_obs.Registry.source slot.shost.Host.name)
          ~shift_us snap
    | None -> ());
    Dmc_obs.Registry.flight_note ~kind:"verdict" ~name:(verdict_to_string verdict)
      ~detail:
        (Printf.sprintf "job %d attempt %d @%s" slot.job slot.attempt
           slot.shost.Host.name);
    Dmc_obs.Registry.add_event ~name:"pool.job"
      ~attrs:
        [
          ("job", string_of_int slot.job);
          ("attempt", string_of_int slot.attempt);
          ("host", slot.shost.Host.name);
          ("verdict", verdict_to_string verdict);
        ]
      ~ts_us:slot.started
      ~dur_us:(Dmc_obs.Registry.now_us () -. slot.started)
      ~tid ()
  end

(* Consume complete frames from the slot buffer as they arrive.
   Heartbeat frames ([{"hb": {...}}]) update the phase and are
   discarded; the first anything-else frame is the attempt's result.
   On an undecodable prefix (bad header, oversized length, non-JSON
   payload) consumption simply stops: [classify] re-decodes the
   leftover bytes with [Ipc.decode_frame] and reports the precise
   protocol error, exactly as it did before heartbeats existed. *)
let consume_frames slot =
  let continue = ref true in
  while !continue do
    continue := false;
    let avail = Buffer.length slot.buf - slot.off in
    if slot.result = None && avail >= Ipc.header_bytes then
      match Ipc.parse_header (Buffer.sub slot.buf slot.off Ipc.header_bytes) with
      | Error _ -> ()
      | Ok plen ->
          if avail - Ipc.header_bytes >= plen then begin
            let payload =
              Buffer.sub slot.buf (slot.off + Ipc.header_bytes) plen
            in
            match Ipc.parse_payload payload with
            | Error _ -> ()
            | Ok json ->
                slot.off <- slot.off + Ipc.header_bytes + plen;
                continue := true;
                (match json with
                | Json.Obj [ ("hb", Json.Obj hb) ] -> (
                    match List.assoc_opt "phase" hb with
                    | Some (Json.String p) ->
                        slot.phase <- p;
                        Dmc_obs.Registry.flight_note ~kind:"hb" ~name:p
                          ~detail:
                            (Printf.sprintf "job %d @%s" slot.job
                               slot.shost.Host.name)
                    | _ -> ())
                | other -> slot.result <- Some other)
          end
  done

(* Classify a finished attempt, plus the host-health reading of the
   same evidence.  [timeout_killed] wins over the exit status (a
   SIGKILLed worker also reports WSIGNALED sigkill).  An ["obs"] field
   in the result frame is the worker's instrumentation snapshot, not
   part of the result proper — it is split off before the shape check
   and merged into the supervisor's registry.

   The host event distinguishes a transport that {e died} (crash,
   silent exit, truncated frame — worth quarantine-and-retry) from one
   that {e lied} (bytes arrived but are not protocol — worth poisoning
   after repeats).  [Host.record] applies the distinction only to
   remote hosts; on the local fork backend every failure is the job's
   own. *)
let classify slot =
  consume_frames slot;
  let verdict, hevent, obs =
    if slot.timeout_killed then (Timed_out, Host.Deadline_kill, None)
    else
      match slot.status with
      | Some (Unix.WSIGNALED s) ->
          (Crashed s, Host.Transport_failure ("crashed: " ^ signal_name s), None)
      | Some (Unix.WSTOPPED s) ->
          (Crashed s, Host.Transport_failure ("stopped: " ^ signal_name s), None)
      | None when slot.result = None ->
          let msg = "attempt finalized before being reaped" in
          (Worker_protocol_error msg, Host.Transport_failure msg, None)
      | Some (Unix.WEXITED _) | None -> (
          (* [None]: a local attempt ended with its result frame, and
             its worker is alive, waiting for the next request *)
          let code =
            match slot.status with Some (Unix.WEXITED c) -> c | _ -> 0
          in
          let leftover = Buffer.length slot.buf - slot.off in
          let decoded =
            match slot.result with
            | Some json ->
                if leftover > 0 then
                  Error
                    (Ipc.Malformed
                       (Printf.sprintf "%d trailing bytes after the frame"
                          leftover))
                else Ok json
            | None -> Ipc.decode_frame (Buffer.sub slot.buf slot.off leftover)
          in
          match decoded with
          | Ok (Json.Obj fields) -> (
              let obs = List.assoc_opt "obs" fields in
              (* "obs" and the echoed "trace" context ride the result
                 frame but are not part of the result proper *)
              match
                List.filter (fun (k, _) -> k <> "obs" && k <> "trace") fields
              with
              | [ ("ok", payload) ] -> (Done payload, Host.Ok_result, obs)
              | [ ("err", Json.String f) ] -> (
                  match Budget.failure_of_string f with
                  | Some failure -> (Engine_failure failure, Host.Ok_result, obs)
                  | None ->
                      let msg = "unknown failure token: " ^ f in
                      (Worker_protocol_error msg, Host.Garbage msg, obs))
              | _ ->
                  let msg = "unexpected result-frame shape" in
                  (Worker_protocol_error msg, Host.Garbage msg, None))
          | Ok _ ->
              let msg = "unexpected result-frame shape" in
              (Worker_protocol_error msg, Host.Garbage msg, None)
          | Error e ->
              let detail = Ipc.read_error_to_string e in
              let msg =
                if code = 0 then detail
                else Printf.sprintf "%s (exit code %d)" detail code
              in
              let hevent =
                (* no bytes, or a frame cut mid-flight: the transport
                   died under the attempt.  Undecodable bytes that did
                   arrive: the host is emitting garbage. *)
                match e with
                | Ipc.Closed | Ipc.Truncated _ | Ipc.Timed_out _ ->
                    Host.Transport_failure msg
                | Ipc.Bad_header _ | Ipc.Oversized _ | Ipc.Malformed _ ->
                    Host.Garbage msg
              in
              (Worker_protocol_error msg, hevent, None))
  in
  record_attempt slot verdict obs;
  (verdict, hevent)

(* ------------------------------------------------------------------ *)
(* Streaming handle                                                    *)

let create ?(ordered = true) ?(hosts = []) ?encode (cfg : config) ~worker
    ~on_commit () =
  if cfg.jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let hosts =
    match hosts with [] -> [ Host.local ~capacity:cfg.jobs () ] | hs -> hs
  in
  if encode = None && List.exists Host.is_remote hosts then
    invalid_arg "Pool.create: remote hosts require ~encode";
  {
    cfg;
    run_id =
      Printf.sprintf "%08x"
        (Hashtbl.hash (Unix.getpid (), Unix.gettimeofday ()) land 0xffffffff);
    worker;
    encode;
    hosts;
    (* Enough refunds for every backend to fail this job twice before
       the job itself starts paying attempts for the fleet's sins. *)
    reshard_cap = (2 * List.length hosts) + 2;
    on_commit;
    ordered;
    jobs = Hashtbl.create 64;
    payloads = Hashtbl.create 64;
    queue = Queue.create ();
    in_flight = [];
    idle = [];
    exiting = [];
    committed = [];
    next_id = 0;
    next_commit = 0;
    not_final = 0;
    waiting = 0;
    retries_total = 0;
    started = Budget.now ();
    last_progress = neg_infinity;
    chunk = Bytes.create 65536;
  }

let submit t payload =
  List.iter (Hashtbl.remove t.jobs) t.committed;
  t.committed <- [];
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.jobs id
    {
      jid = id;
      jstate = Queued;
      jattempts = 0;
      jreshards = 0;
      jbackoffs = [];
      jfirst = nan;
    };
  Hashtbl.replace t.payloads id payload;
  Queue.add id t.queue;
  t.not_final <- t.not_final + 1;
  id

let unfinished t = t.not_final
let running t = List.length t.in_flight

let watch_fds t =
  List.filter_map
    (fun slot -> if slot.eof then None else Some slot.fd)
    t.in_flight

let outcome t id =
  match Hashtbl.find_opt t.jobs id with
  | Some { jstate = Final o; _ } -> Some o
  | Some _ | None -> None

let job_record t id =
  match Hashtbl.find_opt t.jobs id with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Pool: unknown job id %d" id)

(* Every state change after [submit] goes through here, so
   [t.not_final] and [t.waiting] stay exact, and [step] scans the
   records only when one of them may be due. *)
let set_state t r state =
  (match r.jstate with
  | Waiting _ -> t.waiting <- t.waiting - 1
  | Final _ -> t.not_final <- t.not_final + 1
  | Queued | Running -> ());
  (match state with
  | Waiting _ -> t.waiting <- t.waiting + 1
  | Final _ -> t.not_final <- t.not_final - 1
  | Queued | Running -> ());
  r.jstate <- state

(* Mark a job final and commit whatever the ordering policy now
   allows.  Ordered mode releases the contiguous finalized prefix
   (submission-order commit — the byte-determinism contract); unordered
   mode commits immediately, which is what a server wants: a fast
   query's reply must not wait behind a slow unrelated one.  A final job
   never runs again, so its payload goes now; an unordered handle
   forgets the whole record at the next [submit], so a daemon's handle
   does not grow with every query it has answered. *)
let make_final t r o =
  set_state t r (Final o);
  Hashtbl.remove t.payloads r.jid;
  if t.ordered then begin
    let continue = ref true in
    while !continue && t.next_commit < t.next_id do
      match (job_record t t.next_commit).jstate with
      | Final o ->
          let id = t.next_commit in
          (* advance before the callback: a raising on_commit must not
             re-deliver the same outcome if the caller recovers *)
          t.next_commit <- t.next_commit + 1;
          t.on_commit id o
      | _ -> continue := false
    done
  end
  else begin
    t.committed <- r.jid :: t.committed;
    t.on_commit r.jid o
  end

let finalize t r verdict =
  let elapsed = Budget.now () -. r.jfirst in
  make_final t r
    {
      verdict;
      attempts = r.jattempts;
      backoffs = List.rev r.jbackoffs;
      elapsed;
    }

(* Take the lease back: the attempt is not evidence about the job, so
   the attempt number is refunded and the job goes straight back into
   the queue (no backoff — the {e host} is benched, the job is not). *)
let reshard t r host =
  Dmc_obs.Counter.incr c_reshard;
  Host.note_reshard host;
  instant ~name:"host.reshard" ~host [ ("job", string_of_int r.jid) ];
  Dmc_obs.Registry.flight_note ~kind:"reshard"
    ~name:(Printf.sprintf "job %d" r.jid)
    ~detail:(Printf.sprintf "lease taken back from %s" host.Host.name);
  r.jreshards <- r.jreshards + 1;
  r.jattempts <- max 0 (r.jattempts - 1);
  set_state t r Queued;
  Queue.add r.jid t.queue

(* Settle one reaped attempt.  Host health is folded in first; a
   quarantine transition takes back every other lease the host still
   holds (SIGKILL now, refund at reap).  Host-attributed failures on
   remote backends refund the job's attempt — a dead machine must not
   burn the job's own retry budget — up to [reshard_cap], after which
   the ordinary transient-retry/finalize path judges the job. *)
let settle t slot (verdict, hevent) =
  let r = job_record t slot.job in
  let host = slot.shost in
  Host.release host;
  if slot.resharded then
    (* lease already taken back when the host went under; just requeue *)
    reshard t r host
  else begin
    let now = Budget.now () in
    (match Host.record host ~now hevent with
    | `Fine -> ()
    | `Quarantined ->
        instant ~name:"host.quarantine" ~host
          [
            ("verdict", Host.verdict_to_string host.Host.verdict);
            ( "until",
              if host.Host.until = infinity then "inf"
              else Printf.sprintf "+%.1fs" (host.Host.until -. now) );
            ("quarantines", string_of_int host.Host.quarantines);
          ];
        Dmc_obs.Registry.flight_note ~kind:"quarantine" ~name:host.Host.name
          ~detail:
            (Printf.sprintf "%s, quarantine %d"
               (Host.verdict_to_string host.Host.verdict)
               host.Host.quarantines);
        List.iter
          (fun s ->
            if s.shost == host && not s.resharded && s.status = None then begin
              s.resharded <- true;
              kill_quietly s.pid
            end)
          t.in_flight);
    (* Crash flight recorder: a crashed / timed-out / protocol-broken
       attempt dumps the ring (plus counters and host context) to a
       timestamped postmortem file.  Best-effort by contract — a failed
       dump warns and never perturbs supervision. *)
    (match (t.cfg.postmortem_dir, verdict) with
    | Some dir, (Timed_out | Crashed _ | Worker_protocol_error _) -> (
        match
          Dmc_obs.Flight.write ~dir
            ~slug:(Printf.sprintf "job%d-attempt%d" slot.job slot.attempt)
            ~reason:(verdict_to_string verdict)
            ~attrs:
              [
                ("run", t.run_id);
                ("job", string_of_int slot.job);
                ("attempt", string_of_int slot.attempt);
                ("host", host.Host.name);
                ("host_verdict", Host.verdict_to_string host.Host.verdict);
              ]
            ()
        with
        | Ok _ -> ()
        | Error msg ->
            Printf.eprintf "dmc: warning: postmortem dump failed: %s\n%!" msg)
    | _ -> ());
    let host_fault =
      Host.is_remote host
      &&
      match hevent with
      | Host.Transport_failure _ | Host.Garbage _ -> true
      | Host.Ok_result | Host.Deadline_kill -> false
    in
    if host_fault && r.jreshards < t.reshard_cap then reshard t r host
    else if is_transient verdict && r.jattempts <= t.cfg.max_retries then begin
      Dmc_obs.Counter.incr c_retry;
      t.retries_total <- t.retries_total + 1;
      let delay = backoff_delay t.cfg ~job:r.jid ~attempt:r.jattempts in
      r.jbackoffs <- delay :: r.jbackoffs;
      set_state t r (Waiting (Budget.now () +. delay))
    end
    else finalize t r verdict
  end

(* Pick the host for the next dispatch: healthiest verdict class first
   (alive, then slow, then a dead host due its half-open probe), load
   ratio within a class, declaration order as the deterministic tie
   break. *)
let pick_host t ~now =
  let rank h =
    match h.Host.verdict with
    | Host.Alive -> 0
    | Host.Slow -> 1
    | Host.Dead -> 2
    | Host.Poisoned -> 3
  in
  let load h =
    float_of_int h.Host.inflight /. float_of_int h.Host.capacity
  in
  List.fold_left
    (fun best h ->
      if not (Host.available h ~now) then best
      else
        match best with
        | None -> Some h
        | Some b ->
            if
              rank h < rank b
              || (rank h = rank b && load h < load b)
            then Some h
            else best)
    None t.hosts

let dispatch t host id =
  let r = job_record t id in
  Dmc_obs.Counter.incr c_dispatch;
  r.jattempts <- r.jattempts + 1;
  if Float.is_nan r.jfirst then r.jfirst <- Budget.now ();
  set_state t r Running;
  Host.lease host ~now:(Budget.now ());
  if Dmc_obs.Registry.is_enabled () then begin
    instant ~name:"host.lease" ~host
      [ ("job", string_of_int id); ("attempt", string_of_int r.jattempts) ];
    Dmc_obs.Registry.flight_note ~kind:"dispatch"
      ~name:(Printf.sprintf "job %d" id)
      ~detail:(Printf.sprintf "attempt %d @%s" r.jattempts host.Host.name)
  end;
  let slot = spawn t ~host ~job:id ~attempt:r.jattempts in
  t.in_flight <- slot :: t.in_flight

(* Cancel every job past the committed point, without an [on_commit]
   call.  Ordered mode also overwrites attempts that finished out of
   order behind a still-open gap: their result was never committed, so
   reporting it as anything but [Cancelled] would let a caller count
   work that no checkpoint or output stream contains — the committed
   prefix is the only durable truth, and a resume reruns everything
   after it.  Unordered callers already committed every final job, so
   only non-final ones are touched. *)
let cancel_pending t =
  let cancel r =
    let elapsed =
      if Float.is_nan r.jfirst then 0. else Budget.now () -. r.jfirst
    in
    Hashtbl.remove t.payloads r.jid;
    set_state t r
      (Final
         {
           verdict = Engine_failure Budget.Cancelled;
           attempts = r.jattempts;
           backoffs = List.rev r.jbackoffs;
           elapsed;
         })
  in
  if t.ordered then
    for id = t.next_commit to t.next_id - 1 do
      cancel (job_record t id)
    done
  else
    Hashtbl.iter
      (fun _ r -> match r.jstate with Final _ -> () | _ -> cancel r)
      t.jobs;
  Queue.clear t.queue

(* Close every idle worker's request pipe and wait for it and every
   retired worker to exit ([kill] first when they must not finish).
   Idle workers exit at once on EOF, so the wait is short. *)
let shutdown ?(kill = false) t =
  List.iter close_worker t.idle;
  let pids = List.map (fun w -> w.wpid) t.idle @ t.exiting in
  if kill then List.iter kill_quietly pids;
  List.iter (fun pid -> ignore (wait_blocking pid : Unix.process_status)) pids;
  t.idle <- [];
  t.exiting <- []

let abandon t =
  List.iter
    (fun slot ->
      kill_quietly slot.pid;
      reap_blocking slot;
      Host.release slot.shost)
    t.in_flight;
  t.in_flight <- [];
  shutdown ~kill:true t;
  cancel_pending t

(* Every backend permanently benched and nothing in flight: the queue
   can never drain.  Finalize what remains with a typed failure rather
   than spin forever — reachable only when the host set has no local
   fork backend (the CLI always includes one). *)
let all_hosts_poisoned t =
  List.for_all (fun h -> h.Host.verdict = Host.Poisoned) t.hosts

let fail_unservable t =
  let fail r =
    match r.jstate with
    | Final _ | Running -> ()
    | Queued | Waiting _ ->
        finalize t r
          (Engine_failure
             (Budget.Internal "all hosts poisoned; no backend can run this job"))
  in
  Queue.clear t.queue;
  Hashtbl.iter (fun _ r -> fail r) t.jobs

(* At most ~4 callbacks a second, however fast the loop spins: the
   renderer writes to stderr and the RSS sampling reads /proc, both of
   which would otherwise dominate a pool of short jobs. *)
let emit_progress t =
  match t.cfg.on_progress with
  | None -> ()
  | Some f ->
      let now = Budget.now () in
      if now -. t.last_progress >= 0.25 then begin
        t.last_progress <- now;
        let n = t.next_id in
        (* every running job has exactly one attempt in flight; an
           unordered handle no longer holds committed records *)
        let finished = n - t.not_final in
        let waiting = t.not_final - List.length t.in_flight in
        let running =
          List.rev_map
            (fun s ->
              {
                Progress.job = s.job;
                attempt = s.attempt;
                phase = s.phase;
                host = s.shost.Host.name;
              })
            t.in_flight
        in
        let elapsed = now -. t.started in
        let eta =
          if finished = 0 then None
          else
            Some (elapsed *. float_of_int (n - finished) /. float_of_int finished)
        in
        let rss_bytes =
          Progress.rss_of_pids
            (Unix.getpid ()
            :: List.filter_map
                 (fun s -> if s.pid > 0 then Some s.pid else None)
                 t.in_flight)
        in
        f
          {
            Progress.total = n;
            finished;
            running;
            waiting;
            retries = t.retries_total;
            elapsed;
            eta;
            rss_bytes;
          }
      end

(* One bounded supervision iteration: promote elapsed retry-waits,
   fill free worker slots (unless the config is draining), select on
   the worker pipes for at most [max_wait] seconds (capped tighter by
   the nearest deadline, retry wake-up or quarantine expiry), drain
   readable pipes, settle local attempts that have their result frame,
   enforce hard deadlines, reap exited workers and settle their
   attempts, and retire idle workers once every job is final.  Callers
   embedding the pool in their own event loop pass [~max_wait:0.] after
   their own select; the batch driver uses the default. *)
let step ?(max_wait = 0.2) t =
  let now = Budget.now () in
  (* Promote retry-waits whose backoff has elapsed. *)
  if t.waiting > 0 then
    Hashtbl.iter
      (fun id r ->
        match r.jstate with
        | Waiting tm when tm <= now ->
            set_state t r Queued;
            Queue.add id t.queue
        | _ -> ())
      t.jobs;
  (* Fill free leases (unless draining).  The loop ends when the queue
     empties or no host can take another lease right now. *)
  let continue = ref true in
  while !continue && t.cfg.accept_more () && not (Queue.is_empty t.queue) do
    match pick_host t ~now with
    | Some h -> dispatch t h (Queue.take t.queue)
    | None ->
        continue := false;
        if t.in_flight = [] && all_hosts_poisoned t then fail_unservable t
  done;
  (* Pick the select timeout: nearest attempt deadline, nearest retry
     wake-up, nearest quarantine expiry (when work is queued), capped
     so the caller's stop conditions are polled promptly. *)
  let timeout =
    let horizon = ref max_wait in
    let shrink tm = if tm -. now < !horizon then horizon := tm -. now in
    List.iter (fun slot -> Option.iter shrink slot.deadline) t.in_flight;
    if t.waiting > 0 then
      Hashtbl.iter
        (fun _ r -> match r.jstate with Waiting tm -> shrink tm | _ -> ())
        t.jobs;
    if not (Queue.is_empty t.queue) then
      List.iter (fun h -> Option.iter shrink (Host.next_wakeup h)) t.hosts;
    Float.max 0.0 !horizon
  in
  let watched = List.filter (fun s -> not s.eof) t.in_flight in
  let readable =
    if watched = [] then (
      if t.in_flight = [] then
        (* only Waiting jobs (or a queue blocked on quarantined hosts)
           remain: sleep out the nearest wake-up *)
        ignore (Unix.select [] [] [] timeout : _ * _ * _);
      [])
    else
      match Unix.select (List.map (fun s -> s.fd) watched) [] [] timeout with
      | fds, _, _ -> fds
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  (* Drain readable pipes.  Iterate [watched] — the exact slots select
     looked at — not [in_flight]: a slot that already hit EOF lingers
     in [in_flight] until its process is reaped, its closed fd *number*
     can be reused by a newly spawned pipe, and matching on the stale
     slot would read the new worker's bytes into the wrong buffer (or
     close the live fd out from under the next select). *)
  List.iter
    (fun slot ->
      if List.memq slot.fd readable then begin
        match Unix.read slot.fd t.chunk 0 (Bytes.length t.chunk) with
        | 0 -> end_output slot
        | k ->
            Buffer.add_subbytes slot.buf t.chunk 0 k;
            Host.touch slot.shost ~now:(Budget.now ());
            consume_frames slot
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      end)
    watched;
  (* A local attempt ends with its result frame; its worker stays alive
     for the next request.  A frame that is not a clean result
     (trailing bytes, a bad shape) gets its worker killed instead.
     Workers move before any verdict settles, so an [on_commit] that
     raises leaves none of them unaccounted for. *)
  let framed, rest =
    List.partition
      (fun s ->
        s.local <> None && s.result <> None && s.status = None
        && not s.timeout_killed)
      t.in_flight
  in
  t.in_flight <- rest;
  let framed =
    List.map
      (fun slot ->
        let ((verdict, _) as judged) = classify slot in
        let w = Option.get slot.local in
        if is_transient verdict then begin
          kill_quietly w.wpid;
          retire t w
        end
        else t.idle <- w :: t.idle;
        (slot, judged))
      framed
  in
  (* Enforce hard deadlines. *)
  let now = Budget.now () in
  List.iter
    (fun slot ->
      match slot.deadline with
      | Some d when now > d && not slot.timeout_killed ->
          slot.timeout_killed <- true;
          kill_quietly slot.pid;
          (* a spawn-failed attempt has no process to kill: mark it
             reaped so the deadline actually ends it *)
          if slot.pid <= 0 && slot.status = None then
            slot.status <- Some (Unix.WEXITED 127)
      | _ -> ())
    t.in_flight;
  (* Reap exited workers without blocking. *)
  List.iter
    (fun slot ->
      if slot.status = None then
        slot.status <-
          (if slot.pid <= 0 then Some (Unix.WEXITED 127)
           else wait_nohang slot.pid))
    t.in_flight;
  (* A reaped worker closes its pipe on exit; drain what's left and
     settle the attempt. *)
  let done_, still =
    List.partition
      (fun slot ->
        match slot.status with
        | Some _ when not slot.eof ->
            (* Reaped but EOF not yet seen: consume the remainder now —
               the write side is closed, so this terminates. *)
            let rec drain () =
              match Unix.read slot.fd t.chunk 0 (Bytes.length t.chunk) with
              | 0 -> ()
              | k ->
                  Buffer.add_subbytes slot.buf t.chunk 0 k;
                  drain ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
            in
            drain ();
            end_output slot;
            true
        | Some _ -> true
        | None -> false)
      t.in_flight
  in
  t.in_flight <- still;
  List.iter (fun (slot, judged) -> settle t slot judged) framed;
  List.iter (fun slot -> settle t slot (classify slot)) done_;
  (* Workers retire once every job is final, and retired ones are
     reaped as they exit. *)
  if t.not_final = 0 then begin
    List.iter (retire t) t.idle;
    t.idle <- []
  end;
  t.exiting <- List.filter (fun pid -> wait_nohang pid = None) t.exiting;
  emit_progress t

(* ------------------------------------------------------------------ *)
(* Batch driver                                                        *)

let run ?hosts ?encode (cfg : config) ~worker ?(on_result = fun _ _ -> ())
    jobs =
  if cfg.jobs < 1 then invalid_arg "Pool.run: jobs must be >= 1";
  let n = List.length jobs in
  let pool = create ?hosts ?encode cfg ~worker ~on_commit:on_result () in
  List.iter (fun payload -> ignore (submit pool payload : int)) jobs;
  let stopped = ref false in
  let finally () =
    if pool.in_flight <> [] then abandon pool;
    (* no worker outlives the run *)
    shutdown pool
  in
  Fun.protect ~finally (fun () ->
      while pool.next_commit < n && not !stopped do
        if cfg.should_stop () then begin
          abandon pool;
          stopped := true
        end
        else if (not (cfg.accept_more ())) && pool.in_flight = [] then begin
          (* Draining finished: every started attempt has settled;
             whatever never started stays undone. *)
          cancel_pending pool;
          stopped := true
        end
        else step pool
      done);
  Array.init n (fun i ->
      match outcome pool i with
      | Some o -> o
      | None ->
          (* unreachable: the loop exits only when all jobs committed
             or abandon()/cancel_pending() finalized them *)
          {
            verdict = Engine_failure Budget.Cancelled;
            attempts = 0;
            backoffs = [];
            elapsed = 0.;
          })
