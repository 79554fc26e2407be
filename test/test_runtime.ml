(* Tests for the supervised worker pool: IPC framing, fault-spec
   parsing, deterministic backoff, and — via the fault-injection hook —
   every verdict the supervisor can hand back, plus retry accounting
   and the in-submission-order commit that makes [--jobs N] output
   byte-identical to [--jobs 1]. *)

module Json = Dmc_util.Json
module Budget = Dmc_util.Budget
module Ipc = Dmc_util.Ipc
module Fault = Dmc_runtime.Fault
module Pool = Dmc_runtime.Pool
module Progress = Dmc_runtime.Progress

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* IPC framing                                                         *)

let test_ipc_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Int 42;
      Json.String "hello \"quoted\" \n world";
      Json.Obj [ ("ok", Json.List [ Json.Int 1; Json.Bool false ]) ];
    ]
  in
  List.iter
    (fun v ->
      match Ipc.decode_frame (Ipc.encode_frame v) with
      | Ok v' -> check_bool "roundtrip" true (v = v')
      | Error e -> Alcotest.fail (Ipc.read_error_to_string e))
    values

let test_ipc_pipe () =
  let r, w = Unix.pipe ~cloexec:false () in
  let v = Json.Obj [ ("payload", Json.String (String.make 10_000 'x')) ] in
  (* Pipe capacity exceeds this frame, so a single-threaded
     write-then-read cannot deadlock. *)
  Ipc.write_frame w v;
  Unix.close w;
  (match Ipc.read_frame r with
  | Ok v' -> check_bool "pipe roundtrip" true (v = v')
  | Error e -> Alcotest.fail (Ipc.read_error_to_string e));
  (match Ipc.read_frame r with
  | Error Ipc.Closed -> ()
  | Ok _ -> Alcotest.fail "read past EOF succeeded"
  | Error e -> Alcotest.failf "expected Closed, got %s" (Ipc.read_error_to_string e));
  Unix.close r

let test_ipc_errors () =
  let fail_with name expected s =
    match Ipc.decode_frame s with
    | Ok _ -> Alcotest.failf "%s: decoded garbage" name
    | Error e ->
        check_bool name true
          (match (expected, e) with
          | `Closed, Ipc.Closed
          | `Bad_header, Ipc.Bad_header _
          | `Oversized, Ipc.Oversized _
          | `Truncated, Ipc.Truncated _
          | `Malformed, Ipc.Malformed _ ->
              true
          | _ -> false)
  in
  fail_with "empty" `Closed "";
  fail_with "non-hex header" `Bad_header "*** not an ipc frame ***";
  fail_with "short header" `Truncated "0000";
  fail_with "payload cut short" `Truncated "0000000a{\"a\"";
  fail_with "oversized" `Oversized "ffffffff";
  fail_with "payload not json" `Malformed "00000003tru";
  fail_with "trailing bytes" `Malformed "00000001 1 trailing"

(* ------------------------------------------------------------------ *)
(* Fault specs                                                         *)

let test_fault_parse () =
  (match Fault.parse "hang:3,abort:2:1,garbage:7" with
  | Error m -> Alcotest.fail m
  | Ok faults ->
      check "three clauses" 3 (List.length faults);
      check_string "roundtrip" "hang:3,abort:2:1,garbage:7"
        (String.concat "," (List.map Fault.to_string faults)));
  List.iter
    (fun spec ->
      match Fault.parse spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed fault spec %S" spec)
    [ "hang"; "hang:"; "hang:0"; "hang:x"; "explode:1"; "hang:1:0"; "hang:1:2:3" ];
  (* an empty spec means "no faults", not a parse error *)
  check_bool "empty spec" true (Fault.parse "" = Ok [])

let test_fault_applies () =
  match Fault.parse "abort:2:1,hang:3" with
  | Error m -> Alcotest.fail m
  | Ok faults ->
      (* 1-based spec against 0-based submission index *)
      check_bool "job 0 clean" true (Fault.applies faults ~job:0 ~attempt:1 = None);
      check_bool "job 1 attempt 1" true
        (Fault.applies faults ~job:1 ~attempt:1 = Some Fault.Abort);
      check_bool "job 1 attempt 2 clean" true
        (Fault.applies faults ~job:1 ~attempt:2 = None);
      check_bool "job 2 every attempt" true
        (Fault.applies faults ~job:2 ~attempt:5 = Some Fault.Hang)

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)

let test_backoff () =
  let cfg = { Pool.default with backoff_base = 0.1; backoff_cap = 2.0 } in
  let d ~job ~attempt = Pool.backoff_delay cfg ~job ~attempt in
  check_bool "deterministic" true (d ~job:3 ~attempt:2 = d ~job:3 ~attempt:2);
  check_bool "jitter distinguishes jobs" true (d ~job:0 ~attempt:1 <> d ~job:1 ~attempt:1);
  (* un-jittered schedule doubles then caps; jitter adds at most 25% *)
  for attempt = 1 to 8 do
    let base = min cfg.backoff_cap (cfg.backoff_base *. (2. ** float_of_int (attempt - 1))) in
    let delay = d ~job:5 ~attempt in
    check_bool "at least base" true (delay >= base);
    check_bool "jitter bounded" true (delay <= base *. 1.25)
  done;
  check_bool "capped" true (d ~job:5 ~attempt:30 <= cfg.backoff_cap *. 1.25)

(* ------------------------------------------------------------------ *)
(* Pool verdicts via fault injection                                   *)

let quick_worker _i n = Ok (Json.Int (n * n))

let run_one ?(timeout = 5.0) ?(max_retries = 0) ?(faults = []) worker =
  let cfg =
    { Pool.default with timeout = Some timeout; max_retries; faults }
  in
  let outcomes = Pool.run cfg ~worker [ 7 ] in
  check "one outcome" 1 (Array.length outcomes);
  outcomes.(0)

let test_verdict_ok () =
  let o = run_one quick_worker in
  (match o.Pool.verdict with
  | Pool.Done (Json.Int 49) -> ()
  | v -> Alcotest.failf "expected Done 49, got %s" (Pool.verdict_to_string v));
  check "single attempt" 1 o.Pool.attempts;
  check "no backoffs" 0 (List.length o.Pool.backoffs)

let test_verdict_timed_out () =
  let faults = Result.get_ok (Fault.parse "hang:1") in
  let o = run_one ~timeout:0.3 ~faults quick_worker in
  match o.Pool.verdict with
  | Pool.Timed_out -> ()
  | v -> Alcotest.failf "expected Timed_out, got %s" (Pool.verdict_to_string v)

let test_verdict_crashed () =
  let faults = Result.get_ok (Fault.parse "abort:1") in
  let o = run_one ~faults quick_worker in
  match o.Pool.verdict with
  | Pool.Crashed s ->
      check_string "signal" "SIGABRT" (Pool.signal_name s)
  | v -> Alcotest.failf "expected Crashed, got %s" (Pool.verdict_to_string v)

let test_verdict_protocol_error () =
  let faults = Result.get_ok (Fault.parse "garbage:1") in
  let o = run_one ~faults quick_worker in
  match o.Pool.verdict with
  | Pool.Worker_protocol_error _ -> ()
  | v ->
      Alcotest.failf "expected Worker_protocol_error, got %s"
        (Pool.verdict_to_string v)

let test_verdict_engine_failure () =
  (* Deterministic worker-reported failures must not be retried even
     when retries are allowed. *)
  let o = run_one ~max_retries:3 (fun _ _ -> Error Budget.Timeout) in
  (match o.Pool.verdict with
  | Pool.Engine_failure Budget.Timeout -> ()
  | v -> Alcotest.failf "expected Engine_failure, got %s" (Pool.verdict_to_string v));
  check "no retry of deterministic failure" 1 o.Pool.attempts

let test_verdict_worker_exception () =
  (* An exception escaping the worker maps into the failure taxonomy
     rather than crashing the child without a frame. *)
  let o = run_one (fun _ _ -> failwith "boom") in
  match o.Pool.verdict with
  | Pool.Engine_failure (Budget.Internal _) -> ()
  | v -> Alcotest.failf "expected Engine_failure internal, got %s" (Pool.verdict_to_string v)

let test_retry_recovers () =
  (* Fault only on attempt 1: the retry must succeed, with the backoff
     slept before it on the books. *)
  let faults = Result.get_ok (Fault.parse "abort:1:1") in
  let cfg =
    {
      Pool.default with
      timeout = Some 5.0;
      max_retries = 2;
      backoff_base = 0.01;
      backoff_cap = 0.05;
      faults;
    }
  in
  let o = (Pool.run cfg ~worker:quick_worker [ 7 ]).(0) in
  (match o.Pool.verdict with
  | Pool.Done (Json.Int 49) -> ()
  | v -> Alcotest.failf "expected Done after retry, got %s" (Pool.verdict_to_string v));
  check "two attempts" 2 o.Pool.attempts;
  check "one backoff slept" 1 (List.length o.Pool.backoffs);
  check_bool "backoff matches schedule" true
    (o.Pool.backoffs = [ Pool.backoff_delay cfg ~job:0 ~attempt:1 ])

let test_retry_exhausts () =
  (* Fault on every attempt: retries burn down, verdict stays Crashed. *)
  let faults = Result.get_ok (Fault.parse "abort:1") in
  let cfg =
    {
      Pool.default with
      timeout = Some 5.0;
      max_retries = 2;
      backoff_base = 0.01;
      backoff_cap = 0.05;
      faults;
    }
  in
  let o = (Pool.run cfg ~worker:quick_worker [ 7 ]).(0) in
  (match o.Pool.verdict with
  | Pool.Crashed _ -> ()
  | v -> Alcotest.failf "expected Crashed, got %s" (Pool.verdict_to_string v));
  check "all attempts used" 3 o.Pool.attempts;
  check "backoff per retry" 2 (List.length o.Pool.backoffs)

let test_verdict_failure_mapping () =
  let open Pool in
  check_bool "timed-out -> timeout" true
    (verdict_failure Timed_out = Some Budget.Timeout);
  check_bool "crash -> internal" true
    (match verdict_failure (Crashed Sys.sigabrt) with
    | Some (Budget.Internal _) -> true
    | _ -> false);
  check_bool "protocol -> internal" true
    (match verdict_failure (Worker_protocol_error "x") with
    | Some (Budget.Internal _) -> true
    | _ -> false);
  check_bool "engine failure passes through" true
    (verdict_failure (Engine_failure Budget.Budget_exhausted)
    = Some Budget.Budget_exhausted);
  check_bool "done -> none" true (verdict_failure (Done Json.Null) = None)

(* ------------------------------------------------------------------ *)
(* Order determinism                                                   *)

let staggered_worker i n =
  (* Later submissions finish first, so out-of-order completion is
     guaranteed, not just possible. *)
  Unix.sleepf (float_of_int (8 - i) *. 0.02);
  Ok (Json.Int (n * 10))

let commit_trace cfg jobs =
  let order = ref [] in
  let outcomes =
    Pool.run cfg ~worker:staggered_worker
      ~on_result:(fun i o ->
        let payload =
          match o.Pool.verdict with
          | Pool.Done j -> Json.to_string j
          | v -> Pool.verdict_to_string v
        in
        order := (i, payload) :: !order)
      jobs
  in
  (List.rev !order, outcomes)

let test_order_determinism () =
  let jobs = List.init 8 (fun i -> i + 1) in
  let seq, seq_out = commit_trace { Pool.default with jobs = 1 } jobs in
  let par, par_out = commit_trace { Pool.default with jobs = 4 } jobs in
  check_bool "commit order is submission order" true
    (List.map fst par = [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
  check_bool "parallel trace equals sequential trace" true (seq = par);
  check_bool "outcome payloads agree" true
    (Array.for_all2
       (fun a b -> a.Pool.verdict = b.Pool.verdict)
       seq_out par_out)

let test_isolation () =
  (* One crashing worker must not disturb its siblings' results. *)
  let faults = Result.get_ok (Fault.parse "abort:3") in
  let cfg = { Pool.default with jobs = 4; timeout = Some 5.0; faults } in
  let outcomes = Pool.run cfg ~worker:quick_worker [ 1; 2; 3; 4; 5 ] in
  Array.iteri
    (fun i o ->
      match (i, o.Pool.verdict) with
      | 2, Pool.Crashed _ -> ()
      | 2, v -> Alcotest.failf "job 2: expected Crashed, got %s" (Pool.verdict_to_string v)
      | i, Pool.Done (Json.Int sq) -> check "square" ((i + 1) * (i + 1)) sq
      | i, v -> Alcotest.failf "job %d: %s" i (Pool.verdict_to_string v))
    outcomes

let test_stop_accounting () =
  (* A hard stop while job 0 still blocks the commit prefix: jobs 1-3
     may have finished out of order, but nothing was committed, so
     every outcome must read Cancelled — the number of non-Cancelled
     outcomes must always equal the number of on_result calls. *)
  let t0 = Unix.gettimeofday () in
  let cfg =
    {
      Pool.default with
      jobs = 4;
      should_stop = (fun () -> Unix.gettimeofday () -. t0 > 0.4);
    }
  in
  let commits = ref 0 in
  let worker i _ =
    Unix.sleepf (if i = 0 then 10.0 else 0.05);
    Ok (Json.Int i)
  in
  let outcomes =
    Pool.run cfg ~worker ~on_result:(fun _ _ -> incr commits) [ 0; 1; 2; 3; 4; 5 ]
  in
  let non_cancelled =
    Array.fold_left
      (fun acc o ->
        match o.Pool.verdict with
        | Pool.Engine_failure Budget.Cancelled -> acc
        | _ -> acc + 1)
      0 outcomes
  in
  check "non-cancelled outcomes = committed results" !commits non_cancelled;
  check "nothing committed past the blocked prefix" 0 !commits

(* ------------------------------------------------------------------ *)
(* Progress channel                                                    *)

let test_progress_render () =
  let p =
    {
      Progress.total = 10;
      finished = 3;
      running =
        [ { Progress.job = 4; attempt = 2; phase = "optimal.rbw_io";
            host = "local" } ];
      waiting = 6;
      retries = 1;
      elapsed = 12.0;
      eta = Some 28.0;
      rss_bytes = Some (512 * 1024 * 1024);
    }
  in
  let line = Progress.render p in
  let contains needle =
    let nh = String.length line and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub line i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> check_bool ("line mentions " ^ needle) true (contains needle))
    [ "3/10 done"; "1 running"; "job 4"; "try 2"; "optimal.rbw_io";
      "6 waiting"; "1 retr"; "512.0MiB" ];
  (* a quiet pool renders without running/retry/rss fragments *)
  let idle =
    Progress.render
      {
        Progress.total = 2; finished = 2; running = []; waiting = 0;
        retries = 0; elapsed = 1.0; eta = None; rss_bytes = None;
      }
  in
  check_bool "idle line is total-only" true (String.length idle > 0)

let test_progress_rss () =
  match Progress.rss_of_pid (Unix.getpid ()) with
  | Some bytes -> check_bool "own RSS is positive" true (bytes > 0)
  | None -> Alcotest.fail "could not read own /proc RSS"

let test_pool_heartbeats () =
  (* With on_progress set, workers switch into heartbeat mode: extra
     {"hb": ...} frames precede the result frame.  The supervisor must
     surface scheduling snapshots AND still deliver every result
     untouched — the protocol change cannot corrupt payloads. *)
  let snaps = ref [] in
  let cfg =
    {
      Pool.default with
      jobs = 2;
      timeout = Some 5.0;
      on_progress = Some (fun p -> snaps := p :: !snaps);
    }
  in
  let worker _ n =
    Unix.sleepf 0.3;
    Ok (Json.Int (n + 1))
  in
  let outcomes = Pool.run cfg ~worker [ 1; 2; 3 ] in
  Array.iteri
    (fun i o ->
      match o.Pool.verdict with
      | Pool.Done (Json.Int v) -> check "payload intact" (i + 2) v
      | v -> Alcotest.failf "job %d: %s" i (Pool.verdict_to_string v))
    outcomes;
  check_bool "progress snapshots delivered" true (!snaps <> []);
  List.iter
    (fun p ->
      check "total is job count" 3 p.Progress.total;
      check_bool "counts are consistent" true
        (p.Progress.finished + List.length p.Progress.running + p.Progress.waiting
         <= 3
        && p.Progress.finished >= 0))
    !snaps;
  (* the "start" heartbeat marks at least one snapshot's running job *)
  check_bool "a worker phase was observed" true
    (List.exists
       (fun p ->
         List.exists (fun r -> r.Progress.phase = "start") p.Progress.running)
       !snaps)

let test_pool_heartbeats_with_fault () =
  (* Heartbeat mode must not weaken protocol-error detection: a child
     that writes garbage instead of frames is still classified. *)
  let faults = Result.get_ok (Fault.parse "garbage:1") in
  let cfg =
    {
      Pool.default with
      timeout = Some 5.0;
      faults;
      on_progress = Some (fun _ -> ());
    }
  in
  let o = (Pool.run cfg ~worker:quick_worker [ 7 ]).(0) in
  match o.Pool.verdict with
  | Pool.Worker_protocol_error _ -> ()
  | v ->
      Alcotest.failf "expected Worker_protocol_error, got %s"
        (Pool.verdict_to_string v)

let test_pool_heartbeat_determinism () =
  (* The acceptance bar behind --progress: enabling the channel must
     not change a single result byte. *)
  let jobs = List.init 6 (fun i -> i) in
  let run on_progress =
    let cfg = { Pool.default with jobs = 3; timeout = Some 5.0; on_progress } in
    let trace = ref [] in
    ignore
      (Pool.run cfg ~worker:staggered_worker
         ~on_result:(fun i o ->
           let payload =
             match o.Pool.verdict with
             | Pool.Done j -> Json.to_string j
             | v -> Pool.verdict_to_string v
           in
           trace := (i, payload) :: !trace)
         jobs);
    List.rev !trace
  in
  let quiet = run None and chatty = run (Some (fun _ -> ())) in
  check_bool "identical commit traces with and without progress" true
    (quiet = chatty)

(* ------------------------------------------------------------------ *)
(* Half-written frames: a peer that dies or stalls mid-frame must
   surface as a typed error carrying the byte accounting, never as a
   hang or a bare parse failure.                                       *)

let test_ipc_half_frame () =
  (* EOF mid-payload: the header promised more than ever arrived. *)
  let frame = Ipc.encode_frame (Json.Obj [ ("k", Json.String "vvvv") ]) in
  let payload_len = String.length frame - Ipc.header_bytes in
  let r, w = Unix.pipe ~cloexec:false () in
  ignore (Unix.write_substring w frame 0 (Ipc.header_bytes + 3) : int);
  Unix.close w;
  (match Ipc.read_frame r with
  | Error (Ipc.Truncated { expected; got }) ->
      check "promised payload bytes" payload_len expected;
      check "received payload bytes" 3 got
  | Ok _ -> Alcotest.fail "decoded a half-written frame"
  | Error e ->
      Alcotest.failf "expected Truncated, got %s" (Ipc.read_error_to_string e));
  Unix.close r;
  (* EOF mid-header. *)
  let r, w = Unix.pipe ~cloexec:false () in
  ignore (Unix.write_substring w frame 0 4 : int);
  Unix.close w;
  (match Ipc.read_frame r with
  | Error (Ipc.Truncated { expected; got }) ->
      check "header width" Ipc.header_bytes expected;
      check "header bytes received" 4 got
  | Ok _ -> Alcotest.fail "decoded a half-written header"
  | Error e ->
      Alcotest.failf "expected Truncated, got %s" (Ipc.read_error_to_string e));
  Unix.close r

let test_ipc_read_deadline () =
  (* The writer stays alive but never finishes the frame — the
     slow-loris shape.  Only the deadline can end this read. *)
  let frame = Ipc.encode_frame (Json.Obj [ ("k", Json.Int 1) ]) in
  let payload_len = String.length frame - Ipc.header_bytes in
  let r, w = Unix.pipe ~cloexec:false () in
  ignore (Unix.write_substring w frame 0 (Ipc.header_bytes + 2) : int);
  (match Ipc.read_frame ~deadline:(Unix.gettimeofday () +. 0.1) r with
  | Error (Ipc.Timed_out { expected; got }) ->
      check "promised payload bytes" payload_len expected;
      check "received payload bytes" 2 got
  | Ok _ -> Alcotest.fail "decoded a stalled frame"
  | Error e ->
      Alcotest.failf "expected Timed_out, got %s" (Ipc.read_error_to_string e));
  Unix.close w;
  Unix.close r;
  (* A complete frame under a generous deadline still reads fine (on a
     fresh pipe: a timed-out read has already consumed its bytes). *)
  let r, w = Unix.pipe ~cloexec:false () in
  Ipc.write_frame w (Json.Obj [ ("k", Json.Int 1) ]);
  (match Ipc.read_frame ~deadline:(Unix.gettimeofday () +. 5.) r with
  | Ok (Json.Obj [ ("k", Json.Int 1) ]) -> ()
  | Ok _ -> Alcotest.fail "wrong frame"
  | Error e -> Alcotest.fail (Ipc.read_error_to_string e));
  Unix.close w;
  Unix.close r

(* ------------------------------------------------------------------ *)
(* Server fault kinds                                                  *)

let test_fault_server_kinds () =
  (match Fault.parse "drop:1,truncate:2:1,slow:3" with
  | Error m -> Alcotest.fail m
  | Ok faults ->
      check_string "roundtrip" "drop:1,truncate:2:1,slow:3"
        (String.concat "," (List.map Fault.to_string faults));
      check_bool "all server kinds" true
        (List.for_all
           (fun f -> not (Fault.is_worker_kind f.Fault.kind))
           faults));
  check_bool "worker kinds" true
    (List.for_all Fault.is_worker_kind [ Fault.Hang; Fault.Abort; Fault.Garbage ])

(* ------------------------------------------------------------------ *)
(* Streaming handle                                                    *)

let test_streaming_unordered () =
  let commits = ref [] in
  let pool =
    Pool.create ~ordered:false
      { Pool.default with jobs = 2 }
      ~worker:(fun i () ->
        if i = 0 then Unix.sleepf 0.4;
        Ok (Json.Int i))
      ~on_commit:(fun id o -> commits := (id, o.Pool.verdict) :: !commits)
      ()
  in
  ignore (Pool.submit pool () : int);
  ignore (Pool.submit pool () : int);
  check "both unfinished" 2 (Pool.unfinished pool);
  while Pool.unfinished pool > 0 do
    Pool.step pool
  done;
  let commits = List.rev !commits in
  check "both committed" 2 (List.length commits);
  (* job 1 is instant, job 0 sleeps: unordered commit must release the
     fast job's reply without waiting for the slow one *)
  check "fast job committed first" 1 (fst (List.hd commits));
  check_bool "no descriptors left" true (Pool.watch_fds pool = []);
  match (Pool.outcome pool 0, Pool.outcome pool 1) with
  | ( Some { Pool.verdict = Pool.Done (Json.Int 0); _ },
      Some { Pool.verdict = Pool.Done (Json.Int 1); _ } ) ->
      ()
  | _ -> Alcotest.fail "outcomes not queryable after commit"

let test_streaming_abandon () =
  let commits = ref 0 in
  let pool =
    Pool.create
      { Pool.default with jobs = 1 }
      ~worker:(fun _ () ->
        Unix.sleepf 60.;
        Ok Json.Null)
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  ignore (Pool.submit pool () : int);
  ignore (Pool.submit pool () : int);
  Pool.step ~max_wait:0. pool;
  check "one in flight, one queued" 1 (Pool.running pool);
  Pool.abandon pool;
  check "cancellation commits nothing" 0 !commits;
  check "nothing unfinished" 0 (Pool.unfinished pool);
  List.iter
    (fun id ->
      match Pool.outcome pool id with
      | Some { Pool.verdict = Pool.Engine_failure Budget.Cancelled; _ } -> ()
      | _ -> Alcotest.failf "job %d not reported cancelled" id)
    [ 0; 1 ]

(* ------------------------------------------------------------------ *)
(* Worker reuse: one forked process per slot, attempts settle on their
   result frame.  Worker processes are counted through the pids the
   workers report.                                                     *)

let pid_worker _ _ = Ok (Json.Int (Unix.getpid ()))

let reported_pid (o : Pool.outcome) =
  match o.verdict with
  | Pool.Done (Json.Int pid) -> pid
  | v -> Alcotest.failf "expected a pid, got %s" (Pool.verdict_to_string v)

(* Gone for good: no such process, or a zombie nobody has reaped yet
   (a coordinator's orphans are reaped by whoever adopts them). *)
let exited pid =
  match Unix.kill pid 0 with
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
  | () -> (
      let path = Printf.sprintf "/proc/%d/stat" pid in
      match In_channel.with_open_text path In_channel.input_all with
      | stat -> (
          match String.rindex_opt stat ')' with
          | Some i when i + 2 < String.length stat -> stat.[i + 2] = 'Z'
          | _ -> false)
      | exception Sys_error _ -> true)

let test_workers_reused () =
  let cfg = { Pool.default with jobs = 2 } in
  let outcomes = Pool.run cfg ~worker:pid_worker (List.init 40 Fun.id) in
  let pids =
    List.sort_uniq compare (Array.to_list (Array.map reported_pid outcomes))
  in
  check_bool "at most one process per slot" true (List.length pids <= 2);
  check_bool "never the supervisor" false (List.mem (Unix.getpid ()) pids);
  List.iter
    (fun pid ->
      match Unix.kill pid 0 with
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ()
      | () -> Alcotest.failf "worker %d outlived Pool.run" pid)
    pids

let test_faults_mid_run () =
  (* Faulted attempts retire their worker; the jobs around them keep
     running on the survivors and on fresh forks. *)
  let faults =
    Result.get_ok (Fault.parse "abort:4,hang:6,garbage:8,abort:10:1")
  in
  let cfg =
    {
      Pool.default with
      jobs = 2;
      timeout = Some 0.5;
      max_retries = 1;
      backoff_base = 0.01;
      backoff_cap = 0.02;
      faults;
    }
  in
  let order = ref [] in
  let outcomes =
    Pool.run cfg
      ~worker:(fun _ n -> Ok (Json.Int (n * 3)))
      ~on_result:(fun i _ -> order := i :: !order)
      (List.init 12 Fun.id)
  in
  check_bool "commit order is submission order" true
    (List.rev !order = List.init 12 Fun.id);
  Array.iteri
    (fun i (o : Pool.outcome) ->
      match (i + 1, o.verdict) with
      | 4, Pool.Crashed s ->
          check_string "job 4 signal" "SIGABRT" (Pool.signal_name s)
      | 6, Pool.Timed_out -> ()
      | 8, Pool.Worker_protocol_error _ -> ()
      | 10, Pool.Done (Json.Int v) ->
          check "job 10 payload" 27 v;
          check "job 10 retried once" 2 o.attempts
      | (4 | 6 | 8 | 10), v ->
          Alcotest.failf "job %d: %s" (i + 1) (Pool.verdict_to_string v)
      | _, Pool.Done (Json.Int v) -> check "own payload" (i * 3) v
      | _, v -> Alcotest.failf "job %d: %s" (i + 1) (Pool.verdict_to_string v))
    outcomes

let test_registry_reset_per_attempt () =
  (* A worker that kept its registry across attempts would report a
     running total and the merge would overcount. *)
  let c = Dmc_obs.Counter.make "test.pool.attempts" in
  let was = Dmc_obs.Registry.is_enabled () in
  Dmc_obs.Registry.set_enabled true;
  Dmc_obs.Registry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Dmc_obs.Registry.reset ();
      Dmc_obs.Registry.set_enabled was)
    (fun () ->
      let worker _ _ =
        Dmc_obs.Counter.incr c;
        Ok Json.Null
      in
      ignore
        (Pool.run { Pool.default with jobs = 2 } ~worker (List.init 20 Fun.id)
          : Pool.outcome array);
      check "one count per attempt" 20 (Dmc_obs.Counter.value c))

let test_late_submit_fresh_worker () =
  (* A worker holds the payloads submitted before its fork, so a later
     job must run in another process, with its own payload. *)
  let results = Hashtbl.create 2 in
  let pool =
    Pool.create
      { Pool.default with jobs = 1 }
      ~worker:(fun _ s ->
        Ok
          (Json.Obj
             [ ("pid", Json.Int (Unix.getpid ())); ("s", Json.String s) ]))
      ~on_commit:(fun id o ->
        match o.Pool.verdict with
        | Pool.Done j -> Hashtbl.replace results id j
        | v -> Alcotest.failf "job %d: %s" id (Pool.verdict_to_string v))
      ()
  in
  ignore (Pool.submit pool "first" : int);
  Pool.step ~max_wait:0. pool;
  check "first job's worker forked" 1 (Pool.running pool);
  ignore (Pool.submit pool "second" : int);
  while Pool.unfinished pool > 0 do
    Pool.step pool
  done;
  let field id f = Option.get (Json.mem (Hashtbl.find results id) f) in
  check_bool "own payload" true (field 1 "s" = Json.String "second");
  check_bool "a different process" true (field 0 "pid" <> field 1 "pid")

let test_worker_killed_while_idle () =
  (* Job 0's worker is SIGKILLed from the commit hook, while it is idle,
     and is dead before the next dispatch: the supervisor must survive
     writing to its dead pipe and move the attempt to another worker,
     charging the job nothing. *)
  let cfg =
    {
      Pool.default with
      jobs = 2;
      timeout = Some 5.0;
      max_retries = 1;
      backoff_base = 0.01;
      backoff_cap = 0.02;
    }
  in
  let on_result i o =
    if i = 0 then begin
      let pid = reported_pid o in
      Unix.kill pid Sys.sigkill;
      let until = Unix.gettimeofday () +. 2. in
      while (not (exited pid)) && Unix.gettimeofday () < until do
        Unix.sleepf 0.005
      done
    end
  in
  let outcomes =
    Pool.run cfg ~worker:pid_worker ~on_result (List.init 10 Fun.id)
  in
  Array.iteri
    (fun i (o : Pool.outcome) ->
      match o.verdict with
      | Pool.Done _ -> check (Printf.sprintf "job %d attempts" i) 1 o.attempts
      | v -> Alcotest.failf "job %d: %s" i (Pool.verdict_to_string v))
    outcomes

let test_killed_coordinator_leaves_no_workers () =
  let log = Filename.temp_file "dmc-pool-workers" ".log" in
  let logged () =
    In_channel.with_open_text log In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map int_of_string_opt
    |> List.sort_uniq compare
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let worker _ _ =
        Out_channel.with_open_gen [ Open_append; Open_wronly ] 0o644 log
          (fun oc -> Printf.fprintf oc "%d\n" (Unix.getpid ()));
        Unix.sleepf 0.3;
        Ok Json.Null
      in
      (try
         ignore
           (Pool.run { Pool.default with jobs = 2 } ~worker (List.init 50 Fun.id)
             : Pool.outcome array)
       with _ -> ());
      Unix._exit 0
  | coordinator ->
      let until = Unix.gettimeofday () +. 10. in
      while List.length (logged ()) < 2 && Unix.gettimeofday () < until do
        Unix.sleepf 0.02
      done;
      Unix.kill coordinator Sys.sigkill;
      ignore (Unix.waitpid [] coordinator : int * Unix.process_status);
      let workers = logged () in
      check_bool "both workers logged" true (List.length workers >= 2);
      let until = Unix.gettimeofday () +. 2. in
      while
        (not (List.for_all exited workers)) && Unix.gettimeofday () < until
      do
        Unix.sleepf 0.02
      done;
      Sys.remove log;
      List.iter
        (fun pid ->
          if not (exited pid) then
            Alcotest.failf "worker %d outlived its SIGKILLed coordinator" pid)
        workers

let test_unordered_handle_does_not_grow () =
  (* A daemon's handle: batches of jobs with 64 KiB payloads, every
     outcome committed as it finalizes.  Finished jobs must leave
     nothing behind. *)
  let committed = ref 0 in
  let pool =
    Pool.create ~ordered:false
      { Pool.default with jobs = 2 }
      ~worker:(fun _ s -> Ok (Json.Int (String.length s)))
      ~on_commit:(fun _ _ -> incr committed)
      ()
  in
  let batch () =
    for _ = 1 to 20 do
      ignore (Pool.submit pool (String.make 65536 'x') : int)
    done;
    while Pool.unfinished pool > 0 do
      Pool.step pool
    done
  in
  batch ();
  let after_20 = Obj.reachable_words (Obj.repr pool) in
  for _ = 2 to 15 do
    batch ()
  done;
  let after_300 = Obj.reachable_words (Obj.repr pool) in
  check "every job committed" 300 !committed;
  (* one leaked payload alone is 8 K words *)
  check_bool
    (Printf.sprintf "handle size %d words after 20 jobs, %d after 300" after_20
       after_300)
    true
    (after_300 - after_20 < 1024)

let () =
  Alcotest.run "dmc_runtime"
    [
      ( "ipc",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipc_roundtrip;
          Alcotest.test_case "pipe" `Quick test_ipc_pipe;
          Alcotest.test_case "error taxonomy" `Quick test_ipc_errors;
          Alcotest.test_case "half-written frame" `Quick test_ipc_half_frame;
          Alcotest.test_case "read deadline" `Quick test_ipc_read_deadline;
        ] );
      ( "fault",
        [
          Alcotest.test_case "parse" `Quick test_fault_parse;
          Alcotest.test_case "applies" `Quick test_fault_applies;
          Alcotest.test_case "server kinds" `Quick test_fault_server_kinds;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "unordered commit" `Quick test_streaming_unordered;
          Alcotest.test_case "abandon cancels uncommitted" `Quick
            test_streaming_abandon;
        ] );
      ( "backoff",
        [ Alcotest.test_case "deterministic capped jitter" `Quick test_backoff ] );
      ( "verdicts",
        [
          Alcotest.test_case "done" `Quick test_verdict_ok;
          Alcotest.test_case "hang -> timed-out" `Quick test_verdict_timed_out;
          Alcotest.test_case "abort -> crashed" `Quick test_verdict_crashed;
          Alcotest.test_case "garbage -> protocol error" `Quick
            test_verdict_protocol_error;
          Alcotest.test_case "engine failure is final" `Quick
            test_verdict_engine_failure;
          Alcotest.test_case "worker exception -> internal" `Quick
            test_verdict_worker_exception;
          Alcotest.test_case "failure mapping" `Quick test_verdict_failure_mapping;
        ] );
      ( "retry",
        [
          Alcotest.test_case "recovers after transient fault" `Quick
            test_retry_recovers;
          Alcotest.test_case "exhausts and reports" `Quick test_retry_exhausts;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "commit order jobs=4 vs jobs=1" `Quick
            test_order_determinism;
          Alcotest.test_case "crash isolation" `Quick test_isolation;
          Alcotest.test_case "hard-stop accounting" `Quick test_stop_accounting;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "one process per slot" `Quick test_workers_reused;
          Alcotest.test_case "faults mid-run" `Quick test_faults_mid_run;
          Alcotest.test_case "registry reset per attempt" `Quick
            test_registry_reset_per_attempt;
          Alcotest.test_case "late submit gets a fresh worker" `Quick
            test_late_submit_fresh_worker;
          Alcotest.test_case "worker killed while idle" `Quick
            test_worker_killed_while_idle;
          Alcotest.test_case "killed coordinator leaves no workers" `Quick
            test_killed_coordinator_leaves_no_workers;
          Alcotest.test_case "unordered handle does not grow" `Quick
            test_unordered_handle_does_not_grow;
        ] );
      ( "progress",
        [
          Alcotest.test_case "render fragments" `Quick test_progress_render;
          Alcotest.test_case "own RSS readable" `Quick test_progress_rss;
          Alcotest.test_case "heartbeats deliver snapshots" `Quick
            test_pool_heartbeats;
          Alcotest.test_case "garbage still a protocol error" `Quick
            test_pool_heartbeats_with_fault;
          Alcotest.test_case "channel does not change results" `Quick
            test_pool_heartbeat_determinism;
        ] );
    ]
