(* Tests for the distributed-sweep stack: the Sweep grid algebra, the
   Host lease/health state machine, the Transport call envelope, and
   the multi-host Pool end-to-end (fake shell workers for failure
   shapes, the real [dmc worker] binary for value determinism). *)

module Json = Dmc_util.Json
module Ipc = Dmc_util.Ipc
module Sweep = Dmc_analysis.Sweep
module Host = Dmc_runtime.Host
module Transport = Dmc_runtime.Transport
module Pool = Dmc_runtime.Pool

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let fail_result = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let must_error what = function
  | Ok _ -> Alcotest.failf "%s unexpectedly succeeded" what
  | Error (_ : string) -> ()

(* ------------------------------------------------------------------ *)
(* parse_int_list                                                      *)

let test_parse_int_list () =
  Alcotest.(check (list int))
    "singletons and ranges" [ 8; 12; 16; 17; 18; 19 ]
    (fail_result (Sweep.parse_int_list "8,12,16..19"));
  Alcotest.(check (list int))
    "single value" [ 5 ]
    (fail_result (Sweep.parse_int_list "5"));
  Alcotest.(check (list int))
    "degenerate range" [ 3 ]
    (fail_result (Sweep.parse_int_list "3..3"));
  List.iter
    (fun s -> must_error ("parse_int_list " ^ s) (Sweep.parse_int_list s))
    [ ""; "a"; "1,,2"; "5..3"; "..4"; "4.."; "1.5" ]

(* ------------------------------------------------------------------ *)
(* Grid expansion and validation                                       *)

let test_grid_expansion_order () =
  let grid =
    fail_result
      (Sweep.make
         ~specs:[ "jacobi1d:{n},3" ]
         ~sizes:[ 6; 8 ] ~ss:[ 4; 8 ]
         ~engines:[ "floor"; "lru" ]
         ())
  in
  let rows = Sweep.rows grid in
  check "row count" 8 (List.length rows);
  let expect =
    [
      ("jacobi1d:6,3", 4, "floor");
      ("jacobi1d:6,3", 4, "lru");
      ("jacobi1d:6,3", 8, "floor");
      ("jacobi1d:6,3", 8, "lru");
      ("jacobi1d:8,3", 4, "floor");
      ("jacobi1d:8,3", 4, "lru");
      ("jacobi1d:8,3", 8, "floor");
      ("jacobi1d:8,3", 8, "lru");
    ]
  in
  List.iteri
    (fun i (wl, s, e) ->
      let r = List.nth rows i in
      check_str (Printf.sprintf "row %d workload" i) wl r.Sweep.workload;
      check (Printf.sprintf "row %d s" i) s r.Sweep.s;
      check_str (Printf.sprintf "row %d engine" i) e r.Sweep.engine)
    expect

let test_grid_seed_axis () =
  let grid =
    fail_result
      (Sweep.make
         ~specs:[ "layered:{seed},3,4" ]
         ~seeds:[ 1; 2; 3 ] ~ss:[ 4 ] ~engines:[ "floor" ] ())
  in
  let rows = Sweep.rows grid in
  check "one row per seed" 3 (List.length rows);
  check_str "seed substituted" "layered:1,3,4"
    (List.hd rows).Sweep.workload;
  (* graphs build (and memoize) per concrete spec *)
  List.iter (fun r -> ignore (fail_result (Sweep.job grid r))) rows

let test_grid_rows_share_graph_text () =
  (* rows of one workload carry one serialization, physically shared,
     and each still gets its own engine/s/p *)
  let grid =
    fail_result
      (Sweep.make ~specs:[ "fft:3" ] ~ss:[ 4; 8 ] ~ps:[ 1; 2 ]
         ~engines:[ "floor"; "mp-comm-lb" ] ())
  in
  let jobs =
    List.map (fun r -> (r, fail_result (Sweep.job grid r))) (Sweep.rows grid)
  in
  let text =
    Dmc_cdag.Serialize.to_string (Dmc_gen.Workload.parse_exn "fft:3")
  in
  let (_, first), (_, last) = (List.hd jobs, List.hd (List.rev jobs)) in
  check_str "text is the graph's serialization" text
    first.Dmc_core.Engine_job.graph;
  check_bool "two rows share one text" true
    (first.Dmc_core.Engine_job.graph == last.Dmc_core.Engine_job.graph);
  List.iter
    (fun ((r : Sweep.row), (j : Dmc_core.Engine_job.t)) ->
      check_bool "shared" true (j.graph == first.graph);
      check_str "engine" r.engine j.engine;
      check "s" r.s j.s;
      check "p" r.p j.p)
    jobs

let test_grid_validation () =
  let make ?sizes ?seeds ?(ss = [ 4 ]) ?engines specs =
    Sweep.make ~specs ?sizes ?seeds ~ss ?engines ()
  in
  must_error "empty specs" (make []);
  must_error "empty ss" (Sweep.make ~specs:[ "fft:3" ] ~ss:[] ());
  must_error "non-positive s" (make ~ss:[ 0 ] [ "fft:3" ]);
  must_error "unknown engine" (make ~engines:[ "rb" ] [ "fft:3" ]);
  must_error "placeholder without axis" (make [ "jacobi1d:{n},3" ]);
  must_error "axis without placeholder" (make ~sizes:[ 6 ] [ "fft:3" ]);
  must_error "seeds without {seed}" (make ~seeds:[ 1 ] [ "fft:3" ]);
  must_error "unknown workload" (make [ "nosuch:3" ]);
  must_error "wrong arity" (make [ "fft:3,4,5" ]);
  must_error "non-integer param" (make [ "fft:x" ]);
  must_error "padded param" (make [ "fft: 3" ]);
  (* a p axis over engines that do not read p: the pc-io rows are the
     same at every p *)
  (match
     Sweep.make ~specs:[ "tree:16" ] ~ss:[ 4 ] ~ps:[ 1; 2; 4 ]
       ~engines:[ "pc-io-lb"; "pc-io-ub" ] ()
   with
  | Ok _ -> Alcotest.fail "p axis over pc-io engines accepted"
  | Error e ->
      check_str "names the p-sensitive engines"
        "sweep: p values given but no selected engine is p-sensitive (pick \
         from: mp-comm-lb, mp-comm-ub, mp-time-lb, mp-time-ub)"
        e);
  (match make [ "nosuch:3" ] with
  | Ok _ -> Alcotest.fail "unknown workload accepted"
  | Error e ->
      let has sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length e && (String.sub e i n = sub || go (i + 1))
        in
        go 0
      in
      check_bool "lists a known generator" true (has "jacobi1d");
      check_bool "no --list hint" false (has "--list"));
  (* a valid grid with every engine defaulted *)
  let grid = fail_result (make [ "fft:3" ]) in
  check "engines default to all governed"
    (List.length Dmc_core.Bounds.governed_engines)
    (List.length (Sweep.rows grid))

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore                                                *)

let test_checkpoint_roundtrip () =
  let grid =
    fail_result
      (Sweep.make ~specs:[ "fft:3" ] ~ss:[ 4; 8 ] ~engines:[ "floor" ] ())
  in
  let committed = [ Json.Int 1; Json.Int 2 ] in
  (match Sweep.restore grid (Sweep.checkpoint grid ~committed) with
  | Ok payloads -> check_bool "prefix survives" true (payloads = committed)
  | Error e -> Alcotest.fail e);
  must_error "foreign kind"
    (Sweep.restore grid (Json.Obj [ ("kind", Json.String "other") ]));
  let other =
    fail_result
      (Sweep.make ~specs:[ "fft:3" ] ~ss:[ 4 ] ~engines:[ "floor" ] ())
  in
  must_error "signature mismatch"
    (Sweep.restore other (Sweep.checkpoint grid ~committed));
  must_error "more payloads than rows"
    (Sweep.restore grid
       (Sweep.checkpoint grid
          ~committed:[ Json.Int 1; Json.Int 2; Json.Int 3 ]))

let test_doc_uncommitted_rows () =
  let grid =
    fail_result
      (Sweep.make ~specs:[ "fft:3" ] ~ss:[ 4 ] ~engines:[ "floor"; "lru" ] ())
  in
  let done_row r =
    match Sweep.job grid r with
    | Error e -> Alcotest.fail e
    | Ok j -> (
        match Dmc_core.Engine_job.run j with
        | Ok payload -> payload
        | Error f -> Alcotest.fail (Dmc_util.Budget.failure_to_string f))
  in
  let rows = Sweep.rows grid in
  let all = List.map (fun r -> Some (done_row r)) rows in
  check_bool "complete sweep is ok" true
    (Dmc_analysis.Doc.ok (Sweep.doc grid ~results:all));
  let partial = [ List.hd all; None ] in
  let doc = Sweep.doc grid ~results:partial in
  check_bool "uncommitted row fails the report" false (Dmc_analysis.Doc.ok doc);
  let text = Dmc_analysis.Doc.to_text doc in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "uncommitted row is visible" true (contains text "not committed")

(* ------------------------------------------------------------------ *)
(* Transport envelope                                                  *)

let test_envelope_roundtrip () =
  let job = Json.Obj [ ("kind", Json.String "j"); ("n", Json.Int 3) ] in
  (match
     Transport.parse_envelope (Transport.envelope ~hb:true ~fault:None job)
   with
  | Ok { Transport.job = j; hb; obs; trace; fault } ->
      check_bool "job survives" true (j = job);
      check_bool "hb survives" true hb;
      check_bool "obs defaults off" false obs;
      check_bool "no trace by default" true (trace = None);
      check_bool "no fault" true (fault = None)
  | Error e -> Alcotest.fail e);
  (let tr = { Transport.run = "r1"; host = "h"; lease = "0:1" } in
   match
     Transport.parse_envelope
       (Transport.envelope ~hb:false ~obs:true ~trace:tr ~fault:None job)
   with
   | Ok { Transport.obs; trace; _ } ->
       check_bool "obs survives" true obs;
       check_bool "trace survives" true (trace = Some tr)
   | Error e -> Alcotest.fail e);
  must_error "non-envelope refused"
    (Transport.parse_envelope (Json.Obj [ ("kind", Json.String "x") ]));
  must_error "wrong version refused"
    (Transport.parse_envelope
       (Json.Obj
          [
            ("kind", Json.String "dmc-worker-call");
            ("v", Json.Int (Transport.call_version + 1));
            ("job", Json.Null);
          ]))

(* ------------------------------------------------------------------ *)
(* Host state machine                                                  *)

let fast_policy =
  {
    Host.default_policy with
    quarantine_base = 0.05;
    quarantine_cap = 0.2;
  }

let mk_remote ?(policy = fast_policy) ?(capacity = 1) name =
  Host.remote ~policy ~name ~capacity ~argv:[ "/bin/false" ] ()

let test_host_quarantine_backoff () =
  let h = mk_remote "q" in
  let now = 1000. in
  let fail_until_quarantined now =
    let rec go n now =
      if n > 10 then Alcotest.fail "never quarantined"
      else
        match Host.record h ~now (Host.Transport_failure "x") with
        | `Quarantined -> ()
        | `Fine -> go (n + 1) now
    in
    go 0 now
  in
  fail_until_quarantined now;
  check_bool "dead after threshold" true (h.Host.verdict = Host.Dead);
  let q1 = h.Host.until -. now in
  check_bool "first quarantine = base" true (abs_float (q1 -. 0.05) < 1e-9);
  check_bool "quarantined now" true (Host.quarantined h ~now);
  check_bool "not available while quarantined" false (Host.available h ~now);
  (* next_wakeup points at the expiry for the supervisor's select *)
  (match Host.next_wakeup h with
  | Some t -> check_bool "wakeup is the expiry" true (t = h.Host.until)
  | None -> Alcotest.fail "no wakeup for a finite quarantine");
  (* repeated quarantines double, capped *)
  let rec requarantine n last =
    if n = 0 then last
    else begin
      let now = h.Host.until +. 0.001 in
      check_bool "available for a probe after expiry" true
        (Host.available h ~now);
      Host.lease h ~now;
      check_bool "probing" true h.Host.probing;
      Host.release h;
      fail_until_quarantined now;
      requarantine (n - 1) now
    end
  in
  let last_now = requarantine 5 now in
  let qn = h.Host.until -. last_now in
  check_bool "backoff grew past the base" true (qn > 0.05 +. 1e-9);
  check_bool "backoff capped" true (qn <= 0.2 +. 1e-9)

let test_host_probe_redeems () =
  let h = mk_remote "p" in
  let now = 0. in
  for _ = 1 to h.Host.policy.Host.fail_threshold do
    ignore (Host.record h ~now (Host.Transport_failure "x"))
  done;
  check_bool "dead" true (h.Host.verdict = Host.Dead);
  let now = h.Host.until +. 0.01 in
  Host.lease h ~now;
  (match Host.record h ~now Host.Ok_result with
  | `Fine -> ()
  | `Quarantined -> Alcotest.fail "probe success must not quarantine");
  Host.release h;
  check_bool "redeemed to alive" true (h.Host.verdict = Host.Alive);
  check "failures reset" 0 h.Host.consec_failures

let test_host_poison_permanent () =
  let h = mk_remote "g" in
  let now = 0. in
  let rec go n =
    if n > 10 then Alcotest.fail "never poisoned"
    else
      match Host.record h ~now (Host.Garbage "junk") with
      | `Quarantined -> ()
      | `Fine -> go (n + 1)
  in
  go 0;
  check_bool "poisoned" true (h.Host.verdict = Host.Poisoned);
  check_bool "never available again" false
    (Host.available h ~now:(now +. 1e9));
  check_bool "no wakeup for infinity" true (Host.next_wakeup h = None)

let test_host_local_never_quarantines () =
  let h = Host.local ~capacity:2 () in
  for _ = 1 to 20 do
    match Host.record h ~now:0. (Host.Transport_failure "x") with
    | `Quarantined -> Alcotest.fail "local host quarantined"
    | `Fine -> ()
  done;
  check_bool "local stays alive" true (h.Host.verdict = Host.Alive);
  check_bool "still available" true (Host.available h ~now:0.)

let test_host_slow_verdict () =
  let h = mk_remote "s" in
  for _ = 1 to h.Host.policy.Host.slow_threshold do
    ignore (Host.record h ~now:0. Host.Deadline_kill)
  done;
  check_bool "slow after repeated deadline kills" true
    (h.Host.verdict = Host.Slow);
  check_bool "slow hosts still serve" true (Host.available h ~now:0.);
  ignore (Host.record h ~now:0. Host.Ok_result);
  check_bool "redeemed" true (h.Host.verdict = Host.Alive)

let test_host_capacity_leases () =
  let h = Host.local ~capacity:2 () in
  Host.lease h ~now:0.;
  Host.lease h ~now:0.;
  check_bool "at capacity" false (Host.available h ~now:0.);
  Host.release h;
  check_bool "slot freed" true (Host.available h ~now:0.);
  check "dispatched counted" 2 h.Host.dispatched

let test_parse_spec () =
  (match Host.parse_spec "local" with
  | Ok h ->
      check_bool "local is not remote" false (Host.is_remote h);
      check "default capacity" 1 h.Host.capacity
  | Error e -> Alcotest.fail e);
  (match Host.parse_spec "local:4" with
  | Ok h -> check "local capacity" 4 h.Host.capacity
  | Error e -> Alcotest.fail e);
  (match Host.parse_spec "cmd:2:python3 worker.py" with
  | Ok h -> (
      check_bool "cmd is remote" true (Host.is_remote h);
      check "cmd capacity" 2 h.Host.capacity;
      match h.Host.transport with
      | Transport.Command { argv } ->
          check_bool "argv split" true
            (argv = [| "python3"; "worker.py" |])
      | Transport.Fork -> Alcotest.fail "cmd host got a fork transport")
  | Error e -> Alcotest.fail e);
  (match Host.parse_spec "ssh:host1" with
  | Ok h -> (
      match h.Host.transport with
      | Transport.Command { argv } ->
          check_bool "ssh wraps dmc worker" true
            (argv.(0) = "ssh"
            && argv.(Array.length argv - 1) = "worker"
            && Array.exists (fun a -> a = "host1") argv)
      | Transport.Fork -> Alcotest.fail "ssh host got a fork transport")
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s -> must_error ("parse_spec " ^ s) (Host.parse_spec s))
    [ ""; "cmd"; "cmd:2:"; "ssh:"; "local:0"; "local:x"; "weird:1:foo" ]

let test_normalize () =
  let remote = mk_remote "r" in
  let hosts = Host.normalize ~jobs:3 [ remote ] in
  check "local prepended" 2 (List.length hosts);
  let local = List.hd hosts in
  check_bool "first is local" false (Host.is_remote local);
  check "local capacity follows jobs" 3 local.Host.capacity;
  (* duplicate names are disambiguated, not merged *)
  let hosts =
    Host.normalize ~jobs:1 [ Host.local ~capacity:1 (); mk_remote "w"; mk_remote "w" ]
  in
  let names = List.map (fun h -> h.Host.name) hosts in
  check "no hosts dropped" 3 (List.length names);
  check_bool "names unique" true
    (List.sort_uniq compare names = List.sort compare names)

(* ------------------------------------------------------------------ *)
(* Multi-host pool end-to-end (fake shell workers)                     *)

let temp_dir () =
  let dir = Filename.temp_file "dmc-sweep-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let write_script dir name body =
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc ("#!/bin/sh\n" ^ body);
  close_out oc;
  Unix.chmod path 0o755;
  path

(* A fake worker that answers every call with the same ok frame. *)
let ok_worker dir payload =
  let frame_file = Filename.concat dir "frame.bin" in
  let oc = open_out_bin frame_file in
  output_string oc (Ipc.encode_frame (Json.Obj [ ("ok", payload) ]));
  close_out oc;
  write_script dir "ok_worker.sh"
    (Printf.sprintf "cat >/dev/null\ncat %s\n" (Filename.quote frame_file))

let garbage_worker dir =
  write_script dir "garbage_worker.sh"
    "cat >/dev/null\necho this-is-not-a-frame\n"

let fast_cfg =
  {
    Pool.default with
    jobs = 2;
    max_retries = 1;
    backoff_base = 0.01;
    backoff_cap = 0.02;
  }

let run_pool ?hosts jobs =
  Pool.run ?hosts ~encode:(fun j -> j) fast_cfg
    ~worker:(fun i _ -> Ok (Json.Int i))
    jobs

let jobs n = List.init n (fun i -> Json.Obj [ ("job", Json.Int i) ])

let test_pool_remote_ok_worker () =
  let dir = temp_dir () in
  let script = ok_worker dir (Json.Int 42) in
  let host =
    Host.remote ~policy:fast_policy ~name:"fake" ~capacity:2
      ~argv:[ "/bin/sh"; script ] ()
  in
  let outcomes = run_pool ~hosts:[ host ] (jobs 4) in
  Array.iteri
    (fun i o ->
      match o.Pool.verdict with
      | Pool.Done v ->
          check_bool (Printf.sprintf "job %d answered by the fake" i) true
            (v = Json.Int 42)
      | v ->
          Alcotest.failf "job %d: %s" i (Pool.verdict_to_string v))
    outcomes;
  check "all attempts went remote" 4 host.Host.completed

let test_pool_failover_to_local () =
  let dead =
    Host.remote ~policy:fast_policy ~name:"dead" ~capacity:2
      ~argv:[ "/nonexistent/dmc-test-binary" ] ()
  in
  let local = Host.local ~capacity:2 () in
  let outcomes = run_pool ~hosts:[ dead; local ] (jobs 6) in
  Array.iteri
    (fun i o ->
      match o.Pool.verdict with
      | Pool.Done v ->
          check_bool (Printf.sprintf "job %d fell back to local" i) true
            (v = Json.Int i)
      | v -> Alcotest.failf "job %d: %s" i (Pool.verdict_to_string v))
    outcomes;
  check_bool "dead host ended dead" true (dead.Host.verdict = Host.Dead);
  check_bool "dead host completed nothing" true (dead.Host.completed = 0);
  check_bool "leases were re-sharded" true (dead.Host.resharded > 0)

let test_pool_garbage_host_poisoned () =
  let dir = temp_dir () in
  let script = garbage_worker dir in
  let bad =
    Host.remote ~policy:fast_policy ~name:"liar" ~capacity:1
      ~argv:[ "/bin/sh"; script ] ()
  in
  let local = Host.local ~capacity:2 () in
  let outcomes = run_pool ~hosts:[ bad; local ] (jobs 5) in
  Array.iteri
    (fun i o ->
      match o.Pool.verdict with
      | Pool.Done v ->
          check_bool (Printf.sprintf "job %d committed locally" i) true
            (v = Json.Int i)
      | v -> Alcotest.failf "job %d: %s" i (Pool.verdict_to_string v))
    outcomes;
  check_bool "garbage host poisoned" true (bad.Host.verdict = Host.Poisoned)

let test_pool_all_hosts_poisoned () =
  let dir = temp_dir () in
  let script = garbage_worker dir in
  let bad =
    Host.remote ~policy:fast_policy ~name:"only-liar" ~capacity:1
      ~argv:[ "/bin/sh"; script ] ()
  in
  let outcomes = run_pool ~hosts:[ bad ] (jobs 3) in
  check_bool "host poisoned" true (bad.Host.verdict = Host.Poisoned);
  Array.iteri
    (fun i o ->
      match o.Pool.verdict with
      | Pool.Done _ -> Alcotest.failf "job %d committed from garbage" i
      | _ -> ())
    outcomes;
  check_bool "at least one job typed as unservable" true
    (Array.exists
       (fun o ->
         match o.Pool.verdict with
         | Pool.Engine_failure (Dmc_util.Budget.Internal _) -> true
         | _ -> false)
       outcomes)

let test_pool_postmortem_dump () =
  (* A garbage host poisons itself; with the flight recorder armed,
     every protocol-broken attempt must leave a postmortem file, and
     the quarantine must land in the span buffer as an instant event
     on the host's lane. *)
  let dir = temp_dir () in
  let script = garbage_worker dir in
  let pm_dir = Filename.concat dir "pm" in
  let bad =
    Host.remote ~policy:fast_policy ~name:"liar-pm" ~capacity:1
      ~argv:[ "/bin/sh"; script ] ()
  in
  let local = Host.local ~capacity:2 () in
  Dmc_obs.Registry.reset ();
  Dmc_obs.Registry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Dmc_obs.Registry.set_enabled false)
    (fun () ->
      let (_ : Pool.outcome array) =
        Pool.run ~hosts:[ bad; local ]
          ~encode:(fun j -> j)
          { fast_cfg with postmortem_dir = Some pm_dir }
          ~worker:(fun i _ -> Ok (Json.Int i))
          (jobs 4)
      in
      let dumps =
        Sys.readdir pm_dir |> Array.to_list
        |> List.filter (fun f ->
               String.length f >= 11 && String.sub f 0 11 = "postmortem-")
      in
      check_bool "at least one postmortem dump" true (dumps <> []);
      (match
         Dmc_util.Checkpoint.load (Filename.concat pm_dir (List.hd dumps))
       with
      | Error m -> Alcotest.failf "postmortem unreadable: %s" m
      | Ok doc ->
          (match Json.mem doc "kind" with
          | Some (Json.String "dmc-postmortem") -> ()
          | _ -> Alcotest.fail "postmortem kind tag");
          (match Json.mem doc "flight" with
          | Some (Json.List (_ :: _)) -> ()
          | _ -> Alcotest.fail "postmortem flight ring empty"));
      let quarantine_instant = ref false in
      Dmc_obs.Registry.iter_events (fun e ->
          if
            e.Dmc_obs.Registry.ev_name = "host.quarantine"
            && List.assoc_opt "ph" e.Dmc_obs.Registry.ev_attrs = Some "i"
            && e.Dmc_obs.Registry.ev_src = Dmc_obs.Registry.source "liar-pm"
          then quarantine_instant := true);
      check_bool "quarantine instant on the host's lane" true
        !quarantine_instant;
      check_bool "quarantine interval logged on the host" true
        (bad.Host.quarantine_log <> []))

(* ------------------------------------------------------------------ *)
(* Determinism through the real worker binary                          *)

(* resolved against the test binary, not the cwd, so the suite runs
   both under [dune runtest] and by hand from the repo root *)
let dmc_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    "dmc.exe"

let test_remote_report_matches_local () =
  if not (Sys.file_exists dmc_exe) then
    Alcotest.fail ("worker binary missing: " ^ dmc_exe);
  let grid =
    fail_result
      (Sweep.make
         ~specs:[ "jacobi1d:{n},3" ]
         ~sizes:[ 6; 8 ] ~ss:[ 4; 8 ]
         ~engines:[ "floor"; "lru" ]
         ())
  in
  let rows = Sweep.rows grid in
  let pool_jobs = List.map (fun r -> fail_result (Sweep.job grid r)) rows in
  let run_with hosts =
    let results = Array.make (List.length rows) None in
    let (_ : Pool.outcome array) =
      Pool.run ~hosts
        ~encode:Dmc_core.Engine_job.to_json
        { fast_cfg with max_retries = 2 }
        ~worker:(fun _ j -> Dmc_core.Engine_job.run j)
        ~on_result:(fun i o ->
          match o.Pool.verdict with
          | Pool.Done payload -> results.(i) <- Some payload
          | v -> Alcotest.failf "row %d: %s" i (Pool.verdict_to_string v))
        pool_jobs
    in
    Dmc_analysis.Doc.to_text (Sweep.doc grid ~results:(Array.to_list results))
  in
  let local_report = run_with [ Host.local ~capacity:1 () ] in
  let remote_report =
    run_with
      [
        Host.remote ~policy:fast_policy ~name:"w1" ~capacity:2
          ~argv:[ dmc_exe; "worker" ] ();
        Host.remote ~policy:fast_policy ~name:"w2" ~capacity:2
          ~argv:[ dmc_exe; "worker" ] ();
      ]
  in
  check_str "remote fleet report is byte-identical to local" local_report
    remote_report

let test_remote_obs_counters_match_local () =
  (* The obs snapshot crosses the command transport inside the result
     frame; merged engine counters must come out byte-identical to a
     local-fork run.  Scheduling counters ([pool.] prefix) and
     per-host attribution ([sweep.host.] prefix) are run-shape, not
     work, so they are stripped before the comparison. *)
  if not (Sys.file_exists dmc_exe) then
    Alcotest.fail ("worker binary missing: " ^ dmc_exe);
  (* Under a node budget the ladder-reading rows carry their workload's
     wavefront record: to fork workers in memory, to command hosts as
     JSON.  The jobs, and so the records, are built before the registry
     is reset: only the workers' counters are compared. *)
  let grid =
    fail_result
      (Sweep.make
         ~specs:[ "jacobi1d:{n},3" ]
         ~sizes:[ 6; 8 ] ~ss:[ 4 ] ~ps:[ 1; 2 ]
         ~engines:[ "floor"; "lru"; "wavefront"; "partition-h"; "mp-comm-lb" ]
         ~node_budget:300 ())
  in
  let rows = Sweep.rows grid in
  check_bool "ladder-reading jobs carry a record" true
    (List.exists
       (fun r -> (fail_result (Sweep.job grid r)).Dmc_core.Engine_job.record <> None)
       rows);
  let counters_with hosts =
    let pool_jobs = List.map (fun r -> fail_result (Sweep.job grid r)) rows in
    Dmc_obs.Registry.reset ();
    Dmc_obs.Registry.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Dmc_obs.Registry.set_enabled false)
      (fun () ->
        let (_ : Pool.outcome array) =
          Pool.run ~hosts
            ~encode:Dmc_core.Engine_job.to_json
            { fast_cfg with max_retries = 2 }
            ~worker:(fun _ j -> Dmc_core.Engine_job.run j)
            pool_jobs
        in
        let work_sum =
          Dmc_obs.Registry.fold_counters
            (fun acc c ->
              let name = c.Dmc_obs.Registry.c_name in
              let prefixed p =
                String.length name >= String.length p
                && String.sub name 0 (String.length p) = p
              in
              if prefixed "pool." || prefixed "sweep.host." then acc
              else acc + c.Dmc_obs.Registry.c_value)
            0
        in
        (Dmc_obs.Export.counters_table (), work_sum))
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let strip_run_shape table =
    String.split_on_char '\n' table
    |> List.filter (fun line ->
           not (contains line "pool." || contains line "sweep.host."))
    |> String.concat "\n"
  in
  let local_table, local_work =
    counters_with [ Host.local ~capacity:2 () ]
  in
  let remote_table, remote_work =
    counters_with
      [
        Host.remote ~policy:fast_policy ~name:"w1" ~capacity:2
          ~argv:[ dmc_exe; "worker" ] ();
      ]
  in
  check_bool "workers actually counted engine work" true
    (local_work > 0 && remote_work > 0);
  check_str "merged work counters are byte-identical across transports"
    (strip_run_shape local_table)
    (strip_run_shape remote_table)

(* A record is trusted coordinator data, but its shape is checked: one
   taken from another graph is refused before any engine runs, and one
   that fits gives the unseeded row.  A grid computes one only under a
   node budget and with an engine whose first rung reads the ladder;
   then only the rows that read the ladder carry it. *)
let test_engine_job_record () =
  let carried ?node_budget engines =
    let grid =
      fail_result (Sweep.make ~specs:[ "chain:8" ] ~ss:[ 4 ] ~engines ?node_budget ())
    in
    List.filter_map
      (fun r ->
        if (fail_result (Sweep.job grid r)).Dmc_core.Engine_job.record <> None then
          Some r.Sweep.engine
        else None)
      (Sweep.rows grid)
  in
  Alcotest.(check (list string)) "fallback engines alone: no record" []
    (carried ~node_budget:400 [ "partition-h"; "optimal" ]);
  Alcotest.(check (list string)) "no node budget: no record" []
    (carried [ "wavefront"; "partition-h" ]);
  Alcotest.(check (list string)) "with a first-rung reader: the ladder's rows"
    [ "partition-h"; "wavefront" ]
    (carried ~node_budget:400 [ "partition-h"; "wavefront"; "lru" ]);
  let g = Dmc_gen.Workload.parse_exn "daggen:3,30,50,40,2" in
  let record = Dmc_core.Bounds.wavefront_record ~node_budget:400 g in
  let row job =
    match Dmc_core.Engine_job.run job with
    | Ok payload -> (
        match Dmc_core.Bounds.row_of_json payload with
        | Some r -> (r.value, r.rung, r.attempts)
        | None -> Alcotest.fail "unparseable row")
    | Error f -> Alcotest.failf "row failed: %s" (Dmc_util.Budget.failure_to_string f)
  in
  List.iter
    (fun engine ->
      let job = Dmc_core.Engine_job.make ~node_budget:400 g ~s:4 ~engine in
      check_bool (engine ^ ": seeded row = derived row") true
        (row { job with record = Some record } = row job);
      match Dmc_core.Engine_job.(of_json (to_json { job with record = Some record })) with
      | Ok j -> check_bool (engine ^ ": record survives JSON") true (j.record = Some record)
      | Error e -> Alcotest.fail e)
    [ "wavefront"; "partition-h"; "mp-comm-lb" ];
  let foreign = Dmc_core.Bounds.wavefront_record (Dmc_gen.Shapes.chain 7) in
  List.iter
    (fun job ->
      match Dmc_core.Engine_job.run job with
      | Error (Dmc_util.Budget.Invalid_input _) -> ()
      | Error f -> Alcotest.failf "wrong failure: %s" (Dmc_util.Budget.failure_to_string f)
      | Ok _ -> Alcotest.fail "a record of the wrong lengths was accepted")
    [
      Dmc_core.Engine_job.make ~record:foreign ~node_budget:400 g ~s:4 ~engine:"wavefront";
      (* through the worker's JSON too *)
      fail_result
        (Dmc_core.Engine_job.of_json
           (Dmc_core.Engine_job.to_json
              (Dmc_core.Engine_job.make ~record:foreign g ~s:4 ~engine:"floor")));
    ]

(* ------------------------------------------------------------------ *)
(* S or P below 1: the grid, the job and every [dmc bounds] mode reject it *)

let test_engine_job_rejects_s0 () =
  let g = Dmc_gen.Shapes.chain 5 in
  List.iter
    (fun engine ->
      match Dmc_core.Engine_job.run (Dmc_core.Engine_job.make g ~s:0 ~engine) with
      | Error (Dmc_util.Budget.Invalid_input _) -> ()
      | Error f -> Alcotest.failf "%s: %s" engine (Dmc_util.Budget.failure_to_string f)
      | Ok _ -> Alcotest.failf "%s accepted S = 0" engine)
    [ "floor"; "optimal"; "mp-comm-lb" ]

(* [dmc ARGV]: its exit code and output, stderr merged unless
   [~stderr:false] drops it. *)
let run_dmc ?(stderr = true) argv =
  if not (Sys.file_exists dmc_exe) then
    Alcotest.fail ("dmc binary missing: " ^ dmc_exe);
  let cmd =
    String.concat " " (List.map Filename.quote (dmc_exe :: argv))
    ^ if stderr then " 2>&1" else " 2>/dev/null"
  in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED n -> (n, out)
  | _ -> Alcotest.failf "%s killed" cmd

let test_bounds_cli_rejects_s0 () =
  List.iter
    (fun mode ->
      let code, out = run_dmc (("bounds" :: mode) @ [ "-s"; "0" ]) in
      let what = String.concat " " mode in
      if code <> 1 then Alcotest.failf "%s exited %d:\n%s" what code out;
      check_str what "dmc: bounds: S must be >= 1\n" out)
    [
      [ "-g"; "chain:5" ];
      [ "-g"; "chain:5"; "--governed" ];
      [ "-g"; "chain:5"; "--budget"; "1000" ];
      [ "-g"; "chain:5"; "--budget"; "1000"; "--jobs"; "2" ];
      [ "-g"; "chain:5"; "-p"; "2" ];
      [ "--stream"; "-g"; "jacobi1d:100,2" ];
      [ "--symbolic"; "-g"; "jacobi1d:100,2" ];
    ]

let test_bounds_cli_rejects_p0 () =
  List.iter
    (fun extra ->
      let argv = [ "bounds"; "-g"; "chain:5"; "-s"; "2"; "-p"; "0" ] @ extra in
      let what = String.concat " " argv in
      let code, out = run_dmc argv in
      check what 1 code;
      check_str what "dmc: bounds: P must be >= 1\n" out)
    [ []; [ "--jobs"; "2" ] ]

(* ------------------------------------------------------------------ *)
(* The engine table seen from the CLI                                  *)

let test_engine_list_golden () =
  let code, out = run_dmc [ "bounds"; "--list-engines" ] in
  check "exit" 0 code;
  check_str "--list-engines"
    (In_channel.with_open_bin (Filename.concat "golden" "engines.txt")
       In_channel.input_all)
    out

(* The run-control flags reach the -p rows: a crashed worker's mp-comm-lb
   row degrades to its floor, as the first sequential row does. *)
let test_mp_rows_degrade () =
  let code, out =
    run_dmc
      [ "bounds"; "-g"; "fft:5"; "-s"; "6"; "-p"; "4"; "--jobs"; "2";
        "--fault"; "abort:1"; "--retries"; "0" ]
  in
  check "exit" 0 code;
  match
    List.find_opt
      (String.starts_with ~prefix:"  mp-comm-lb")
      (String.split_on_char '\n' out)
  with
  | None -> Alcotest.failf "no mp-comm-lb row in:\n%s" out
  | Some line ->
      check_str "mp-comm-lb row"
        "  mp-comm-lb   lb     64       rung=floor    internal(fallback=floor)"
        line

(* Run-control flags never change what is computed.  Flagless bounds
   is the raising report, run in-process whatever --progress or --jobs
   say. *)
let test_flagless_bounds_ignore_run_control () =
  let stdout argv =
    let code, out = run_dmc ~stderr:false argv in
    check (String.concat " " argv ^ " exit") 0 code;
    out
  in
  let base = [ "bounds"; "-g"; "tree:8"; "-s"; "4" ] in
  let want = stdout base in
  List.iter
    (fun extra -> check_str (String.concat " " extra) want (stdout (base @ extra)))
    [ [ "--progress" ]; [ "--jobs"; "2" ] ]

(* --stream takes its per-window deadline from --job-timeout, not from
   the cooperative --timeout, so a tiny --timeout kills no window at
   any width. *)
let test_stream_ignores_timeout () =
  let json jobs =
    let code, out =
      run_dmc ~stderr:false
        [ "bounds"; "--stream"; "-g"; "jacobi2d:48,6"; "-s"; "16";
          "--window"; "13824"; "--timeout"; "0.0001"; "--json";
          "--jobs"; jobs ]
    in
    check ("--jobs " ^ jobs ^ " exit") 0 code;
    out
  in
  let one = json "1" in
  check_str "--jobs 2 = --jobs 1" one (json "2");
  check_bool "no degraded window" true
    (List.mem "  \"degraded\": 0" (String.split_on_char '\n' one))

let () =
  Alcotest.run "dmc_sweep"
    [
      ( "grid",
        [
          Alcotest.test_case "parse_int_list" `Quick test_parse_int_list;
          Alcotest.test_case "expansion order" `Quick test_grid_expansion_order;
          Alcotest.test_case "seed axis" `Quick test_grid_seed_axis;
          Alcotest.test_case "validation" `Quick test_grid_validation;
          Alcotest.test_case "rows share one graph text" `Quick
            test_grid_rows_share_graph_text;
          Alcotest.test_case "checkpoint roundtrip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "uncommitted rows fail the report" `Quick
            test_doc_uncommitted_rows;
        ] );
      ( "transport",
        [ Alcotest.test_case "envelope roundtrip" `Quick test_envelope_roundtrip ] );
      ( "host",
        [
          Alcotest.test_case "quarantine backoff" `Quick
            test_host_quarantine_backoff;
          Alcotest.test_case "half-open probe redeems" `Quick
            test_host_probe_redeems;
          Alcotest.test_case "poison is permanent" `Quick
            test_host_poison_permanent;
          Alcotest.test_case "local never quarantines" `Quick
            test_host_local_never_quarantines;
          Alcotest.test_case "slow verdict" `Quick test_host_slow_verdict;
          Alcotest.test_case "capacity and leases" `Quick
            test_host_capacity_leases;
          Alcotest.test_case "parse_spec" `Quick test_parse_spec;
          Alcotest.test_case "normalize" `Quick test_normalize;
        ] );
      ( "pool",
        [
          Alcotest.test_case "remote ok worker" `Quick
            test_pool_remote_ok_worker;
          Alcotest.test_case "failover to local" `Quick
            test_pool_failover_to_local;
          Alcotest.test_case "garbage host poisoned" `Quick
            test_pool_garbage_host_poisoned;
          Alcotest.test_case "postmortem dump and quarantine instant" `Quick
            test_pool_postmortem_dump;
          Alcotest.test_case "all hosts poisoned" `Quick
            test_pool_all_hosts_poisoned;
        ] );
      ( "s-check",
        [
          Alcotest.test_case "engine job rejects S = 0" `Quick
            test_engine_job_rejects_s0;
          Alcotest.test_case "engine job record: replayed, checked" `Quick
            test_engine_job_record;
          Alcotest.test_case "every bounds mode rejects S = 0" `Quick
            test_bounds_cli_rejects_s0;
          Alcotest.test_case "bounds rejects P = 0" `Quick
            test_bounds_cli_rejects_p0;
        ] );
      ( "engines",
        [
          Alcotest.test_case "list matches golden" `Quick
            test_engine_list_golden;
          Alcotest.test_case "mp rows degrade under faults" `Quick
            test_mp_rows_degrade;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "remote obs counters match local" `Quick
            test_remote_obs_counters_match_local;
          Alcotest.test_case "remote report matches local" `Quick
            test_remote_report_matches_local;
          Alcotest.test_case "flagless bounds ignore run-control flags"
            `Quick test_flagless_bounds_ignore_run_control;
          Alcotest.test_case "--stream ignores --timeout" `Quick
            test_stream_ignores_timeout;
        ] );
    ]
