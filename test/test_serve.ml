(* Tests for the bound-query daemon: content-addressed cache keys, the
   wire protocol codecs, the persisted LRU result cache, and — against
   a forked live daemon — typed error replies for malformed requests,
   bounded admission, graceful SIGTERM drain with an in-flight worker,
   and cache survival across kill -9. *)

module Json = Dmc_util.Json
module Ipc = Dmc_util.Ipc
module Budget = Dmc_util.Budget
module Checkpoint = Dmc_util.Checkpoint
module Fault = Dmc_runtime.Fault
module Cache_key = Dmc_serve.Cache_key
module Protocol = Dmc_serve.Protocol
module Result_cache = Dmc_serve.Result_cache
module Server = Dmc_serve.Server

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let diamond = Dmc_gen.Workload.parse_exn "diamond:4,4"

let job ?(engine = "wavefront") ?(s = 4) ?timeout ?node_budget ?(samples = 64)
    graph =
  {
    Dmc_core.Engine_job.engine;
    graph;
    s;
    p = 1;
    timeout;
    node_budget;
    samples;
  }

(* ------------------------------------------------------------------ *)
(* Cache keys                                                          *)

let test_key_identity () =
  let text = Dmc_cdag.Serialize.to_string diamond in
  let k1 = Cache_key.of_job (job text) and k2 = Cache_key.of_job (job text) in
  check_string "same job, same key" k1 k2;
  (* formatting noise in the graph text must not split the entry *)
  let noisy = "\n" ^ String.concat "\n" (String.split_on_char '\n' text) in
  check_string "canonicalized graph text" k1 (Cache_key.of_job (job noisy))

let test_key_discrimination () =
  let text = Dmc_cdag.Serialize.to_string diamond in
  let base = Cache_key.of_job (job text) in
  let differs name j =
    check_bool name true (Cache_key.of_job j <> base)
  in
  differs "s" (job ~s:5 text);
  differs "engine" (job ~engine:"lru" text);
  differs "timeout" (job ~timeout:1.5 text);
  differs "node budget" (job ~node_budget:1000 text);
  differs "samples" (job ~samples:8 text);
  differs "graph" (job (Dmc_cdag.Serialize.to_string (Dmc_gen.Workload.parse_exn "chain:9")))

let spec_key ?(engine = "wavefront") ?(s = 4) ?timeout ?node_budget
    ?(samples = 64) spec =
  Cache_key.of_spec ~engine ~s ~timeout ~node_budget ~samples spec

let test_key_spec () =
  let k = spec_key "diamond:4,4" in
  check_string "stable" k (spec_key "diamond:4,4");
  check_string "whitespace trimmed" k (spec_key " diamond:4,4\n");
  (* the spec key space never collides with the inline-graph space,
     even for the graph the spec would build *)
  check_bool "disjoint from of_job" true
    (k <> Cache_key.of_job (job (Dmc_cdag.Serialize.to_string diamond)));
  List.iter
    (fun (name, k') -> check_bool name true (k' <> k))
    [
      ("spec", spec_key "diamond:4,5");
      ("engine", spec_key ~engine:"lru" "diamond:4,4");
      ("s", spec_key ~s:5 "diamond:4,4");
      ("timeout", spec_key ~timeout:1.5 "diamond:4,4");
      ("node budget", spec_key ~node_budget:1000 "diamond:4,4");
      ("samples", spec_key ~samples:8 "diamond:4,4");
    ]

(* ------------------------------------------------------------------ *)
(* Protocol codecs                                                     *)

let roundtrip_request req =
  match Protocol.request_of_json (Protocol.request_to_json req) with
  | Ok req' -> check_bool "request roundtrip" true (req = req')
  | Error msg -> Alcotest.fail msg

let roundtrip_reply reply =
  match Protocol.reply_of_json (Protocol.reply_to_json reply) with
  | Ok reply' -> check_bool "reply roundtrip" true (reply = reply')
  | Error msg -> Alcotest.fail msg

let test_protocol_roundtrips () =
  List.iter roundtrip_request
    [
      Protocol.Ping;
      Protocol.Stats;
      Protocol.Metrics;
      Protocol.Shutdown;
      Protocol.query (Protocol.Spec "diamond:4,4") ~engine:"wavefront" ~s:8;
      Protocol.query ~timeout:2.5 ~node_budget:100 ~samples:16
        (Protocol.Graph "g") ~engine:"optimal" ~s:3;
    ];
  List.iter roundtrip_reply
    [
      Protocol.Pong;
      Protocol.Bye;
      Protocol.Stats_snapshot (Json.Obj [ ("counters", Json.Obj []) ]);
      Protocol.Metrics_snapshot
        (Json.Obj [ ("uptime_s", Json.Float 1.5); ("text", Json.String "x 1") ]);
      Protocol.Result { cached = true; row = Json.Obj [ ("value", Json.Int 6) ] };
      Protocol.Failed Budget.Timeout;
      Protocol.Failed (Budget.Invalid_input "nope");
      Protocol.Rejected Protocol.Overloaded;
      Protocol.Rejected Protocol.Draining;
      Protocol.Rejected (Protocol.Protocol "bad header");
    ]

let test_protocol_bad_shapes () =
  List.iter
    (fun json ->
      match Protocol.request_of_json json with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" (Json.to_string ~indent:false json))
    [
      Json.Obj [];
      Json.Obj [ ("req", Json.Int 3) ];
      Json.Obj [ ("req", Json.String "explode") ];
      Json.Obj [ ("req", Json.String "query") ];
      Json.Obj
        [
          ("req", Json.String "query");
          ("spec", Json.String "a");
          ("graph", Json.String "b");
          ("engine", Json.String "lru");
          ("s", Json.Int 4);
        ];
      Json.Obj
        [ ("req", Json.String "query"); ("spec", Json.String "a"); ("s", Json.Int 4) ];
    ]

(* ------------------------------------------------------------------ *)
(* Result cache                                                        *)

let fresh_dir () =
  let dir = Filename.temp_file "dmc-serve-cache" "" in
  Sys.remove dir;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let test_cache_lru () =
  let c = Result_cache.create ~capacity:2 () in
  Result_cache.add c "a" (Json.Int 1);
  Result_cache.add c "b" (Json.Int 2);
  check_bool "a hits" true (Result_cache.find c "a" = Some (Json.Int 1));
  (* a is now MRU; inserting c must evict b *)
  Result_cache.add c "c" (Json.Int 3);
  check "still two entries" 2 (Result_cache.size c);
  check_bool "b evicted" true (Result_cache.find c "b" = None);
  check_bool "a survives" true (Result_cache.find c "a" = Some (Json.Int 1));
  check_bool "c present" true (Result_cache.find c "c" = Some (Json.Int 3))

(* Directory ownership: a second lock on a held directory fails typed;
   a lock whose owner is dead (a kill -9'd daemon) is reclaimed. *)
let test_cache_dir_lock () =
  let dir = fresh_dir () in
  (match Result_cache.lock_dir dir with
  | Error e -> Alcotest.fail (Result_cache.lock_error_to_string e)
  | Ok lock -> (
      (match Result_cache.lock_dir dir with
      | Ok _ -> Alcotest.fail "second lock on a held directory succeeded"
      | Error (Result_cache.Held { pid; path }) ->
          check "held by this process" (Unix.getpid ()) pid;
          check_bool "lock file lives in the cache dir" true
            (Filename.dirname path = dir)
      | Error (Result_cache.Lock_io _ as e) ->
          Alcotest.fail (Result_cache.lock_error_to_string e));
      Result_cache.unlock_dir lock;
      match Result_cache.lock_dir dir with
      | Ok lock' -> Result_cache.unlock_dir lock'
      | Error e ->
          Alcotest.failf "relock after unlock: %s"
            (Result_cache.lock_error_to_string e)));
  (* stale lock: a pid that is certainly gone (a reaped child) *)
  let dead_pid =
    match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
        ignore (Unix.waitpid [] pid);
        pid
  in
  let oc = open_out (Filename.concat dir "lock.pid") in
  output_string oc (string_of_int dead_pid);
  close_out oc;
  (match Result_cache.lock_dir dir with
  | Ok lock -> Result_cache.unlock_dir lock
  | Error e ->
      Alcotest.failf "stale lock not reclaimed: %s"
        (Result_cache.lock_error_to_string e));
  rm_rf dir

let test_cache_persistence () =
  let dir = fresh_dir () in
  let c = Result_cache.create ~dir ~capacity:8 () in
  Result_cache.add c "k1" (Json.Obj [ ("value", Json.Int 6) ]);
  Result_cache.add c "k2" (Json.Int 2);
  ignore (Result_cache.find c "k1" : Json.t option);
  Result_cache.save c;
  (* a second instance over the same directory starts warm, with
     recency preserved: k2 is LRU after the k1 touch above *)
  let c' = Result_cache.create ~dir ~capacity:2 () in
  check "reloaded both" 2 (Result_cache.size c');
  (match Result_cache.entries c' with
  | [ ("k2", _); ("k1", _) ] -> ()
  | entries ->
      Alcotest.failf "recency lost: %s"
        (String.concat "," (List.map fst entries)));
  check_bool "k1 row intact" true
    (Result_cache.find c' "k1" = Some (Json.Obj [ ("value", Json.Int 6) ]));
  rm_rf dir

let test_cache_corrupt_file () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let file = Filename.concat dir "results.json" in
  let oc = open_out file in
  output_string oc "{ not json at all";
  close_out oc;
  (* a damaged cache costs recomputation, never availability *)
  let c = Result_cache.create ~dir ~capacity:4 () in
  check "corrupt file yields empty cache" 0 (Result_cache.size c);
  Result_cache.add c "k" (Json.Int 1);
  let c' = Result_cache.create ~dir ~capacity:4 () in
  check "recovered and persisted" 1 (Result_cache.size c');
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Live daemon harness                                                 *)

let temp_sock () =
  let path = Filename.temp_file "dmc-serve" ".sock" in
  Sys.remove path;
  path

let fork_server ?cache_dir ?(jobs = 2) ?(job_timeout = None) ?(faults = [])
    ?(max_inflight = 64) ?(read_timeout = 2.) ~socket () =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let stop = ref false in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
      let cfg =
        {
          Server.default with
          socket_path = socket;
          cache_dir;
          max_inflight;
          read_timeout;
          jobs;
          job_timeout;
          faults;
          should_drain = (fun () -> !stop);
        }
      in
      (match Server.serve cfg with
      | Ok () -> Unix._exit (if !stop then 143 else 0)
      | Error _ -> Unix._exit 1)
  | pid -> pid

let connect path =
  let rec go tries =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.05;
        go (tries - 1)
  in
  go 100

let read_reply fd =
  match Ipc.read_frame ~deadline:(Unix.gettimeofday () +. 30.) fd with
  | Error e -> Alcotest.failf "reply: %s" (Ipc.read_error_to_string e)
  | Ok json -> (
      match Protocol.reply_of_json json with
      | Ok reply -> reply
      | Error msg -> Alcotest.failf "unparseable reply: %s" msg)

let rpc path req =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Ipc.write_frame fd (Protocol.request_to_json req);
      read_reply fd)

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, Unix.WSIGNALED s -> Alcotest.failf "daemon died on signal %d" s
  | _, Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped"

let shutdown_server path pid =
  (match rpc path Protocol.Shutdown with
  | Protocol.Bye -> ()
  | _ -> Alcotest.fail "shutdown not acknowledged");
  check "graceful exit" 0 (wait_exit pid)

let graph_query ?timeout ?(s = 4) () =
  Protocol.query ?timeout (Protocol.Spec "diamond:4,4") ~engine:"wavefront" ~s

let test_server_query_and_cache () =
  let socket = temp_sock () in
  let pid = fork_server ~socket () in
  (match rpc socket Protocol.Ping with
  | Protocol.Pong -> ()
  | _ -> Alcotest.fail "ping");
  (match rpc socket (graph_query ()) with
  | Protocol.Result { cached = false; row } ->
      check_bool "row has a value" true (Json.mem row "value" <> None)
  | _ -> Alcotest.fail "first query should compute");
  (match rpc socket (graph_query ()) with
  | Protocol.Result { cached = true; _ } -> ()
  | _ -> Alcotest.fail "second query should hit the cache");
  (* spec and inline-graph queries live in disjoint key spaces: the spec
     key is computed from the spec string alone (no materialization), so
     an equivalent inline graph is a separate entry, not a hit *)
  let inline =
    Protocol.query
      (Protocol.Graph (Dmc_cdag.Serialize.to_string diamond))
      ~engine:"wavefront" ~s:4
  in
  (match rpc socket inline with
  | Protocol.Result { cached = false; _ } -> ()
  | _ -> Alcotest.fail "inline graph must not hit the spec-keyed entry");
  (match rpc socket inline with
  | Protocol.Result { cached = true; _ } -> ()
  | _ -> Alcotest.fail "repeated inline graph should hit its own entry");
  (match rpc socket Protocol.Stats with
  | Protocol.Stats_snapshot stats ->
      let counter name =
        Option.bind (Json.mem stats "counters") (fun c ->
            Option.bind (Json.mem c name) Json.as_int)
      in
      check_bool "two computes" true (counter "serve.compute" = Some 2);
      check_bool "two hits" true (counter "serve.cache.hit" = Some 2)
  | _ -> Alcotest.fail "stats");
  shutdown_server socket pid

let test_server_metrics () =
  let socket = temp_sock () in
  let pid = fork_server ~socket () in
  (match rpc socket (graph_query ()) with
  | Protocol.Result { cached = false; _ } -> ()
  | _ -> Alcotest.fail "first query should compute");
  (match rpc socket (graph_query ()) with
  | Protocol.Result { cached = true; _ } -> ()
  | _ -> Alcotest.fail "second query should hit the cache");
  (match rpc socket Protocol.Metrics with
  | Protocol.Metrics_snapshot m ->
      (match Option.bind (Json.mem m "uptime_s") Json.as_float with
      | Some up -> check_bool "uptime non-negative" true (up >= 0.)
      | None -> Alcotest.fail "metrics missing uptime_s");
      let cache_field name =
        Option.bind (Json.mem m "cache") (fun c -> Json.mem c name)
      in
      check_bool "one hit, one miss" true
        (Option.bind (cache_field "hits") Json.as_int = Some 1
        && Option.bind (cache_field "misses") Json.as_int = Some 1);
      (match Option.bind (cache_field "ratio") Json.as_float with
      | Some r -> check_bool "ratio is hits/total" true (abs_float (r -. 0.5) < 1e-9)
      | None -> Alcotest.fail "metrics missing cache ratio");
      (match Json.mem m "registry" with
      | Some (Json.Obj _) -> ()
      | _ -> Alcotest.fail "metrics missing registry snapshot");
      let text =
        match Option.bind (Json.mem m "text") Json.as_string with
        | Some t -> t
        | None -> Alcotest.fail "metrics missing text exposition"
      in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun needle ->
          check_bool ("exposition has " ^ needle) true (contains text needle))
        [
          "# TYPE dmc_serve_cache_hit counter";
          "# TYPE dmc_serve_lat_request_us summary";
          "# TYPE dmc_serve_cache_hit_ratio gauge";
          "dmc_serve_cache_hit_ratio 0.5";
        ];
      (* every non-comment line must be exactly "name value" with a
         float-parseable value — the contract a scraper relies on *)
      List.iter
        (fun line ->
          if line <> "" && line.[0] <> '#' then
            match String.index_opt line ' ' with
            | None -> Alcotest.failf "sample line without a value: %S" line
            | Some i ->
                let v = String.sub line (i + 1) (String.length line - i - 1) in
                check_bool
                  (Printf.sprintf "value parses: %S" line)
                  true
                  (float_of_string_opt v <> None))
        (String.split_on_char '\n' text)
  | _ -> Alcotest.fail "metrics request should return a snapshot");
  shutdown_server socket pid

let test_server_typed_errors () =
  let socket = temp_sock () in
  let pid = fork_server ~socket ~read_timeout:0.4 () in
  let raw bytes =
    let fd = connect socket in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        if bytes <> "" then
          ignore (Unix.write_substring fd bytes 0 (String.length bytes) : int);
        read_reply fd)
  in
  (match raw "not hex!" with
  | Protocol.Rejected (Protocol.Protocol _) -> ()
  | _ -> Alcotest.fail "bad header should be a typed protocol reject");
  (match raw "00000003tru" with
  | Protocol.Rejected (Protocol.Protocol _) -> ()
  | _ -> Alcotest.fail "non-JSON payload should be a typed protocol reject");
  (match raw (Ipc.encode_frame (Json.Obj [ ("req", Json.String "explode") ])) with
  | Protocol.Rejected (Protocol.Protocol _) -> ()
  | _ -> Alcotest.fail "unknown request should be a typed protocol reject");
  (* a stalled half-frame runs into the read deadline, with byte counts *)
  (match raw "000000" with
  | Protocol.Rejected (Protocol.Protocol detail) ->
      check_bool "deadline detail carries byte counts" true
        (detail = "read deadline exceeded: expected 8 bytes, got 6")
  | _ -> Alcotest.fail "stalled read should be a typed deadline reject");
  (* unknown workload spec and unknown engine are failure-taxonomy replies *)
  (match
     rpc socket (Protocol.query (Protocol.Spec "no-such:1") ~engine:"lru" ~s:4)
   with
  | Protocol.Failed (Budget.Invalid_input _) -> ()
  | _ -> Alcotest.fail "bad spec should fail as invalid-input");
  (* a generator's size check too, not just the registry's *)
  List.iter
    (fun spec ->
      match
        rpc socket (Protocol.query (Protocol.Spec spec) ~engine:"lru" ~s:4)
      with
      | Protocol.Failed (Budget.Invalid_input _) -> ()
      | _ -> Alcotest.failf "%s should fail as invalid-input" spec)
    [ "chain:0"; "fft:25" ];
  (match rpc socket (Protocol.query (Protocol.Spec "chain:6") ~engine:"nope" ~s:4) with
  | Protocol.Failed (Budget.Invalid_input _) -> ()
  | _ -> Alcotest.fail "bad engine should fail as invalid-input");
  (* and the daemon survived all of it *)
  (match rpc socket Protocol.Ping with
  | Protocol.Pong -> ()
  | _ -> Alcotest.fail "daemon should still answer");
  shutdown_server socket pid

let test_server_overload () =
  let socket = temp_sock () in
  (* one admission slot, and the first query's worker hangs until its
     0.6 s deadline — the second query must be refused, not queued *)
  let pid =
    fork_server ~socket ~jobs:1 ~max_inflight:1 ~job_timeout:(Some 0.6)
      ~faults:
        [ { Fault.kind = Fault.Hang; job = 1; attempts = None } ]
      ()
  in
  let fd1 = connect socket in
  Ipc.write_frame fd1 (Protocol.request_to_json (graph_query ()));
  Unix.sleepf 0.2 (* let the daemon admit query 1 *);
  (match rpc socket (graph_query ~s:5 ()) with
  | Protocol.Rejected Protocol.Overloaded -> ()
  | _ -> Alcotest.fail "second query should be rejected as overloaded");
  (* the hung worker exhausts retries and the client still gets a
     typed failure reply *)
  (match read_reply fd1 with
  | Protocol.Failed Budget.Timeout -> ()
  | r ->
      Alcotest.failf "expected timeout failure, got %s"
        (Json.to_string ~indent:false (Protocol.reply_to_json r)));
  Unix.close fd1;
  shutdown_server socket pid

let test_server_sigterm_drain () =
  let dir = fresh_dir () in
  let socket = temp_sock () in
  (* worker 1 hangs till its deadline, so SIGTERM provably lands while
     the job is in flight; drain must still answer the client, persist
     the cache and exit 143 *)
  let pid =
    fork_server ~socket ~cache_dir:dir ~jobs:1 ~job_timeout:(Some 0.8)
      ~faults:[ { Fault.kind = Fault.Hang; job = 1; attempts = Some 1 } ]
      ()
  in
  let fd = connect socket in
  Ipc.write_frame fd (Protocol.request_to_json (graph_query ()));
  Unix.sleepf 0.2;
  Unix.kill pid Sys.sigterm;
  (* drained, not dropped: the in-flight query retries after the hang
     and comes back as a real row *)
  (match read_reply fd with
  | Protocol.Result { cached = false; _ } -> ()
  | r ->
      Alcotest.failf "expected a computed row, got %s"
        (Json.to_string ~indent:false (Protocol.reply_to_json r)));
  Unix.close fd;
  check "SIGTERM drain exits 143" 143 (wait_exit pid);
  check_bool "socket removed" true (not (Sys.file_exists socket));
  (* the drained row made it to disk *)
  let c = Result_cache.create ~dir ~capacity:8 () in
  check "cache persisted on drain" 1 (Result_cache.size c);
  rm_rf dir

let test_server_kill9_warm_restart () =
  let dir = fresh_dir () in
  let socket = temp_sock () in
  let pid = fork_server ~socket ~cache_dir:dir () in
  (match rpc socket (graph_query ()) with
  | Protocol.Result { cached = false; _ } -> ()
  | _ -> Alcotest.fail "first query should compute");
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid : int * Unix.process_status);
  (* restart over the same cache dir (and the stale socket file): the
     answered query must be a warm hit, with zero recomputation *)
  let pid = fork_server ~socket ~cache_dir:dir () in
  (match rpc socket (graph_query ()) with
  | Protocol.Result { cached = true; _ } -> ()
  | _ -> Alcotest.fail "restart should answer from the persisted cache");
  (match rpc socket Protocol.Stats with
  | Protocol.Stats_snapshot stats ->
      let counter name =
        Option.bind (Json.mem stats "counters") (fun c ->
            Option.bind (Json.mem c name) Json.as_int)
      in
      check_bool "no recomputation" true (counter "serve.compute" = Some 0)
  | _ -> Alcotest.fail "stats");
  shutdown_server socket pid;
  rm_rf dir

let () =
  Alcotest.run "dmc_serve"
    [
      ( "cache-key",
        [
          Alcotest.test_case "identity and canonicalization" `Quick
            test_key_identity;
          Alcotest.test_case "discriminates every input" `Quick
            test_key_discrimination;
          Alcotest.test_case "spec keys: no materialization, own space"
            `Quick test_key_spec;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "roundtrips" `Quick test_protocol_roundtrips;
          Alcotest.test_case "bad shapes rejected" `Quick
            test_protocol_bad_shapes;
        ] );
      ( "result-cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "directory lock" `Quick test_cache_dir_lock;
          Alcotest.test_case "persistence preserves recency" `Quick
            test_cache_persistence;
          Alcotest.test_case "corrupt file tolerated" `Quick
            test_cache_corrupt_file;
        ] );
      ( "server",
        [
          Alcotest.test_case "query, cache, stats" `Quick
            test_server_query_and_cache;
          Alcotest.test_case "metrics exposition" `Quick test_server_metrics;
          Alcotest.test_case "typed errors, daemon survives" `Quick
            test_server_typed_errors;
          Alcotest.test_case "bounded admission" `Quick test_server_overload;
          Alcotest.test_case "sigterm drain" `Quick test_server_sigterm_drain;
          Alcotest.test_case "kill -9, warm restart" `Quick
            test_server_kill9_warm_restart;
        ] );
    ]
