module Json = Dmc_util.Json
module Ipc = Dmc_util.Ipc
module Budget = Dmc_util.Budget
module Pool = Dmc_runtime.Pool
module Fault = Dmc_runtime.Fault
module Engine_job = Dmc_core.Engine_job
module Counter = Dmc_obs.Counter
module Gauge = Dmc_obs.Gauge
module Histogram = Dmc_obs.Histogram
module Registry = Dmc_obs.Registry

type config = {
  socket_path : string;
  cache_dir : string option;
  cache_entries : int;
  max_inflight : int;
  read_timeout : float;
  jobs : int;
  job_timeout : float option;
  max_retries : int;
  faults : Fault.t list;
  should_drain : unit -> bool;
  on_ready : (unit -> unit) option;
}

let default =
  {
    socket_path = "dmc.sock";
    cache_dir = None;
    cache_entries = 1024;
    max_inflight = 64;
    read_timeout = 10.;
    jobs = 1;
    job_timeout = None;
    max_retries = 2;
    faults = [];
    should_drain = (fun () -> false);
    on_ready = None;
  }

let c_accept = Counter.make "serve.accept"
let c_request = Counter.make "serve.request"
let c_reply_ok = Counter.make "serve.reply.ok"
let c_reply_error = Counter.make "serve.reply.error"
let c_reject_overloaded = Counter.make "serve.reject.overloaded"

(* Queries dispatched to a worker — the CI warm-restart smoke asserts
   this stays at zero when every query is answered from the persisted
   cache. *)
let c_compute = Counter.make "serve.compute"
let c_fault_drop = Counter.make "serve.fault.drop"
let c_fault_truncate = Counter.make "serve.fault.truncate"
let c_fault_slow = Counter.make "serve.fault.slow"
let g_queue = Gauge.make "serve.queue.depth"
let g_inflight = Gauge.make "serve.inflight"
let g_hit_ratio = Gauge.make "serve.cache.hit_ratio"

(* Per-request latency, split so queue-wait, engine time and cache
   lookups are separable in the exposition: microsecond histograms
   (percentiles ride the registry's log buckets) plus matching spans in
   the trace. *)
let h_request = Histogram.make "serve.lat.request_us"
let h_queue_wait = Histogram.make "serve.lat.queue_wait_us"
let h_engine = Histogram.make "serve.lat.engine_us"
let h_cache_lookup = Histogram.make "serve.lat.cache_lookup_us"

let cache_ratio () =
  let hits = (Registry.counter "serve.cache.hit").Registry.c_value in
  let misses = (Registry.counter "serve.cache.miss").Registry.c_value in
  let total = hits + misses in
  ( hits,
    misses,
    if total = 0 then 0. else float_of_int hits /. float_of_int total )

let metrics_json ~started () =
  let hits, misses, ratio = cache_ratio () in
  Gauge.set g_hit_ratio ratio;
  Json.Obj
    [
      ("uptime_s", Json.Float (Unix.gettimeofday () -. started));
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int hits);
            ("misses", Json.Int misses);
            ("ratio", Json.Float ratio);
          ] );
      ("registry", Dmc_obs.Export.to_json ());
      ("text", Json.String (Dmc_obs.Export.prometheus ()));
    ]

let stats_json () =
  let counters =
    List.rev
      (Registry.fold_counters
         (fun acc c -> (c.Registry.c_name, Json.Int c.c_value) :: acc)
         [])
  in
  let gauges =
    List.rev
      (Registry.fold_gauges
         (fun acc g ->
           if g.Registry.g_set then (g.Registry.g_name, Json.Float g.g_value) :: acc
           else acc)
         [])
  in
  Json.Obj [ ("counters", Json.Obj counters); ("gauges", Json.Obj gauges) ]

(* ------------------------------------------------------------------ *)

type conn_state =
  | Reading  (** accumulating the request frame *)
  | Computing  (** submitted to the pool; the commit hook replies *)

type conn = {
  fd : Unix.file_descr;
  cid : int;  (** 1-based accept index — the fault-injection handle *)
  buf : Buffer.t;
  deadline : float;
  accepted_at : float;  (** registry clock, microseconds *)
  slow : bool;
  truncate : bool;
  mutable state : conn_state;
  mutable closed : bool;
}

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  try go 0 with Unix.Unix_error _ -> ()

(* The typed reply for a connection whose read deadline passed
   mid-frame: how much of the frame arrived versus how much the header
   (if we have one) promised. *)
let deadline_detail c =
  let got = Buffer.length c.buf in
  let expected =
    if got >= Ipc.header_bytes then
      match Ipc.parse_header (Buffer.sub c.buf 0 Ipc.header_bytes) with
      | Ok plen -> Ipc.header_bytes + plen
      | Error _ -> Ipc.header_bytes
    else Ipc.header_bytes
  in
  Printf.sprintf "read deadline exceeded: expected %d bytes, got %d" expected
    got

let bind_listen path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    (match Unix.stat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } ->
        (* a previous daemon's socket: stale after a kill -9, safe to
           reclaim — two live daemons on one path is operator error *)
        (try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> failwith (path ^ " exists and is not a socket")
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    Unix.set_nonblock fd
  with
  | () -> Ok fd
  | exception Failure msg ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error msg
  | exception Unix.Unix_error (e, op, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s: %s (%s)" path (Unix.error_message e) op)

let serve cfg =
  Registry.set_enabled true;
  let started = Unix.gettimeofday () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Own the cache directory before touching the socket or the cache
     file: a second daemon on the same --cache-dir must fail fast with
     a typed error, not interleave write-throughs with the first. *)
  let dir_lock =
    match cfg.cache_dir with
    | None -> Ok None
    | Some dir -> (
        match Result_cache.lock_dir dir with
        | Ok l -> Ok (Some l)
        | Error e -> Error (Result_cache.lock_error_to_string e))
  in
  match dir_lock with
  | Error _ as e -> e
  | Ok dir_lock -> (
  let unlock () = Option.iter Result_cache.unlock_dir dir_lock in
  match bind_listen cfg.socket_path with
  | Error _ as e ->
      unlock ();
      e
  | Ok lfd ->
      let cache =
        Result_cache.create ?dir:cfg.cache_dir ~capacity:cfg.cache_entries ()
      in
      let conns = ref [] in
      (* job id -> (connection, cache key, submit instant µs) *)
      let jobs : (int, conn * string * float) Hashtbl.t = Hashtbl.create 64 in
      let draining = ref false in
      let listen_open = ref true in
      let accepted = ref 0 in
      let close_listen () =
        if !listen_open then begin
          listen_open := false;
          try Unix.close lfd with Unix.Unix_error _ -> ()
        end
      in
      let server_fault cid =
        match cfg.faults |> Fault.applies ~job:(cid - 1) ~attempt:1 with
        | Some k when not (Fault.is_worker_kind k) -> Some k
        | Some _ | None -> None
      in
      let close_conn c =
        if not c.closed then begin
          c.closed <- true;
          try Unix.close c.fd with Unix.Unix_error _ -> ()
        end
      in
      let send_reply c reply =
        if not c.closed then begin
          (match reply with
          | Protocol.Pong | Protocol.Stats_snapshot _
          | Protocol.Metrics_snapshot _ | Protocol.Bye | Protocol.Result _ ->
              Counter.incr c_reply_ok
          | Protocol.Failed _ | Protocol.Rejected _ ->
              Counter.incr c_reply_error);
          (let dur = Registry.now_us () -. c.accepted_at in
           Histogram.observe h_request (int_of_float dur);
           if Registry.is_enabled () then
             Registry.add_event ~name:"serve.request"
               ~attrs:[ ("cid", string_of_int c.cid) ]
               ~ts_us:c.accepted_at ~dur_us:dur ());
          let bytes = Ipc.encode_frame (Protocol.reply_to_json reply) in
          let bytes =
            if c.truncate then begin
              Counter.incr c_fault_truncate;
              String.sub bytes 0 (String.length bytes / 2)
            end
            else bytes
          in
          write_all c.fd bytes;
          close_conn c
        end
      in
      let begin_drain () =
        if not !draining then begin
          draining := true;
          close_listen ();
          (* Connections still mid-request get a typed refusal;
             computing ones keep their pending reply — drain means
             finish what was admitted, refuse what was not. *)
          List.iter
            (fun c ->
              match c.state with
              | Reading -> send_reply c (Protocol.Rejected Protocol.Draining)
              | Computing -> ())
            !conns
        end
      in
      let pool_cfg =
        {
          Pool.default with
          jobs = cfg.jobs;
          timeout = cfg.job_timeout;
          max_retries = cfg.max_retries;
          faults = List.filter (fun f -> Fault.is_worker_kind f.Fault.kind) cfg.faults;
        }
      in
      let on_commit id (outcome : Pool.outcome) =
        match Hashtbl.find_opt jobs id with
        | None -> ()
        | Some (c, key, submitted_us) -> (
            Hashtbl.remove jobs id;
            (* Separate queue-wait from engine time: the outcome's
               [elapsed] covers dispatch-to-verdict, so the remainder of
               submit-to-commit is time spent queued (plus settle
               overhead). *)
            (let total_us = Registry.now_us () -. submitted_us in
             let engine_us = outcome.elapsed *. 1e6 in
             let queue_us = Float.max 0. (total_us -. engine_us) in
             Histogram.observe h_queue_wait (int_of_float queue_us);
             Histogram.observe h_engine (int_of_float engine_us);
             if Registry.is_enabled () then begin
               Registry.add_event ~name:"serve.queue_wait"
                 ~attrs:[ ("job", string_of_int id) ]
                 ~ts_us:submitted_us ~dur_us:queue_us ();
               Registry.add_event ~name:"serve.engine"
                 ~attrs:[ ("job", string_of_int id) ]
                 ~ts_us:(submitted_us +. queue_us)
                 ~dur_us:engine_us ()
             end);
            match outcome.verdict with
            | Pool.Done row ->
                (* cache before replying: once a client has seen a row,
                   a kill -9 must not be able to lose it *)
                Result_cache.add cache key row;
                send_reply c (Protocol.Result { cached = false; row })
            | v ->
                let failure =
                  match Pool.verdict_failure v with
                  | Some f -> f
                  | None -> Budget.Internal "unclassified verdict"
                in
                send_reply c (Protocol.Failed failure))
      in
      let pool =
        Pool.create ~ordered:false pool_cfg
          ~worker:(fun _ job -> Engine_job.run job)
          ~on_commit ()
      in
      (* A spec's graph is built only on a miss.  Either way the worker
         runs on the graph the daemon parsed or built, not on a
         re-parse of its text. *)
      let spec_job (q : Protocol.query) spec =
        match Dmc_gen.Workload.parse spec with
        | Ok g ->
            Ok
              (Engine_job.make ?timeout:q.timeout ?node_budget:q.node_budget
                 ~samples:q.samples g ~s:q.s ~engine:q.engine)
        | Error msg -> Error (Budget.Invalid_input ("bad workload spec: " ^ msg))
      in
      let handle_request c req =
        Counter.incr c_request;
        match req with
        | Protocol.Ping -> send_reply c Protocol.Pong
        | Protocol.Stats ->
            Gauge.set g_queue (float_of_int (Pool.unfinished pool));
            Gauge.set g_inflight (float_of_int (Pool.running pool));
            let _, _, ratio = cache_ratio () in
            Gauge.set g_hit_ratio ratio;
            send_reply c (Protocol.Stats_snapshot (stats_json ()))
        | Protocol.Metrics ->
            Gauge.set g_queue (float_of_int (Pool.unfinished pool));
            Gauge.set g_inflight (float_of_int (Pool.running pool));
            send_reply c (Protocol.Metrics_snapshot (metrics_json ~started ()))
        | Protocol.Shutdown ->
            send_reply c Protocol.Bye;
            begin_drain ()
        | Protocol.Query q -> (
            if !draining then send_reply c (Protocol.Rejected Protocol.Draining)
            else if Dmc_core.Bounds.engine_reads_p q.engine then
              (* the wire query has no p: it would be answered at p = 1
                 whatever the caller meant *)
              send_reply c
                (Protocol.Failed
                   (Budget.Invalid_input
                      (Printf.sprintf
                         "%s reads the processor count p, and a serve query \
                          has no p: use dmc bounds -p or dmc sweep -p"
                         q.engine)))
            else begin
              (* spec-sourced queries are keyed by the spec string, so
                 the cache is consulted before any graph is built;
                 inline graphs keep their canonicalized-graph keys *)
              let key, job =
                match q.source with
                | Protocol.Spec spec ->
                    ( Cache_key.of_spec ~engine:q.engine ~s:q.s
                        ~timeout:q.timeout ~node_budget:q.node_budget
                        ~samples:q.samples spec,
                      lazy (spec_job q spec) )
                | Protocol.Graph graph ->
                    let job =
                      Engine_job.of_text ?timeout:q.timeout
                        ?node_budget:q.node_budget ~samples:q.samples graph
                        ~s:q.s ~engine:q.engine
                    in
                    (Cache_key.of_job job, Lazy.from_val (Ok job))
              in
              let lookup_t0 = Registry.now_us () in
              let found = Result_cache.find cache key in
              (let dur = Registry.now_us () -. lookup_t0 in
               Histogram.observe h_cache_lookup (int_of_float dur);
               if Registry.is_enabled () then
                 Registry.add_event ~name:"serve.cache_lookup"
                   ~attrs:[ ("cid", string_of_int c.cid) ]
                   ~ts_us:lookup_t0 ~dur_us:dur ());
              match found with
              | Some row -> send_reply c (Protocol.Result { cached = true; row })
              | None -> (
                  match Lazy.force job with
                  | Error f -> send_reply c (Protocol.Failed f)
                  | Ok job ->
                      if Pool.unfinished pool >= cfg.max_inflight then begin
                        Counter.incr c_reject_overloaded;
                        send_reply c (Protocol.Rejected Protocol.Overloaded)
                      end
                      else begin
                        Counter.incr c_compute;
                        let id = Pool.submit pool job in
                        Hashtbl.replace jobs id (c, key, Registry.now_us ());
                        c.state <- Computing
                      end)
            end)
      in
      (* Try to complete (and answer) the request frame in [c.buf]. *)
      let feed c =
        let len = Buffer.length c.buf in
        if len >= Ipc.header_bytes then
          match Ipc.parse_header (Buffer.sub c.buf 0 Ipc.header_bytes) with
          | Error e ->
              send_reply c
                (Protocol.Rejected
                   (Protocol.Protocol (Ipc.read_error_to_string e)))
          | Ok plen ->
              if len >= Ipc.header_bytes + plen then
                if len > Ipc.header_bytes + plen then
                  send_reply c
                    (Protocol.Rejected
                       (Protocol.Protocol
                          (Printf.sprintf
                             "%d trailing bytes after the request frame"
                             (len - Ipc.header_bytes - plen))))
                else
                  match
                    Ipc.parse_payload (Buffer.sub c.buf Ipc.header_bytes plen)
                  with
                  | Error e ->
                      send_reply c
                        (Protocol.Rejected
                           (Protocol.Protocol (Ipc.read_error_to_string e)))
                  | Ok json -> (
                      match Protocol.request_of_json json with
                      | Error msg ->
                          send_reply c
                            (Protocol.Rejected (Protocol.Protocol msg))
                      | Ok req -> handle_request c req)
      in
      let accept_ready () =
        match Unix.accept ~cloexec:true lfd with
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ()
        | fd, _ -> (
            incr accepted;
            Counter.incr c_accept;
            let cid = !accepted in
            match server_fault cid with
            | Some Fault.Drop ->
                Counter.incr c_fault_drop;
                (try Unix.close fd with Unix.Unix_error _ -> ())
            | sf ->
                let slow = sf = Some Fault.Slow in
                if slow then Counter.incr c_fault_slow;
                let c =
                  {
                    fd;
                    cid;
                    buf = Buffer.create 256;
                    deadline = Budget.now () +. cfg.read_timeout;
                    accepted_at = Registry.now_us ();
                    slow;
                    truncate = sf = Some Fault.Truncate;
                    state = Reading;
                    closed = false;
                  }
                in
                conns := c :: !conns)
      in
      let is_reading c = match c.state with Reading -> true | Computing -> false in
      let finished () =
        !draining && !conns = [] && Pool.unfinished pool = 0
      in
      Option.iter (fun f -> f ()) cfg.on_ready;
      while not (finished ()) do
        if cfg.should_drain () then begin_drain ();
        conns := List.filter (fun c -> not c.closed) !conns;
        if not (finished ()) then begin
          let now = Budget.now () in
          (* Expire read deadlines — a slow-loris (or a Slow-faulted
             loop) ends here with a typed reply, not a stuck slot. *)
          List.iter
            (fun c ->
              if is_reading c && now > c.deadline then
                send_reply c
                  (Protocol.Rejected (Protocol.Protocol (deadline_detail c))))
            !conns;
          conns := List.filter (fun c -> not c.closed) !conns;
          let read_fds =
            (if !listen_open then [ lfd ] else [])
            @ List.filter_map
                (fun c ->
                  if is_reading c && not c.slow then Some c.fd else None)
                !conns
            @ Pool.watch_fds pool
          in
          let timeout =
            Float.max 0.
              (List.fold_left
                 (fun acc c ->
                   if is_reading c then Float.min acc (c.deadline -. now)
                   else acc)
                 0.2 !conns)
          in
          let readable =
            if read_fds = [] then begin
              ignore (Unix.select [] [] [] timeout : _ * _ * _);
              []
            end
            else
              match Unix.select read_fds [] [] timeout with
              | r, _, _ -> r
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          in
          if !listen_open && List.memq lfd readable then accept_ready ();
          List.iter
            (fun c ->
              if
                (not c.closed) && is_reading c && (not c.slow)
                && List.memq c.fd readable
              then begin
                let chunk = Bytes.create 65536 in
                match Unix.read c.fd chunk 0 65536 with
                | 0 ->
                    (* peer closed; mid-frame that's a typed truncation,
                       before any byte it's just a vanished client *)
                    let got = Buffer.length c.buf in
                    if got = 0 then close_conn c
                    else
                      send_reply c
                        (Protocol.Rejected
                           (Protocol.Protocol
                              (Printf.sprintf
                                 "truncated request: got %d bytes then EOF" got)))
                | k ->
                    Buffer.add_subbytes c.buf chunk 0 k;
                    feed c
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                | exception
                    Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                    close_conn c
              end)
            !conns;
          Pool.step ~max_wait:0. pool;
          Gauge.set g_queue (float_of_int (Pool.unfinished pool));
          Gauge.set g_inflight (float_of_int (Pool.running pool))
        end
      done;
      Result_cache.save cache;
      close_listen ();
      (try Sys.remove cfg.socket_path with Sys_error _ -> ());
      unlock ();
      Ok ())
