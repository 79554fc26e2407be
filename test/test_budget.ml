(* Tests for the resource-governance layer: Budget guards, the
   result-typed engine API, the graceful-degradation ladder, and the
   checkpoint/RNG-state plumbing the resumable drivers build on. *)

module Budget = Dmc_util.Budget
module Rng = Dmc_util.Rng
module Json = Dmc_util.Json
module Checkpoint = Dmc_util.Checkpoint
module Cdag = Dmc_cdag.Cdag
module Bounds = Dmc_core.Bounds
module Optimal = Dmc_core.Optimal
module Wavefront = Dmc_core.Wavefront

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Budget guard mechanics                                              *)

let test_node_budget () =
  let b = Budget.create ~nodes:10 () in
  for _ = 1 to 9 do
    Budget.tick b
  done;
  check "nine ticks spent" 9 (Budget.spent b);
  (match Budget.tick b with
  | () -> Alcotest.fail "10th tick should exhaust the node budget"
  | exception Budget.Exhausted Budget.Budget_exhausted -> ());
  check_bool "check reports exhaustion" true
    (Budget.check b = Some Budget.Budget_exhausted)

let test_deadline () =
  (* negative deadline: already expired, independent of clock granularity *)
  let b = Budget.create ~deadline:(-1.0) () in
  (* The clock is only polled every few hundred ticks, so loop well
     past one period. *)
  match
    for _ = 1 to 10_000 do
      Budget.tick b
    done
  with
  | () -> Alcotest.fail "expired deadline never raised"
  | exception Budget.Exhausted Budget.Timeout -> ()

let test_tick_n_crosses_period () =
  let b = Budget.create ~deadline:(-1.0) () in
  match Budget.tick_n b 100_000 with
  | () -> Alcotest.fail "bulk tick ignored the deadline"
  | exception Budget.Exhausted Budget.Timeout -> ()

let test_cancel () =
  let b = Budget.create ~cancel:(fun () -> true) () in
  match
    for _ = 1 to 10_000 do
      Budget.tick b
    done
  with
  | () -> Alcotest.fail "cancellation hook never honored"
  | exception Budget.Exhausted Budget.Cancelled -> ()

let test_unlimited_counts () =
  let b = Budget.create () in
  for _ = 1 to 1_000 do
    Budget.tick b
  done;
  check "spent" 1_000 (Budget.spent b);
  check_bool "never exhausts" true (Budget.check b = None)

let test_guard_and_internal_error () =
  (match Budget.guard (fun () -> 42) with
  | Ok v -> check "plain value" 42 v
  | Error _ -> Alcotest.fail "guard failed a pure thunk");
  (* an exhausted budget short-circuits before running the thunk *)
  let b = Budget.create ~nodes:0 () in
  (match Budget.guard ~budget:b (fun () -> Alcotest.fail "ran anyway") with
  | Error Budget.Budget_exhausted -> ()
  | _ -> Alcotest.fail "exhausted budget not prechecked");
  match
    Budget.guard (fun () ->
        Budget.internal_error ~where:"Test.engine" "stuck at %d (n=%d)" 7 32)
  with
  | Error (Budget.Internal msg) ->
      check_string "context preserved" "Test.engine: stuck at 7 (n=32)" msg
  | _ -> Alcotest.fail "Internal_error not captured"

let test_failure_strings () =
  check_string "timeout" "timeout" (Budget.failure_to_string Budget.Timeout);
  check_string "budget" "budget-exhausted"
    (Budget.failure_to_string Budget.Budget_exhausted);
  check_string "too-large" "too-large: x"
    (Budget.failure_to_string (Budget.Too_large "x"))

(* [Budget.replay b k] against [k] single ticks on a twin guard: the
   same failure or none, the same [spent], and the same cancellation
   polls, each seeing the same [spent].  The twins differ only in how
   the [k] ticks are charged; [prior] single ticks first (past the node
   limit too) put the guard anywhere, exhausted included. *)
let replay_matches_ticks ((nodes, prior, k), (cancel_after, expired)) =
  let run charge =
    let polls = ref [] and guard = ref Budget.unlimited in
    let cancel =
      Option.map
        (fun m () ->
          polls := Budget.spent !guard :: !polls;
          List.length !polls > m)
        cancel_after
    in
    let deadline = if expired then Some (-1.0) else None in
    let b = Budget.create ?deadline ?nodes ?cancel () in
    guard := b;
    for _ = 1 to prior do
      try Budget.tick b with Budget.Exhausted _ -> ()
    done;
    let outcome =
      match charge b with () -> None | exception Budget.Exhausted f -> Some f
    in
    (outcome, Budget.spent b, !polls)
  in
  run (fun b -> Budget.replay b k)
  = run (fun b ->
        for _ = 1 to k do
          Budget.tick b
        done)

let prop_replay_matches_ticks =
  QCheck.Test.make ~name:"replay = k single ticks" ~count:1000
    QCheck.(
      pair
        (triple (option (int_bound 1500)) (int_bound 1200) (int_bound 1500))
        (pair (option (int_bound 8)) bool))
    replay_matches_ticks

let test_replay_boundaries () =
  (* the tick that spends the limit raises; an exhausted guard takes
     one more tick and raises again; k = 0 charges nothing *)
  let b = Budget.create ~nodes:10 () in
  Budget.replay b 9;
  check "nine replayed" 9 (Budget.spent b);
  (match Budget.replay b 5 with
  | () -> Alcotest.fail "replay past the limit should exhaust"
  | exception Budget.Exhausted Budget.Budget_exhausted -> ());
  check "stops at the limit" 10 (Budget.spent b);
  Budget.replay b 0;
  check "k = 0 is free" 10 (Budget.spent b);
  (match Budget.replay b 3 with
  | () -> Alcotest.fail "exhausted guard should raise"
  | exception Budget.Exhausted Budget.Budget_exhausted -> ());
  check "one extra tick" 11 (Budget.spent b);
  (* tick_n, by contrast, charges the whole step *)
  let b' = Budget.create ~nodes:10 () in
  (match Budget.tick_n b' 25 with
  | () -> Alcotest.fail "tick_n past the limit should exhaust"
  | exception Budget.Exhausted Budget.Budget_exhausted -> ());
  check "tick_n overshoots" 25 (Budget.spent b')

(* [headroom b] single ticks neither raise nor poll, and the next one
   does one or the other — on unlimited, node-limited, one-left and
   exhausted guards, from every phase of [ticks mod 256]. *)
let test_headroom () =
  let polls = ref 0 in
  let cancel () =
    incr polls;
    false
  in
  let guard ~phase nodes =
    let b = Budget.create ?nodes ~cancel () in
    for _ = 1 to phase do
      try Budget.tick b with Budget.Exhausted _ -> ()
    done;
    b
  in
  for phase = 0 to 255 do
    let limits =
      None (* unlimited *)
      :: Some phase (* exhausted *)
      :: Some (phase + 1) (* one left *)
      :: List.map
           (fun d -> Some (phase + 1 + d))
           [ 1; 2; 100; 254 - phase; 255 - phase; 256 - phase; 1000 ]
    in
    List.iter
      (fun nodes ->
        let b = guard ~phase nodes in
        let h = Budget.headroom b in
        let label = Printf.sprintf "phase %d, nodes %s" phase
            (match nodes with None -> "unlimited" | Some k -> string_of_int k) in
        check_bool (label ^ ": non-negative") true (h >= 0);
        let before = !polls in
        (match
           for _ = 1 to h do
             Budget.tick b
           done
         with
        | () -> ()
        | exception Budget.Exhausted _ ->
            Alcotest.failf "%s: a tick within the headroom raised" label);
        check (label ^ ": no poll within the headroom") before !polls;
        let raised =
          match Budget.tick b with () -> false | exception Budget.Exhausted _ -> true
        in
        check_bool (label ^ ": the next tick raises or polls") true
          (raised || !polls > before))
      limits
  done

(* ------------------------------------------------------------------ *)
(* Engines honor their budgets                                         *)

(* A graph big enough that every exhaustive engine runs essentially
   forever, but structurally fine (so only the budget can stop it). *)
let big_layered () =
  Dmc_gen.Random_dag.layered (Rng.create 1234) ~layers:8 ~width:6 ~edge_prob:0.5

let within_2x_deadline f =
  let deadline = 0.2 in
  let t0 = Budget.now () in
  let result = f (Budget.create ~deadline ()) in
  let elapsed = Budget.now () -. t0 in
  (* "promptly": within ~2x the deadline, plus scheduling slack *)
  check_bool
    (Printf.sprintf "returned within 2x deadline (took %.2fs)" elapsed)
    true
    (elapsed < (2.0 *. deadline) +. 0.3);
  result

let test_partition_deadline () =
  let g = big_layered () in
  match
    within_2x_deadline (fun budget -> Bounds.Engine.partition_lb ~budget g ~s:3)
  with
  | Error Budget.Timeout -> ()
  | Ok v -> Alcotest.failf "exponential search finished?! (%d)" v
  | Error e -> Alcotest.failf "wrong failure: %s" (Budget.failure_to_string e)

let test_rbw_node_budget () =
  (* The Dijkstra sweep ticks once per expanded state; 50 states is far
     too few for a 16-vertex game, so the budget must fire first. *)
  let g = Dmc_gen.Shapes.diamond ~rows:4 ~cols:4 in
  match
    Bounds.Engine.rbw_io
      ~budget:(Budget.create ~nodes:50 ())
      ~max_states:max_int g ~s:4
  with
  | Error Budget.Budget_exhausted -> ()
  | Ok v -> Alcotest.failf "game solved within 50 states?! (%d)" v
  | Error e -> Alcotest.failf "wrong failure: %s" (Budget.failure_to_string e)

let test_state_budget () =
  let g = big_layered () in
  match Bounds.Engine.partition_lb ~budget:(Budget.create ~nodes:500 ()) g ~s:3 with
  | Error Budget.Budget_exhausted -> ()
  | Ok v -> Alcotest.failf "search finished under 500 nodes?! (%d)" v
  | Error e -> Alcotest.failf "wrong failure: %s" (Budget.failure_to_string e)

let test_engine_too_large () =
  let g = Dmc_gen.Shapes.chain 40 in
  match Bounds.Engine.rbw_io g ~s:3 with
  | Error (Budget.Too_large _) -> ()
  | _ -> Alcotest.fail "40-vertex graph should be Too_large for rbw_io"

let test_engine_matches_raising_api () =
  let g = Dmc_gen.Shapes.diamond ~rows:3 ~cols:3 in
  let s = 4 in
  match Bounds.Engine.rbw_io g ~s with
  | Ok v -> check "engine = raising api" (Optimal.rbw_io g ~s) v
  | Error e -> Alcotest.failf "engine failed: %s" (Budget.failure_to_string e)

let test_anytime_wavefront_sound () =
  let g = Dmc_gen.Shapes.diamond ~rows:4 ~cols:4 in
  let exact = Wavefront.wmax_exact g in
  (* unbudgeted anytime sweep = plain sampling *)
  let sampled = Wavefront.wmax_sampled_anytime (Rng.create 3) g ~samples:64 in
  check_bool "anytime <= exact" true (sampled <= exact);
  (* an exhausted budget yields the trivial 0, never raises *)
  let b = Budget.create ~nodes:0 () in
  check "exhausted anytime is 0" 0
    (Wavefront.wmax_sampled_anytime ~budget:b (Rng.create 3) g ~samples:64)

(* ------------------------------------------------------------------ *)
(* Graceful degradation ladder                                         *)

let small_cases () =
  [
    ("diamond3x3", Dmc_gen.Shapes.diamond ~rows:3 ~cols:3, 4);
    ("tree8", Dmc_gen.Shapes.reduction_tree 8, 3);
    ("fft4", Dmc_gen.Fft.butterfly 2, 4);
    ("jacobi1d", (Dmc_gen.Stencil.jacobi_1d ~n:4 ~steps:2).graph, 4);
  ]

let test_governed_full_agrees () =
  List.iter
    (fun (name, g, s) ->
      let gov = Bounds.analyze_governed g ~s in
      let opt = Optimal.rbw_io g ~s in
      check_bool (name ^ ": lb <= optimal") true (gov.Bounds.gov_best_lb <= opt);
      match gov.Bounds.gov_best_ub with
      | Some ub -> check_bool (name ^ ": optimal <= ub") true (opt <= ub)
      | None -> Alcotest.failf "%s: no upper bound" name)
    (small_cases ())

let test_governed_fallback_sound () =
  (* With an immediately-expiring budget every exact engine degrades,
     yet each lower-bound row still reports a value, and that value
     stays at or below the true optimum. *)
  List.iter
    (fun (name, g, s) ->
      let gov = Bounds.analyze_governed ~timeout:0.000001 g ~s in
      let opt = Optimal.rbw_io g ~s in
      check_bool (name ^ ": degraded lb <= optimal") true
        (gov.Bounds.gov_best_lb <= opt);
      List.iter
        (fun (r : Bounds.row) ->
          match (r.Bounds.kind, r.Bounds.value) with
          | Bounds.Lower, Some v ->
              check_bool
                (Printf.sprintf "%s/%s: fallback value %d <= optimal %d" name
                   r.Bounds.engine v opt)
                true (v <= opt)
          | Bounds.Lower, None ->
              Alcotest.failf "%s/%s: lower-bound row lost its value" name
                r.Bounds.engine
          | _ -> ())
        gov.Bounds.gov_rows)
    (small_cases ())

let test_governed_status_strings () =
  let g = Dmc_gen.Shapes.chain 40 in
  let gov = Bounds.analyze_governed g ~s:3 in
  let row name =
    List.find (fun (r : Bounds.row) -> r.Bounds.engine = name)
      gov.Bounds.gov_rows
  in
  check_string "floor ok" "ok" (Bounds.row_status (row "floor"));
  (* 40 vertices: the optimal game is structurally too large and must
     report a skipped-with-fallback status *)
  let opt = row "optimal" in
  check_bool "optimal degraded" true (opt.Bounds.attempts <> []);
  check_string "optimal status" "skipped(fallback=wavefront)"
    (Bounds.row_status opt)

(* ------------------------------------------------------------------ *)
(* The shared wavefront ladder against the per-rung path it replaced   *)

(* Reference copy of the per-rung path: every rung strips the graph
   again and answers every query with a fresh flow on its own network
   ([min_wavefront] partially applied once per stripped graph). *)
let ref_lower_bound_via wmax_of g ~s =
  let wmax stripped =
    if Cdag.n_vertices stripped = 0 then 0 else wmax_of stripped
  in
  let part_i, di = Dmc_cdag.Subgraph.drop_inputs g in
  let via_inputs =
    Wavefront.lemma2_bound ~wavefront:(wmax part_i.Dmc_cdag.Subgraph.graph) ~s + di
  in
  let part_io, di', d_o = Dmc_cdag.Subgraph.drop_io g in
  let via_both =
    Wavefront.lemma2_bound ~wavefront:(wmax part_io.Dmc_cdag.Subgraph.graph) ~s
    + di' + d_o
  in
  max via_inputs via_both

let ref_wmax_exact ?budget g =
  let wavefront = Wavefront.min_wavefront ?budget g in
  Cdag.fold_vertices g (fun acc x -> max acc (wavefront x)) 0

let ref_wmax_sampled_anytime ?budget rng g ~samples =
  let n = Cdag.n_vertices g in
  let wavefront = Wavefront.min_wavefront ?budget g in
  let best = ref 0 in
  (try
     for _ = 1 to samples do
       let x = Rng.int rng n in
       best := max !best (wavefront x)
     done
   with Budget.Exhausted _ -> ());
  !best

let ref_rungs ~samples g =
  [
    ("exact", fun b ~s -> ref_lower_bound_via (ref_wmax_exact ?budget:b) g ~s);
    ( "sampled",
      fun b ~s ->
        let rng = Rng.create 0x5eed in
        ref_lower_bound_via
          (fun g' -> ref_wmax_sampled_anytime ?budget:b rng g' ~samples)
          g ~s );
  ]

(* Each rung in order under its own fresh [nodes] budget, ladder
   discipline aside: every rung runs, so each one's value or failure
   and its [spent] are observed. *)
let run_rungs rungs ~nodes ~s =
  List.map
    (fun (rung, f) ->
      let b = Budget.create ~nodes () in
      let outcome =
        match f (Some b) ~s with v -> Ok v | exception Budget.Exhausted e -> Error e
      in
      (rung, outcome, Budget.spent b))
    rungs

let unlimited_ticks rung ~s =
  let b = Budget.create () in
  ignore (rung (Some b) ~s);
  Budget.spent b

(* Node budgets around the rungs' unlimited tick counts: the exact rung
   finishes (t_exact + 1), exhausts on its last tick (t_exact), exhausts
   alone (between the two counts), both exhaust (at or below
   t_sampled), plus odd offsets that stop a query inside its flow. *)
let budget_levels g ~samples ~s =
  match ref_rungs ~samples g with
  | [ (_, exact); (_, sampled) ] ->
      let t_e = unlimited_ticks exact ~s and t_s = unlimited_ticks sampled ~s in
      List.sort_uniq compare
        (List.filter (fun n -> n >= 1)
           [
             1; 7; t_s / 3; (t_s / 2) + 1; t_s; t_s + 1; (t_s + t_e) / 2;
             ((t_s + t_e) / 2) + 3; t_e - 1; t_e; t_e + 1;
           ])
  | _ -> assert false

let shared_rungs_match g =
  let complete = Bounds.wavefront_record g in
  List.for_all
    (fun samples ->
      List.for_all
        (fun s ->
          List.for_all
            (fun nodes ->
              run_rungs (Bounds.wavefront_rungs ~samples g) ~nodes ~s
              = run_rungs (ref_rungs ~samples g) ~nodes ~s
              (* a fresh ladder's sampled rung alone, with no records *)
              && run_rungs (List.tl (Bounds.wavefront_rungs ~samples g)) ~nodes ~s
                 = run_rungs (List.tl (ref_rungs ~samples g)) ~nodes ~s
              (* a ladder seeded with every query's record, or with the
                 records (cut-short ones too) of about half this budget *)
              && List.for_all
                   (fun record ->
                     run_rungs (Bounds.wavefront_rungs ~samples ~record g) ~nodes ~s
                     = run_rungs (ref_rungs ~samples g) ~nodes ~s)
                   [
                     complete;
                     Bounds.wavefront_record ~node_budget:((nodes / 2) + 1) ~samples g;
                   ])
            (budget_levels g ~samples ~s))
        [ 1; 3 ])
    [ 4; 16; 64 ]

let prop_ladder_layered =
  QCheck.Test.make ~name:"shared rungs = per-rung path, layered" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      shared_rungs_match
        (Dmc_gen.Random_dag.layered (Rng.create seed) ~layers:5 ~width:6 ~edge_prob:0.4))

let prop_ladder_daggen =
  QCheck.Test.make ~name:"shared rungs = per-rung path, daggen" ~count:8
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      shared_rungs_match
        (Dmc_gen.Random_dag.daggen rng ~n:(40 + Rng.int rng 40) ~fat:0.5 ~density:0.3
           ~ccr:1))

(* The first rung that succeeds wins, floor last, each budgeted rung
   checked by [Engine.run] first, as in [Bounds.run_ladder]: the
   expected row value, rung, failed rungs and total ticks. *)
let ref_ladder ~nodes rungs =
  let rec go attempts ticks = function
    | [] -> (None, "-", List.rev attempts, ticks)
    | ("floor", f) :: _ -> (Some (f None), "floor", List.rev attempts, ticks)
    | (rung, f) :: rest -> (
        let b = Budget.create ~nodes () in
        match Bounds.Engine.run ~budget:b (fun () -> f (Some b)) with
        | Ok v -> (Some v, rung, List.rev attempts, ticks + Budget.spent b)
        | Error e -> go ((rung, e) :: attempts) (ticks + Budget.spent b) rest)
  in
  go [] 0 rungs

(* A row and the [budget.ticks] it added. *)
let observed_row f =
  Dmc_obs.Registry.reset ();
  Dmc_obs.Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Dmc_obs.Registry.set_enabled false) @@ fun () ->
  let (r : Bounds.row) = f () in
  (r.Bounds.value, r.Bounds.rung, r.Bounds.attempts,
   Dmc_obs.Counter.value (Dmc_obs.Counter.make "budget.ticks"))

let test_ladder_rows_match () =
  let graphs =
    [
      Dmc_gen.Random_dag.daggen (Rng.create 5) ~n:70 ~fat:0.5 ~density:0.3 ~ccr:1;
      Dmc_gen.Random_dag.layered (Rng.create 17) ~layers:6 ~width:7 ~edge_prob:0.4;
      Dmc_gen.Workload.parse_exn "gmres:3,2,2";
    ]
  in
  let samples = 16 and g_cost = 1 (* the mp ladders charge I/O at g = 1 *) in
  (* the budget levels reach every regime of the ladder *)
  let g0 = List.hd graphs in
  let regimes =
    List.map
      (fun nodes ->
        match run_rungs (ref_rungs ~samples g0) ~nodes ~s:2 with
        | [ (_, Ok _, _); _ ] -> "exact finishes"
        | [ (_, Error _, _); (_, _, spent) ] when spent < nodes -> "only exact exhausts"
        | _ -> "both exhaust")
      (budget_levels g0 ~samples ~s:2)
  in
  List.iter
    (fun regime -> check_bool regime true (List.mem regime regimes))
    [ "exact finishes"; "only exact exhausts"; "both exhaust" ];
  List.iter
    (fun g ->
      let floor = Bounds.io_floor g in
      let rungs = ref_rungs ~samples g in
      List.iter
        (fun s ->
          List.iter
            (fun nodes ->
              let seq = List.map (fun (rung, f) -> (rung, fun b -> f b ~s)) rungs in
              check_bool
                (Printf.sprintf "wavefront row, S=%d nodes=%d" s nodes)
                true
                (observed_row (fun () ->
                     Bounds.row ~node_budget:nodes ~samples g ~s "wavefront")
                = ref_ladder ~nodes (seq @ [ ("floor", fun _ -> floor) ]));
              List.iter
                (fun p ->
                  let comm =
                    List.map
                      (fun (rung, f) -> (rung, fun b -> max floor (f b ~s:(p * s))))
                      rungs
                  in
                  let time_lb comm_lb =
                    Dmc_core.Parallel_bounds.mp_time_lower ~p ~g_cost
                      ~work:(Cdag.n_compute g) ~span:(Dmc_core.Parallel_bounds.span g)
                      ~comm_lb
                  in
                  let time =
                    List.map (fun (rung, f) -> (rung, fun b -> time_lb (f b))) comm
                  in
                  List.iter
                    (fun (engine, expected) ->
                      check_bool
                        (Printf.sprintf "%s row, p=%d S=%d nodes=%d" engine p s nodes)
                        true
                        (observed_row (fun () ->
                             Bounds.row ~node_budget:nodes ~samples ~p g ~s engine)
                        = expected))
                    [
                      ("mp-comm-lb", ref_ladder ~nodes (comm @ [ ("floor", fun _ -> floor) ]));
                      ( "mp-time-lb",
                        ref_ladder ~nodes (time @ [ ("floor", fun _ -> time_lb floor) ]) );
                    ])
                [ 1; 4 ])
            (budget_levels g ~samples ~s))
        [ 2; 6 ])
    graphs

(* A lost worker's row, derived from its engine's last rung, against
   the two hand-written fallbacks it replaced, on every engine at both
   sides of the trivial schedules' S threshold. *)
let test_degraded_rows_match () =
  let graphs =
    [
      Dmc_gen.Workload.parse_exn "fft:4";
      Dmc_gen.Workload.parse_exn "tree:8";
      Dmc_gen.Workload.parse_exn "diamond:4,4";
      Dmc_gen.Random_dag.daggen (Rng.create 3) ~n:30 ~fat:0.5 ~density:0.3 ~ccr:1;
    ]
  in
  let failure = Budget.Internal "crashed: SIGABRT" and elapsed = 0.25 in
  List.iter
    (fun g ->
      let d = Dmc_testlib.Reference.max_indeg g in
      List.iter
        (fun (e : Bounds.engine) ->
          List.iter
            (fun (p, s) ->
              let expected =
                match e.quantity with
                | Bounds.Seq ->
                    Dmc_testlib.Reference.seq_degraded_row g ~s ~engine:e.name
                      ~kind:e.kind ~failure ~elapsed
                | _ ->
                    Dmc_testlib.Reference.mp_degraded_row g ~p ~s ~engine:e.name
                      ~failure ~elapsed
              in
              Alcotest.(check string)
                (Printf.sprintf "%s p=%d S=%d" e.name p s)
                (Json.to_string (Bounds.row_to_json expected))
                (Json.to_string
                   (Bounds.row_to_json
                      (Bounds.degraded_row ~p g ~s ~engine:e.name ~failure
                         ~elapsed))))
            [ (1, 1); (1, d); (1, d + 1); (4, 1); (4, d); (4, d + 1) ])
        Bounds.engines)
    graphs

(* ------------------------------------------------------------------ *)
(* Checkpoint + RNG state plumbing                                     *)

let test_rng_save_restore () =
  let g = Rng.create 42 in
  for _ = 1 to 17 do
    ignore (Rng.next g)
  done;
  let token = Rng.save g in
  let h =
    match Rng.restore token with
    | Some h -> h
    | None -> Alcotest.fail "save token did not restore"
  in
  for i = 1 to 100 do
    check (Printf.sprintf "draw %d agrees" i) (Rng.next g) (Rng.next h)
  done;
  check_bool "garbage token rejected" true (Rng.restore "xyz" = None);
  check_bool "wrong-length token rejected" true (Rng.restore "00" = None)

let test_checkpoint_roundtrip () =
  let path = Filename.temp_file "dmc-test-ckpt" ".json" in
  let value =
    Json.Obj
      [
        ("kind", Json.String "test");
        ("next_case", Json.Int 17);
        ("rng", Json.String (Rng.save (Rng.create 5)));
        ("ratio", Json.Float 0.25);
        ("flags", Json.List [ Json.Bool true; Json.Null ]);
      ]
  in
  Checkpoint.write path value;
  (match Checkpoint.load path with
  | Error m -> Alcotest.fail m
  | Ok loaded ->
      check_bool "roundtrip" true (loaded = value);
      check "field access" 17
        (Option.get (Option.bind (Json.mem loaded "next_case") Json.as_int)));
  Sys.remove path;
  match Checkpoint.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded a deleted checkpoint"

let test_checkpoint_sweep () =
  let dir = Filename.temp_file "dmc-test-sweep" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "state.json" in
  let make name mtime =
    let full = Filename.concat dir name in
    let oc = open_out full in
    output_string oc "{}";
    close_out oc;
    Option.iter (fun t -> Unix.utimes full t t) mtime;
    full
  in
  let old_age = Unix.gettimeofday () -. 3600. in
  (* Two orphans from a SIGKILLed predecessor, one live temp from a
     concurrent writer, and bystanders that merely look similar. *)
  let orphan1 = make "state.json.abc123.tmp" (Some old_age) in
  let orphan2 = make "state.json.def456.tmp" (Some old_age) in
  let live = make "state.json.ghi789.tmp" None in
  let other_base = make "other.json.abc123.tmp" (Some old_age) in
  let not_tmp = make "state.json.notes" (Some old_age) in
  check "two orphans removed" 2 (Checkpoint.sweep_orphans path);
  check_bool "old orphans gone" true
    ((not (Sys.file_exists orphan1)) && not (Sys.file_exists orphan2));
  check_bool "fresh temp survives" true (Sys.file_exists live);
  check_bool "other base's temp survives" true (Sys.file_exists other_base);
  check_bool "non-temp survives" true (Sys.file_exists not_tmp);
  (* write() sweeps implicitly: re-age the live temp and checkpoint. *)
  Unix.utimes live old_age old_age;
  Checkpoint.write path (Json.Obj [ ("ok", Json.Bool true) ]);
  check_bool "write swept the aged temp" true (not (Sys.file_exists live));
  check_bool "checkpoint landed" true (Sys.file_exists path);
  List.iter Sys.remove [ other_base; not_tmp; path ];
  Unix.rmdir dir

(* The explicit age threshold: a temp younger than [max_age] is a
   concurrent writer's live file and must survive; the same file under
   a tighter threshold is an orphan. *)
let test_checkpoint_sweep_age_threshold () =
  let dir = Filename.temp_file "dmc-test-sweep-age" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "state.json" in
  let temp = Filename.concat dir "state.json.abc123.tmp" in
  let oc = open_out temp in
  output_string oc "{}";
  close_out oc;
  let age = Unix.gettimeofday () -. 120. in
  Unix.utimes temp age age;
  check "2-minute-old temp survives a 300s threshold" 0
    (Checkpoint.sweep_orphans ~max_age:300. path);
  check_bool "still there" true (Sys.file_exists temp);
  check "same temp reaped under a 60s threshold" 1
    (Checkpoint.sweep_orphans ~max_age:60. path);
  check_bool "gone" true (not (Sys.file_exists temp));
  Unix.rmdir dir

(* The committed-prefix codec behind the experiment and sweep
   checkpoints: a document survives the file round trip, and a resume
   refuses every document it could mis-align. *)
let test_checkpoint_prefix () =
  let key = Json.List [ Json.String "table1"; Json.String "sec3" ] in
  let committed = [ Json.Int 1; Json.Obj [ ("rows", Json.List [ Json.Null ]) ] ] in
  let doc = Checkpoint.prefix ~kind:"dmc-test" ~version:3 ~key committed in
  let read ?(kind = "dmc-test") ?(key = key) ?(units = 4) doc =
    Checkpoint.read_prefix ~kind ~version:3 ~key ~units doc
  in
  let must_error what = function
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error msg -> msg
  in
  let path = Filename.temp_file "dmc-test-prefix" ".json" in
  Checkpoint.write path doc;
  (match Result.bind (Checkpoint.load path) read with
  | Ok payloads -> check_bool "round trip" true (payloads = committed)
  | Error m -> Alcotest.fail m);
  Sys.remove path;
  (match read ~units:2 doc with
  | Ok payloads -> check "as many payloads as units" 2 (List.length payloads)
  | Error m -> Alcotest.fail m);
  ignore (must_error "foreign kind" (read ~kind:"dmc-other" doc) : string);
  ignore (must_error "no kind" (read (Json.Obj [])) : string);
  let older =
    must_error "older version"
      (read (Checkpoint.prefix ~kind:"dmc-test" ~version:2 ~key committed))
  in
  check_bool "version message names both versions" true
    (older = "dmc-test checkpoint v2, this build reads v3");
  ignore
    (must_error "no version" (read (Json.Obj [ ("kind", Json.String "dmc-test") ]))
      : string);
  ignore
    (must_error "key mismatch" (read ~key:(Json.List [ Json.String "cg" ]) doc)
      : string);
  ignore (must_error "more payloads than units" (read ~units:1 doc) : string)

let test_json_parse_errors () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" text)
    [ ""; "{"; "[1,"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ]

let qsuite name tests =
  (* fixed qcheck seed so runs are reproducible *)
  ( name,
    List.map
      (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t)
      tests )

let () =
  Alcotest.run "dmc_budget"
    [
      ( "guard",
        [
          Alcotest.test_case "node budget" `Quick test_node_budget;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "tick_n crosses period" `Quick test_tick_n_crosses_period;
          Alcotest.test_case "cancellation" `Quick test_cancel;
          Alcotest.test_case "unlimited still counts" `Quick test_unlimited_counts;
          Alcotest.test_case "guard and internal errors" `Quick test_guard_and_internal_error;
          Alcotest.test_case "failure strings" `Quick test_failure_strings;
          Alcotest.test_case "replay boundaries" `Quick test_replay_boundaries;
          Alcotest.test_case "headroom" `Quick test_headroom;
        ] );
      qsuite "replay-props" [ prop_replay_matches_ticks ];
      ( "engines",
        [
          Alcotest.test_case "partition honors deadline" `Quick test_partition_deadline;
          Alcotest.test_case "rbw honors node budget" `Quick test_rbw_node_budget;
          Alcotest.test_case "state budget" `Quick test_state_budget;
          Alcotest.test_case "too large" `Quick test_engine_too_large;
          Alcotest.test_case "matches raising api" `Quick test_engine_matches_raising_api;
          Alcotest.test_case "anytime wavefront sound" `Quick test_anytime_wavefront_sound;
        ] );
      ( "governed",
        [
          Alcotest.test_case "full run agrees" `Quick test_governed_full_agrees;
          Alcotest.test_case "fallback stays sound" `Quick test_governed_fallback_sound;
          Alcotest.test_case "status strings" `Quick test_governed_status_strings;
          Alcotest.test_case "shared ladder rows match" `Quick test_ladder_rows_match;
          Alcotest.test_case "degraded rows match oracle" `Quick
            test_degraded_rows_match;
        ] );
      qsuite "ladder-props" [ prop_ladder_layered; prop_ladder_daggen ];
      ( "checkpoint",
        [
          Alcotest.test_case "rng save/restore" `Quick test_rng_save_restore;
          Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "orphan temp sweep" `Quick test_checkpoint_sweep;
          Alcotest.test_case "orphan sweep age threshold" `Quick
            test_checkpoint_sweep_age_threshold;
          Alcotest.test_case "committed-prefix codec" `Quick
            test_checkpoint_prefix;
          Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
        ] );
    ]
