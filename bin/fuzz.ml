(* dmc-fuzz: randomized cross-validation soak tool.

   Generates random CDAGs across several families and, for each,
   cross-checks every engine against every other:

     1. every lower bound <= the exhaustive RBW optimum, read from the
        governed optimal row wherever its exact rung completes; on the
        smallest graphs a second run of the search reproduces the row;
     2. the optimum <= every strategy's measured I/O;
     3. RB optimum <= RBW optimum;
     4. every schedule (Belady, LRU, DFS order) replays cleanly;
     5. the Theorem-1 partition of each game validates with
        q >= S(h-1);
     6. the LRU simulator's traffic dominates the certified bound;
     7. serialization round-trips;
     8. the three-level hierarchical game validates with both
        boundaries above their sequential bounds, and the shared-cache
        game at 2 and 4 cores replays in the P-RBW game;
     9. every cut ceiling bounds its min cut, and the pruned exact
        wavefront sweep equals the per-vertex maximum, on the graph
        and on both Corollary-2 strips;
    10. at every vertex of the graph and of both strips, the Menger
        witness has exactly min-wavefront paths (none for a sink) and
        the flow-free checker accepts it.
    11. the exact H(2S), where its search completes under a fixed node
        budget, is at most the block count of check 5's partition.
    12. over the mp/pc engines of the engine table, at p = 1, 2, 4:
        each quantity's lower-bound row is at most its upper-bound
        row, the mp lower bounds never rise with p, and at p = 1
        mp-comm-lb is max(floor row, wavefront row).
    13. a replayed ladder is the ladder: on a daggen graph, every
        ladder-reading engine's row under a node budget B (a quarter to
        one and a half times the full exact sweep), seeded with a
        wavefront record taken under B/2, B, 2B or no limit, has the
        unseeded row's value, rung, failed rungs and budget ticks, at
        two values of S (and of p, for engines that read it); every
        record round-trips through the engine-job JSON.
    14. the multi-processor and partial-computation schedules replay:
        under both policies, every mp schedule at p = 1, 2, 4 plays in
        the mp game with the I/O mp_io reports, and at p = 1 maps move
        for move onto the sequential schedule; every pc schedule plays
        in the pc game with the I/O pc_io reports; the p = 2 no-reuse
        game plays too.

   Usage:
     dune exec bin/fuzz.exe -- [cases] [seed]
         [--timeout SECS] [--checkpoint FILE] [--resume FILE] [--no-checkpoint]
         [--jobs N] [--job-timeout SECS] [--retries N] [--fault SPEC]
         [--profile] [--trace FILE] [--progress]

   Every case runs in a supervised forked worker, --jobs at a time,
   and commits in case order, so the output is the same at every
   width.

   The master RNG state and case counter are checkpointed after every
   case (default file: dmc-fuzz.ckpt.json, atomically replaced), so a
   killed run continues exactly where it stopped with --resume.  Every
   violation additionally persists a reproducer file
   (dmc-fuzz-repro-caseN.json) recording the family, seeds, S and the
   failed check.  --timeout stops cleanly between cases (exit 0),
   leaving the checkpoint behind; violations exit 1 as before. *)

module Cdag = Dmc_cdag.Cdag
module Rng = Dmc_util.Rng
module Strategy = Dmc_core.Strategy
module J = Dmc_util.Json

let max_indeg g =
  Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0

let families =
  [|
    ( "layered-4x4",
      fun rng -> Dmc_gen.Random_dag.layered rng ~layers:4 ~width:4 ~edge_prob:0.4 );
    ( "layered-3x5",
      fun rng -> Dmc_gen.Random_dag.layered rng ~layers:3 ~width:5 ~edge_prob:0.6 );
    ( "gnp",
      fun rng -> Dmc_gen.Random_dag.gnp rng ~n:(7 + Rng.int rng 6) ~edge_prob:0.3 );
    ( "connected",
      fun rng ->
        Dmc_gen.Random_dag.connected_dag rng ~n:(6 + Rng.int rng 8)
          ~extra_edges:(Rng.int rng 8) );
    ( "jacobi1d",
      fun rng ->
        let n = 3 + Rng.int rng 4 in
        let steps = 1 + Rng.int rng 3 in
        Dmc_gen.Workload.build_exn "jacobi1d" [ n; steps ] );
  |]

exception Violation of string

(* Check 1 cross-checks the governed optimal row against a second run
   of the exhaustive search only on graphs of at most this many
   vertices.  Over the 50 cases of seed 1 (one core of a 2-vCPU
   machine) the search costs 0.6 s in total on graphs of at most 10
   vertices, and 9.6 s, 8.3 s and 11.2 s on those of 11, 12 and 13. *)
let raw_optimum_limit = 10

let require label ok = if not ok then raise (Violation label)

let one_case rng g ~s =
  let n = Cdag.n_vertices g in

  (* 7: serialization round-trip *)
  (match Dmc_cdag.Serialize.of_string (Dmc_cdag.Serialize.to_string g) with
  | Ok g2 -> require "serialize" (Dmc_cdag.Serialize.equal_structure g g2)
  | Error m -> raise (Violation ("serialize: " ^ m)));

  (* 4: schedules replay *)
  let check_schedule label order policy =
    match Dmc_core.Rbw_game.run g ~s (Strategy.schedule ~policy ?order g ~s) with
    | Ok stats -> stats.Dmc_core.Rbw_game.io
    | Error e -> raise (Violation (Printf.sprintf "%s: %s" label e.reason))
  in
  let belady = check_schedule "belady" None Strategy.Belady in
  let lru = check_schedule "lru" None Strategy.Lru in
  let dfs = check_schedule "dfs" (Some (Strategy.dfs_order g)) Strategy.Belady in

  (* 1-3: bound soundness against the optimum *)
  let report = Dmc_core.Bounds.analyze g ~s in
  (* Inputs nobody consumes still cost one load in a complete RBW game
     (the white-pebble rule), but they never cross an inner hierarchy
     boundary and the LRU simulator never touches them: correct the
     dominance checks by their count. *)
  let unused_inputs =
    List.length
      (List.filter (fun v -> Cdag.out_degree g v = 0) (Cdag.inputs g))
  in
  require "floor <= wavefront consistency" (report.best_lb >= report.io_floor);

  (* governed analysis: always completes and stays sound *)
  let module B = Dmc_core.Bounds in
  let gov = B.analyze_governed g ~s in
  require "governed lb sound" (gov.B.gov_best_lb <= belady);
  require "governed lb >= floor" (gov.B.gov_best_lb >= report.io_floor);
  (match gov.B.gov_best_ub with
  | Some ub -> require "governed ub >= lb" (ub >= gov.B.gov_best_lb)
  | None -> raise (Violation "governed ub missing for feasible S"));
  (* The governed optimal row's exact rung is the unbudgeted RBW
     optimum: the soundness checks read it from there. *)
  let row = List.find (fun (r : B.row) -> r.engine = "optimal") gov.B.gov_rows in
  (match row with
  | { rung = "exact"; value = Some opt; _ } ->
      require "lb <= optimal" (report.best_lb <= opt);
      require "optimal <= belady" (opt <= belady);
      require "optimal <= lru" (opt <= lru);
      require "optimal <= dfs" (opt <= dfs);
      if n <= 12 && Dmc_cdag.Validate.is_hong_kung g then
        require "rb <= rbw" (Dmc_core.Optimal.rb_io g ~s <= opt)
  | _ -> ());
  (* The row must agree with the raising engine; the search repeats, so
     only where it is cheap. *)
  (if n <= raw_optimum_limit then
     match Dmc_core.Optimal.rbw_io g ~s with
     | opt ->
         require "governed optimal row = rbw" (row.rung = "exact" && row.value = Some opt)
     | exception Dmc_core.Optimal.Too_large _ ->
         require "governed optimal row not exact when too large" (row.rung <> "exact"));

  (* 5: Theorem-1 partition of the Belady game *)
  let moves = Strategy.schedule g ~s in
  let io = Dmc_core.Rbw_game.io_of g ~s moves in
  let color = Dmc_core.Spartition.of_game g ~s moves in
  let h = 1 + Array.fold_left max (-1) color in
  (match Dmc_core.Spartition.check g ~s:(2 * s) ~color with
  | Ok _ -> ()
  | Error m -> raise (Violation ("theorem1 partition: " ^ m)));
  require "theorem1 arithmetic" (io >= s * (h - 1));

  (* 11: the exact H(2S) is never above the Theorem-1 partition's h,
     where the search completes under its node budget; draws nothing
     from [rng] *)
  (match
     Dmc_core.Spartition.min_h_exact
       ~budget:(Dmc_util.Budget.create ~nodes:200_000 ())
       g ~s:(2 * s)
   with
  | h_exact -> require "exact H(2S) <= theorem1 h" (h_exact <= h)
  | exception (Dmc_util.Budget.Exhausted _ | Dmc_core.Optimal.Too_large _) -> ());

  (* 6: simulator dominance *)
  let sim =
    Dmc_sim.Exec.run g
      ~order:(Strategy.default_order g)
      (Dmc_sim.Exec.sequential ~capacities:[| s; 8 * n |])
  in
  require "simulator dominates lb"
    (sim.vertical.(0).(0) + unused_inputs >= report.best_lb);

  (* 8: hierarchical game, and the shared-cache game at 2 and 4 cores
     with S1 = S and the same S2 *)
  let s2 = s + 2 + Rng.int rng 8 in
  let hier_moves = Strategy.hierarchical g ~s1:s ~s2 in
  let hier = Strategy.hierarchical_hierarchy ~s1:s ~s2 in
  (match Dmc_core.Prbw_game.run hier g hier_moves with
  | Ok stats ->
      require "hier regs boundary"
        (Dmc_core.Prbw_game.boundary_traffic stats ~level:2 + unused_inputs
        >= Dmc_core.Wavefront.lower_bound g ~s);
      require "hier mem boundary"
        (Dmc_core.Prbw_game.boundary_traffic stats ~level:3 + unused_inputs
        >= Dmc_core.Wavefront.lower_bound g ~s:s2)
  | Error e -> raise (Violation ("hierarchical: " ^ e.reason)));
  List.iter
    (fun cores ->
      let hier = Strategy.smp_hierarchy ~cores ~s1:s ~s2 in
      match Dmc_core.Prbw_game.run hier g (Strategy.smp_shared g ~cores ~s1:s ~s2) with
      | Ok _ -> ()
      | Error e ->
          raise (Violation (Printf.sprintf "smp_shared cores=%d: %s" cores e.reason)))
    [ 2; 4 ];

  (* 9: cut ceilings and the pruned sweep; draws nothing from [rng] *)
  let ceilings g =
    let cut = Dmc_core.Wavefront.min_wavefront g in
    let wmax =
      Cdag.fold_vertices g
        (fun best x ->
          let w = cut x in
          require "ceiling >= min cut" (w <= Dmc_core.Wavefront.cut_ceiling g x);
          max best w)
        0
    in
    require "wmax_exact = per-vertex max" (Dmc_core.Wavefront.wmax_exact g = wmax)
  in
  (* 10: flow values against the flow-free Menger checker; draws
     nothing from [rng] *)
  let witnesses g =
    let cut = Dmc_core.Wavefront.min_wavefront g in
    Cdag.iter_vertices g (fun x ->
        let w = Dmc_core.Wavefront.witness g x in
        let expected = if Cdag.out_degree g x = 0 then 0 else cut x in
        require "witness paths = min wavefront"
          (List.length w.Dmc_core.Wavefront.paths = expected);
        require "witness verifies" (Dmc_core.Wavefront.verify_witness g w))
  in
  let part_i, _ = Dmc_cdag.Subgraph.drop_inputs g in
  let part_io, _, _ = Dmc_cdag.Subgraph.drop_io g in
  List.iter
    (fun g ->
      ceilings g;
      witnesses g)
    [ g; part_i.graph; part_io.graph ];

  (* 12: the mp/pc rows, driven by the engine table; draws nothing
     from [rng] *)
  let value (r : B.row) =
    match r.value with
    | Some v -> v
    | None -> raise (Violation (r.engine ^ ": row without a value"))
  in
  let mp = List.filter (fun (e : B.engine) -> e.quantity <> B.Seq) B.engines in
  let ps = [ 1; 2; 4 ] in
  let rows =
    List.map
      (fun p ->
        (p, List.map (fun (e : B.engine) -> (e.name, value (B.row ~p g ~s e.name))) mp))
      ps
  in
  let at p name = List.assoc name (List.assoc p rows) in
  List.iter
    (fun (lb : B.engine) ->
      List.iter
        (fun (ub : B.engine) ->
          if lb.kind = B.Lower && ub.kind = B.Upper && lb.quantity = ub.quantity then
            List.iter
              (fun p ->
                require
                  (Printf.sprintf "%s <= %s at p=%d" lb.name ub.name p)
                  (at p lb.name <= at p ub.name))
              ps)
        mp;
      if lb.kind = B.Lower && B.reads_p lb.quantity then
        require (lb.name ^ " non-increasing in p")
          (at 4 lb.name <= at 2 lb.name && at 2 lb.name <= at 1 lb.name))
    mp;
  let gov_value name =
    value (List.find (fun (r : B.row) -> r.engine = name) gov.B.gov_rows)
  in
  require "mp-comm-lb at p=1 = max(floor, wavefront)"
    (at 1 "mp-comm-lb" = max (gov_value "floor") (gov_value "wavefront"));

  (* 13: seeded rows against derived ones, on a daggen graph keyed by
     the case's size and S; draws nothing from [rng] *)
  let dg =
    Dmc_gen.Random_dag.daggen
      (Rng.create ((n * 7919) + s))
      ~n:(16 + n) ~fat:0.5 ~density:0.4 ~ccr:2
  in
  let c_ticks = Dmc_obs.Counter.make "budget.ticks" in
  (* a row's outcome and the budget ticks its rungs spent *)
  let outcome f =
    let was = Dmc_obs.Registry.is_enabled () in
    Dmc_obs.Registry.set_enabled true;
    let before = Dmc_obs.Counter.value c_ticks in
    let (r : B.row) =
      Fun.protect ~finally:(fun () -> Dmc_obs.Registry.set_enabled was) f
    in
    (r.value, r.rung, r.attempts, Dmc_obs.Counter.value c_ticks - before)
  in
  (* B from a quarter to one and a half times what the unlimited exact
     rung spends, so the rows' exact rungs both finish and exhaust *)
  let budget =
    let spent = Dmc_util.Budget.create () in
    (match B.wavefront_rungs dg with
    | (_, exact) :: _ -> ignore (exact (Some spent) ~s : int)
    | [] -> ());
    1 + (Dmc_util.Budget.spent spent * (1 + ((n + s) mod 6)) / 4)
  in
  let records =
    List.map
      (fun node_budget -> B.wavefront_record ?node_budget dg)
      [ Some (budget / 2); Some budget; Some (2 * budget); None ]
  in
  List.iter
    (fun record ->
      let job = Dmc_core.Engine_job.make ~record dg ~s ~engine:"wavefront" in
      match Dmc_core.Engine_job.(of_json (to_json job)) with
      | Ok j -> require "record JSON round-trip" (j.record = Some record)
      | Error m -> raise (Violation ("record JSON: " ^ m)))
    records;
  List.iter
    (fun (e : B.engine) ->
      if B.takes_record e.name then
        List.iter
          (fun s ->
            List.iter
              (fun p ->
                let derived =
                  outcome (fun () -> B.row ~node_budget:budget ~p dg ~s e.name)
                in
                List.iter
                  (fun record ->
                    require
                      (Printf.sprintf "%s replayed = derived at S=%d p=%d" e.name s p)
                      (outcome (fun () ->
                           B.row ~node_budget:budget ~record ~p dg ~s e.name)
                      = derived))
                  records)
              (if B.reads_p e.quantity then [ 1; 2 ] else [ 1 ]))
          [ s; 2 * s ])
    B.engines;

  (* 14: the mp and pc schedules replay with the I/O their io
     functions report; draws nothing from [rng] *)
  let module Mp = Dmc_core.Mp_game in
  let module Pc = Dmc_core.Pc_game in
  let module Rb = Dmc_core.Rb_game in
  let on_proc0 = function
    | Mp.Load { proc = 0; v } -> Rb.Load v
    | Mp.Store { proc = 0; v } -> Rb.Store v
    | Mp.Compute { proc = 0; v } -> Rb.Compute v
    | Mp.Delete { proc = 0; v } -> Rb.Delete v
    | m ->
        raise (Violation (Format.asprintf "mp p=1 move off processor 0: %a" Mp.pp_move m))
  in
  let mp_replays label ~p moves ~io =
    match Mp.run g ~p ~s moves with
    | Ok st -> require (label ^ ": replayed io") (st.Mp.io = io)
    | Error e ->
        raise (Violation (Printf.sprintf "%s: step %d: %s" label e.Mp.step e.Mp.reason))
  in
  List.iter
    (fun (name, policy) ->
      List.iter
        (fun p ->
          let label = Printf.sprintf "mp %s p=%d" name p in
          let moves = Strategy.mp_schedule ~policy g ~p ~s in
          mp_replays label ~p moves ~io:(Strategy.mp_io ~policy g ~p ~s);
          if p = 1 then
            require (label ^ " = sequential schedule")
              (List.map on_proc0 moves = Strategy.schedule ~policy g ~s))
        [ 1; 2; 4 ];
      if s >= 2 then
        match Pc.run g ~s (Strategy.pc_schedule ~policy g ~s) with
        | Ok st ->
            require ("pc " ^ name ^ ": replayed io")
              (st.Pc.io = Strategy.pc_io ~policy g ~s)
        | Error e ->
            raise
              (Violation
                 (Printf.sprintf "pc %s: step %d: %s" name e.Pc.step e.Pc.reason)))
    [ ("belady", Strategy.Belady); ("lru", Strategy.Lru) ];
  mp_replays "mp trivial p=2" ~p:2 (Strategy.mp_trivial g ~p:2)
    ~io:(Strategy.mp_trivial_io g);
  n

(* ------------------------------------------------------------------ *)
(* Driver: argument parsing, checkpointing, reproducers.              *)

(* Everything a case does is a pure function of its seed, so a forked
   pool worker visits exactly the case stream of the master seed, at
   every --jobs width. *)
let run_case ~case_seed =
  let rng = Rng.create case_seed in
  let family = ref "?" in
  let s_used = ref None in
  let n_built = ref None in
  match
    let fname, gen = families.(Rng.int rng (Array.length families)) in
    family := fname;
    let g = gen rng in
    n_built := Some (Cdag.n_vertices g);
    let s = max_indeg g + 1 + Rng.int rng 4 in
    s_used := Some s;
    one_case rng g ~s
  with
  | n -> Ok n
  | exception Violation msg ->
      Error ("violation", msg, !family, !s_used, !n_built)
  | exception e ->
      Error ("exception", Printexc.to_string e, !family, !s_used, !n_built)

let usage =
  "usage: fuzz [cases] [seed] [--timeout SECS] [--checkpoint FILE] \
   [--resume FILE] [--no-checkpoint] [--jobs N] [--job-timeout SECS] \
   [--retries N] [--fault SPEC] [--profile] [--trace FILE] [--progress]"

let die msg =
  prerr_endline ("fuzz: " ^ msg);
  prerr_endline usage;
  exit 2

(* [rng] is the saved master state *after* the last committed case's
   seed draw — the supervisor snapshots it per case when it draws the
   seeds, so a checkpoint written while later cases are in flight still
   resumes the exact stream. *)
let fuzz_checkpoint ~cases ~seed ~next_case ~rng ~total_vertices ~failures =
  J.Obj
    [
      ("kind", J.String "dmc-fuzz");
      ("cases", J.Int cases);
      ("seed", J.Int seed);
      ("next_case", J.Int next_case);
      ("rng", J.String rng);
      ("total_vertices", J.Int total_vertices);
      ("failures", J.Int failures);
    ]

let write_repro ~case ~seed ~case_seed ~family ~s ~n ~check msg =
  let path = Printf.sprintf "dmc-fuzz-repro-case%d.json" case in
  Dmc_util.Checkpoint.write path
    (J.Obj
       [
         ("kind", J.String "dmc-fuzz-repro");
         ("case", J.Int case);
         ("seed", J.Int seed);
         ("case_seed", J.Int case_seed);
         ("family", J.String family);
         ("s", J.opt (fun s -> J.Int s) s);
         ("n_vertices", J.opt (fun n -> J.Int n) n);
         ("check", J.String check);
         ("failure", J.String msg);
       ]);
  path

let () =
  let timeout = ref None in
  let ckpt_path = ref (Some "dmc-fuzz.ckpt.json") in
  let resume = ref None in
  let jobs = ref 1 in
  let job_timeout = ref None in
  let retries = ref 0 in
  let cli_faults = ref [] in
  let profile = ref false in
  let trace = ref None in
  let progress = ref false in
  let positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--timeout" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t -> timeout := Some t
        | None -> die ("bad --timeout value: " ^ v));
        parse rest
    | "--checkpoint" :: v :: rest ->
        ckpt_path := Some v;
        parse rest
    | "--no-checkpoint" :: rest ->
        ckpt_path := None;
        parse rest
    | "--resume" :: v :: rest ->
        resume := Some v;
        parse rest
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> jobs := n
        | _ -> die ("bad --jobs value: " ^ v));
        parse rest
    | "--job-timeout" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t -> job_timeout := Some t
        | None -> die ("bad --job-timeout value: " ^ v));
        parse rest
    | "--retries" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 0 -> retries := n
        | _ -> die ("bad --retries value: " ^ v));
        parse rest
    | "--fault" :: v :: rest ->
        (match Dmc_runtime.Fault.parse v with
        | Ok faults -> cli_faults := !cli_faults @ faults
        | Error msg -> die msg);
        parse rest
    | "--profile" :: rest ->
        profile := true;
        parse rest
    | "--trace" :: v :: rest ->
        trace := Some v;
        parse rest
    | "--progress" :: rest ->
        progress := true;
        parse rest
    | arg :: _ when String.length arg >= 2 && String.sub arg 0 2 = "--" ->
        die ("unknown option " ^ arg)
    | arg :: rest ->
        positional := arg :: !positional;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !profile || !trace <> None then Dmc_obs.Registry.set_enabled true;
  let pos_int what v =
    match int_of_string_opt v with Some i -> i | None -> die ("bad " ^ what ^ ": " ^ v)
  in
  let cases, seed =
    match List.rev !positional with
    | [] -> (200, 20140418)
    | [ c ] -> (pos_int "case count" c, 20140418)
    | [ c; s ] -> (pos_int "case count" c, pos_int "seed" s)
    | _ -> die "too many positional arguments"
  in
  (* Resume restores the case counter, totals and the exact master RNG
     stream, so the continued run visits the same remaining cases an
     uninterrupted run would have. *)
  let cases, seed, start_case, master, tv0, f0 =
    match !resume with
    | None -> (cases, seed, 1, Rng.create seed, 0, 0)
    | Some path -> (
        (match !ckpt_path with
        | Some "dmc-fuzz.ckpt.json" -> ckpt_path := Some path
        | _ -> ());
        match Dmc_util.Checkpoint.load path with
        | Error msg -> die (Printf.sprintf "cannot resume from %s: %s" path msg)
        | Ok ckpt ->
            let get field conv =
              match Option.bind (J.mem ckpt field) conv with
              | Some v -> v
              | None ->
                  die (Printf.sprintf "%s: missing or bad field %S" path field)
            in
            (match Option.bind (J.mem ckpt "kind") J.as_string with
            | Some "dmc-fuzz" -> ()
            | _ -> die (path ^ ": not a dmc-fuzz checkpoint"));
            let master =
              match Rng.restore (get "rng" J.as_string) with
              | Some g -> g
              | None -> die (path ^ ": corrupt RNG state")
            in
            ( get "cases" J.as_int,
              get "seed" J.as_int,
              get "next_case" J.as_int,
              master,
              get "total_vertices" J.as_int,
              get "failures" J.as_int ))
  in
  if start_case > 1 then
    Printf.eprintf "fuzz: resuming at case %d/%d\n%!" start_case cases;
  (* Graceful shutdown: the first SIGINT/SIGTERM stops dispatching,
     reaps any workers, keeps the last checkpoint and exits with a
     distinct code; a second one exits immediately. *)
  let interrupted = ref None in
  let install_signal s =
    Sys.set_signal s
      (Sys.Signal_handle
         (fun _ ->
           match !interrupted with
           | Some _ -> exit (if s = Sys.sigterm then 143 else 130)
           | None -> interrupted := Some s))
  in
  install_signal Sys.sigint;
  install_signal Sys.sigterm;
  let deadline = Option.map (fun t -> Dmc_util.Budget.now () +. t) !timeout in
  let total_vertices = ref tv0 in
  let failures = ref f0 in
  let record ~case ~case_seed ~family ~s ~n check msg =
    incr failures;
    let repro = write_repro ~case ~seed ~case_seed ~family ~s ~n ~check msg in
    Printf.printf "VIOLATION in case %d (seed %d): %s [reproducer: %s]\n%!"
      case case_seed msg repro
  in
  let checkpoint_after ~next_case ~rng =
    Option.iter
      (fun path ->
        Dmc_util.Checkpoint.write path
          (fuzz_checkpoint ~cases ~seed ~next_case ~rng
             ~total_vertices:!total_vertices ~failures:!failures))
      !ckpt_path
  in
  (* Supervised pool at every --jobs width: one forked worker per case,
     results committed in case order.  Case seeds are drawn from the
     master stream up front, with the post-draw state snapshotted per
     case so every checkpoint resumes the exact stream. *)
  let module Pool = Dmc_runtime.Pool in
  let n_remaining = Int.max 0 (cases - start_case + 1) in
  let seeds = Array.make n_remaining (0, "") in
  for k = 0 to n_remaining - 1 do
    let case_seed = Rng.next master in
    seeds.(k) <- (case_seed, Rng.save master)
  done;
  let worker _ k =
    let case_seed, _ = seeds.(k) in
    match run_case ~case_seed with
    | Ok n -> Ok (J.Obj [ ("n", J.Int n) ])
    | Error (check, msg, family, s, n) ->
        Ok
          (J.Obj
             [
               ("check", J.String check);
               ("msg", J.String msg);
               ("family", J.String family);
               ("s", J.opt (fun v -> J.Int v) s);
               ("n", J.opt (fun v -> J.Int v) n);
             ])
  in
  let on_result k outcome =
    let case = start_case + k in
    let case_seed, rng = seeds.(k) in
    (match outcome.Pool.verdict with
    | Pool.Done payload -> (
        let field f conv = Option.bind (J.mem payload f) conv in
        match field "check" J.as_string with
        | Some check ->
            let str f = Option.value ~default:"?" (field f J.as_string) in
            record ~case ~case_seed ~family:(str "family")
              ~s:(field "s" J.as_int) ~n:(field "n" J.as_int) check
              (str "msg")
        | None -> (
            match field "n" J.as_int with
            | Some n -> total_vertices := !total_vertices + n
            | None ->
                record ~case ~case_seed ~family:"?" ~s:None ~n:None
                  "worker-protocol" "result frame lacks n"))
    | v ->
        (* The child died before it could persist anything, so the
           supervisor emits the reproducer: case index + seeds are
           enough to replay the case deterministically. *)
        record ~case ~case_seed ~family:"?" ~s:None ~n:None "worker"
          (Pool.verdict_to_string v));
    checkpoint_after ~next_case:(case + 1) ~rng
  in
  let cfg =
    {
      Pool.default with
      jobs = !jobs;
      timeout = !job_timeout;
      max_retries = !retries;
      faults = Dmc_runtime.Fault.of_env () @ !cli_faults;
      should_stop = (fun () -> !interrupted <> None);
      accept_more =
        (fun () ->
          match deadline with
          | None -> true
          | Some d -> Dmc_util.Budget.now () <= d);
      on_progress = (if !progress then Some Dmc_runtime.Progress.draw else None);
    }
  in
  let outcomes = Pool.run cfg ~worker ~on_result (List.init n_remaining Fun.id) in
  if !progress then Dmc_runtime.Progress.clear ();
  let cancelled =
    Array.fold_left
      (fun acc o ->
        match o.Pool.verdict with
        | Pool.Engine_failure Dmc_util.Budget.Cancelled -> acc + 1
        | _ -> acc)
      0 outcomes
  in
  let stopped_at = if cancelled > 0 then Some (cases - cancelled) else None in
  (match !trace with
  | Some path -> Dmc_obs.Export.write_chrome_trace path
  | None -> ());
  if !profile then print_string (Dmc_obs.Export.profile ());
  let resume_hint () =
    (* Only point at a checkpoint that actually exists: a run stopped
       before its first committed case never wrote one. *)
    match !ckpt_path with
    | Some p when Sys.file_exists p ->
        Printf.sprintf " (resume with --resume %s)" p
    | Some _ | None -> ""
  in
  (match (!interrupted, stopped_at) with
  | Some _, Some at ->
      Printf.printf "fuzz: interrupted after %d/%d cases%s\n" at cases
        (resume_hint ())
  | Some _, None ->
      Printf.printf "fuzz: interrupted after %d/%d cases%s\n" cases cases
        (resume_hint ())
  | None, Some at ->
      Printf.printf "fuzz: timeout after %d/%d cases%s\n" at cases
        (resume_hint ())
  | None, None ->
      Printf.printf "fuzz: %d cases, %d vertices total, %d violation(s)\n" cases
        !total_vertices !failures);
  if Stdlib.( > ) !failures 0 then exit 1;
  match !interrupted with
  | Some s -> exit (if s = Sys.sigterm then 143 else 130)
  | None -> ()
