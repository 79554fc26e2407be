(* The benchmark and experiment harness.

   Usage:
     dune exec bench/main.exe                 -- everything below
     dune exec bench/main.exe table1          -- Table 1
     dune exec bench/main.exe sec3            -- Section-3 composite sweep
     dune exec bench/main.exe cg              -- CG analysis (Sec 5.2)
     dune exec bench/main.exe gmres           -- GMRES analysis (Sec 5.3)
     dune exec bench/main.exe jacobi          -- Jacobi analysis (Sec 5.4)
     dune exec bench/main.exe validate        -- lower bounds vs optimal games
     dune exec bench/main.exe sim             -- simulator cross-checks
     dune exec bench/main.exe ablation        -- design-choice ablations
     dune exec bench/main.exe bench           -- bechamel micro-benchmarks
     dune exec bench/main.exe bench --json F  -- also write baseline JSON

   Every experiment prints the rows the paper reports (or the
   validation table establishing the corresponding claim) and an
   [ok]/[FAIL] line per internal consistency check. *)

module Table = Dmc_util.Table

(* ------------------------------------------------------------------ *)
(* Ablation 1: exact vs sampled wavefront (DESIGN.md decision 1)       *)

let ablation_wavefront () =
  Printf.printf "\n== Ablation: exact vs sampled min-cut wavefront ==\n\n";
  let t = Table.create ~headers:[ "CDAG"; "|V|"; "wmax exact"; "sampled(8)"; "sampled(32)"; "exact ms"; "sampled(32) ms" ] in
  let cases =
    [
      ("jacobi1d-24x8", (Dmc_gen.Stencil.jacobi_1d ~n:24 ~steps:8).graph);
      ("cg-3x3x2", (Dmc_gen.Solver.cg ~dims:[ 3; 3 ] ~iters:2).graph);
      ("fft32", Dmc_gen.Fft.butterfly 5);
      ("matmul4", Dmc_gen.Linalg.matmul 4);
    ]
  in
  List.iter
    (fun (name, g) ->
      let stripped, _ = Dmc_cdag.Subgraph.drop_inputs g in
      let g' = stripped.Dmc_cdag.Subgraph.graph in
      let time f =
        let t0 = Unix.gettimeofday () in
        let x = f () in
        (x, (Unix.gettimeofday () -. t0) *. 1000.0)
      in
      let exact, t_exact = time (fun () -> Dmc_core.Wavefront.wmax_exact g') in
      let s8, _ =
        time (fun () ->
            Dmc_core.Wavefront.wmax_sampled (Dmc_util.Rng.create 1) g' ~samples:8)
      in
      let s32, t_s32 =
        time (fun () ->
            Dmc_core.Wavefront.wmax_sampled (Dmc_util.Rng.create 1) g' ~samples:32)
      in
      Table.add_row t
        [
          name;
          string_of_int (Dmc_cdag.Cdag.n_vertices g');
          string_of_int exact;
          string_of_int s8;
          string_of_int s32;
          Printf.sprintf "%.1f" t_exact;
          Printf.sprintf "%.1f" t_s32;
        ])
    cases;
  Table.print t;
  true

(* ------------------------------------------------------------------ *)
(* Ablation 2: eviction policy (DESIGN.md decision 2)                  *)

let ablation_policy () =
  Printf.printf "\n== Ablation: Belady vs LRU spilling ==\n\n";
  let t = Table.create ~headers:[ "CDAG"; "S"; "Belady I/O"; "LRU I/O"; "LRU/Belady" ] in
  let cases =
    [
      ("fft64", Dmc_gen.Fft.butterfly 6, 8);
      ("matmul6", Dmc_gen.Linalg.matmul 6, 12);
      ("jacobi2d-8x4", (Dmc_gen.Stencil.jacobi_2d ~shape:Dmc_gen.Stencil.Star ~n:8 ~steps:4 ()).graph, 20);
      ("tree128", Dmc_gen.Shapes.reduction_tree 128, 4);
      ("cg-4x4x2", (Dmc_gen.Solver.cg ~dims:[ 4; 4 ] ~iters:2).graph, 16);
    ]
  in
  let ok = ref true in
  List.iter
    (fun (name, g, s) ->
      let belady = Dmc_core.Strategy.io ~policy:Dmc_core.Strategy.Belady g ~s in
      let lru = Dmc_core.Strategy.io ~policy:Dmc_core.Strategy.Lru g ~s in
      if belady > lru then ok := false;
      Table.add_row t
        [
          name;
          string_of_int s;
          string_of_int belady;
          string_of_int lru;
          Printf.sprintf "%.2fx" (float_of_int lru /. float_of_int belady);
        ])
    cases;
  Table.print t;
  Printf.printf "  [%s] Belady never worse than LRU on these workloads\n"
    (if !ok then "ok" else "FAIL");
  !ok

(* ------------------------------------------------------------------ *)
(* Ablation 3: stencil tile size                                       *)

let ablation_tile () =
  Printf.printf "\n== Ablation: skewed-tile size vs I/O (1D Jacobi, n=96 T=24, S=36) ==\n\n";
  let st = Dmc_gen.Stencil.jacobi_1d ~n:96 ~steps:24 in
  let s = 36 in
  let t = Table.create ~headers:[ "tile"; "measured I/O"; "vs Theorem-10 LB" ] in
  let lb = Dmc_core.Analytic.jacobi_lb ~d:1 ~n:96 ~steps:24 ~s ~p:1 in
  List.iter
    (fun tile ->
      let order = Dmc_gen.Stencil.skewed_order st ~tile in
      let io = Dmc_core.Strategy.io ~order st.Dmc_gen.Stencil.graph ~s in
      Table.add_row t
        [ string_of_int tile; string_of_int io; Printf.sprintf "%.1fx" (float_of_int io /. lb) ])
    [ 2; 4; 8; 12; 16; 24; 32 ];
  Table.print t;
  Printf.printf "  Theorem-10 lower bound: %.1f words\n" lb;
  true

(* ------------------------------------------------------------------ *)
(* Ablation 4: decomposition granularity on CG (DESIGN.md decision 3)  *)

let ablation_decomposition () =
  Printf.printf "\n== Ablation: whole-CDAG wavefront vs per-iteration decomposition (CG) ==\n\n";
  let t =
    Table.create
      ~headers:[ "iters"; "whole-graph LB"; "decomposed LB"; "Belady UB"; "gain" ]
  in
  let ok = ref true in
  List.iter
    (fun iters ->
      let s = 16 in
      let check = Dmc_analysis.Cg_analysis.structure ~dims:[ 3; 3 ] ~iters ~s () in
      let whole =
        Dmc_core.Wavefront.lower_bound
          (Dmc_gen.Solver.cg ~dims:[ 3; 3 ] ~iters).Dmc_gen.Solver.graph ~s
      in
      if check.Dmc_analysis.Cg_analysis.decomposed_lb > check.Dmc_analysis.Cg_analysis.belady_ub
      then ok := false;
      Table.add_row t
        [
          string_of_int iters;
          string_of_int whole;
          string_of_int check.Dmc_analysis.Cg_analysis.decomposed_lb;
          string_of_int check.Dmc_analysis.Cg_analysis.belady_ub;
          Printf.sprintf "%.2fx"
            (float_of_int check.Dmc_analysis.Cg_analysis.decomposed_lb
            /. float_of_int (max 1 whole));
        ])
    [ 1; 2; 4; 8; 16 ];
  Table.print t;
  Printf.printf
    "  The per-iteration bound grows linearly with T while the whole-graph\n\
    \  wavefront saturates -- the reason Section 3.2 exists.\n";
  !ok

(* ------------------------------------------------------------------ *)
(* Ablation 5: inclusive vs exclusive hierarchies (Sec 4.1 remark)     *)

let ablation_cache_policy () =
  Printf.printf "\n== Ablation: inclusive vs exclusive hierarchy (memory-boundary words) ==\n\n";
  let t = Table.create ~headers:[ "CDAG"; "caps"; "inclusive"; "exclusive"; "excl/incl" ] in
  let cases =
    [
      (* capacities chosen so the working set falls between S2 and
         S1 + S2: that window is where exclusivity's extra aggregate
         capacity pays *)
      ("jacobi1d-32x8", (Dmc_gen.Stencil.jacobi_1d ~n:32 ~steps:8).graph, [| 12; 60 |]);
      ("fft32", Dmc_gen.Fft.butterfly 5, [| 12; 60 |]);
      ("matmul6", Dmc_gen.Linalg.matmul 6, [| 16; 70 |]);
      ("tree64 (streaming)", Dmc_gen.Shapes.reduction_tree 64, [| 4; 12 |]);
    ]
  in
  List.iter
    (fun (name, g, caps) ->
      let order = Dmc_core.Strategy.default_order g in
      let run policy =
        let h = Dmc_sim.Hier_sim.create ~policy ~capacities:caps () in
        Array.iter
          (fun v ->
            Dmc_cdag.Cdag.iter_pred g v (fun u -> Dmc_sim.Hier_sim.read h u);
            Dmc_sim.Hier_sim.write h v)
          order;
        Dmc_sim.Hier_sim.flush h;
        (Dmc_sim.Hier_sim.traffic h).(1)
      in
      let inc = run Dmc_sim.Hier_sim.Inclusive in
      let exc = run Dmc_sim.Hier_sim.Exclusive in
      Table.add_row t
        [
          name;
          Printf.sprintf "%d/%d" caps.(0) caps.(1);
          string_of_int inc;
          string_of_int exc;
          Printf.sprintf "%.2fx" (float_of_int exc /. float_of_int inc);
        ])
    cases;
  Table.print t;
  Printf.printf
    "  For these dataflow workloads the choice barely moves the needle (<= 3%%):\n\
    \  freshly produced values are dirty and migrate outward under either policy.\n\
    \  This is why Sec 4.1 can treat the two interchangeably -- the bounds only\n\
    \  see the effective capacity of the two-level reduction.\n";
  true

(* ------------------------------------------------------------------ *)
(* Ablation 6: execution order (the scheduler knob)                    *)

let ablation_order () =
  Printf.printf "\n== Ablation: execution order under the same Belady policy ==\n\n";
  let t = Table.create ~headers:[ "CDAG"; "S"; "breadth-first"; "depth-first"; "structured" ] in
  let mm = Dmc_gen.Linalg.matmul_indexed 6 in
  let st = Dmc_gen.Stencil.jacobi_1d ~n:64 ~steps:16 in
  let fft_k = 6 in
  let fft = Dmc_gen.Fft.butterfly fft_k in
  let cases =
    [
      ("matmul6", mm.Dmc_gen.Linalg.mm_graph, 14,
       Some (Dmc_gen.Linalg.blocked_matmul_order mm ~block:2));
      ("jacobi1d-64x16", st.Dmc_gen.Stencil.graph, 18,
       Some (Dmc_gen.Stencil.skewed_order st ~tile:6));
      ("fft64", fft, 18, Some (Dmc_gen.Fft.blocked_order ~k:fft_k ~group_bits:3));
      ("tree128", Dmc_gen.Shapes.reduction_tree 128, 4, None);
      ("lu8", (Dmc_gen.Linalg.lu_factor 8).Dmc_gen.Linalg.lu_graph, 12, None);
    ]
  in
  let ok = ref true in
  List.iter
    (fun (name, g, s, structured) ->
      let bfs = Dmc_core.Strategy.io g ~s in
      let dfs = Dmc_core.Strategy.io ~order:(Dmc_core.Strategy.dfs_order g) g ~s in
      let st_io =
        Option.map (fun order -> Dmc_core.Strategy.io ~order g ~s) structured
      in
      (match st_io with
      | Some x -> if x > bfs && x > dfs then ok := false
      | None -> ());
      Table.add_row t
        [
          name;
          string_of_int s;
          string_of_int bfs;
          string_of_int dfs;
          (match st_io with Some x -> string_of_int x | None -> "-");
        ])
    cases;
  Table.print t;
  Printf.printf
    "  [%s] the workload-specific order is never the worst of the three\n"
    (if !ok then "ok" else "FAIL");
  !ok

let ablation () =
  let a = ablation_wavefront () in
  let b = ablation_policy () in
  let c = ablation_tile () in
  let d = ablation_decomposition () in
  let e = ablation_cache_policy () in
  let f = ablation_order () in
  a && b && c && d && e && f

(* ------------------------------------------------------------------ *)
(* Scale demonstration: the engines on 10k-vertex CDAGs               *)

let scale () =
  Printf.printf "\n== Scale: the engines on larger CDAGs ==\n\n";
  let time f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (x, Unix.gettimeofday () -. t0)
  in
  let t = Table.create
      ~headers:[ "CDAG"; "|V|"; "|E|"; "sampled-wavefront LB"; "Belady UB"; "LB s"; "UB s" ]
  in
  let ok = ref true in
  List.iter
    (fun (name, g, s) ->
      let lb, t_lb = time (fun () -> Dmc_core.Wavefront.lower_bound g ~s) in
      let ub, t_ub = time (fun () -> Dmc_core.Strategy.io g ~s) in
      if lb > ub then ok := false;
      Table.add_row t
        [
          name;
          Table.fmt_int (Dmc_cdag.Cdag.n_vertices g);
          Table.fmt_int (Dmc_cdag.Cdag.n_edges g);
          string_of_int lb;
          string_of_int ub;
          Printf.sprintf "%.2f" t_lb;
          Printf.sprintf "%.2f" t_ub;
        ])
    [
      ("cg 6^3 x 4", (Dmc_gen.Solver.cg ~dims:[ 6; 6; 6 ] ~iters:4).graph, 64);
      ("jacobi2d 32x16", (Dmc_gen.Stencil.jacobi_2d ~shape:Dmc_gen.Stencil.Star ~n:32 ~steps:16 ()).graph, 128);
      ("fft 2048", Dmc_gen.Fft.butterfly 11, 66);
      ("matmul 16", Dmc_gen.Linalg.matmul 16, 96);
      ("multigrid 129 L4 c2", (Dmc_gen.Multigrid.v_cycle ~dims:[ 129 ] ~levels:4 ~cycles:2 ()).graph, 24);
    ];
  Table.print t;
  Printf.printf "  [%s] every sampled bound below its measured execution\n"
    (if !ok then "ok" else "FAIL");
  !ok

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the engines                            *)

let json_out = ref None

let micro_benchmarks () =
  let open Bechamel in
  let open Toolkit in
  Printf.printf "\n== Micro-benchmarks (bechamel, monotonic clock) ==\n\n";
  let cg = Dmc_gen.Solver.cg ~dims:[ 3; 3 ] ~iters:2 in
  let jac = Dmc_gen.Stencil.jacobi_1d ~n:32 ~steps:8 in
  let tree = Dmc_gen.Shapes.reduction_tree 8 in
  let fft = Dmc_gen.Fft.butterfly 5 in
  let mm = Dmc_gen.Linalg.matmul_indexed 4 in
  let moves = Dmc_core.Strategy.schedule jac.Dmc_gen.Stencil.graph ~s:12 in
  (* Each case is a plain thunk so the same closure can be staged for
     bechamel and replayed once under a span for the JSON baseline. *)
  let keep f () = ignore (Sys.opaque_identity (f ())) in
  let cases =
    [
      ( "wavefront-mincut-cg",
        keep (fun () ->
            Dmc_core.Wavefront.min_wavefront cg.Dmc_gen.Solver.graph
              cg.Dmc_gen.Solver.iterations.(1).Dmc_gen.Solver.a_scalar) );
      ( "belady-schedule-jacobi",
        keep (fun () -> Dmc_core.Strategy.io jac.Dmc_gen.Stencil.graph ~s:12) );
      ( "rbw-replay-jacobi",
        keep (fun () ->
            Dmc_core.Rbw_game.io_of jac.Dmc_gen.Stencil.graph ~s:12 moves) );
      ( "optimal-search-diamond3x3",
        (let d = Dmc_gen.Shapes.diamond ~rows:3 ~cols:3 in
         keep (fun () -> Dmc_core.Optimal.rbw_io d ~s:4)) );
      ( "partition-of-game-fft32",
        keep (fun () ->
            let mv = Dmc_core.Strategy.schedule fft ~s:6 in
            Dmc_core.Spartition.of_game fft ~s:6 mv) );
      ( "simulator-run-matmul4",
        keep (fun () ->
            Dmc_sim.Exec.run mm.Dmc_gen.Linalg.mm_graph
              ~order:(Dmc_gen.Linalg.blocked_matmul_order mm ~block:2)
              (Dmc_sim.Exec.sequential ~capacities:[| 12; 4096 |])) );
      ( "cdag-build-jacobi2d-16x4",
        keep (fun () ->
            Dmc_gen.Stencil.jacobi_2d ~shape:Dmc_gen.Stencil.Star ~n:16 ~steps:4 ()) );
      ( "witness-extract-verify-thomas32",
        (let th = Dmc_gen.Solver.thomas ~n:32 in
         let g = th.Dmc_gen.Solver.th_graph in
         let x = th.Dmc_gen.Solver.forward.(31) in
         keep (fun () ->
             let w = Dmc_core.Wavefront.witness g x in
             Dmc_core.Wavefront.verify_witness g w)) );
      ( "span-search-tree8",
        keep (fun () -> Dmc_core.Span.s_span tree ~s:6) );
      ( "sim-game-synthesis-fft32",
        keep (fun () ->
            Dmc_sim.Sim_game.of_execution fft
              ~order:(Dmc_core.Strategy.default_order fft) ~s:8) );
      ( "mp-schedule-jacobi-p4",
        keep (fun () -> Dmc_core.Strategy.mp_io jac.Dmc_gen.Stencil.graph ~p:4 ~s:6) );
      ( "pc-schedule-tree8",
        keep (fun () -> Dmc_core.Strategy.pc_io tree ~s:4) );
      ( "mp-comm-lb-fft32-p4",
        keep (fun () -> Dmc_core.Bounds.row ~p:4 fft ~s:6 "mp-comm-lb") );
      ( "serve-cache-lru-churn",
        keep (fun () ->
            (* The daemon's result cache under deterministic churn: 96
               distinct keys through a 64-entry LRU, then one re-read
               pass.  Drives only serve.cache.* counters and gauges —
               32 evictions, 64 hits, 32 misses every run — so the
               baseline diff can gate on them like any work metric.
               The closing gauges mirror the live daemon's exposition:
               hit ratio from the counters, queue depth as the misses
               a daemon would queue to recompute. *)
            let cache = Dmc_serve.Result_cache.create ~capacity:64 () in
            for i = 0 to 95 do
              Dmc_serve.Result_cache.add cache (string_of_int i)
                (Dmc_util.Json.Int i)
            done;
            let hits = ref 0 in
            for i = 0 to 95 do
              match Dmc_serve.Result_cache.find cache (string_of_int i) with
              | Some _ -> incr hits
              | None -> ()
            done;
            let module R = Dmc_obs.Registry in
            let h = (R.counter "serve.cache.hit").R.c_value in
            let m = (R.counter "serve.cache.miss").R.c_value in
            let total = h + m in
            Dmc_obs.Gauge.set
              (Dmc_obs.Gauge.make "serve.cache.hit_ratio")
              (if total = 0 then 0.
               else float_of_int h /. float_of_int total);
            Dmc_obs.Gauge.set
              (Dmc_obs.Gauge.make "serve.queue.depth")
              (float_of_int (96 - !hits));
            !hits) );
      ( "cdag-build-1m-underhinted",
        keep (fun () ->
            (* a million-vertex chain through a 16-slot hint: the
               amortized-doubling growth path from first push to
               freeze, tracking the materialization cost the implicit
               layer avoids *)
            let b = Dmc_cdag.Cdag.Builder.create ~hint:16 () in
            let n = 1_000_000 in
            let first = Dmc_cdag.Cdag.Builder.add_vertex b in
            let prev = ref first in
            for _ = 2 to n do
              let v = Dmc_cdag.Cdag.Builder.add_vertex b in
              Dmc_cdag.Cdag.Builder.add_edge b !prev v;
              prev := v
            done;
            Dmc_cdag.Cdag.Builder.freeze b) );
      ( "implicit-materialize-window-1m",
        (let imp = Dmc_gen.Implicit_gen.jacobi_1d ~n:125_000 ~steps:7 in
         keep (fun () ->
             (* a 64k-vertex window out of a million-vertex implicit
               jacobi: the tile-sized bridge the symbolic engine and
               the streaming sweeps pay per window *)
             Dmc_cdag.Implicit.window imp ~lo:500_000 ~hi:565_536)) );
      ( "symbolic-parse-eval",
        keep (fun () ->
            match Dmc_symbolic.Expr.parse "n^d * T / (4 * P * (2 * S)^(1 / d))" with
            | Ok e ->
                Dmc_symbolic.Expr.eval
                  ~env:[ ("n", 64.0); ("d", 2.0); ("T", 8.0); ("P", 4.0); ("S", 256.0) ]
                  e
            | Error _ -> 0.0) );
    ]
  in
  let tests =
    List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) cases
  in
  let grouped = Test.make_grouped ~name:"dmc" tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t = Table.create ~headers:[ "benchmark"; "ns/run"; "r^2" ] in
  Table.set_align t [ Table.Left; Table.Right; Table.Right ];
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> Some x
        | _ -> None
      in
      let r2 = Analyze.OLS.r_square ols_result in
      rows := (name, est, r2) :: !rows)
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (n, e, r) ->
      Table.add_row t
        [
          n;
          (match e with Some x -> Printf.sprintf "%.0f" x | None -> "-");
          (match r with Some x -> Printf.sprintf "%.4f" x | None -> "-");
        ])
    rows;
  Table.print t;
  (* Baseline JSON: the bechamel estimates plus a counter snapshot from
     one instrumented pass over the same closures, so future PRs can
     diff both wall-clock and algorithmic work against this file. *)
  (match !json_out with
  | None -> ()
  | Some path ->
      let module J = Dmc_util.Json in
      Dmc_obs.Registry.reset ();
      Dmc_obs.Registry.set_enabled true;
      List.iter
        (fun (name, fn) -> Dmc_obs.Span.with_ ("bench." ^ name) fn)
        cases;
      Dmc_obs.Registry.set_enabled false;
      let benchmarks =
        List.map
          (fun (n, e, r) ->
            J.Obj
              [
                ("name", J.String n);
                ("ns_per_run", match e with Some x -> J.Float x | None -> J.Null);
                ("r_square", match r with Some x -> J.Float x | None -> J.Null);
              ])
          rows
      in
      Dmc_util.Checkpoint.write path
        (J.Obj
           [
             ("kind", J.String "dmc-bench-baseline");
             ("meta", Dmc_obs.Baseline.meta ~argv:Sys.argv ());
             ("benchmarks", J.List benchmarks);
             ("profile", Dmc_obs.Export.to_json ());
           ]);
      Printf.printf "  wrote %s\n" path);
  true

(* ------------------------------------------------------------------ *)

let registry =
  Dmc_analysis.Report.names
  @ [ ("ablation", ablation); ("scale", scale); ("bench", micro_benchmarks) ]

let () =
  let rec strip_json acc = function
    | [] -> List.rev acc
    | "--json" :: path :: rest ->
        json_out := Some path;
        strip_json acc rest
    | a :: rest -> strip_json (a :: acc) rest
  in
  let args = strip_json [] (List.tl (Array.to_list Sys.argv)) in
  let selected =
    match args with
    | [] -> registry
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n registry with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %s (known: %s)\n" n
                  (String.concat ", " (List.map fst registry));
                exit 2)
          names
  in
  let ok = List.fold_left (fun acc (_, f) -> f () && acc) true selected in
  Printf.printf "\nOVERALL: %s\n" (if ok then "ALL CHECKS PASSED" else "SOME CHECKS FAILED");
  if not ok then exit 1
