(* Tests for the upper-bound schedulers: every emitted game must replay
   cleanly through the corresponding engine, and the I/O accounting
   must match the closed forms where they exist. *)

module Cdag = Dmc_cdag.Cdag
module Strategy = Dmc_core.Strategy
module Rbw = Dmc_core.Rbw_game
module Prbw = Dmc_core.Prbw_game
module Hierarchy = Dmc_machine.Hierarchy
module Rng = Dmc_util.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let replay g ~s moves =
  match Rbw.run g ~s moves with
  | Ok stats -> stats
  | Error e -> Alcotest.fail (Printf.sprintf "step %d: %s" e.Rbw.step e.Rbw.reason)

(* ------------------------------------------------------------------ *)

let test_schedule_chain_minimal () =
  let g = Dmc_gen.Shapes.chain 10 in
  let stats = replay g ~s:2 (Strategy.schedule g ~s:2) in
  (* a chain needs exactly one load and one store at any S >= 2 *)
  check "chain io" 2 stats.Rbw.io

let test_schedule_respects_capacity () =
  let g = Dmc_gen.Linalg.matmul 3 in
  List.iter
    (fun s ->
      let stats = replay g ~s (Strategy.schedule g ~s) in
      check_bool "peak red within S" true (stats.Rbw.max_red <= s))
    [ 3; 4; 6; 10 ]

let test_schedule_io_decreases_with_s () =
  let g = Dmc_gen.Fft.butterfly 4 in
  let io s = Strategy.io g ~s in
  (* more fast memory never hurts this scheduler on the FFT *)
  check_bool "monotone" true (io 4 >= io 8 && io 8 >= io 16 && io 16 >= io 64);
  (* with S as large as the graph, I/O collapses to inputs + outputs *)
  check "cold bound" (Cdag.n_inputs g + Cdag.n_outputs g)
    (io (Cdag.n_vertices g))

let test_schedule_custom_order () =
  let mm = Dmc_gen.Linalg.matmul_indexed 4 in
  let g = mm.Dmc_gen.Linalg.mm_graph in
  let s = 20 in
  let blocked = Strategy.io ~order:(Dmc_gen.Linalg.blocked_matmul_order mm ~block:2) g ~s in
  let natural = Strategy.io g ~s in
  check_bool "blocked order no worse" true (blocked <= natural)

let test_schedule_rejects_bad_orders () =
  let g = Dmc_gen.Shapes.chain 4 in
  Alcotest.check_raises "not topological"
    (Invalid_argument "Strategy: order is not topological") (fun () ->
      ignore (Strategy.schedule ~order:[| 3; 2; 1 |] g ~s:4));
  Alcotest.check_raises "includes an input"
    (Invalid_argument "Strategy: order contains an input or bad vertex") (fun () ->
      ignore (Strategy.schedule ~order:[| 0; 1; 2 |] g ~s:4));
  Alcotest.check_raises "wrong coverage"
    (Invalid_argument "Strategy: order must cover exactly the non-input vertices")
    (fun () -> ignore (Strategy.schedule ~order:[| 1; 2 |] g ~s:4))

let test_schedule_s_too_small () =
  let g = Dmc_gen.Shapes.two_level_fanin ~fanin:5 ~mids:1 in
  (* the middle vertex needs 5 operands + itself: S = 3 cannot work *)
  Alcotest.check_raises "S too small"
    (Failure "Strategy.schedule: S too small for the operand set") (fun () ->
      ignore (Strategy.schedule g ~s:3))

(* Input 1 has a predecessor, so the graph breaks the RBW convention:
   [Cdag] accepts it and [Rbw_game.run] refuses it.  The convention is
   a precondition on the graph, not a rule on the moves, so the
   scheduler, the checker behind [io] and the belady row still play
   it. *)
let test_non_rbw_graph () =
  let g = Cdag.retag (Dmc_gen.Shapes.chain 3) ~inputs:[ 1 ] ~outputs:[ 2 ] in
  Alcotest.check_raises "run refuses the graph"
    (Invalid_argument "Rbw_game.run: graph violates the RBW convention") (fun () ->
      ignore (Rbw.run g ~s:2 []));
  check "io" 2 (Strategy.io g ~s:2);
  Alcotest.(check (list string))
    "schedule"
    [ "compute 0"; "delete 0"; "load 1"; "compute 2"; "delete 1"; "store 2"; "delete 2" ]
    (List.map (Format.asprintf "%a" Dmc_core.Rb_game.pp_move) (Strategy.schedule g ~s:2));
  let row = Dmc_core.Bounds.row g ~s:2 "belady" in
  Alcotest.(check (option int)) "belady row" (Some 2) row.value;
  Alcotest.(check string) "belady rung" "exact" row.rung

let test_trivial_matches_formula () =
  List.iter
    (fun g ->
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let stats = replay g ~s:(max_indeg + 1) (Strategy.trivial g) in
      check "trivial io formula" (Strategy.trivial_io g) stats.Rbw.io)
    [
      Dmc_gen.Shapes.reduction_tree 8;
      Dmc_gen.Shapes.diamond ~rows:3 ~cols:3;
      Dmc_gen.Fft.butterfly 3;
      Dmc_gen.Linalg.outer_product 3;
    ]

let test_trivial_counts_unused_inputs () =
  let b = Cdag.Builder.create () in
  let i1 = Cdag.Builder.add_vertex b in
  let _i2 = Cdag.Builder.add_vertex b in
  let o = Cdag.Builder.add_vertex b in
  Cdag.Builder.add_edge b i1 o;
  let g = Cdag.Builder.freeze ~inputs:[ i1; _i2 ] ~outputs:[ o ] b in
  (* o: 1 load + 1 store; unused input: 1 load *)
  check "unused input counted" 3 (Strategy.trivial_io g);
  ignore (replay g ~s:2 (Strategy.trivial g))

let prop_schedules_valid_on_random =
  QCheck.Test.make ~name:"Belady and LRU schedules replay cleanly" ~count:40
    QCheck.(pair (int_bound 100_000) (int_range 0 1))
    (fun (seed, pol) ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:5 ~width:5 ~edge_prob:0.4 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s = max_indeg + 1 + Rng.int rng 4 in
      let policy = if pol = 0 then Strategy.Belady else Strategy.Lru in
      match Rbw.run g ~s (Strategy.schedule ~policy g ~s) with
      | Ok _ -> true
      | Error _ -> false)

(* Belady is optimal for pure reloads but the store side can cost it a
   couple of I/Os on adversarial DAGs, so the honest claims are: never
   much worse per case, and better in aggregate. *)
let test_belady_vs_lru_aggregate () =
  let total_belady = ref 0 and total_lru = ref 0 in
  for seed = 1 to 40 do
    let rng = Rng.create seed in
    let g = Dmc_gen.Random_dag.layered rng ~layers:5 ~width:4 ~edge_prob:0.5 in
    let max_indeg =
      Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
    in
    let s = max_indeg + 2 in
    let b = Strategy.io ~policy:Strategy.Belady g ~s in
    let l = Strategy.io ~policy:Strategy.Lru g ~s in
    check_bool "never much worse per case" true (b <= l + 2 + (l / 10));
    total_belady := !total_belady + b;
    total_lru := !total_lru + l
  done;
  check_bool "better in aggregate" true (!total_belady <= !total_lru)

(* ------------------------------------------------------------------ *)
(* Shared-cache SMP strategy                                           *)

let test_smp_shared_valid () =
  let st = Dmc_gen.Stencil.jacobi_1d ~n:24 ~steps:6 in
  let g = st.Dmc_gen.Stencil.graph in
  let cores = 4 and s1 = 5 and s2 = 18 in
  let moves = Strategy.smp_shared g ~cores ~s1 ~s2 in
  let hier = Strategy.smp_hierarchy ~cores ~s1 ~s2 in
  match Prbw.run hier g moves with
  | Error e -> Alcotest.fail e.Prbw.reason
  | Ok stats ->
      (* work spreads over the cores *)
      Array.iter
        (fun c -> check_bool "every core fires" true (c > 0))
        stats.Prbw.computes_per_proc;
      (* the shared cache behaves like one sequential fast memory of
         size s2: its memory boundary dominates LB(s2) *)
      check_bool "cache boundary vs LB" true
        (Prbw.boundary_traffic stats ~level:3
        >= Dmc_core.Wavefront.lower_bound g ~s:s2)

let test_smp_shared_small_regs_rejected () =
  let g = Dmc_gen.Shapes.two_level_fanin ~fanin:6 ~mids:1 in
  Alcotest.check_raises "registers too small"
    (Failure "Strategy.smp_shared: register file too small for the operand set")
    (fun () -> ignore (Strategy.smp_shared g ~cores:2 ~s1:4 ~s2:32))

let prop_smp_shared_valid =
  QCheck.Test.make ~name:"smp games replay cleanly" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:5 ~width:4 ~edge_prob:0.4 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let cores = 1 + Rng.int rng 4 in
      let s1 = max_indeg + 1 and s2 = max_indeg + 3 + Rng.int rng 8 in
      let moves = Strategy.smp_shared g ~cores ~s1 ~s2 in
      match Prbw.run (Strategy.smp_hierarchy ~cores ~s1 ~s2) g moves with
      | Ok _ -> true
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* SPMD strategy                                                       *)

let spmd_hier procs s1 =
  Hierarchy.create
    [ { Hierarchy.count = procs; capacity = s1 };
      { Hierarchy.count = procs; capacity = 1_000_000 } ]

let test_spmd_valid_and_ghosts () =
  let n = 8 and steps = 2 in
  let st = Dmc_gen.Stencil.jacobi ~shape:Dmc_gen.Stencil.Star ~dims:[ n; n ] ~steps () in
  let g = st.Dmc_gen.Stencil.graph in
  let npts = n * n in
  let owner_pt = Dmc_sim.Partitioner.block_owner ~dims:[ n; n ] ~blocks:[ 2; 2 ] in
  let owner v = owner_pt (Dmc_gen.Grid.coord st.Dmc_gen.Stencil.grid (v mod npts)) in
  let hier = spmd_hier 4 16 in
  let moves = Strategy.spmd g hier ~owner () in
  match Prbw.run hier g moves with
  | Ok stats ->
      let predicted =
        Dmc_sim.Partitioner.ghost_words ~dims:[ n; n ] ~blocks:[ 2; 2 ] ~star:true
        * steps
      in
      check "horizontal = ghost formula" predicted stats.Prbw.remote_gets;
      check "all vertices computed" (Cdag.n_compute g)
        (Array.fold_left ( + ) 0 stats.Prbw.computes_per_proc)
  | Error e -> Alcotest.fail e.Prbw.reason

let test_spmd_single_owner_no_traffic () =
  let g = Dmc_gen.Shapes.reduction_tree 8 in
  let hier = spmd_hier 2 8 in
  let moves = Strategy.spmd g hier ~owner:(fun _ -> 0) () in
  match Prbw.run hier g moves with
  | Ok stats -> check "no remote gets" 0 stats.Prbw.remote_gets
  | Error e -> Alcotest.fail e.Prbw.reason

let test_spmd_rejects_bad_hierarchy () =
  let g = Dmc_gen.Shapes.chain 3 in
  let three_level =
    Hierarchy.create
      [ { Hierarchy.count = 2; capacity = 4 };
        { Hierarchy.count = 2; capacity = 16 };
        { Hierarchy.count = 2; capacity = 64 } ]
  in
  Alcotest.check_raises "three levels"
    (Invalid_argument "Strategy.spmd: hierarchy must have exactly two levels")
    (fun () -> ignore (Strategy.spmd g three_level ~owner:(fun _ -> 0) ()));
  let shared_mem =
    Hierarchy.create
      [ { Hierarchy.count = 2; capacity = 4 }; { Hierarchy.count = 1; capacity = 64 } ]
  in
  Alcotest.check_raises "shared memory"
    (Invalid_argument "Strategy.spmd: need one level-2 memory per processor")
    (fun () -> ignore (Strategy.spmd g shared_mem ~owner:(fun _ -> 0) ()))

let prop_spmd_valid_random_owner =
  QCheck.Test.make ~name:"spmd games replay cleanly under random owners" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:4 ~width:4 ~edge_prob:0.5 in
      let procs = 3 in
      let owners =
        Array.init (Cdag.n_vertices g) (fun _ -> Rng.int rng procs)
      in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let hier = spmd_hier procs (max_indeg + 1) in
      match Prbw.run hier g (Strategy.spmd g hier ~owner:(fun v -> owners.(v)) ()) with
      | Ok _ -> true
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Eviction reuse distance                                             *)

(* [strategy.evict_distance] observes, for each sequential eviction of a
   value still needed, how many compute steps lie between the vertex
   being fired and the victim's next use. *)
let test_evict_distance () =
  let module Registry = Dmc_obs.Registry in
  let h = Dmc_obs.Histogram.make "strategy.evict_distance" in
  let g = Dmc_gen.Fft.butterfly 3 in
  let was = Registry.is_enabled () in
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Registry.set_enabled was) (fun () ->
      ignore (Strategy.schedule g ~s:4 : Rbw.move list));
  check "observations" 25 (Dmc_obs.Histogram.count h);
  check "sum of compute steps to the next use" 100 (Dmc_obs.Histogram.sum h);
  Registry.reset ()

(* ------------------------------------------------------------------ *)
(* Schedules golden                                                    *)

(* golden/schedules.txt pins every policy scheduler's games: one line
   per (spec, S, scheduler, policy, p or cores/S2), holding the I/O, the
   move count and the MD5 of the moves printed with the game's
   [pp_move], or the failure text. *)

let golden_specs =
  [
    "cg:4,2,2"; "gmres:4,2,2"; "multigrid:17,2,1"; "daggen:3,30,50,30,2";
    "jacobi1d:8,4"; "fft:4"; "tree:16"; "chain:6"; "diamond:3,4"; "matmul:2";
    "outer:3";
  ]

let game_line key pp ~io run =
  match run () with
  | moves ->
      let b = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer b in
      List.iter (Format.fprintf ppf "%a@\n" pp) moves;
      Format.pp_print_flush ppf ();
      Printf.sprintf "%s io=%d moves=%d %s" key (io moves) (List.length moves)
        (Digest.to_hex (Digest.string (Buffer.contents b)))
  | exception (Failure m | Invalid_argument m) -> Printf.sprintf "%s failed: %s" key m

let schedule_lines spec =
  let module Mp = Dmc_core.Mp_game in
  let module Pc = Dmc_core.Pc_game in
  let g = Dmc_gen.Workload.parse_exn spec in
  let d = Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0 in
  let ss = List.sort_uniq compare [ max 1 d; d + 1; d + 2; d + 5; Cdag.n_vertices g ] in
  let prbw_io =
    List.fold_left
      (fun acc m ->
        match (m : Prbw.move) with Prbw.Compute _ | Prbw.Delete _ -> acc | _ -> acc + 1)
      0
  in
  let per_s s =
    List.concat_map
      (fun (pname, policy) ->
        let key sched param =
          Printf.sprintf "%s S=%d %s %s %s" spec s sched pname param
        in
        let rb sched ?order () =
          game_line (key sched "-") Dmc_core.Rb_game.pp_move
            ~io:(fun _ -> Strategy.io ~policy ?order g ~s)
            (fun () -> Strategy.schedule ~policy ?order g ~s)
        in
        [ rb "schedule" (); rb "schedule-dfs" ~order:(Strategy.dfs_order g) () ]
        @ List.map
            (fun p ->
              game_line
                (key "mp_schedule" (Printf.sprintf "p=%d" p))
                Mp.pp_move
                ~io:(fun _ -> Strategy.mp_io ~policy g ~p ~s)
                (fun () -> Strategy.mp_schedule ~policy g ~p ~s))
            [ 1; 2; 4 ]
        @ [
            game_line (key "pc_schedule" "-") Pc.pp_move
              ~io:(fun _ -> Strategy.pc_io ~policy g ~s)
              (fun () -> Strategy.pc_schedule ~policy g ~s);
            game_line
              (key "hierarchical" (Printf.sprintf "s2=%d" (s + 2)))
              Prbw.pp_move ~io:prbw_io
              (fun () -> Strategy.hierarchical ~policy g ~s1:s ~s2:(s + 2));
            game_line
              (key "smp_shared" (Printf.sprintf "cores=2,s2=%d" ((2 * s) + 2)))
              Prbw.pp_move ~io:prbw_io
              (fun () -> Strategy.smp_shared ~policy g ~cores:2 ~s1:s ~s2:((2 * s) + 2));
          ])
      [ ("belady", Strategy.Belady); ("lru", Strategy.Lru) ]
  in
  List.concat_map per_s ss
  @ [
      game_line (spec ^ " trivial - -") Dmc_core.Rb_game.pp_move
        ~io:(fun _ -> Strategy.trivial_io g)
        (fun () -> Strategy.trivial g);
      game_line (spec ^ " mp_trivial - p=2") Dmc_core.Mp_game.pp_move
        ~io:(fun _ -> Strategy.mp_trivial_io g)
        (fun () -> Strategy.mp_trivial g ~p:2);
    ]

let test_schedules_golden () =
  let want =
    In_channel.with_open_bin (Filename.concat "golden" "schedules.txt")
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let got = List.concat_map schedule_lines golden_specs in
  check "golden lines" (List.length want) (List.length got);
  List.iter2 (Alcotest.(check string) "schedule line") want got

let qsuite name tests =
  (* fixed qcheck seed so runs are reproducible *)
  ( name,
    List.map
      (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t)
      tests )

let () =
  Alcotest.run "dmc_strategy"
    [
      ( "schedule",
        [
          Alcotest.test_case "chain minimal io" `Quick test_schedule_chain_minimal;
          Alcotest.test_case "capacity respected" `Quick test_schedule_respects_capacity;
          Alcotest.test_case "io decreases with S" `Quick test_schedule_io_decreases_with_s;
          Alcotest.test_case "custom order" `Quick test_schedule_custom_order;
          Alcotest.test_case "rejects bad orders" `Quick test_schedule_rejects_bad_orders;
          Alcotest.test_case "S too small" `Quick test_schedule_s_too_small;
          Alcotest.test_case "graph outside the RBW convention" `Quick test_non_rbw_graph;
          Alcotest.test_case "eviction reuse distance" `Quick test_evict_distance;
        ] );
      ( "golden",
        [ Alcotest.test_case "schedules" `Quick test_schedules_golden ] );
      ( "trivial",
        [
          Alcotest.test_case "matches formula" `Quick test_trivial_matches_formula;
          Alcotest.test_case "counts unused inputs" `Quick test_trivial_counts_unused_inputs;
        ] );
      qsuite "schedule-props" [ prop_schedules_valid_on_random ];
      ( "policy",
        [ Alcotest.test_case "belady vs lru" `Quick test_belady_vs_lru_aggregate ] );
      ( "smp",
        [
          Alcotest.test_case "valid and bounded" `Quick test_smp_shared_valid;
          Alcotest.test_case "small registers rejected" `Quick test_smp_shared_small_regs_rejected;
        ] );
      qsuite "smp-props" [ prop_smp_shared_valid ];
      ( "spmd",
        [
          Alcotest.test_case "ghost-cell traffic" `Quick test_spmd_valid_and_ghosts;
          Alcotest.test_case "single owner no traffic" `Quick test_spmd_single_owner_no_traffic;
          Alcotest.test_case "rejects bad hierarchies" `Quick test_spmd_rejects_bad_hierarchy;
        ] );
      qsuite "spmd-props" [ prop_spmd_valid_random_owner ];
    ]
