(* Tests for Dinic max-flow and the vertex-min-cut reduction. *)

module Maxflow = Dmc_flow.Maxflow
module Vertex_cut = Dmc_flow.Vertex_cut
module Bitset = Dmc_util.Bitset
module Cdag = Dmc_cdag.Cdag
module Rng = Dmc_util.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let _ = check_bool

(* ------------------------------------------------------------------ *)
(* Max-flow on hand-built networks                                     *)

let test_single_edge () =
  let net = Maxflow.create 2 in
  let e = Maxflow.add_edge net ~src:0 ~dst:1 ~cap:7 in
  check "flow" 7 (Maxflow.max_flow net ~src:0 ~dst:1);
  check "flow on edge" 7 (Maxflow.flow_on net e)

let test_series_bottleneck () =
  let net = Maxflow.create 3 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:10);
  ignore (Maxflow.add_edge net ~src:1 ~dst:2 ~cap:4);
  check "bottleneck" 4 (Maxflow.max_flow net ~src:0 ~dst:2)

let test_parallel_paths () =
  let net = Maxflow.create 4 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:3);
  ignore (Maxflow.add_edge net ~src:1 ~dst:3 ~cap:3);
  ignore (Maxflow.add_edge net ~src:0 ~dst:2 ~cap:5);
  ignore (Maxflow.add_edge net ~src:2 ~dst:3 ~cap:2);
  check "sum of paths" 5 (Maxflow.max_flow net ~src:0 ~dst:3)

(* The classic CLRS example network (max flow 23). *)
let test_clrs_network () =
  let net = Maxflow.create 6 in
  let edges =
    [ (0, 1, 16); (0, 2, 13); (1, 3, 12); (2, 1, 4); (2, 4, 14); (3, 2, 9);
      (3, 5, 20); (4, 3, 7); (4, 5, 4) ]
  in
  List.iter (fun (src, dst, cap) -> ignore (Maxflow.add_edge net ~src ~dst ~cap)) edges;
  check "CLRS flow" 23 (Maxflow.max_flow net ~src:0 ~dst:5)

(* A network needing a residual (back-edge) augmentation. *)
let test_residual_needed () =
  let net = Maxflow.create 4 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:1);
  ignore (Maxflow.add_edge net ~src:0 ~dst:2 ~cap:1);
  ignore (Maxflow.add_edge net ~src:1 ~dst:2 ~cap:1);
  ignore (Maxflow.add_edge net ~src:1 ~dst:3 ~cap:1);
  ignore (Maxflow.add_edge net ~src:2 ~dst:3 ~cap:1);
  check "zigzag" 2 (Maxflow.max_flow net ~src:0 ~dst:3)

let test_min_cut_side () =
  let net = Maxflow.create 3 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:10);
  ignore (Maxflow.add_edge net ~src:1 ~dst:2 ~cap:4);
  ignore (Maxflow.max_flow net ~src:0 ~dst:2);
  let side = Maxflow.min_cut_source_side net ~src:0 in
  Alcotest.(check (list int)) "source side" [ 0; 1 ] (Bitset.elements side)

let test_maxflow_errors () =
  let net = Maxflow.create 2 in
  Alcotest.check_raises "src=dst" (Invalid_argument "Maxflow.max_flow: src = dst")
    (fun () -> ignore (Maxflow.max_flow net ~src:0 ~dst:0));
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Maxflow.add_edge: negative capacity") (fun () ->
      ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~cap:(-1)));
  Alcotest.check_raises "bad node"
    (Invalid_argument "Maxflow.add_edge: node out of range") (fun () ->
      ignore (Maxflow.add_edge net ~src:0 ~dst:2 ~cap:1));
  let e = Maxflow.add_edge net ~src:0 ~dst:1 ~cap:1 in
  Alcotest.check_raises "flow_on bad id"
    (Invalid_argument "Maxflow.flow_on: edge id out of range") (fun () ->
      ignore (Maxflow.flow_on net (e + 2)));
  Alcotest.check_raises "edge_dst bad id"
    (Invalid_argument "Maxflow.edge_dst: edge id out of range") (fun () ->
      ignore (Maxflow.edge_dst net (-1)))

(* Flow = capacity of the cut induced by the residual source side
   (max-flow/min-cut duality), on random networks. *)
let prop_duality =
  QCheck.Test.make ~name:"max-flow equals residual-cut capacity" ~count:50
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 6 + Rng.int rng 5 in
      let net = Maxflow.create n in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Rng.int rng 100 < 30 then begin
            let cap = 1 + Rng.int rng 9 in
            ignore (Maxflow.add_edge net ~src:u ~dst:v ~cap);
            edges := (u, v, cap) :: !edges
          end
        done
      done;
      let flow = Maxflow.max_flow net ~src:0 ~dst:(n - 1) in
      let side = Maxflow.min_cut_source_side net ~src:0 in
      let cut_capacity =
        List.fold_left
          (fun acc (u, v, cap) ->
            if Bitset.mem side u && not (Bitset.mem side v) then acc + cap else acc)
          0 !edges
      in
      flow = cut_capacity)

(* ------------------------------------------------------------------ *)
(* Vertex cuts on CDAGs                                                *)

(* k disjoint 2-hop paths from a source set to a sink: cut = k. *)
let parallel_paths_graph k =
  let b = Cdag.Builder.create () in
  let srcs = List.init k (fun _ -> Cdag.Builder.add_vertex b) in
  let mids = List.init k (fun _ -> Cdag.Builder.add_vertex b) in
  let dst = Cdag.Builder.add_vertex b in
  List.iter2 (fun s m -> Cdag.Builder.add_edge b s m) srcs mids;
  List.iter (fun m -> Cdag.Builder.add_edge b m dst) mids;
  (Cdag.Builder.freeze b, srcs, mids, dst)

let test_vertex_cut_parallel () =
  let g, srcs, mids, dst = parallel_paths_graph 4 in
  let r =
    Vertex_cut.min_vertex_cut g ~from_set:srcs ~to_set:[ dst ] ~uncuttable:[ dst ] ()
  in
  check "cut size" 4 r.Vertex_cut.size;
  check "cut cardinality" 4 (List.length r.Vertex_cut.cut);
  (* each cut vertex lies on a distinct path *)
  List.iter
    (fun v ->
      if not (List.mem v srcs || List.mem v mids) then
        Alcotest.fail "cut vertex off the paths")
    r.Vertex_cut.cut

let test_vertex_cut_shared_mid () =
  (* Two sources, both through one middle vertex: cut = 1. *)
  let b = Cdag.Builder.create () in
  let s1 = Cdag.Builder.add_vertex b and s2 = Cdag.Builder.add_vertex b in
  let m = Cdag.Builder.add_vertex b in
  let t = Cdag.Builder.add_vertex b in
  Cdag.Builder.add_edge b s1 m;
  Cdag.Builder.add_edge b s2 m;
  Cdag.Builder.add_edge b m t;
  let g = Cdag.Builder.freeze b in
  let r = Vertex_cut.min_vertex_cut g ~from_set:[ s1; s2 ] ~to_set:[ t ] ~uncuttable:[ t ] () in
  check "single shared vertex" 1 r.Vertex_cut.size;
  Alcotest.(check (list int)) "the middle" [ m ] r.Vertex_cut.cut

let test_vertex_cut_uncuttable_forces_detour () =
  (* s -> m -> t with m uncuttable: the cut must take s itself. *)
  let b = Cdag.Builder.create () in
  let s = Cdag.Builder.add_vertex b in
  let m = Cdag.Builder.add_vertex b in
  let t = Cdag.Builder.add_vertex b in
  Cdag.Builder.add_edge b s m;
  Cdag.Builder.add_edge b m t;
  let g = Cdag.Builder.freeze b in
  let r =
    Vertex_cut.min_vertex_cut g ~from_set:[ s ] ~to_set:[ t ] ~uncuttable:[ m; t ] ()
  in
  check "must cut s" 1 r.Vertex_cut.size;
  Alcotest.(check (list int)) "s in cut" [ s ] r.Vertex_cut.cut

let test_vertex_cut_errors () =
  let g, srcs, _, dst = parallel_paths_graph 2 in
  Alcotest.check_raises "empty set"
    (Invalid_argument "Vertex_cut.min_vertex_cut: empty terminal set") (fun () ->
      ignore (Vertex_cut.min_vertex_cut g ~from_set:[] ~to_set:[ dst ] ()));
  Alcotest.check_raises "intersecting sets"
    (Invalid_argument "Vertex_cut.min_vertex_cut: terminal sets intersect")
    (fun () ->
      ignore (Vertex_cut.min_vertex_cut g ~from_set:srcs ~to_set:(dst :: srcs) ()))

let test_path_witness () =
  let g, srcs, mids, dst = parallel_paths_graph 3 in
  let paths =
    Vertex_cut.path_witness g ~from_set:srcs ~to_set:[ dst ] ~uncuttable:[ dst ] ()
  in
  check "three paths" 3 (List.length paths);
  (* each path is src -> mid -> dst's predecessor chain recorded as the
     cuttable vertices it crosses (dst is uncuttable so it appears as
     the terminal split edge too? no: uncuttable vertices still appear) *)
  List.iter
    (fun path ->
      match path with
      | s :: rest ->
          check_bool "starts at a source" true (List.mem s srcs);
          check_bool "passes its own mid" true
            (List.exists (fun v -> List.mem v mids) rest)
      | [] -> Alcotest.fail "empty path")
    paths;
  (* pairwise disjoint outside the uncuttable sink *)
  let seen = Hashtbl.create 16 in
  List.iter
    (List.iter (fun v ->
         if v <> dst then begin
           if Hashtbl.mem seen v then Alcotest.fail "shared cuttable vertex";
           Hashtbl.replace seen v ()
         end))
    paths

let test_path_witness_count_matches_cut () =
  let g = Dmc_gen.Shapes.diamond ~rows:3 ~cols:3 in
  let r = Vertex_cut.min_vertex_cut g ~from_set:[ 0 ] ~to_set:[ 8 ] ~uncuttable:[ 8 ] () in
  let paths = Vertex_cut.path_witness g ~from_set:[ 0 ] ~to_set:[ 8 ] ~uncuttable:[ 8 ] () in
  check "witness size = cut size" r.Vertex_cut.size (List.length paths)

let test_disjoint_paths () =
  let g, _, _, _ = parallel_paths_graph 3 in
  ignore g;
  (* diamond: two disjoint paths around *)
  let d = Dmc_gen.Shapes.diamond ~rows:2 ~cols:2 in
  check "diamond 2x2" 2 (Vertex_cut.disjoint_paths d ~src:0 ~dst:3);
  (* chain: one path *)
  let c = Dmc_gen.Shapes.chain 5 in
  check "chain" 1 (Vertex_cut.disjoint_paths c ~src:0 ~dst:4);
  (* the defining property of the butterfly: a unique path between any
     input/output pair *)
  let f = Dmc_gen.Fft.butterfly 3 in
  check "fft unique path" 1
    (Vertex_cut.disjoint_paths f ~src:0 ~dst:(Dmc_gen.Fft.vertex ~k:3 ~rank:3 0));
  (* a 4x4 grid has 2 internally disjoint corner-to-corner paths *)
  let d44 = Dmc_gen.Shapes.diamond ~rows:4 ~cols:4 in
  check "grid corner paths" 2 (Vertex_cut.disjoint_paths d44 ~src:0 ~dst:15)

(* On random DAGs, the vertex cut between sources and sinks never
   exceeds either terminal set size (each is itself a valid cut when
   cuttable). *)
let prop_cut_bounded =
  QCheck.Test.make ~name:"vertex cut bounded by the from-set size" ~count:50
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:4 ~width:4 ~edge_prob:0.5 in
      let srcs = Cdag.sources g and snks = Cdag.sinks g in
      let snk_set = List.filter (fun v -> not (List.mem v srcs)) snks in
      if srcs = [] || snk_set = [] then true
      else begin
        let r =
          Vertex_cut.min_vertex_cut g ~from_set:srcs ~to_set:snk_set
            ~uncuttable:snk_set ()
        in
        r.Vertex_cut.size <= List.length srcs
        && r.Vertex_cut.size = List.length r.Vertex_cut.cut
      end)

(* ------------------------------------------------------------------ *)
(* Prepared split network: tick-for-tick equal to a fresh build        *)

module Budget = Dmc_util.Budget
module Reach = Dmc_cdag.Reach

(* The split network built from scratch in the reduction's documented
   edge order — the reference every prepared query must match, in flow
   value and in budget ticks. *)
let fresh_cut_size ~budget g ~from_set ~to_set ~uncuttable =
  let n = Cdag.n_vertices g in
  let hard = Bitset.of_list n uncuttable in
  let net = Maxflow.create ((2 * n) + 2) in
  let src = 2 * n and dst = (2 * n) + 1 in
  for v = 0 to n - 1 do
    let cap = if Bitset.mem hard v then Maxflow.infinite else 1 in
    ignore (Maxflow.add_edge net ~src:(2 * v) ~dst:((2 * v) + 1) ~cap)
  done;
  Cdag.iter_edges g (fun u v ->
      ignore (Maxflow.add_edge net ~src:((2 * u) + 1) ~dst:(2 * v) ~cap:Maxflow.infinite));
  List.iter
    (fun v -> ignore (Maxflow.add_edge net ~src ~dst:(2 * v) ~cap:Maxflow.infinite))
    from_set;
  List.iter
    (fun v -> ignore (Maxflow.add_edge net ~src:((2 * v) + 1) ~dst ~cap:Maxflow.infinite))
    to_set;
  Maxflow.max_flow ~budget net ~src ~dst

(* Wavefront terminals of [x]: [{x} ∪ Anc(x)] and [Desc(x)]. *)
let wavefront_terminals g x =
  let desc = Reach.descendants g x in
  if Bitset.is_empty desc then None
  else Some (x :: Bitset.elements (Reach.ancestors g x), Bitset.elements desc)

(* Every x's wavefront query on one prepared network: same size and
   same ticks as a fresh build, and as [min_vertex_cut]. *)
let prepared_matches_fresh g =
  let p = Vertex_cut.prepare g in
  Cdag.fold_vertices g
    (fun ok x ->
      ok
      &&
      match wavefront_terminals g x with
      | None -> true
      | Some (from_set, to_set) ->
          let b_prep = Budget.create () and b_fresh = Budget.create () in
          let size =
            Vertex_cut.cut_size ~budget:b_prep p ~from_set ~to_set ~uncuttable:to_set ()
          in
          size = fresh_cut_size ~budget:b_fresh g ~from_set ~to_set ~uncuttable:to_set
          && Budget.spent b_prep = Budget.spent b_fresh
          && size
             = (Vertex_cut.min_vertex_cut g ~from_set ~to_set ~uncuttable:to_set ())
                 .Vertex_cut.size)
    true

let prop_prepared_layered =
  QCheck.Test.make ~name:"prepared = fresh, layered" ~count:30 QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      prepared_matches_fresh
        (Dmc_gen.Random_dag.layered rng ~layers:5 ~width:6 ~edge_prob:0.4))

let prop_prepared_daggen =
  QCheck.Test.make ~name:"prepared = fresh, daggen" ~count:10 QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      prepared_matches_fresh
        (Dmc_gen.Random_dag.daggen rng ~n:(40 + Rng.int rng 40) ~fat:0.5 ~density:0.3
           ~ccr:1))

(* A query cut short mid-flow must not leak into the next one. *)
let test_restore_after_exhaustion () =
  let g = Dmc_gen.Random_dag.daggen (Rng.create 5) ~n:60 ~fat:0.5 ~density:0.3 ~ccr:1 in
  let p = Vertex_cut.prepare g in
  Cdag.iter_vertices g (fun x ->
      match wavefront_terminals g x with
      | None -> ()
      | Some (from_set, to_set) ->
          let b_fresh = Budget.create () in
          let fresh =
            fresh_cut_size ~budget:b_fresh g ~from_set ~to_set ~uncuttable:to_set
          in
          let ticks = Budget.spent b_fresh in
          (match
             Vertex_cut.cut_size
               ~budget:(Budget.create ~nodes:(max 1 (ticks / 2)) ())
               p ~from_set ~to_set ~uncuttable:to_set ()
           with
          | _ -> if ticks > 1 then Alcotest.fail "half budget should exhaust"
          | exception Budget.Exhausted _ -> ());
          let b = Budget.create () in
          check "size after abort" fresh
            (Vertex_cut.cut_size ~budget:b p ~from_set ~to_set ~uncuttable:to_set ());
          check "ticks after abort" ticks (Budget.spent b))

(* The anytime sampler's value and tick count under fixed budgets,
   pinned from the per-query fresh-network implementation. *)
let test_anytime_ticks_pinned () =
  let g =
    Cdag.retag
      (Dmc_gen.Random_dag.daggen (Rng.create 7) ~n:150 ~fat:0.5 ~density:0.3 ~ccr:1)
      ~inputs:[] ~outputs:[]
  in
  List.iter
    (fun (nodes, value, spent) ->
      let budget = Budget.create ?nodes () in
      let w =
        Dmc_core.Wavefront.wmax_sampled_anytime ~budget (Rng.create 11) g ~samples:64
      in
      check "value" value w;
      check "ticks" spent (Budget.spent budget))
    [ (Some 5_000, 0, 5_000); (Some 8_000, 22, 8_000); (None, 22, 280_615) ]

let qsuite name tests =
  (* fixed qcheck seed so runs are reproducible *)
  ( name,
    List.map
      (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t)
      tests )

let () =
  Alcotest.run "dmc_flow"
    [
      ( "maxflow",
        [
          Alcotest.test_case "single edge" `Quick test_single_edge;
          Alcotest.test_case "series bottleneck" `Quick test_series_bottleneck;
          Alcotest.test_case "parallel paths" `Quick test_parallel_paths;
          Alcotest.test_case "CLRS network" `Quick test_clrs_network;
          Alcotest.test_case "residual augmentation" `Quick test_residual_needed;
          Alcotest.test_case "min-cut side" `Quick test_min_cut_side;
          Alcotest.test_case "errors" `Quick test_maxflow_errors;
        ] );
      qsuite "maxflow-props" [ prop_duality ];
      ( "vertex_cut",
        [
          Alcotest.test_case "parallel paths" `Quick test_vertex_cut_parallel;
          Alcotest.test_case "shared middle" `Quick test_vertex_cut_shared_mid;
          Alcotest.test_case "uncuttable detour" `Quick test_vertex_cut_uncuttable_forces_detour;
          Alcotest.test_case "errors" `Quick test_vertex_cut_errors;
          Alcotest.test_case "disjoint paths" `Quick test_disjoint_paths;
          Alcotest.test_case "path witness" `Quick test_path_witness;
          Alcotest.test_case "witness matches cut" `Quick test_path_witness_count_matches_cut;
        ] );
      qsuite "vertex-cut-props" [ prop_cut_bounded ];
      qsuite "prepared-props" [ prop_prepared_layered; prop_prepared_daggen ];
      ( "prepared",
        [
          Alcotest.test_case "restore after exhaustion" `Quick test_restore_after_exhaustion;
          Alcotest.test_case "anytime ticks pinned" `Quick test_anytime_ticks_pinned;
        ] );
    ]
