(* Tests for the vertex-min-cut kernel, checked against the linked-list
   Dinic oracle kept in the test library. *)

module Maxflow = Dmc_testlib.Maxflow
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
      ignore (Vertex_cut.min_vertex_cut g ~from_set:srcs ~to_set:(dst :: srcs) ()));
  (* one front slot holds one terminal edge *)
  Alcotest.check_raises "repeated vertex"
    (Invalid_argument "Vertex_cut.min_vertex_cut: repeated terminal vertex") (fun () ->
      ignore (Vertex_cut.min_vertex_cut g ~from_set:(srcs @ srcs) ~to_set:[ dst ] ()));
  Alcotest.check_raises "wavefront of a sink"
    (Invalid_argument "Vertex_cut.wavefront_cut: empty terminal set") (fun () ->
      ignore (Vertex_cut.wavefront_cut (Vertex_cut.prepare g) dst))

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
  check "grid corner paths" 2 (Vertex_cut.disjoint_paths d44 ~src:0 ~dst:15);
  (* a direct edge is one path with no interior vertex *)
  check "adjacent chain" 1
    (Vertex_cut.disjoint_paths (Dmc_gen.Shapes.chain 2) ~src:0 ~dst:1);
  check "adjacent diamond" 1 (Vertex_cut.disjoint_paths d ~src:0 ~dst:1);
  let triangle =
    Dmc_testlib.Gen_cdag.spec_to_cdag { n = 3; edges = [ (0, 1); (0, 2); (2, 1) ] }
  in
  check "edge plus detour" 2 (Vertex_cut.disjoint_paths triangle ~src:0 ~dst:1)

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
module Oracle = Dmc_testlib.Vertex_cut_oracle
module Gen_cdag = Dmc_testlib.Gen_cdag

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
   same ticks as a fresh build, as the oracle's prepared network, and
   as [min_vertex_cut] — through the kernel's general query and through
   its own wavefront query. *)
let prepared_matches_fresh g =
  let p = Vertex_cut.prepare g and o = Oracle.prepare g in
  Cdag.fold_vertices g
    (fun ok x ->
      ok
      &&
      match wavefront_terminals g x with
      | None -> true
      | Some (from_set, to_set) ->
          let sized f =
            let b = Budget.create () in
            let size = f b in
            (size, Budget.spent b)
          in
          let fresh =
            sized (fun budget ->
                fresh_cut_size ~budget g ~from_set ~to_set ~uncuttable:to_set)
          in
          fresh
          = sized (fun budget ->
                Vertex_cut.cut_size ~budget p ~from_set ~to_set ~uncuttable:to_set ())
          && fresh = sized (fun budget -> Vertex_cut.wavefront_cut ~budget p x)
          && fresh
             = sized (fun budget ->
                   Oracle.cut_size ~budget o ~from_set ~to_set ~uncuttable:to_set ())
          && fst fresh
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

(* A query cut short mid-flow must not leak into the next one, whether
   it was the general query or the wavefront query. *)
let test_restore_after_exhaustion () =
  let g = Dmc_gen.Random_dag.daggen (Rng.create 5) ~n:60 ~fat:0.5 ~density:0.3 ~ccr:1 in
  let p = Vertex_cut.prepare g in
  let general ~from_set ~to_set budget =
    Vertex_cut.cut_size ~budget p ~from_set ~to_set ~uncuttable:to_set ()
  in
  Cdag.iter_vertices g (fun x ->
      match wavefront_terminals g x with
      | None -> ()
      | Some (from_set, to_set) ->
          let b_fresh = Budget.create () in
          let fresh =
            fresh_cut_size ~budget:b_fresh g ~from_set ~to_set ~uncuttable:to_set
          in
          let ticks = Budget.spent b_fresh in
          let queries =
            [
              general ~from_set ~to_set;
              (fun budget -> Vertex_cut.wavefront_cut ~budget p x);
            ]
          in
          List.iter
            (fun cut_short ->
              (match cut_short (Budget.create ~nodes:(max 1 (ticks / 2)) ()) with
              | _ -> if ticks > 1 then Alcotest.fail "half budget should exhaust"
              | exception Budget.Exhausted _ -> ());
              List.iter
                (fun query ->
                  let b = Budget.create () in
                  check "size after abort" fresh (query b);
                  check "ticks after abort" ticks (Budget.spent b))
                queries)
            queries)

(* ------------------------------------------------------------------ *)
(* The kernel against the linked-list oracle                           *)

let c_bfs = Dmc_obs.Counter.make "dinic.bfs_rounds"
let c_aug = Dmc_obs.Counter.make "dinic.augmenting_paths"
let h_path_len = Dmc_obs.Histogram.make "dinic.path_len"

(* [f budget] with instrumentation on: its value or failure, the
   budget's [spent], the cancellation polls it took, and the [dinic.*]
   observations it made. *)
let observed f budget polls =
  let was = Dmc_obs.Registry.is_enabled () in
  Dmc_obs.Registry.set_enabled true;
  let dinic () =
    ( Dmc_obs.Counter.value c_bfs,
      Dmc_obs.Counter.value c_aug,
      Dmc_obs.Histogram.count h_path_len,
      Dmc_obs.Histogram.sum h_path_len )
  in
  let before = dinic () in
  let outcome = match f budget with v -> Ok v | exception Budget.Exhausted e -> Error e in
  let after = dinic () in
  Dmc_obs.Registry.set_enabled was;
  let delta (a, b, c, d) (a', b', c', d') = (a' - a, b' - b, c' - c, d' - d) in
  (outcome, Budget.spent budget, !polls, delta before after)

(* Budgets for a query of full cost [t]: none, [1], [t/2], [t-1] and
   [t] ticks, and a cancellation hook that fires at the first or second
   clock poll.  Each call builds a fresh guard and its poll count. *)
let budgets t =
  let nodes k () = (Budget.create ~nodes:(max 1 k) (), ref 0) in
  let cancel_at m () =
    let polls = ref 0 in
    ( Budget.create
        ~cancel:(fun () ->
          incr polls;
          !polls >= m)
        (),
      polls )
  in
  [ (fun () -> (Budget.create (), ref 0)); nodes 1; nodes (t / 2); nodes (t - 1); nodes t;
    cancel_at 1; cancel_at 2 ]

let same_under_budgets ~kernel ~oracle =
  let full = Budget.create () in
  ignore (oracle full);
  List.for_all
    (fun make ->
      let b, polls = make () in
      let o = observed oracle b polls in
      let b, polls = make () in
      o = observed kernel b polls)
    (budgets (Budget.spent full))

(* Every vertex's Lemma-2 query: the kernel's wavefront query equals
   the oracle's prepared query in value, [spent], polls and [dinic.*]
   deltas, completed or cut short at every budget above. *)
let wavefront_matches_oracle g =
  let p = Vertex_cut.prepare g and o = Oracle.prepare g in
  Cdag.fold_vertices g
    (fun ok x ->
      ok
      &&
      match wavefront_terminals g x with
      | None -> true
      | Some (from_set, to_set) ->
          same_under_budgets
            ~kernel:(fun budget -> Vertex_cut.wavefront_cut ~budget p x)
            ~oracle:(fun budget ->
              Oracle.cut_size ~budget o ~from_set ~to_set ~uncuttable:to_set ()))
    true

(* A random subset of [vs] drawn with probability [pct]%, in a random
   order: terminal lists need not be ascending. *)
let subset rng ~pct vs =
  List.filter (fun _ -> Rng.int rng 100 < pct) vs
  |> List.map (fun v -> (Rng.int rng 1000, v))
  |> List.sort compare |> List.map snd

(* The other entry points on random terminal sets: equal results, and
   for the budgeted ones equal [spent] and [dinic.*] too. *)
let entry_points_match_oracle g seed =
  let rng = Rng.create seed in
  let n = Cdag.n_vertices g in
  let all = List.init n Fun.id in
  let from_set = subset rng ~pct:30 all in
  let to_set = subset rng ~pct:40 (List.filter (fun v -> not (List.mem v from_set)) all) in
  let uncuttable = subset rng ~pct:20 all in
  let terminals_ok = from_set <> [] && to_set <> [] in
  let cut_ok =
    (not terminals_ok)
    || same_under_budgets
         ~kernel:(fun budget ->
           let r = Vertex_cut.min_vertex_cut ~budget g ~from_set ~to_set ~uncuttable () in
           (r.size, r.cut, Bitset.elements r.source_side))
         ~oracle:(fun budget ->
           let r = Oracle.min_vertex_cut ~budget g ~from_set ~to_set ~uncuttable () in
           (r.size, r.cut, Bitset.elements r.source_side))
       && same_under_budgets
            ~kernel:(fun budget ->
              Vertex_cut.path_witness ~budget g ~from_set ~to_set ~uncuttable ())
            ~oracle:(fun budget ->
              Oracle.path_witness ~budget g ~from_set ~to_set ~uncuttable ())
  in
  let pairs_ok =
    List.for_all
      (fun src ->
        List.for_all
          (fun dst ->
            src = dst || Cdag.has_edge g src dst
            || same_under_budgets
                 ~kernel:(fun budget -> Vertex_cut.disjoint_paths ~budget g ~src ~dst)
                 ~oracle:(fun budget -> Oracle.disjoint_paths ~budget g ~src ~dst))
          all)
      (subset rng ~pct:30 all)
  in
  (* the sets of [disjoint_set_paths] may share vertices *)
  let from_set = subset rng ~pct:40 all and to_set = subset rng ~pct:40 all in
  cut_ok && pairs_ok
  && Vertex_cut.disjoint_set_paths g ~from_set ~to_set
     = Oracle.disjoint_set_paths g ~from_set ~to_set

(* [spec]'s graph with its ids permuted by [seed], so edges may run from
   higher to lower ids. *)
let relabeled (spec : Gen_cdag.spec) seed =
  let rng = Rng.create seed in
  let perm = Array.init spec.n Fun.id in
  for i = spec.n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let b = Cdag.Builder.create () in
  for _ = 1 to spec.n do
    ignore (Cdag.Builder.add_vertex b)
  done;
  List.iter (fun (u, v) -> Cdag.Builder.add_edge b perm.(u) perm.(v)) spec.edges;
  Cdag.Builder.freeze b

(* Both oracle properties over one graph family: [graph] builds the
   graph from a drawn case, [seed] picks its terminal sets. *)
let oracle_family name ~count arb ~graph ~seed =
  [
    QCheck.Test.make ~name:("wavefront query = oracle, " ^ name) ~count arb (fun case ->
        wavefront_matches_oracle (graph case));
    QCheck.Test.make ~name:("entry points = oracle, " ^ name) ~count arb (fun case ->
        entry_points_match_oracle (graph case) (seed case));
  ]

let oracle_props =
  let spec_seed = QCheck.(pair (Gen_cdag.arbitrary ~max_n:12 ()) (int_bound 100_000)) in
  oracle_family "arbitrary" ~count:100 spec_seed
    ~graph:(fun (spec, _) -> Gen_cdag.spec_to_cdag spec)
    ~seed:snd
  @ oracle_family "relabeled" ~count:100 spec_seed
      ~graph:(fun (spec, seed) -> relabeled spec seed)
      ~seed:snd
  @ oracle_family "layered" ~count:20 QCheck.(int_bound 100_000)
      ~graph:(fun seed ->
        Dmc_gen.Random_dag.layered (Rng.create seed) ~layers:5 ~width:6 ~edge_prob:0.4)
      ~seed:Fun.id
  @ oracle_family "daggen" ~count:6 QCheck.(int_bound 100_000)
      ~graph:(fun seed ->
        let rng = Rng.create seed in
        Dmc_gen.Random_dag.daggen rng ~n:(40 + Rng.int rng 40) ~fat:0.5 ~density:0.3 ~ccr:1)
      ~seed:Fun.id

(* ------------------------------------------------------------------ *)
(* Witness goldens                                                     *)

(* resolved against the test binary, not the cwd *)
let dmc_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    "dmc.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [dmc witness -g spec] stdout, recorded before the kernel replaced
   the linked-list network: the same flow decomposes into the same
   paths, in the same order. *)
let test_witness_golden spec file () =
  let ic = Unix.open_process_args_in dmc_exe [| dmc_exe; "witness"; "-g"; spec |] in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "dmc witness -g %s failed" spec);
  Alcotest.(check string) spec (read_file (Filename.concat "golden" file)) out

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
      qsuite "oracle-props" oracle_props;
      ( "witness",
        [
          Alcotest.test_case "cg:4,2,2 golden" `Quick
            (test_witness_golden "cg:4,2,2" "witness-cg-4-2-2.txt");
          Alcotest.test_case "thomas:32 golden" `Quick
            (test_witness_golden "thomas:32" "witness-thomas-32.txt");
        ] );
    ]
