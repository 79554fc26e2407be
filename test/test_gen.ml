(* Tests for the workload generators: sizes, degrees, tagging, and the
   structural properties the paper's analyses rely on. *)

module Cdag = Dmc_cdag.Cdag
module Validate = Dmc_cdag.Validate
module Grid = Dmc_gen.Grid
module Linalg = Dmc_gen.Linalg
module Stencil = Dmc_gen.Stencil
module Fft = Dmc_gen.Fft
module Shapes = Dmc_gen.Shapes
module Solver = Dmc_gen.Solver
module Random_dag = Dmc_gen.Random_dag
module Rng = Dmc_util.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Grid                                                                *)

let test_grid_indexing () =
  let g = Grid.create [ 3; 4; 5 ] in
  check "size" 60 (Grid.size g);
  check "rank" 3 (Grid.rank g);
  check "row-major" ((1 * 20) + (2 * 5) + 3) (Grid.index g [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "coord roundtrip" [ 1; 2; 3 ]
    (Grid.coord g (Grid.index g [ 1; 2; 3 ]));
  check_bool "in range" true (Grid.in_range g [ 2; 3; 4 ]);
  check_bool "out of range" false (Grid.in_range g [ 3; 0; 0 ]);
  Alcotest.check_raises "bad index" (Invalid_argument "Grid.index: out of range")
    (fun () -> ignore (Grid.index g [ 0; 0; 5 ]))

let test_grid_neighbors () =
  let g = Grid.create [ 4; 4 ] in
  let center = Grid.index g [ 1; 1 ] in
  check "star interior" 4 (List.length (Grid.star_neighbors g center));
  check "box interior" 8 (List.length (Grid.box_neighbors g center));
  let corner = Grid.index g [ 0; 0 ] in
  check "star corner" 2 (List.length (Grid.star_neighbors g corner));
  check "box corner" 3 (List.length (Grid.box_neighbors g corner));
  (* neighbors are symmetric *)
  List.iter
    (fun n -> check_bool "symmetric" true (List.mem center (Grid.star_neighbors g n)))
    (Grid.star_neighbors g center)

let test_grid_1d () =
  let g = Grid.create [ 7 ] in
  check "1d star middle" 2 (List.length (Grid.star_neighbors g 3));
  check "1d star end" 1 (List.length (Grid.star_neighbors g 0));
  Alcotest.(check (list int)) "1d neighbors" [ 2; 4 ] (Grid.star_neighbors g 3)

(* The footprint iterator gives the sequence the list-based
   neighborhoods gave, with the point merged in, for both shapes, in
   1-3 dimensions including size-1 axes. *)
let test_grid_footprint () =
  List.iter
    (fun dims ->
      let g = Grid.create dims in
      List.iter
        (fun (shape, reference, wrapper) ->
          Grid.iter g (fun i ->
              let seen = ref [] in
              Grid.iter_footprint g shape i (fun j -> seen := j :: !seen);
              let what =
                Printf.sprintf "[%s] point %d"
                  (String.concat "x" (List.map string_of_int dims)) i
              in
              Alcotest.(check (list int)) what
                (List.merge compare [ i ] (reference g i))
                (List.rev !seen);
              Alcotest.(check (list int)) (what ^ " wrapper") (reference g i) (wrapper g i)))
        [
          (Grid.Star, Dmc_testlib.Reference.star_neighbors, Grid.star_neighbors);
          (Grid.Box, Dmc_testlib.Reference.box_neighbors, Grid.box_neighbors);
        ])
    [
      [ 1 ]; [ 7 ]; [ 4; 4 ]; [ 3; 5 ]; [ 1; 6 ]; [ 6; 1 ];
      [ 3; 4; 5 ]; [ 3; 1; 4 ]; [ 1; 1; 3 ]; [ 2; 2; 1 ];
    ];
  Alcotest.check_raises "out of range" (Invalid_argument "Grid.iter_footprint: out of range")
    (fun () -> Grid.iter_footprint (Grid.create [ 3 ]) Grid.Star 3 ignore)

(* ------------------------------------------------------------------ *)
(* Linalg                                                              *)

let test_dot_product_shape () =
  let n = 6 in
  let g = Linalg.dot_product n in
  (* 2n inputs + n multiplies + (n-1) reduction adds *)
  check "vertices" ((4 * n) - 1) (Cdag.n_vertices g);
  check "inputs" (2 * n) (Cdag.n_inputs g);
  check "outputs" 1 (Cdag.n_outputs g);
  check_bool "hong-kung" true (Validate.is_hong_kung g)

let test_saxpy_shape () =
  let n = 5 in
  let g = Linalg.saxpy n in
  check "vertices" ((3 * n) + 1) (Cdag.n_vertices g);
  check "outputs" n (Cdag.n_outputs g);
  (* every compute vertex reads the scalar and two elements *)
  Cdag.iter_vertices g (fun v ->
      if not (Cdag.is_input g v) then check "ternary" 3 (Cdag.in_degree g v))

let test_outer_product_shape () =
  let n = 4 in
  let g = Linalg.outer_product n in
  check "vertices" ((2 * n) + (n * n)) (Cdag.n_vertices g);
  check "edges" (2 * n * n) (Cdag.n_edges g);
  check "outputs" (n * n) (Cdag.n_outputs g)

let test_matmul_shape () =
  let n = 3 in
  let mm = Linalg.matmul_indexed n in
  let g = mm.Linalg.mm_graph in
  (* 2n^2 inputs + n^3 mults + n^2(n-1) adds *)
  check "vertices"
    ((2 * n * n) + (n * n * n) + (n * n * (n - 1)))
    (Cdag.n_vertices g);
  check "outputs" (n * n) (Cdag.n_outputs g);
  (* index maps agree with the graph structure *)
  let m = mm.Linalg.mult 1 2 0 in
  check "first acc = first mult" m (mm.Linalg.acc 1 2 0);
  let a = mm.Linalg.acc 1 2 1 in
  check "acc in-degree" 2 (Cdag.in_degree g a);
  check_bool "acc chain edge" true (Cdag.has_edge g (mm.Linalg.acc 1 2 0) a);
  check_bool "mult feeds acc" true (Cdag.has_edge g (mm.Linalg.mult 1 2 1) a);
  check_bool "output is last acc" true (Cdag.is_output g (mm.Linalg.acc 1 2 (n - 1)))

let test_blocked_matmul_order_topological () =
  let mm = Linalg.matmul_indexed 4 in
  let order = Linalg.blocked_matmul_order mm ~block:2 in
  (* the strategy validates topological-ness; a throw means failure *)
  let moves = Dmc_core.Strategy.schedule ~order mm.Linalg.mm_graph ~s:16 in
  match Dmc_core.Rbw_game.run mm.Linalg.mm_graph ~s:16 moves with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e.reason

let test_lu_structure () =
  let n = 4 in
  let lu = Linalg.lu_factor n in
  let g = lu.Linalg.lu_graph in
  check_bool "hong-kung" true (Validate.is_hong_kung g);
  check "inputs" (n * n) (Cdag.n_inputs g);
  (* L strictly-lower entries + U upper-triangle entries *)
  check "outputs" (n * n) (Cdag.n_outputs g);
  (* vertex count: inputs + multipliers + sum of square updates *)
  let updates = (3 * 3) + (2 * 2) + (1 * 1) in
  check "vertices" ((n * n) + (n * (n - 1) / 2) + updates) (Cdag.n_vertices g);
  (* multiplier reads the column entry and the pivot *)
  check "multiplier in-degree" 2 (Cdag.in_degree g (lu.Linalg.multiplier 2 0));
  check_bool "multiplier reads pivot" true
    (Cdag.has_edge g (lu.Linalg.pivot 0) (lu.Linalg.multiplier 2 0));
  (* updates chain across steps: a(2,2) after step 0 feeds step 1 *)
  check_bool "update chains" true
    (Cdag.has_edge g (lu.Linalg.update 2 2 0) (lu.Linalg.update 2 2 1));
  (* the step-1 pivot is the step-0 update of a(1,1) *)
  check "pivot after update" (lu.Linalg.update 1 1 0) (lu.Linalg.pivot 1);
  (* schedulable *)
  (match Dmc_core.Rbw_game.run g ~s:6 (Dmc_core.Strategy.schedule g ~s:6) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e.reason);
  Alcotest.check_raises "bad accessor" (Invalid_argument "Linalg.lu.multiplier: need i > k")
    (fun () -> ignore (lu.Linalg.multiplier 0 2))

let test_cholesky_structure () =
  let n = 4 in
  let g = Linalg.cholesky n in
  check_bool "hong-kung" true (Validate.is_hong_kung g);
  check "inputs" (n * (n + 1) / 2) (Cdag.n_inputs g);
  check "outputs" (n * (n + 1) / 2) (Cdag.n_outputs g);
  (* updates: for column j, sum over k<j of (n-j) entries *)
  let updates = ref 0 in
  for j = 0 to n - 1 do
    updates := !updates + (j * (n - j))
  done;
  check "vertices" ((n * (n + 1) / 2) + !updates + (n * (n + 1) / 2))
    (Cdag.n_vertices g);
  (* schedulable and sandwiched *)
  let r = Dmc_core.Bounds.analyze g ~s:6 in
  check_bool "lb <= ub" true (r.Dmc_core.Bounds.best_lb <= r.Dmc_core.Bounds.belady_ub)

let test_composite_shape () =
  let n = 3 in
  let c = Linalg.composite n in
  check "inputs are 4 vectors" (4 * n) (Cdag.n_inputs c.Linalg.graph);
  check "single output" 1 (Cdag.n_outputs c.Linalg.graph);
  check_bool "sum is the output" true (Cdag.is_output c.Linalg.graph c.Linalg.sum_vertex);
  check "A entries" (n * n) (Array.length c.Linalg.a_vertices);
  check "C mults" (n * n * n) (Array.length c.Linalg.c_mults);
  (* every A entry reads one p and one q element *)
  Array.iter (fun v -> check "rank-1 in-degree" 2 (Cdag.in_degree c.Linalg.graph v))
    c.Linalg.a_vertices

(* ------------------------------------------------------------------ *)
(* Stencil                                                             *)

let test_jacobi_shape () =
  let st = Stencil.jacobi_2d ~shape:Stencil.Box ~n:4 ~steps:3 () in
  check "vertices" (16 * 4) (Cdag.n_vertices st.Stencil.graph);
  check "inputs" 16 (Cdag.n_inputs st.Stencil.graph);
  check "outputs" 16 (Cdag.n_outputs st.Stencil.graph);
  (* interior point at t=1 reads its 9-point neighborhood at t=0 *)
  let interior = st.Stencil.vertex 1 (Grid.index st.Stencil.grid [ 1; 1 ]) in
  check "box stencil in-degree" 9 (Cdag.in_degree st.Stencil.graph interior);
  let star = Stencil.jacobi_2d ~shape:Stencil.Star ~n:4 ~steps:1 () in
  let interior' = star.Stencil.vertex 1 (Grid.index star.Stencil.grid [ 1; 1 ]) in
  check "star stencil in-degree" 5 (Cdag.in_degree star.Stencil.graph interior')

let test_jacobi_vertex_map () =
  let st = Stencil.jacobi_1d ~n:5 ~steps:2 in
  check "t=0 is input" 0 (st.Stencil.vertex 0 0);
  check_bool "inputs tagged" true (Cdag.is_input st.Stencil.graph (st.Stencil.vertex 0 4));
  check_bool "outputs tagged" true
    (Cdag.is_output st.Stencil.graph (st.Stencil.vertex 2 0));
  Alcotest.check_raises "bad time" (Invalid_argument "Stencil.vertex: out of range")
    (fun () -> ignore (st.Stencil.vertex 3 0))

let test_stencil_orders_topological () =
  let st = Stencil.jacobi_2d ~shape:Stencil.Star ~n:5 ~steps:3 () in
  List.iter
    (fun order ->
      (* Strategy.schedule raises if the order is invalid *)
      ignore (Dmc_core.Strategy.schedule ~order st.Stencil.graph ~s:30))
    [ Stencil.natural_order st; Stencil.skewed_order st ~tile:2; Stencil.skewed_order st ~tile:3 ]

let test_skewed_order_covers_everything () =
  let st = Stencil.jacobi_1d ~n:7 ~steps:4 in
  let order = Stencil.skewed_order st ~tile:3 in
  check "covers all compute vertices" (7 * 4) (Array.length order);
  (* partial bands: steps not divisible by the tile *)
  let st5 = Stencil.jacobi_1d ~n:5 ~steps:5 in
  let order5 = Stencil.skewed_order st5 ~tile:3 in
  check "partial band covered" (5 * 5) (Array.length order5);
  ignore (Dmc_core.Strategy.schedule ~order:order5 st5.Stencil.graph ~s:12);
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun v ->
      if Hashtbl.mem seen v then Alcotest.fail "duplicate vertex in skewed order";
      Hashtbl.replace seen v ())
    order

(* ------------------------------------------------------------------ *)
(* FFT / shapes                                                        *)

let test_fft_shape () =
  let k = 3 in
  let n = 1 lsl k in
  let g = Fft.butterfly k in
  check "vertices" ((k + 1) * n) (Cdag.n_vertices g);
  check "edges" (2 * k * n) (Cdag.n_edges g);
  check "inputs" n (Cdag.n_inputs g);
  check "outputs" n (Cdag.n_outputs g);
  (* every non-input vertex has exactly two predecessors *)
  Cdag.iter_vertices g (fun v ->
      if not (Cdag.is_input g v) then check "butterfly in-degree" 2 (Cdag.in_degree g v));
  (* the butterfly partner structure *)
  check_bool "partner edge" true
    (Cdag.has_edge g (Fft.vertex ~k ~rank:0 1) (Fft.vertex ~k ~rank:1 0))

let test_fft_blocked_order () =
  let k = 4 in
  let g = Fft.butterfly k in
  let order = Fft.blocked_order ~k ~group_bits:2 in
  check "covers all compute vertices" (Cdag.n_compute g) (Array.length order);
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun v ->
      if Hashtbl.mem seen v then Alcotest.fail "duplicate in blocked order";
      Hashtbl.replace seen v ())
    order;
  (* topological: validated by the scheduler *)
  ignore (Dmc_core.Strategy.schedule ~order g ~s:10);
  (* a single pass covering all ranks degenerates to one sweep; with
     room for two full ranks the I/O collapses to the cold bound *)
  let one_pass = Fft.blocked_order ~k ~group_bits:k in
  check "single pass cold I/O" (Cdag.n_inputs g + Cdag.n_outputs g)
    (Dmc_core.Strategy.io ~order:one_pass g ~s:((2 * (1 lsl k)) + 2));
  Alcotest.check_raises "bad group bits" (Invalid_argument "Fft.blocked_order")
    (fun () -> ignore (Fft.blocked_order ~k:3 ~group_bits:0))

let test_bitonic_sort () =
  let k = 3 in
  let n = 1 lsl k in
  let g = Fft.bitonic_sort k in
  check "vertices" (n * (1 + (k * (k + 1) / 2))) (Cdag.n_vertices g);
  check "inputs" n (Cdag.n_inputs g);
  check "outputs" n (Cdag.n_outputs g);
  check_bool "hong-kung" true (Validate.is_hong_kung g);
  (* every comparator output reads exactly two wires *)
  Cdag.iter_vertices g (fun v ->
      if not (Cdag.is_input g v) then check "comparator in-degree" 2 (Cdag.in_degree g v));
  (* like the butterfly, there are n vertex-disjoint lines *)
  check "n disjoint lines" n (Dmc_core.Lines.max_disjoint_lines g);
  (* schedulable and sandwiched *)
  let report = Dmc_core.Bounds.analyze g ~s:6 in
  check_bool "lb <= belady" true
    (report.Dmc_core.Bounds.best_lb <= report.Dmc_core.Bounds.belady_ub);
  check_bool "informative lb" true (report.Dmc_core.Bounds.best_lb >= 2 * n)

let test_shapes () =
  let c = Shapes.chain 6 in
  check "chain edges" 5 (Cdag.n_edges c);
  let t = Shapes.reduction_tree 8 in
  check "tree vertices" 15 (Cdag.n_vertices t);
  check "tree output" 1 (Cdag.n_outputs t);
  let bt = Shapes.broadcast_tree 8 in
  check "broadcast leaves" 8 (List.length (Cdag.sinks bt));
  let d = Shapes.diamond ~rows:3 ~cols:4 in
  check "diamond vertices" 12 (Cdag.n_vertices d);
  check "diamond edges" ((2 * 4) + (3 * 3)) (Cdag.n_edges d);
  let p = Shapes.pyramid 3 in
  check "pyramid vertices" 10 (Cdag.n_vertices p);
  check "pyramid inputs" 4 (Cdag.n_inputs p);
  let bi = Shapes.binomial 3 in
  check "binomial vertices" 8 (Cdag.n_vertices bi);
  check "binomial edges" 12 (Cdag.n_edges bi);
  let ind = Shapes.independent 5 in
  check "independent edges" 0 (Cdag.n_edges ind);
  check "independent outputs" 5 (Cdag.n_outputs ind);
  let f = Shapes.two_level_fanin ~fanin:3 ~mids:2 in
  check "fanin vertices" 6 (Cdag.n_vertices f)

(* ------------------------------------------------------------------ *)
(* Solvers                                                             *)

let test_spmv_shape () =
  let g = Solver.spmv ~dims:[ 4; 4 ] in
  check "vertices" 32 (Cdag.n_vertices g);
  check "outputs" 16 (Cdag.n_outputs g);
  check_bool "rbw valid" true (Validate.is_rbw g)

let test_thomas_structure () =
  let n = 8 in
  let th = Solver.thomas ~n in
  let g = th.Solver.th_graph in
  check "vertices" (3 * n) (Cdag.n_vertices g);
  check "inputs" n (Cdag.n_inputs g);
  check "outputs" n (Cdag.n_outputs g);
  check_bool "hong-kung" true (Validate.is_hong_kung g);
  (* forward chain and backward chain *)
  check_bool "forward chain" true
    (Cdag.has_edge g th.Solver.forward.(2) th.Solver.forward.(3));
  check_bool "back substitution" true
    (Cdag.has_edge g th.Solver.solution.(4) th.Solver.solution.(3));
  check_bool "e feeds x" true
    (Cdag.has_edge g th.Solver.forward.(5) th.Solver.solution.(5));
  (* the working-set cliff: all forward values live at the turn *)
  check "wavefront at e_n" n
    (Dmc_core.Wavefront.min_wavefront g th.Solver.forward.(n - 1))

let test_cg_structure () =
  let cg = Solver.cg ~dims:[ 3; 3 ] ~iters:2 in
  let g = cg.Solver.graph in
  check_bool "rbw valid" true (Validate.is_rbw g);
  check "iterations" 2 (Array.length cg.Solver.iterations);
  check "inputs are x0 r0 p0" (3 * 9) (Cdag.n_inputs g);
  let it0 = cg.Solver.iterations.(0) and it1 = cg.Solver.iterations.(1) in
  (* a = rr / pv: two predecessors *)
  check "a in-degree" 2 (Cdag.in_degree g it0.Solver.a_scalar);
  check "g in-degree" 2 (Cdag.in_degree g it0.Solver.g_scalar);
  (* the carried direction vector: iteration 1's SpMV reads p from
     iteration 0's update *)
  check_bool "p carried across iterations" true
    (Cdag.has_edge g it0.Solver.p_next.(4) it1.Solver.v_spmv.(4));
  (* x update reads x, a and p *)
  check "x update in-degree" 3 (Cdag.in_degree g it0.Solver.x_next.(0));
  (* final x vertices are outputs *)
  check_bool "final x output" true (Cdag.is_output g it1.Solver.x_next.(0))

let test_gmres_structure () =
  let gm = Solver.gmres ~dims:[ 3; 3 ] ~iters:3 in
  let g = gm.Solver.graph in
  check_bool "rbw valid" true (Validate.is_rbw g);
  check "iterations" 3 (Array.length gm.Solver.iterations);
  check "inputs are v0" 9 (Cdag.n_inputs g);
  let it2 = gm.Solver.iterations.(2) in
  (* iteration 2's SpMV reads the basis vector produced by iteration 1 *)
  check_bool "basis carried" true
    (Cdag.has_edge g gm.Solver.iterations.(1).Solver.basis_next.(0) it2.Solver.w_spmv.(0));
  (* normalization: each new basis element reads v' and the norm *)
  check "basis element in-degree" 2 (Cdag.in_degree g it2.Solver.basis_next.(0));
  check_bool "h scalars are outputs" true (Cdag.is_output g it2.Solver.h_diag)

(* GMRES iteration i has i+1 dot products, so vertex count grows
   quadratically in the iteration count. *)
let test_chebyshev_structure () =
  let ch = Solver.chebyshev ~dims:[ 4 ] ~iters:2 in
  let g = ch.Solver.ch_graph in
  check_bool "rbw valid" true (Validate.is_rbw g);
  check "inputs x0 and b" 8 (Cdag.n_inputs g);
  check "outputs" 4 (Cdag.n_outputs g);
  (* 3 vectors per iteration: spmv, residual, update *)
  check "vertices" (8 + (2 * 3 * 4)) (Cdag.n_vertices g);
  let it0 = ch.Solver.ch_iterations.(0) in
  check "residual in-degree" 2 (Cdag.in_degree g it0.Solver.residual.(1));
  check_bool "update reads residual" true
    (Cdag.has_edge g it0.Solver.residual.(2) it0.Solver.ch_x_next.(2));
  (* no vertex funnels the whole grid: in-degrees stay stencil-local *)
  Cdag.iter_vertices g (fun v ->
      check_bool "local in-degree" true (Cdag.in_degree g v <= 3))

let test_gmres_growth () =
  let size m = Cdag.n_vertices (Solver.gmres ~dims:[ 4 ] ~iters:m).Solver.graph in
  let s2 = size 2 and s4 = size 4 in
  check_bool "superlinear growth" true (s4 > 2 * s2)

let test_multigrid_structure () =
  let mg = Dmc_gen.Multigrid.v_cycle ~dims:[ 17 ] ~levels:3 ~cycles:2 () in
  let g = mg.Dmc_gen.Multigrid.graph in
  check_bool "rbw valid" true (Validate.is_rbw g);
  check "grids per level" 3 (Array.length mg.Dmc_gen.Multigrid.grids);
  check "finest points" 17 (Dmc_gen.Multigrid.finest_points mg);
  check "coarsest points" 5 (Grid.size mg.Dmc_gen.Multigrid.grids.(2));
  check "inputs are u0 and b" (2 * 17) (Cdag.n_inputs g);
  check "outputs are the final iterate" 17 (Cdag.n_outputs g);
  check "cycles recorded" 2 (Array.length mg.Dmc_gen.Multigrid.cycles);
  (* structure of a cycle trace *)
  let fine = mg.Dmc_gen.Multigrid.cycles.(0).(0) in
  check "pre sweeps" 2 (Array.length fine.Dmc_gen.Multigrid.pre_smooth);
  check "post sweeps" 2 (Array.length fine.Dmc_gen.Multigrid.post_smooth);
  check "restriction to coarse size" 9 (Array.length fine.Dmc_gen.Multigrid.restricted);
  (* a corrected fine point reads its pre-smoothed value and coarse
     parents *)
  let corrected = fine.Dmc_gen.Multigrid.corrected.(8) in
  check_bool "correction reads pre-smoothed" true
    (Cdag.has_edge g fine.Dmc_gen.Multigrid.pre_smooth.(1).(8) corrected);
  (* the second cycle consumes the first cycle's final iterate *)
  let fine2 = mg.Dmc_gen.Multigrid.cycles.(1).(0) in
  check_bool "cycles chain" true
    (Cdag.has_edge g fine.Dmc_gen.Multigrid.post_smooth.(1).(8)
       fine2.Dmc_gen.Multigrid.pre_smooth.(0).(8))

let test_multigrid_2d_and_errors () =
  let mg = Dmc_gen.Multigrid.v_cycle ~dims:[ 9; 9 ] ~levels:2 ~cycles:1 () in
  check_bool "2d rbw valid" true (Validate.is_rbw mg.Dmc_gen.Multigrid.graph);
  check "2d coarse grid" 25 (Grid.size mg.Dmc_gen.Multigrid.grids.(1));
  (* ceil-halving saturates at one point, so deep hierarchies stay legal *)
  let tiny = Dmc_gen.Multigrid.v_cycle ~dims:[ 2 ] ~levels:4 ~cycles:1 () in
  check "coarsest saturates" 1 (Grid.size tiny.Dmc_gen.Multigrid.grids.(3));
  Alcotest.check_raises "bad params" (Invalid_argument "Multigrid.v_cycle")
    (fun () -> ignore (Dmc_gen.Multigrid.v_cycle ~dims:[ 8 ] ~levels:0 ~cycles:1 ()))

let test_multigrid_schedulable () =
  let mg = Dmc_gen.Multigrid.v_cycle ~dims:[ 9 ] ~levels:2 ~cycles:1 () in
  let g = mg.Dmc_gen.Multigrid.graph in
  let moves = Dmc_core.Strategy.schedule g ~s:8 in
  match Dmc_core.Rbw_game.run g ~s:8 moves with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e.reason

(* ------------------------------------------------------------------ *)
(* Random DAGs                                                         *)

let prop_layered_well_formed =
  QCheck.Test.make ~name:"layered DAGs freeze and validate" ~count:50
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Random_dag.layered rng ~layers:5 ~width:4 ~edge_prob:0.3 in
      Validate.is_hong_kung g && Cdag.n_vertices g >= 5)

let prop_gnp_edges_forward =
  QCheck.Test.make ~name:"gnp edges go forward" ~count:50
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Random_dag.gnp rng ~n:15 ~edge_prob:0.3 in
      let ok = ref true in
      Cdag.iter_edges g (fun u v -> if u >= v then ok := false);
      !ok)

let prop_connected_dag_connected =
  QCheck.Test.make ~name:"connected_dag has a single weak component" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 10 in
      let g = Random_dag.connected_dag rng ~n ~extra_edges:3 in
      let uf = Dmc_util.Union_find.create n in
      Cdag.iter_edges g (fun u v -> Dmc_util.Union_find.union uf u v);
      Dmc_util.Union_find.count uf = 1)

(* ------------------------------------------------------------------ *)
(* Workload registry *)

let test_workload_parse () =
  let g = Dmc_gen.Workload.parse_exn "chain:8" in
  Alcotest.(check int) "chain:8 vertices" 8 (Cdag.n_vertices g);
  let g2 = Dmc_gen.Workload.parse_exn "jacobi1d:5,2" in
  let direct =
    Dmc_gen.Stencil.((jacobi ~shape:Star ~dims:[ 5 ] ~steps:2 ()).graph)
  in
  Alcotest.(check int) "jacobi1d:5,2 matches direct build"
    (Cdag.n_vertices direct) (Cdag.n_vertices g2)

let test_workload_unknown () =
  match Dmc_gen.Workload.parse "nosuch:3" with
  | Ok _ -> Alcotest.fail "unknown generator accepted"
  | Error msg ->
      let has_sub sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "names the bad generator" true
        (has_sub "unknown generator 'nosuch'");
      Alcotest.(check bool) "lists known generators" true (has_sub "chain")

let test_workload_arity () =
  (match Dmc_gen.Workload.build "jacobi1d" [ 3 ] with
  | Ok _ -> Alcotest.fail "bad arity accepted"
  | Error msg ->
      Alcotest.(check bool) "states the signature" true
        (String.length msg > 0
        && msg = "generator 'jacobi1d' expects 2 parameters (jacobi1d:N,T), got 1"));
  match Dmc_gen.Workload.parse "chain:x" with
  | Ok _ -> Alcotest.fail "non-integer parameter accepted"
  | Error _ -> ()

let test_workload_registry () =
  let names = Dmc_gen.Workload.names in
  Alcotest.(check bool) "has the paper kernels" true
    (List.for_all
       (fun n -> List.mem n names)
       [ "matmul"; "fft"; "jacobi2d"; "cg"; "gmres"; "multigrid" ]);
  List.iter
    (fun (w : Dmc_gen.Workload.t) ->
      Alcotest.(check bool)
        (w.name ^ " resolvable") true
        (match Dmc_gen.Workload.find w.name with
        | Some found -> found.name = w.name
        | None -> false))
    Dmc_gen.Workload.all

let qsuite name tests =
  (* fixed qcheck seed so runs are reproducible *)
  ( name,
    List.map
      (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t)
      tests )

let () =
  Alcotest.run "dmc_gen"
    [
      ( "grid",
        [
          Alcotest.test_case "indexing" `Quick test_grid_indexing;
          Alcotest.test_case "neighbors" `Quick test_grid_neighbors;
          Alcotest.test_case "1d" `Quick test_grid_1d;
          Alcotest.test_case "footprint" `Quick test_grid_footprint;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "dot product" `Quick test_dot_product_shape;
          Alcotest.test_case "saxpy" `Quick test_saxpy_shape;
          Alcotest.test_case "outer product" `Quick test_outer_product_shape;
          Alcotest.test_case "matmul" `Quick test_matmul_shape;
          Alcotest.test_case "blocked order topological" `Quick
            test_blocked_matmul_order_topological;
          Alcotest.test_case "composite" `Quick test_composite_shape;
          Alcotest.test_case "lu factorization" `Quick test_lu_structure;
          Alcotest.test_case "cholesky" `Quick test_cholesky_structure;
        ] );
      ( "stencil",
        [
          Alcotest.test_case "jacobi shape" `Quick test_jacobi_shape;
          Alcotest.test_case "vertex map" `Quick test_jacobi_vertex_map;
          Alcotest.test_case "orders topological" `Quick test_stencil_orders_topological;
          Alcotest.test_case "skewed order covers" `Quick test_skewed_order_covers_everything;
        ] );
      ( "fft+shapes",
        [
          Alcotest.test_case "fft butterfly" `Quick test_fft_shape;
          Alcotest.test_case "fft blocked order" `Quick test_fft_blocked_order;
          Alcotest.test_case "bitonic sort" `Quick test_bitonic_sort;
          Alcotest.test_case "shape families" `Quick test_shapes;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "spmv" `Quick test_spmv_shape;
          Alcotest.test_case "thomas" `Quick test_thomas_structure;
          Alcotest.test_case "cg structure" `Quick test_cg_structure;
          Alcotest.test_case "gmres structure" `Quick test_gmres_structure;
          Alcotest.test_case "gmres growth" `Quick test_gmres_growth;
          Alcotest.test_case "chebyshev structure" `Quick test_chebyshev_structure;
          Alcotest.test_case "multigrid structure" `Quick test_multigrid_structure;
          Alcotest.test_case "multigrid 2d and errors" `Quick test_multigrid_2d_and_errors;
          Alcotest.test_case "multigrid schedulable" `Quick test_multigrid_schedulable;
        ] );
      ( "workload",
        [
          Alcotest.test_case "parse and build" `Quick test_workload_parse;
          Alcotest.test_case "unknown generator" `Quick test_workload_unknown;
          Alcotest.test_case "arity errors" `Quick test_workload_arity;
          Alcotest.test_case "registry" `Quick test_workload_registry;
        ] );
      qsuite "random-props"
        [ prop_layered_well_formed; prop_gnp_edges_forward; prop_connected_dag_connected ];
    ]
