module Cdag = Dmc_cdag.Cdag

type row = {
  grid_points : int;
  iters : int;
  s : int;
  cg_wavefront : int;
  cheb_wavefront : int;
  cg_lb : int;
  cheb_lb : int;
  cg_ub : int;
  cheb_ub : int;
}

(* Per-iteration decomposition by exact per-piece wavefront maxima,
   slicing at each iteration's final update vector. *)
let sliced_bound g ~bounds ~s =
  let n_slices = Array.length bounds in
  let slice_of v =
    let rec find c =
      if c >= n_slices then n_slices - 1
      else if v <= bounds.(c) then c
      else find (c + 1)
    in
    find 0
  in
  let color = Array.init (Cdag.n_vertices g) slice_of in
  Dmc_core.Decompose.sum_disjoint g ~color
    ~bound:(fun piece -> Dmc_core.Wavefront.lower_bound piece ~s)

let compare ?(dims = [ 5; 5 ]) ?(iters = 3) ?(s = 12) () =
  let cg = Dmc_gen.Solver.cg ~dims ~iters in
  let cheb = Dmc_gen.Solver.chebyshev ~dims ~iters in
  let npts = Dmc_gen.Grid.size cg.Dmc_gen.Solver.grid in
  let cg_bounds =
    Array.map
      (fun (it : Dmc_gen.Solver.cg_iteration) ->
        let p = it.Dmc_gen.Solver.p_next in
        p.(Array.length p - 1))
      cg.Dmc_gen.Solver.iterations
  in
  let cheb_bounds =
    Array.map
      (fun (it : Dmc_gen.Solver.chebyshev_iteration) ->
        let x = it.Dmc_gen.Solver.ch_x_next in
        x.(Array.length x - 1))
      cheb.Dmc_gen.Solver.ch_iterations
  in
  let cg_last = cg.Dmc_gen.Solver.iterations.(iters - 1) in
  let cheb_last = cheb.Dmc_gen.Solver.ch_iterations.(iters - 1) in
  let cheb_wavefront =
    let wavefront = Dmc_core.Wavefront.min_wavefront cheb.Dmc_gen.Solver.ch_graph in
    Array.fold_left
      (fun acc v -> max acc (wavefront v))
      0 cheb_last.Dmc_gen.Solver.residual
  in
  {
    grid_points = npts;
    iters;
    s;
    cg_wavefront =
      Dmc_core.Wavefront.min_wavefront cg.Dmc_gen.Solver.graph
        cg_last.Dmc_gen.Solver.a_scalar;
    cheb_wavefront;
    cg_lb = sliced_bound cg.Dmc_gen.Solver.graph ~bounds:cg_bounds ~s;
    cheb_lb = sliced_bound cheb.Dmc_gen.Solver.ch_graph ~bounds:cheb_bounds ~s;
    cg_ub = Dmc_core.Strategy.io cg.Dmc_gen.Solver.graph ~s;
    cheb_ub = Dmc_core.Strategy.io cheb.Dmc_gen.Solver.ch_graph ~s;
  }

(* ------------------------------------------------------------------ *)
(* Experiment part: the single CG-vs-Chebyshev comparison. *)

module J = Dmc_util.Json
module P = Experiment.P

let row_to_json r =
  J.Obj
    [
      ("grid_points", J.Int r.grid_points);
      ("iters", J.Int r.iters);
      ("s", J.Int r.s);
      ("cg_wavefront", J.Int r.cg_wavefront);
      ("cheb_wavefront", J.Int r.cheb_wavefront);
      ("cg_lb", J.Int r.cg_lb);
      ("cheb_lb", J.Int r.cheb_lb);
      ("cg_ub", J.Int r.cg_ub);
      ("cheb_ub", J.Int r.cheb_ub);
    ]

let row_of_json p =
  {
    grid_points = P.int p "grid_points";
    iters = P.int p "iters";
    s = P.int p "s";
    cg_wavefront = P.int p "cg_wavefront";
    cheb_wavefront = P.int p "cheb_wavefront";
    cg_lb = P.int p "cg_lb";
    cheb_lb = P.int p "cheb_lb";
    cg_ub = P.int p "cg_ub";
    cheb_ub = P.int p "cheb_ub";
  }

let parts =
  [
    {
      Experiment.part = "compare";
      run = (fun () -> row_to_json (compare ()));
    };
  ]

let doc_of_parts payloads =
  let r = row_of_json (List.hd payloads) in
  {
    Doc.name = "reductions";
    blocks =
      [
        Doc.Section
          "Where CG's memory wall lives: dot products vs a reduction-free Krylov";
        Doc.Text
          (Printf.sprintf
             "  grid n^d = %d, %d iterations, S = %d\n\n\
             \  CG        : wavefront at the dot-product scalar = %3d  (2 n^d = %d)\n\
             \  Chebyshev : widest wavefront in an iteration    = %3d  (stencil-local)\n\n\
             \  per-iteration decomposed LB:  CG %d   Chebyshev %d\n\
             \  measured Belady executions:   CG %d   Chebyshev %d\n\n\
             \  Same SpMV, same updates -- removing the global reductions removes the\n\
             \  2 n^d pinch.  This is the certified version of the communication-\n\
             \  avoiding-Krylov argument.\n"
             r.grid_points r.iters r.s r.cg_wavefront (2 * r.grid_points)
             r.cheb_wavefront r.cg_lb r.cheb_lb r.cg_ub r.cheb_ub);
        Doc.check "CG's wavefront reaches 2 n^d"
          (r.cg_wavefront >= 2 * r.grid_points);
        Doc.check "Chebyshev's wavefronts stay below n^d"
          (r.cheb_wavefront < r.grid_points);
        Doc.check "both bounds below their executions"
          (r.cg_lb <= r.cg_ub && r.cheb_lb <= r.cheb_ub);
        Doc.check "Chebyshev's certified bound is at most half of CG's"
          (2 * r.cheb_lb <= r.cg_lb);
      ];
  }
