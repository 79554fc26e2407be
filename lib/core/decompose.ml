module Cdag = Dmc_cdag.Cdag
module Subgraph = Dmc_cdag.Subgraph

let parts g ~color = Subgraph.partition g color

let sum_disjoint g ~color ~bound =
  Array.fold_left
    (fun acc (p : Subgraph.part) -> acc + bound p.graph)
    0 (parts g ~color)

let untag_adjust ~bound_tagged ~d_inputs ~d_outputs =
  max 0 (bound_tagged - d_inputs - d_outputs)

let io_deletion_adjust ~bound_inner ~d_inputs ~d_outputs =
  bound_inner + d_inputs + d_outputs

let iteration_slices g ~slice_of ~n_slices =
  if n_slices <= 0 then invalid_arg "Decompose.iteration_slices";
  let color =
    Array.init (Cdag.n_vertices g) (fun v ->
        let s = slice_of v in
        if s < 0 then 0 else if s >= n_slices then n_slices - 1 else s)
  in
  Subgraph.partition g color

let wavefront_sum _g ~pieces ~s =
  (* Per piece: strip its tagged input vertices (Corollary 2 on the
     input side, adding |dI| back; outputs may stay — Lemma 2 tolerates
     them), take the best Lemma-2 wavefront bound over the surviving
     distinguished vertices, and sum across pieces (Theorem 2). *)
  Array.fold_left
    (fun acc ((p : Subgraph.part), targets) ->
      let stripped, di = Subgraph.drop_inputs p.graph in
      let targets =
        List.filter_map (fun v -> Option.bind (p.of_parent v) stripped.of_parent) targets
      in
      let wavefront, _ =
        Wavefront.wmax_over stripped.graph ~at_least:s (Array.of_list targets)
      in
      acc + Wavefront.lemma2_bound ~wavefront ~s + di)
    0 pieces
