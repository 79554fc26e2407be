module Cdag = Dmc_cdag.Cdag
module Vertex_cut = Dmc_flow.Vertex_cut

let bound ~line_vertices ~f_inverse_2s =
  if line_vertices <= 0 || f_inverse_2s < 0 then invalid_arg "Lines.bound";
  float_of_int line_vertices /. (2.0 *. float_of_int (f_inverse_2s + 1))

let jacobi_f_inverse ~d ~s =
  if d <= 0 || s <= 0 then invalid_arg "Lines.jacobi_f_inverse";
  (2.0 *. ((2.0 *. float_of_int s) ** (1.0 /. float_of_int d))) -. 1.0

let jacobi_bound ~d ~n ~steps ~s =
  if n <= 0 || steps <= 0 then invalid_arg "Lines.jacobi_bound";
  let l = (float_of_int n ** float_of_int d) *. float_of_int steps in
  let f_inv = jacobi_f_inverse ~d ~s in
  l /. (2.0 *. (f_inv +. 1.0))

let max_disjoint_lines g =
  let inputs = Cdag.inputs g and outputs = Cdag.outputs g in
  if inputs = [] || outputs = [] then 0
  else Vertex_cut.disjoint_set_paths g ~from_set:inputs ~to_set:outputs
