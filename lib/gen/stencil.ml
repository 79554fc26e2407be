module Cdag = Dmc_cdag.Cdag
module B = Cdag.Builder

type shape = Grid.footprint = Star | Box

type t = {
  graph : Cdag.t;
  grid : Grid.t;
  steps : int;
  vertex : int -> int -> Cdag.vertex;
}

let jacobi ?(shape = Star) ~dims ~steps () =
  if steps < 1 then invalid_arg "Stencil.jacobi: steps must be >= 1";
  let grid = Grid.create dims in
  let npts = Grid.size grid in
  let b = B.create ~hint:(npts * (steps + 1)) () in
  let vertex_of = Array.make ((steps + 1) * npts) 0 in
  let vid t i = vertex_of.((t * npts) + i) in
  for t = 0 to steps do
    Grid.iter grid (fun i ->
        let v = B.add_vertex ~label:(Printf.sprintf "u[t%d,%d]" t i) b in
        vertex_of.((t * npts) + i) <- v)
  done;
  for t = 0 to steps - 1 do
    Grid.iter grid (fun i ->
        let dst = vid (t + 1) i in
        Grid.iter_footprint grid shape i (fun j -> B.add_edge b (vid t j) dst))
  done;
  let time_slice t =
    List.init npts (fun i -> vid t i)
  in
  let graph =
    B.freeze ~inputs:(time_slice 0) ~outputs:(time_slice steps) b
  in
  {
    graph;
    grid;
    steps;
    vertex =
      (fun t i ->
        if t < 0 || t > steps || i < 0 || i >= npts then
          invalid_arg "Stencil.vertex: out of range";
        vid t i);
  }

let natural_order st =
  let npts = Grid.size st.grid in
  let order = Array.make (st.steps * npts) 0 in
  for t = 1 to st.steps do
    for i = 0 to npts - 1 do
      order.(((t - 1) * npts) + i) <- st.vertex t i
    done
  done;
  order

let skewed_order st ~tile =
  if tile <= 0 then invalid_arg "Stencil.skewed_order";
  let grid = st.grid in
  let dims = Array.of_list (Grid.dims grid) in
  let d = Array.length dims in
  let order = Dmc_util.Intvec.create ~initial_capacity:(st.steps * Grid.size grid) () in
  let n_bands = (st.steps + tile - 1) / tile in
  (* Per-dimension tile-index bound: x_j + tau <= n_j - 1 + tile - 1. *)
  let kmax = Array.map (fun n -> (n - 1 + tile - 1) / tile) dims in
  let k = Array.make d 0 in
  (* Emit the points of tile [k] at local time [tau] of band [band]:
     x_j in [k_j*tile - tau, (k_j+1)*tile - tau) clipped to the grid. *)
  let emit_tile band =
    for tau = 0 to tile - 1 do
      let t = (band * tile) + tau + 1 in
      if t <= st.steps then begin
        let lo = Array.map (fun kj -> max 0 ((kj * tile) - tau)) k in
        let hi =
          Array.mapi (fun j kj -> min dims.(j) (((kj + 1) * tile) - tau)) k
        in
        let rec points j coord_base =
          if j = d then Dmc_util.Intvec.push order (st.vertex t coord_base)
          else
            for xj = lo.(j) to hi.(j) - 1 do
              points (j + 1) ((coord_base * dims.(j)) + xj)
            done
        in
        if Array.for_all2 (fun l h -> l < h) lo hi then points 0 0
      end
    done
  in
  (* Lexicographic sweep over tile indices for each band. *)
  let rec tiles band j =
    if j = d then emit_tile band
    else
      for kj = 0 to kmax.(j) do
        k.(j) <- kj;
        tiles band (j + 1)
      done
  in
  for band = 0 to n_bands - 1 do
    tiles band 0
  done;
  Dmc_util.Intvec.to_array order

let jacobi_1d ~n ~steps = jacobi ~shape:Star ~dims:[ n ] ~steps ()

let jacobi_2d ?(shape = Box) ~n ~steps () = jacobi ~shape ~dims:[ n; n ] ~steps ()

let jacobi_3d ~n ~steps = jacobi ~shape:Star ~dims:[ n; n; n ] ~steps ()
