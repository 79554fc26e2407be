module Hierarchy = Dmc_machine.Hierarchy

let fi = float_of_int

let check_level hierarchy level =
  if level < 2 || level > Hierarchy.n_levels hierarchy then
    invalid_arg "Parallel_bounds: level must be in [2, L]"

let vertical_from_sequential ~hierarchy ~level ~seq_lb =
  check_level hierarchy level;
  let s_below =
    Hierarchy.capacity hierarchy ~level:(level - 1)
    * Hierarchy.count hierarchy ~level:(level - 1)
  in
  seq_lb ~s:s_below /. fi (Hierarchy.count hierarchy ~level)

let vertical_from_u ~hierarchy ~level ~work ~u =
  check_level hierarchy level;
  if u <= 0.0 then invalid_arg "Parallel_bounds.vertical_from_u: u";
  if work < 0.0 then invalid_arg "Parallel_bounds.vertical_from_u: work";
  let nl = fi (Hierarchy.count hierarchy ~level) in
  let nl_below = fi (Hierarchy.count hierarchy ~level:(level - 1)) in
  let s_below = fi (Hierarchy.capacity hierarchy ~level:(level - 1)) in
  Float.max 0.0 (((work /. (u *. nl)) -. (nl_below /. nl)) *. s_below)

let horizontal_from_u ~hierarchy ~work ~u =
  if u <= 0.0 then invalid_arg "Parallel_bounds.horizontal_from_u: u";
  if work < 0.0 then invalid_arg "Parallel_bounds.horizontal_from_u: work";
  let levels = Hierarchy.n_levels hierarchy in
  let n_top = Hierarchy.count hierarchy ~level:levels in
  let group = fi (Hierarchy.processors hierarchy) /. fi n_top in
  let s_top = fi (Hierarchy.capacity hierarchy ~level:levels) in
  Float.max 0.0 (((work /. (u *. group)) -. 1.0) *. s_top)

let per_processor_work ~hierarchy ~work =
  work /. fi (Hierarchy.processors hierarchy)

(* ------------------------------------------------------------------ *)
(* Multi-processor (MPP) game bounds, arXiv 2409.03898.               *)

let mp_comm_from_sequential ~p ~seq_lb ~s =
  if p <= 0 then invalid_arg "Parallel_bounds.mp_comm_from_sequential: p";
  if s <= 0 then invalid_arg "Parallel_bounds.mp_comm_from_sequential: s";
  seq_lb ~s:(p * s)

let ceil_div a b = (a + b - 1) / b

let mp_time_lower ~p ~g_cost ~work ~span ~comm_lb =
  if p <= 0 then invalid_arg "Parallel_bounds.mp_time_lower: p";
  if g_cost < 0 || work < 0 || span < 0 || comm_lb < 0 then
    invalid_arg "Parallel_bounds.mp_time_lower: negative argument";
  max span (ceil_div (work + (g_cost * comm_lb)) p)

(* Critical path length in compute vertices: a makespan floor under
   unit compute cost, independent of p and S. *)
let span g =
  let module Cdag = Dmc_cdag.Cdag in
  let depth = Array.make (Cdag.n_vertices g) 0 in
  let best = ref 0 in
  Array.iter
    (fun v ->
      if not (Cdag.is_input g v) then begin
        let d = 1 + Cdag.fold_pred g v (fun acc u -> max acc depth.(u)) 0 in
        depth.(v) <- d;
        if d > !best then best := d
      end)
    (Dmc_cdag.Topo.order g);
  !best
