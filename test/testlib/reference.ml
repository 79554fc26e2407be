module Cdag = Dmc_cdag.Cdag
module Implicit = Dmc_cdag.Implicit
module Subgraph = Dmc_cdag.Subgraph
module Bitset = Dmc_util.Bitset
module Grid = Dmc_gen.Grid

let induced g set =
  let n = Cdag.n_vertices g in
  let to_parent = Array.of_list (Bitset.elements set) in
  let map = Array.make n (-1) in
  Array.iteri (fun i v -> map.(v) <- i) to_parent;
  let b = Cdag.Builder.create ~hint:(Array.length to_parent) () in
  Array.iter
    (fun v -> ignore (Cdag.Builder.add_vertex ~label:(Cdag.label g v) b))
    to_parent;
  Array.iteri
    (fun i v ->
      Cdag.iter_succ g v (fun w -> if map.(w) >= 0 then Cdag.Builder.add_edge b i map.(w)))
    to_parent;
  let tag pred =
    Array.to_list to_parent
    |> List.filteri (fun _ v -> pred v)
    |> List.map (fun v -> map.(v))
  in
  let inputs = tag (Cdag.is_input g) and outputs = tag (Cdag.is_output g) in
  let graph = Cdag.Builder.freeze ~inputs ~outputs b in
  let of_parent v =
    if v < 0 || v >= n || map.(v) < 0 then None else Some map.(v)
  in
  { Subgraph.graph; to_parent; of_parent }

let tagged n pred =
  let out = ref [] in
  for v = n - 1 downto 0 do
    if pred v then out := v :: !out
  done;
  !out

let materialize (t : Implicit.t) =
  let n = t.n_vertices in
  let b = Cdag.Builder.create ~hint:n () in
  for v = 0 to n - 1 do
    ignore (Cdag.Builder.add_vertex ~label:(t.label v) b)
  done;
  for v = 0 to n - 1 do
    t.iter_succ v (fun w -> Cdag.Builder.add_edge b v w)
  done;
  Cdag.Builder.freeze ~inputs:(tagged n t.is_input) ~outputs:(tagged n t.is_output) b

let induced_ids (t : Implicit.t) ids =
  let k = Array.length ids in
  let map = Hashtbl.create (2 * k) in
  Array.iteri (fun i v -> Hashtbl.replace map v i) ids;
  let b = Cdag.Builder.create ~hint:k () in
  Array.iter (fun v -> ignore (Cdag.Builder.add_vertex ~label:(t.label v) b)) ids;
  Array.iteri
    (fun i v ->
      t.iter_succ v (fun w ->
          match Hashtbl.find_opt map w with
          | Some j -> Cdag.Builder.add_edge b i j
          | None -> ()))
    ids;
  let graph =
    Cdag.Builder.freeze
      ~inputs:(tagged k (fun i -> t.is_input ids.(i)))
      ~outputs:(tagged k (fun i -> t.is_output ids.(i)))
      b
  in
  { Subgraph.graph; to_parent = ids; of_parent = Hashtbl.find_opt map }

let strides g =
  let dims = Array.of_list (Grid.dims g) in
  let d = Array.length dims in
  let s = Array.make d 1 in
  for k = d - 2 downto 0 do
    s.(k) <- s.(k + 1) * dims.(k + 1)
  done;
  (dims, s)

let star_neighbors g i =
  let dims, strides = strides g in
  let c = Array.of_list (Grid.coord g i) in
  let out = ref [] in
  for k = Array.length dims - 1 downto 0 do
    List.iter
      (fun delta ->
        let ck = c.(k) + delta in
        if ck >= 0 && ck < dims.(k) then out := (i + (delta * strides.(k))) :: !out)
      [ -1; 1 ]
  done;
  List.sort compare !out

let box_neighbors g i =
  let dims, strides = strides g in
  let d = Array.length dims in
  let c = Array.of_list (Grid.coord g i) in
  let out = ref [] in
  let n_offsets = int_of_float (3.0 ** float_of_int d) in
  for code = 0 to n_offsets - 1 do
    let rest = ref code and ok = ref true and idx = ref 0 and nonzero = ref false in
    for k = d - 1 downto 0 do
      let delta = (!rest mod 3) - 1 in
      rest := !rest / 3;
      if delta <> 0 then nonzero := true;
      let ck = c.(k) + delta in
      if ck < 0 || ck >= dims.(k) then ok := false
      else idx := !idx + (delta * strides.(k))
    done;
    if !ok && !nonzero then out := (i + !idx) :: !out
  done;
  List.sort compare !out

module Wavefront = Dmc_core.Wavefront
module Rng = Dmc_util.Rng

let wmax_exact g =
  let wavefront = Wavefront.min_wavefront g in
  Cdag.fold_vertices g (fun acc x -> max acc (wavefront x)) 0

let wmax_sampled rng g ~samples =
  let n = Cdag.n_vertices g in
  if n = 0 then 0
  else begin
    let wavefront = Wavefront.min_wavefront g in
    let best = ref 0 in
    for _ = 1 to samples do
      let x = Rng.int rng n in
      best := max !best (wavefront x)
    done;
    !best
  end

let lower_bound ?(samples = 64) ?rng g ~s =
  let wmax stripped =
    let n = Cdag.n_vertices stripped in
    if n = 0 then 0
    else if n <= Wavefront.exact_threshold then wmax_exact stripped
    else
      let rng = match rng with Some r -> r | None -> Rng.create 0x5eed in
      wmax_sampled rng stripped ~samples
  in
  let part_i, di = Subgraph.drop_inputs g in
  let part_io, di', d_o = Subgraph.drop_io g in
  let w_inputs = wmax part_i.graph in
  let w_io = wmax part_io.graph in
  max
    (Wavefront.lemma2_bound ~wavefront:w_inputs ~s + di)
    (Wavefront.lemma2_bound ~wavefront:w_io ~s + di' + d_o)

let wavefront_sum ~pieces ~s =
  Array.fold_left
    (fun acc ((p : Subgraph.part), targets) ->
      let stripped, di = Subgraph.drop_inputs p.graph in
      let wavefront = Wavefront.min_wavefront stripped.graph in
      let best =
        List.fold_left
          (fun best v ->
            match Option.bind (p.of_parent v) stripped.of_parent with
            | None -> best
            | Some v' -> max best (Wavefront.lemma2_bound ~wavefront:(wavefront v') ~s))
          0 targets
      in
      acc + best + di)
    0 pieces

module Bounds = Dmc_core.Bounds
module Strategy = Dmc_core.Strategy

let max_indeg g =
  Cdag.fold_vertices g
    (fun acc v ->
      if Cdag.is_input g v then acc else max acc (Cdag.in_degree g v))
    0

let seq_degraded_row g ~s ~engine ~kind ~failure ~elapsed =
  let attempts = [ ("worker", failure) ] in
  match kind with
  | Bounds.Lower | Bounds.Exact ->
      {
        Bounds.engine;
        kind;
        value = Some (Bounds.io_floor g);
        rung = "floor";
        attempts;
        elapsed;
      }
  | Bounds.Upper ->
      if s >= max_indeg g + 1 then
        {
          Bounds.engine;
          kind;
          value = Some (Strategy.trivial_io g);
          rung = "trivial";
          attempts;
          elapsed;
        }
      else { Bounds.engine; kind; value = None; rung = "-"; attempts; elapsed }

let span g =
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

let mp_degraded_row g ~p ~s ~engine ~failure ~elapsed =
  let kind =
    match engine with
    | "mp-comm-lb" | "mp-time-lb" | "pc-io-lb" -> Bounds.Lower
    | "mp-comm-ub" | "mp-time-ub" | "pc-io-ub" -> Bounds.Upper
    | _ -> invalid_arg ("Reference.mp_degraded_row: unknown engine " ^ engine)
  in
  let attempts = [ ("worker", failure) ] in
  let mk value rung = { Bounds.engine; kind; value; rung; attempts; elapsed } in
  let floor = Bounds.io_floor g in
  match engine with
  | "mp-comm-lb" | "pc-io-lb" -> mk (Some floor) "floor"
  | "mp-time-lb" ->
      mk
        (Some
           (Dmc_core.Parallel_bounds.mp_time_lower ~p ~g_cost:1
              ~work:(Cdag.n_compute g) ~span:(span g) ~comm_lb:floor))
        "floor"
  | "mp-comm-ub" ->
      if s >= max_indeg g + 1 then mk (Some (Strategy.mp_trivial_io g)) "trivial"
      else mk None "-"
  | "mp-time-ub" ->
      if s >= max_indeg g + 1 then
        match Dmc_core.Mp_game.run ~g_cost:1 g ~p ~s (Strategy.mp_trivial g ~p) with
        | Ok stats -> mk (Some stats.Dmc_core.Mp_game.makespan) "trivial"
        | Error _ -> mk None "-"
      else mk None "-"
  | _ ->
      if s >= 2 then mk (Some (Strategy.trivial_io g)) "trivial"
      else mk None "-"

let graph_diff a b =
  let module S = Dmc_cdag.Serialize in
  let sa = S.to_string a and sb = S.to_string b in
  if sa <> sb then Some (Printf.sprintf "serializations differ:\n%s\nvs\n%s" sa sb)
  else begin
    let diff = ref None in
    for v = Cdag.n_vertices a - 1 downto 0 do
      if Cdag.pred_list a v <> Cdag.pred_list b v then
        diff := Some (Printf.sprintf "predecessors of %d differ" v)
      else if Cdag.label a v <> Cdag.label b v then
        diff := Some (Printf.sprintf "label of %d: %S vs %S" v (Cdag.label a v) (Cdag.label b v))
    done;
    !diff
  end

let part_diff ~parent_n (a : Subgraph.part) (b : Subgraph.part) =
  match graph_diff a.graph b.graph with
  | Some d -> Some d
  | None ->
      if a.to_parent <> b.to_parent then Some "to_parent differs"
      else
        let bad = ref None in
        for v = parent_n + 1 downto -2 do
          if a.of_parent v <> b.of_parent v then
            bad := Some (Printf.sprintf "of_parent %d differs" v)
        done;
        !bad
