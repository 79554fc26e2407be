module Bitset = Dmc_util.Bitset
module Budget = Dmc_util.Budget
module Cdag = Dmc_cdag.Cdag

type result = {
  size : int;
  cut : Cdag.vertex list;
  source_side : Bitset.t;
}

(* Node numbering in the split network: v_in = 2v, v_out = 2v+1,
   super-source = 2n, super-sink = 2n+1.  [prepare] adds the split
   edges first, in vertex order, so v's split edge has id 2v. *)
let v_in v = 2 * v
let v_out v = (2 * v) + 1
let split_edge v = 2 * v

type prepared = {
  n : int;
  net : Maxflow.t;
}

let prepare g =
  let n = Cdag.n_vertices g in
  let net = Maxflow.create ((2 * n) + 2) in
  for v = 0 to n - 1 do
    ignore (Maxflow.add_edge net ~src:(v_in v) ~dst:(v_out v) ~cap:1)
  done;
  Cdag.iter_edges g (fun u v ->
      ignore (Maxflow.add_edge net ~src:(v_out u) ~dst:(v_in v) ~cap:Maxflow.infinite));
  Maxflow.snapshot net;
  { n; net }

let check_vertex p v =
  if v < 0 || v >= p.n then invalid_arg "Vertex_cut: vertex out of range"

let make_uncuttable p v =
  check_vertex p v;
  Maxflow.set_capacity p.net (split_edge v) Maxflow.infinite

(* Rewind to the base network, make the [uncuttable] split edges
   infinite and hang the terminal sets off the super-source and
   super-sink — edge for edge the network a fresh build would make, so
   Dinic's visits, and the budget ticks they cost, match it exactly. *)
let load p ~uncuttable ~from_set ~source_cap ~to_set ~sink_cap =
  let net = p.net and src = 2 * p.n and dst = (2 * p.n) + 1 in
  let each vs f =
    List.iter
      (fun v ->
        check_vertex p v;
        f v)
      vs
  in
  Maxflow.restore net;
  List.iter (make_uncuttable p) uncuttable;
  each from_set (fun v -> ignore (Maxflow.add_edge net ~src ~dst:(v_in v) ~cap:source_cap));
  each to_set (fun v -> ignore (Maxflow.add_edge net ~src:(v_out v) ~dst ~cap:sink_cap))

let check_terminals where p ~from_set ~to_set =
  if from_set = [] || to_set = [] then invalid_arg (where ^ ": empty terminal set");
  if List.exists (Bitset.mem (Bitset.of_list p.n from_set)) to_set then
    invalid_arg (where ^ ": terminal sets intersect")

let run ?budget p = Maxflow.max_flow ?budget p.net ~src:(2 * p.n) ~dst:((2 * p.n) + 1)

let cut_flow where ?budget p ~from_set ~to_set ~uncuttable =
  load p ~uncuttable ~from_set ~source_cap:Maxflow.infinite ~to_set
    ~sink_cap:Maxflow.infinite;
  check_terminals where p ~from_set ~to_set;
  run ?budget p

let cut_size ?budget p ~from_set ~to_set ?(uncuttable = []) () =
  cut_flow "Vertex_cut.cut_size" ?budget p ~from_set ~to_set ~uncuttable

let min_vertex_cut ?budget g ~from_set ~to_set ?(uncuttable = []) () =
  let p = prepare g in
  let size = cut_flow "Vertex_cut.min_vertex_cut" ?budget p ~from_set ~to_set ~uncuttable in
  let n = p.n in
  let residual_side = Maxflow.min_cut_source_side p.net ~src:(2 * n) in
  (* A vertex is in the cut when its split edge crosses the residual
     boundary: v_in reachable, v_out not. *)
  let cut = ref [] in
  for v = n - 1 downto 0 do
    if Bitset.mem residual_side (v_in v) && not (Bitset.mem residual_side (v_out v))
    then cut := v :: !cut
  done;
  let source_side = Bitset.create n in
  for v = 0 to n - 1 do
    if Bitset.mem residual_side (v_in v) then Bitset.add source_side v
  done;
  { size; cut = !cut; source_side }

let path_witness ?budget g ~from_set ~to_set ?(uncuttable = []) () =
  let p = prepare g in
  load p ~uncuttable ~from_set ~source_cap:1 ~to_set ~sink_cap:Maxflow.infinite;
  check_terminals "Vertex_cut.path_witness" p ~from_set ~to_set;
  let size = run ?budget p in
  let n = p.n and net = p.net in
  let src = 2 * n and dst = (2 * n) + 1 in
  (* Decompose the flow into unit paths: walk from the super-source
     along edges with unconsumed flow, consuming one unit per step. *)
  let consumed = Hashtbl.create 64 in
  let remaining id =
    Maxflow.flow_on net id
    - (match Hashtbl.find_opt consumed id with Some c -> c | None -> 0)
  in
  let consume id =
    Hashtbl.replace consumed id
      (1 + match Hashtbl.find_opt consumed id with Some c -> c | None -> 0)
  in
  let next_hop node =
    let found = ref None in
    Maxflow.iter_out net ~node (fun ~id ~dst ->
        if !found = None && remaining id > 0 then found := Some (id, dst));
    !found
  in
  let extract () =
    let rec walk node acc =
      if node = dst then List.rev acc
      else
        match next_hop node with
        | None ->
            Budget.internal_error ~where:"Vertex_cut.path_witness"
              "flow decomposition stuck at node %d (n=%d, flow=%d)" node n size
        | Some (id, next) ->
            consume id;
            (* record the CDAG vertex when crossing a split edge *)
            let acc =
              if node land 1 = 0 && node < 2 * n && next = node + 1 then
                (node / 2) :: acc
              else acc
            in
            walk next acc
    in
    walk src []
  in
  List.init size (fun _ -> extract ())

let disjoint_paths ?budget g ~src ~dst =
  if src = dst then invalid_arg "Vertex_cut.disjoint_paths: src = dst";
  let p = prepare g in
  make_uncuttable p src;
  make_uncuttable p dst;
  Maxflow.max_flow ?budget p.net ~src:(v_out src) ~dst:(v_in dst)

let disjoint_set_paths g ~from_set ~to_set =
  let p = prepare g in
  load p ~uncuttable:[] ~from_set ~source_cap:1 ~to_set ~sink_cap:1;
  run p
