module Cdag = Dmc_cdag.Cdag
module Implicit = Dmc_cdag.Implicit
module B = Cdag.Builder

let chain n =
  if n <= 0 then invalid_arg "Shapes.chain";
  Implicit.materialize (Implicit_gen.chain n)

let reduction_tree leaves =
  if leaves <= 0 then invalid_arg "Shapes.reduction_tree";
  Implicit.materialize (Implicit_gen.reduction_tree leaves)

let broadcast_tree leaves =
  if leaves <= 0 then invalid_arg "Shapes.broadcast_tree";
  let b = B.create ~hint:(2 * leaves) () in
  let root = B.add_vertex ~label:"root" b in
  (* Grow a complete binary fan-out until we have [leaves] frontier
     vertices. *)
  let frontier = ref [ root ] in
  while List.length !frontier < leaves do
    let need = leaves - List.length !frontier in
    let expanded, kept =
      match !frontier with
      | [] -> assert false
      | v :: rest ->
          let c1 = B.add_vertex b and c2 = B.add_vertex b in
          B.add_edge b v c1;
          B.add_edge b v c2;
          ignore need;
          ([ c1; c2 ], rest)
    in
    frontier := kept @ expanded
  done;
  B.freeze ~inputs:[ root ] ~outputs:!frontier b

let diamond ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Shapes.diamond";
  Implicit.materialize (Implicit_gen.diamond ~rows ~cols)

let binomial k =
  if k < 0 || k > 20 then invalid_arg "Shapes.binomial";
  let n = 1 lsl k in
  let b = B.create ~hint:n () in
  for i = 0 to n - 1 do
    ignore (B.add_vertex ~label:(Printf.sprintf "b%d" i) b)
  done;
  (* Vertex i of copy 2 is i + 2^{r} at recursion level r; unrolled,
     vertex j has an edge to j + 2^r whenever bit r of j is 0. *)
  for j = 0 to n - 1 do
    for r = 0 to k - 1 do
      if j land (1 lsl r) = 0 then B.add_edge b j (j + (1 lsl r))
    done
  done;
  B.freeze b

let pyramid h =
  if h < 0 then invalid_arg "Shapes.pyramid";
  let b = B.create ~hint:((h + 1) * (h + 2) / 2) () in
  let rows =
    Array.init (h + 1) (fun r ->
        Array.init (h + 1 - r) (fun i ->
            B.add_vertex ~label:(Printf.sprintf "p%d_%d" r i) b))
  in
  for r = 0 to h - 1 do
    Array.iteri
      (fun i v ->
        B.add_edge b rows.(r).(i) v;
        B.add_edge b rows.(r).(i + 1) v)
      rows.(r + 1)
  done;
  B.freeze
    ~inputs:(Array.to_list rows.(0))
    ~outputs:[ rows.(h).(0) ]
    b

let independent n =
  if n <= 0 then invalid_arg "Shapes.independent";
  let b = B.create ~hint:n () in
  let vs = List.init n (fun i -> B.add_vertex ~label:(Printf.sprintf "i%d" i) b) in
  B.freeze ~inputs:[] ~outputs:vs b

let two_level_fanin ~fanin ~mids =
  if fanin <= 0 || mids <= 0 then invalid_arg "Shapes.two_level_fanin";
  let b = B.create ~hint:(fanin + mids + 1) () in
  let ins = Array.init fanin (fun i -> B.add_vertex ~label:(Printf.sprintf "x%d" i) b) in
  let mid =
    Array.init mids (fun i ->
        let v = B.add_vertex ~label:(Printf.sprintf "y%d" i) b in
        Array.iter (fun u -> B.add_edge b u v) ins;
        v)
  in
  let out = B.add_vertex ~label:"z" b in
  Array.iter (fun v -> B.add_edge b v out) mid;
  B.freeze ~inputs:(Array.to_list ins) ~outputs:[ out ] b
