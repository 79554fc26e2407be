module Bitset = Dmc_util.Bitset
module Intvec = Dmc_util.Intvec

type vertex = int

type t = {
  n_vertices : int;
  iter_succ : vertex -> (vertex -> unit) -> unit;
  iter_pred : vertex -> (vertex -> unit) -> unit;
  is_input : vertex -> bool;
  is_output : vertex -> bool;
  label : vertex -> string;
}

let of_cdag g =
  {
    n_vertices = Cdag.n_vertices g;
    iter_succ = (fun v f -> Cdag.iter_succ g v f);
    iter_pred = (fun v f -> Cdag.iter_pred g v f);
    is_input = Cdag.is_input g;
    is_output = Cdag.is_output g;
    label = Cdag.label g;
  }

let out_degree t v =
  let d = ref 0 in
  t.iter_succ v (fun _ -> incr d);
  !d

let in_degree t v =
  let d = ref 0 in
  t.iter_pred v (fun _ -> incr d);
  !d

let n_edges t =
  let m = ref 0 in
  for v = 0 to t.n_vertices - 1 do
    t.iter_succ v (fun _ -> incr m)
  done;
  !m

(* One pass over the successor rows of the piece's vertices
   [parent 0 .. parent (k-1)] straight into [Cdag.of_rows]: [local w]
   is successor [w]'s id in the piece, or [-1] when [w] lies outside
   it.  Labels stay with the implicit graph until one is asked for. *)
let fill t k ~parent ~local =
  let succ_off = Array.make (k + 1) 0 in
  let succ = Intvec.create ~initial_capacity:k () in
  let keep w =
    let j = local w in
    if j >= 0 then Intvec.push succ j
  in
  for i = 0 to k - 1 do
    t.iter_succ (parent i) keep;
    succ_off.(i + 1) <- Intvec.length succ
  done;
  let inputs = Bitset.create k and outputs = Bitset.create k in
  for i = 0 to k - 1 do
    let v = parent i in
    if t.is_input v then Bitset.add inputs i;
    if t.is_output v then Bitset.add outputs i
  done;
  Cdag.of_rows
    ~label:(fun i -> t.label (parent i))
    ~inputs ~outputs ~succ_off ~succ:(Intvec.to_array succ) k

let materialize t =
  let n = t.n_vertices in
  fill t n ~parent:Fun.id ~local:(fun w ->
      if w < 0 || w >= n then
        invalid_arg "Implicit.materialize: successor out of range";
      w)

let window t ~lo ~hi =
  if lo < 0 || hi > t.n_vertices || lo > hi then
    invalid_arg "Implicit.window: bad range";
  let graph =
    fill t (hi - lo)
      ~parent:(fun i -> lo + i)
      ~local:(fun w -> if w >= lo && w < hi then w - lo else -1)
  in
  {
    Subgraph.graph;
    to_parent = Array.init (hi - lo) (fun i -> lo + i);
    of_parent = (fun v -> if v >= lo && v < hi then Some (v - lo) else None);
  }

(* Position of [v] in the ascending array [ids], or [-1]. *)
let find ids v =
  let lo = ref 0 and hi = ref (Array.length ids - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = ids.(mid) in
    if w = v then found := mid else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let window_of_set t vs =
  let ids = Array.of_list (List.sort_uniq Int.compare vs) in
  Array.iter
    (fun v ->
      if v < 0 || v >= t.n_vertices then
        invalid_arg "Implicit.window_of_set: vertex out of range")
    ids;
  let graph = fill t (Array.length ids) ~parent:(Array.get ids) ~local:(find ids) in
  {
    Subgraph.graph;
    to_parent = ids;
    of_parent = (fun v -> match find ids v with -1 -> None | i -> Some i);
  }

let check_monotone t =
  let ok = ref true in
  (try
     for v = 0 to t.n_vertices - 1 do
       t.iter_succ v (fun w -> if w <= v then raise Exit)
     done
   with Exit -> ok := false);
  !ok
