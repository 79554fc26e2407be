module Bitset = Dmc_util.Bitset

type part = {
  graph : Cdag.t;
  to_parent : Cdag.vertex array;
  of_parent : Cdag.vertex -> Cdag.vertex option;
}

let identity g =
  let n = Cdag.n_vertices g in
  {
    graph = g;
    to_parent = Array.init n Fun.id;
    of_parent = (fun v -> if v < 0 || v >= n then None else Some v);
  }

(* Count, then fill through the id map.  The parent's rows ascend and
   the map is monotone, so every part row arrives strictly ascending
   and [Cdag.of_rows] sorts nothing. *)
let induced g set =
  let n = Cdag.n_vertices g in
  if Bitset.capacity set = n && Bitset.cardinal set = n then identity g
  else begin
    let k = Bitset.cardinal set in
    let to_parent = Array.make k 0 and map = Array.make n (-1) in
    let next = ref 0 in
    Bitset.iter
      (fun v ->
        map.(v) <- !next;
        to_parent.(!next) <- v;
        incr next)
      set;
    let succ_off = Array.make (k + 1) 0 in
    Array.iteri
      (fun i v ->
        let d = Cdag.fold_succ g v (fun d w -> if map.(w) >= 0 then d + 1 else d) 0 in
        succ_off.(i + 1) <- succ_off.(i) + d)
      to_parent;
    let succ = Array.make succ_off.(k) 0 in
    let cursor = ref 0 in
    let keep w =
      let j = map.(w) in
      if j >= 0 then begin
        succ.(!cursor) <- j;
        incr cursor
      end
    in
    Array.iter (fun v -> Cdag.iter_succ g v keep) to_parent;
    let inputs = Bitset.create k and outputs = Bitset.create k in
    Array.iteri
      (fun i v ->
        if Cdag.is_input g v then Bitset.add inputs i;
        if Cdag.is_output g v then Bitset.add outputs i)
      to_parent;
    let graph =
      Cdag.of_rows
        ~label:(fun i -> Cdag.label g to_parent.(i))
        ~inputs ~outputs ~succ_off ~succ k
    in
    let of_parent v =
      if v < 0 || v >= n || map.(v) < 0 then None else Some map.(v)
    in
    { graph; to_parent; of_parent }
  end

let induced_list g vs =
  induced g (Bitset.of_list (Cdag.n_vertices g) vs)

let partition g color =
  let n = Cdag.n_vertices g in
  if Array.length color <> n then invalid_arg "Subgraph.partition: bad color array";
  let k = 1 + Array.fold_left max (-1) color in
  if k <= 0 then [||]
  else begin
    let sets = Array.init k (fun _ -> Bitset.create n) in
    Array.iteri
      (fun v c ->
        if c < 0 then invalid_arg "Subgraph.partition: negative color";
        Bitset.add sets.(c) v)
      color;
    Array.map (induced g) sets
  end

let boundary_in g set =
  let n = Cdag.n_vertices g in
  let out = Bitset.create n in
  Bitset.iter
    (fun v -> Cdag.iter_pred g v (fun u -> if not (Bitset.mem set u) then Bitset.add out u))
    set;
  out

let boundary_out g set =
  let n = Cdag.n_vertices g in
  let out = Bitset.create n in
  Bitset.iter
    (fun v ->
      if Cdag.is_output g v then Bitset.add out v
      else
        Cdag.iter_succ g v (fun w ->
            if not (Bitset.mem set w) then Bitset.add out v))
    set;
  out

let drop_inputs g =
  let n = Cdag.n_vertices g in
  let keep = Bitset.create n in
  let di = ref 0 in
  Cdag.iter_vertices g (fun v ->
      if Cdag.is_input g v then incr di else Bitset.add keep v);
  let part = induced g keep in
  let graph = Cdag.retag part.graph ~inputs:[] ~outputs:(Cdag.outputs part.graph) in
  ({ part with graph }, !di)

let drop_io g =
  let n = Cdag.n_vertices g in
  let keep = Bitset.create n in
  let di = ref 0 and d_o = ref 0 in
  Cdag.iter_vertices g (fun v ->
      if Cdag.is_input g v then incr di
      else if Cdag.is_output g v then incr d_o
      else Bitset.add keep v);
  let part = induced g keep in
  let graph = Cdag.retag part.graph ~inputs:[] ~outputs:[] in
  ({ part with graph }, !di, !d_o)
