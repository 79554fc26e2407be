module Bitset = Dmc_util.Bitset
module Intvec = Dmc_util.Intvec

type vertex = int

type t = {
  n : int;
  succ_off : int array;   (* length n+1 *)
  succ : int array;       (* concatenated ascending successor rows *)
  pred_off : int array;
  pred : int array;
  input_set : Bitset.t;
  output_set : Bitset.t;
  label_of : vertex -> string;  (* resolved on demand; "" means unlabeled *)
}

let n_vertices g = g.n
let n_edges g = Array.length g.succ

let out_degree g v = g.succ_off.(v + 1) - g.succ_off.(v)
let in_degree g v = g.pred_off.(v + 1) - g.pred_off.(v)

let iter_row off arr v f =
  for k = off.(v) to off.(v + 1) - 1 do
    f (Array.unsafe_get arr k)
  done

let iter_succ g v f = iter_row g.succ_off g.succ v f
let iter_pred g v f = iter_row g.pred_off g.pred v f

let fold_row off arr v f init =
  let acc = ref init in
  for k = off.(v) to off.(v + 1) - 1 do
    acc := f !acc (Array.unsafe_get arr k)
  done;
  !acc

let fold_succ g v f init = fold_row g.succ_off g.succ v f init
let fold_pred g v f init = fold_row g.pred_off g.pred v f init

let succ_list g v = List.rev (fold_succ g v (fun acc w -> w :: acc) [])
let pred_list g v = List.rev (fold_pred g v (fun acc w -> w :: acc) [])

let iter_edges g f =
  for u = 0 to g.n - 1 do
    iter_succ g u (fun v -> f u v)
  done

let has_edge g u v =
  let lo = ref g.succ_off.(u) and hi = ref (g.succ_off.(u + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.succ.(mid) in
    if w = v then found := true
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let label g v =
  if v < 0 || v >= g.n then invalid_arg "Cdag.label: vertex out of range";
  let s = g.label_of v in
  if s = "" then "v" ^ string_of_int v else s

let is_input g v = Bitset.mem g.input_set v
let is_output g v = Bitset.mem g.output_set v

let inputs g = Bitset.elements g.input_set
let outputs g = Bitset.elements g.output_set

let n_inputs g = Bitset.cardinal g.input_set
let n_outputs g = Bitset.cardinal g.output_set
let n_compute g = g.n - n_inputs g

let iter_vertices g f =
  for v = 0 to g.n - 1 do
    f v
  done

let fold_vertices g f init =
  let acc = ref init in
  iter_vertices g (fun v -> acc := f !acc v);
  !acc

let sources g =
  List.rev (fold_vertices g (fun acc v -> if in_degree g v = 0 then v :: acc else acc) [])

let sinks g =
  List.rev (fold_vertices g (fun acc v -> if out_degree g v = 0 then v :: acc else acc) [])

let retag g ~inputs ~outputs =
  let input_set = Bitset.create g.n and output_set = Bitset.create g.n in
  let tag set v =
    if v < 0 || v >= g.n then invalid_arg "Cdag.retag: vertex out of range";
    Bitset.add set v
  in
  List.iter (tag input_set) inputs;
  List.iter (tag output_set) outputs;
  { g with input_set; output_set }

let pp_stats ppf g =
  Format.fprintf ppf "cdag: %d vertices, %d edges, %d inputs, %d outputs"
    (n_vertices g) (n_edges g) (n_inputs g) (n_outputs g)

(* Kahn's algorithm; raises if a cycle survives. *)
let check_acyclic n succ_off succ pred_off =
  let indeg = Array.init n (fun v -> pred_off.(v + 1) - pred_off.(v)) in
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr seen;
    for k = succ_off.(u) to succ_off.(u + 1) - 1 do
      let v = succ.(k) in
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then Queue.add v queue
    done
  done;
  if !seen <> n then invalid_arg "Cdag: edge relation has a cycle"

(* Validate every row and bring it to strictly ascending order, moving
   rows left over the entries dropped as duplicates; a row already in
   order is only checked (and blitted once a compaction has happened).
   Returns the final edge count and whether some edge descends. *)
let normalize_rows n succ_off succ =
  let cursor = ref 0 and descends = ref false in
  for v = 0 to n - 1 do
    let a = succ_off.(v) and b = succ_off.(v + 1) in
    if b < a then invalid_arg "Cdag.of_rows: offsets decrease";
    let ascending = ref true in
    for k = a to b - 1 do
      let w = succ.(k) in
      if w < 0 || w >= n then invalid_arg "Cdag.of_rows: successor out of range";
      if w = v then invalid_arg "Cdag.of_rows: self-loop";
      if k > a && succ.(k - 1) >= w then ascending := false
    done;
    let start = !cursor in
    if !ascending then begin
      if start <> a then Array.blit succ a succ start (b - a);
      cursor := start + (b - a)
    end
    else begin
      let row = Array.sub succ a (b - a) in
      Array.sort Int.compare row;
      Array.iteri
        (fun j w ->
          if j = 0 || row.(j - 1) <> w then begin
            succ.(!cursor) <- w;
            incr cursor
          end)
        row
    end;
    succ_off.(v) <- start;
    if !cursor > start && succ.(start) < v then descends := true
  done;
  succ_off.(n) <- !cursor;
  (!cursor, !descends)

let of_rows ~label ~inputs ~outputs ~succ_off ~succ n =
  if n < 0 || Array.length succ_off <> n + 1 || succ_off.(0) <> 0
     || succ_off.(n) > Array.length succ
  then invalid_arg "Cdag.of_rows: malformed offsets";
  if Bitset.capacity inputs <> n || Bitset.capacity outputs <> n then
    invalid_arg "Cdag.of_rows: tag set capacity differs from the vertex count";
  let m, descends = normalize_rows n succ_off succ in
  let succ = if m = Array.length succ then succ else Array.sub succ 0 m in
  (* Transpose: scanning sources in ascending order appends each
     predecessor row in ascending order, and the successor rows are
     duplicate-free, so the predecessor rows are too. *)
  let pred_off = Array.make (n + 1) 0 in
  for k = 0 to m - 1 do
    let w = succ.(k) in
    pred_off.(w + 1) <- pred_off.(w + 1) + 1
  done;
  for v = 1 to n do
    pred_off.(v) <- pred_off.(v) + pred_off.(v - 1)
  done;
  let pred = Array.make m 0 in
  if m > 0 then begin
    let fill = Array.sub pred_off 0 n in
    for u = 0 to n - 1 do
      for k = succ_off.(u) to succ_off.(u + 1) - 1 do
        let w = succ.(k) in
        pred.(fill.(w)) <- u;
        fill.(w) <- fill.(w) + 1
      done
    done
  end;
  (* An edge set in which every edge ascends is acyclic. *)
  if descends then check_acyclic n succ_off succ pred_off;
  {
    n;
    succ_off;
    succ;
    pred_off;
    pred;
    input_set = inputs;
    output_set = outputs;
    label_of = label;
  }

module Builder = struct
  (* [hint] is advisory: every store — the parallel edge lists and the
     label table — grows by doubling when the hint undershoots, so a
     build with a wrong (or default) hint stays amortized O(1) per
     vertex/edge instead of degrading to repeated full copies. *)
  type t = {
    mutable nv : int;
    srcs : Intvec.t;  (* parallel edge lists *)
    dsts : Intvec.t;
    mutable labels : string array;  (* first [nv] entries valid *)
  }

  let create ?(hint = 16) () =
    let hint = max 1 hint in
    {
      nv = 0;
      srcs = Intvec.create ~initial_capacity:(4 * hint) ();
      dsts = Intvec.create ~initial_capacity:(4 * hint) ();
      labels = Array.make hint "";
    }

  let add_vertex ?(label = "") b =
    let v = b.nv in
    if v = Array.length b.labels then begin
      let bigger = Array.make (2 * v) "" in
      Array.blit b.labels 0 bigger 0 v;
      b.labels <- bigger
    end;
    b.labels.(v) <- label;
    b.nv <- v + 1;
    v

  let add_edge b u v =
    if u < 0 || u >= b.nv || v < 0 || v >= b.nv then
      invalid_arg "Cdag.Builder.add_edge: vertex out of range";
    if u = v then invalid_arg "Cdag.Builder.add_edge: self-loop";
    Intvec.push b.srcs u;
    Intvec.push b.dsts v

  let n_vertices b = b.nv

  let freeze ?inputs ?outputs b =
    let n = b.nv in
    (* Counting sort of the edge list into successor rows, keeping
       insertion order within a row; [of_rows] sorts and deduplicates
       only the rows that did not arrive strictly ascending. *)
    let m = Intvec.length b.srcs in
    let succ_off = Array.make (n + 1) 0 in
    Intvec.iter (fun u -> succ_off.(u + 1) <- succ_off.(u + 1) + 1) b.srcs;
    for v = 1 to n do
      succ_off.(v) <- succ_off.(v) + succ_off.(v - 1)
    done;
    let cursor = Array.sub succ_off 0 n in
    let succ = Array.make m 0 in
    for k = 0 to m - 1 do
      let u = Intvec.get b.srcs k in
      succ.(cursor.(u)) <- Intvec.get b.dsts k;
      cursor.(u) <- cursor.(u) + 1
    done;
    let labels = Array.sub b.labels 0 n in
    (* The tag sets are filled once [g] exists: the Hong–Kung default
       reads its degrees. *)
    let input_set = Bitset.create n and output_set = Bitset.create n in
    let g =
      of_rows ~label:(Array.get labels) ~inputs:input_set ~outputs:output_set
        ~succ_off ~succ n
    in
    let tag what set degree = function
      | Some vs ->
          List.iter
            (fun v ->
              if v < 0 || v >= n then
                invalid_arg ("Cdag.Builder.freeze: " ^ what ^ " out of range");
              Bitset.add set v)
            vs
      | None ->
          (* Hong–Kung default: sources are inputs, sinks are outputs. *)
          for v = 0 to n - 1 do
            if degree g v = 0 then Bitset.add set v
          done
    in
    tag "input" input_set in_degree inputs;
    tag "output" output_set out_degree outputs;
    g
end
