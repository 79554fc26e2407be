module Cdag = Dmc_cdag.Cdag
module B = Cdag.Builder

let vec b name n = Array.init n (fun i -> B.add_vertex ~label:(Printf.sprintf "%s%d" name i) b)

(* Binary reduction tree over [leaves]; returns the root vertex.  A
   single leaf is its own root. *)
let reduce_tree b name leaves =
  let rec level k vs =
    match Array.length vs with
    | 0 -> invalid_arg "reduce_tree: no leaves"
    | 1 -> vs.(0)
    | n ->
        let half = (n + 1) / 2 in
        let next =
          Array.init half (fun i ->
              if (2 * i) + 1 < n then begin
                let v =
                  B.add_vertex ~label:(Printf.sprintf "%s_red%d_%d" name k i) b
                in
                B.add_edge b vs.(2 * i) v;
                B.add_edge b vs.((2 * i) + 1) v;
                v
              end
              else vs.(2 * i))
        in
        level (k + 1) next
  in
  level 0 leaves

let dot_product n =
  if n <= 0 then invalid_arg "Linalg.dot_product";
  let b = B.create ~hint:(3 * n) () in
  let x = vec b "x" n and y = vec b "y" n in
  let mults =
    Array.init n (fun i ->
        let m = B.add_vertex ~label:(Printf.sprintf "m%d" i) b in
        B.add_edge b x.(i) m;
        B.add_edge b y.(i) m;
        m)
  in
  let root = reduce_tree b "dot" mults in
  B.freeze
    ~inputs:(Array.to_list x @ Array.to_list y)
    ~outputs:[ root ] b

let saxpy n =
  if n <= 0 then invalid_arg "Linalg.saxpy";
  let b = B.create ~hint:(3 * n) () in
  let a = B.add_vertex ~label:"a" b in
  let x = vec b "x" n and y = vec b "y" n in
  let outs =
    Array.init n (fun i ->
        let v = B.add_vertex ~label:(Printf.sprintf "z%d" i) b in
        B.add_edge b a v;
        B.add_edge b x.(i) v;
        B.add_edge b y.(i) v;
        v)
  in
  B.freeze
    ~inputs:((a :: Array.to_list x) @ Array.to_list y)
    ~outputs:(Array.to_list outs) b

let outer_product n =
  if n <= 0 then invalid_arg "Linalg.outer_product";
  let b = B.create ~hint:(2 * n * (n + 1)) () in
  let x = vec b "x" n and y = vec b "y" n in
  let outs = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto 0 do
      let v = B.add_vertex ~label:(Printf.sprintf "a%d_%d" i j) b in
      B.add_edge b x.(i) v;
      B.add_edge b y.(j) v;
      outs := v :: !outs
    done
  done;
  B.freeze ~inputs:(Array.to_list x @ Array.to_list y) ~outputs:!outs b

(* Shared core of matvec/matmul: an accumulation chain over [n]
   products feeding row/column inputs. *)
let matvec n =
  if n <= 0 then invalid_arg "Linalg.matvec";
  let b = B.create ~hint:(3 * n * n) () in
  let a = Array.init n (fun i -> vec b (Printf.sprintf "a%d_" i) n) in
  let x = vec b "x" n in
  let outs = ref [] in
  for i = 0 to n - 1 do
    let acc = ref (-1) in
    for k = 0 to n - 1 do
      let m = B.add_vertex ~label:(Printf.sprintf "m%d_%d" i k) b in
      B.add_edge b a.(i).(k) m;
      B.add_edge b x.(k) m;
      if !acc < 0 then acc := m
      else begin
        let s = B.add_vertex ~label:(Printf.sprintf "s%d_%d" i k) b in
        B.add_edge b !acc s;
        B.add_edge b m s;
        acc := s
      end
    done;
    outs := !acc :: !outs
  done;
  let inputs =
    Array.to_list x @ List.concat_map Array.to_list (Array.to_list a)
  in
  B.freeze ~inputs ~outputs:(List.rev !outs) b

type mm = {
  mm_graph : Cdag.t;
  mm_n : int;
  a : Cdag.vertex array;
  b : Cdag.vertex array;
  mult : int -> int -> int -> Cdag.vertex;
  acc : int -> int -> int -> Cdag.vertex;
}

let matmul_indexed n =
  if n <= 0 then invalid_arg "Linalg.matmul_indexed";
  let graph = Dmc_cdag.Implicit.materialize (Implicit_gen.matmul n) in
  (* Implicit_gen.matmul's layout: A, then B, then one 2n-1 vertex chain
     per (i,j) — m(i,j,0), then m(i,j,k), c(i,j,k) for each k >= 1 *)
  let n2 = n * n in
  let base i j k =
    if i < 0 || i >= n || j < 0 || j >= n || k < 0 || k >= n then
      invalid_arg "Linalg.mm: index out of range";
    (2 * n2) + (((i * n) + j) * ((2 * n) - 1))
  in
  {
    mm_graph = graph;
    mm_n = n;
    a = Array.init n2 Fun.id;
    b = Array.init n2 (fun v -> n2 + v);
    mult = (fun i j k -> base i j k + if k = 0 then 0 else (2 * k) - 1);
    acc = (fun i j k -> base i j k + (2 * k));
  }

let matmul n = (matmul_indexed n).mm_graph

(* Emit the (i,j,k) cells of one rectangular tile in loop order,
   appending the multiply and (for k > 0) the accumulation vertex. *)
let emit_tile mm order (i0, i1) (j0, j1) (k0, k1) =
  for i = i0 to i1 - 1 do
    for j = j0 to j1 - 1 do
      for k = k0 to k1 - 1 do
        Dmc_util.Intvec.push order (mm.mult i j k);
        if k > 0 then Dmc_util.Intvec.push order (mm.acc i j k)
      done
    done
  done

let clipped_ranges n block =
  let blocks = (n + block - 1) / block in
  List.init blocks (fun b -> (b * block, min ((b + 1) * block) n))

let blocked_matmul_order mm ~block =
  if block <= 0 then invalid_arg "Linalg.blocked_matmul_order";
  let n = mm.mm_n in
  let order = Dmc_util.Intvec.create ~initial_capacity:(2 * n * n * n) () in
  let ranges = clipped_ranges n block in
  (* For a fixed (i, j) the accumulation chain must see k ascending;
     iterating k-blocks innermost-ascending within each (i, j) block
     preserves that. *)
  List.iter
    (fun ri ->
      List.iter
        (fun rj ->
          List.iter (fun rk -> emit_tile mm order ri rj rk) ranges)
        ranges)
    ranges;
  Dmc_util.Intvec.to_array order

let blocked2_matmul_order mm ~inner ~outer =
  if inner <= 0 || outer < inner then invalid_arg "Linalg.blocked2_matmul_order";
  let n = mm.mm_n in
  let order = Dmc_util.Intvec.create ~initial_capacity:(2 * n * n * n) () in
  let outer_ranges = clipped_ranges n outer in
  let inner_ranges (lo, hi) =
    let blocks = (hi - lo + inner - 1) / inner in
    List.init blocks (fun b -> (lo + (b * inner), min (lo + ((b + 1) * inner)) hi))
  in
  List.iter
    (fun oi ->
      List.iter
        (fun oj ->
          List.iter
            (fun ok ->
              (* register tiles within the cache tile; k still ascends
                 for each fixed (i, j) across both levels *)
              List.iter
                (fun ii ->
                  List.iter
                    (fun ij ->
                      List.iter
                        (fun ik -> emit_tile mm order ii ij ik)
                        (inner_ranges ok))
                    (inner_ranges oj))
                (inner_ranges oi))
            outer_ranges)
        outer_ranges)
    outer_ranges;
  Dmc_util.Intvec.to_array order

type lu = {
  lu_graph : Cdag.t;
  lu_n : int;
  pivot : int -> Cdag.vertex;
  multiplier : int -> int -> Cdag.vertex;
  update : int -> int -> int -> Cdag.vertex;
}

let lu_factor n =
  if n <= 1 then invalid_arg "Linalg.lu_factor";
  let b = B.create ~hint:(2 * n * n * n / 3) () in
  let cur =
    Array.init n (fun i ->
        Array.init n (fun j -> B.add_vertex ~label:(Printf.sprintf "a%d_%d" i j) b))
  in
  let inputs = Array.to_list cur |> List.concat_map Array.to_list in
  let pivots = Array.make n 0 in
  let mults = Hashtbl.create 64 in
  let updates = Hashtbl.create 256 in
  for k = 0 to n - 2 do
    pivots.(k) <- cur.(k).(k);
    for i = k + 1 to n - 1 do
      let m = B.add_vertex ~label:(Printf.sprintf "l%d_%d" i k) b in
      B.add_edge b cur.(i).(k) m;
      B.add_edge b cur.(k).(k) m;
      Hashtbl.replace mults (i, k) m
    done;
    for i = k + 1 to n - 1 do
      for j = k + 1 to n - 1 do
        let u = B.add_vertex ~label:(Printf.sprintf "a%d_%d.%d" i j (k + 1)) b in
        B.add_edge b cur.(i).(j) u;
        B.add_edge b (Hashtbl.find mults (i, k)) u;
        B.add_edge b cur.(k).(j) u;
        Hashtbl.replace updates (i, j, k) u;
        cur.(i).(j) <- u
      done
    done
  done;
  pivots.(n - 1) <- cur.(n - 1).(n - 1);
  (* outputs: the L multipliers and the final U entries (i <= j) *)
  let outputs =
    List.concat
      [
        Hashtbl.fold (fun _ v acc -> v :: acc) mults [];
        List.concat
          (List.init n (fun i -> List.init (n - i) (fun dj -> cur.(i).(i + dj))));
      ]
  in
  let lu_graph = B.freeze ~inputs ~outputs b in
  let check_range msg c = if c < 0 || c >= n then invalid_arg msg in
  {
    lu_graph;
    lu_n = n;
    pivot =
      (fun k ->
        check_range "Linalg.lu.pivot" k;
        pivots.(k));
    multiplier =
      (fun i k ->
        match Hashtbl.find_opt mults (i, k) with
        | Some v -> v
        | None -> invalid_arg "Linalg.lu.multiplier: need i > k");
    update =
      (fun i j k ->
        match Hashtbl.find_opt updates (i, j, k) with
        | Some v -> v
        | None -> invalid_arg "Linalg.lu.update: need i, j > k");
  }

let cholesky n =
  if n <= 1 then invalid_arg "Linalg.cholesky";
  let b = B.create ~hint:(n * n * n / 3) () in
  (* cur.(i).(j) for i >= j: the current value of entry (i, j) *)
  let cur =
    Array.init n (fun i ->
        Array.init (i + 1) (fun j ->
            B.add_vertex ~label:(Printf.sprintf "a%d_%d" i j) b))
  in
  let inputs =
    Array.to_list cur |> List.concat_map Array.to_list
  in
  let l = Array.make_matrix n n 0 in
  for j = 0 to n - 1 do
    (* update column j by every previous column k *)
    for k = 0 to j - 1 do
      for i = j to n - 1 do
        let u = B.add_vertex ~label:(Printf.sprintf "u%d_%d.%d" i j k) b in
        B.add_edge b cur.(i).(j) u;
        B.add_edge b l.(i).(k) u;
        B.add_edge b l.(j).(k) u;
        cur.(i).(j) <- u
      done
    done;
    (* diagonal square root, then scale the column *)
    let d = B.add_vertex ~label:(Printf.sprintf "l%d_%d" j j) b in
    B.add_edge b cur.(j).(j) d;
    l.(j).(j) <- d;
    for i = j + 1 to n - 1 do
      let v = B.add_vertex ~label:(Printf.sprintf "l%d_%d" i j) b in
      B.add_edge b cur.(i).(j) v;
      B.add_edge b d v;
      l.(i).(j) <- v
    done
  done;
  let outputs =
    List.concat (List.init n (fun j -> List.init (n - j) (fun di -> l.(j + di).(j))))
  in
  B.freeze ~inputs ~outputs b

type composite = {
  graph : Cdag.t;
  n : int;
  a_vertices : Cdag.vertex array;
  b_vertices : Cdag.vertex array;
  c_mults : Cdag.vertex array;
  sum_vertex : Cdag.vertex;
}

let composite n =
  if n <= 0 then invalid_arg "Linalg.composite";
  let b = B.create ~hint:(2 * n * n * (n + 2)) () in
  let p = vec b "p" n and q = vec b "q" n in
  let r = vec b "r" n and s = vec b "s" n in
  let rank1 name u v =
    Array.init (n * n) (fun idx ->
        let i = idx / n and j = idx mod n in
        let w = B.add_vertex ~label:(Printf.sprintf "%s%d_%d" name i j) b in
        B.add_edge b u.(i) w;
        B.add_edge b v.(j) w;
        w)
  in
  let a_vertices = rank1 "A" p q in
  let b_vertices = rank1 "B" r s in
  (* C = A * B with accumulation chains; the running global sum hangs
     off every completed C element. *)
  let c_mults = Array.make (n * n * n) 0 in
  let sum_acc = ref (-1) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref (-1) in
      for k = 0 to n - 1 do
        let m = B.add_vertex ~label:(Printf.sprintf "m%d_%d_%d" i j k) b in
        c_mults.(((i * n) + j) * n + k) <- m;
        B.add_edge b a_vertices.((i * n) + k) m;
        B.add_edge b b_vertices.((k * n) + j) m;
        if !acc < 0 then acc := m
        else begin
          let t = B.add_vertex ~label:(Printf.sprintf "c%d_%d_%d" i j k) b in
          B.add_edge b !acc t;
          B.add_edge b m t;
          acc := t
        end
      done;
      let t = B.add_vertex ~label:(Printf.sprintf "sum%d_%d" i j) b in
      B.add_edge b !acc t;
      if !sum_acc >= 0 then B.add_edge b !sum_acc t;
      sum_acc := t
    done
  done;
  let inputs =
    Array.to_list p @ Array.to_list q @ Array.to_list r @ Array.to_list s
  in
  let graph = B.freeze ~inputs ~outputs:[ !sum_acc ] b in
  { graph; n; a_vertices; b_vertices; c_mults; sum_vertex = !sum_acc }
