module Implicit = Dmc_cdag.Implicit

(* Every generator here is the one description of its family: the
   frozen Shapes/Fft/Linalg/Stencil graphs are these, materialized, so
   ids, edges, tags and labels cannot drift between the two forms.
   test/golden/generators.txt pins the bytes.

   All generators are id-monotone (edges go low id -> high id) and all
   iterators emit neighbors in ascending id order, as the frozen CSR
   rows store them. *)

let checked_mul what a b =
  if a > 0 && b > 0 && a > max_int / b then
    invalid_arg (what ^ ": size overflows the integer range");
  a * b

(* -- chain ------------------------------------------------------- *)

let chain n =
  if n <= 0 then invalid_arg "Implicit_gen.chain";
  {
    Implicit.n_vertices = n;
    iter_succ = (fun v f -> if v < n - 1 then f (v + 1));
    iter_pred = (fun v f -> if v > 0 then f (v - 1));
    is_input = (fun v -> v = 0);
    is_output = (fun v -> v = n - 1);
    label = (fun v -> Printf.sprintf "c%d" v);
  }

(* -- binary reduction tree --------------------------------------- *)

(* Pairs up each level left to right; an odd trailing vertex is
   carried to the next level unchanged.  New ids are assigned level by
   level, so the whole id scheme is described by three O(log leaves)
   tables: live positions, fresh vertices and the first fresh id per
   level. *)
let reduction_tree leaves =
  if leaves <= 0 then invalid_arg "Implicit_gen.reduction_tree";
  let rev_sizes = ref [ leaves ] in
  let cur = ref leaves in
  while !cur > 1 do
    cur := (!cur + 1) / 2;
    rev_sizes := !cur :: !rev_sizes
  done;
  let sizes = Array.of_list (List.rev !rev_sizes) in
  let nlev = Array.length sizes in
  let news =
    Array.init nlev (fun l -> if l = 0 then leaves else sizes.(l - 1) / 2)
  in
  let bases = Array.make nlev 0 in
  for l = 1 to nlev - 1 do
    bases.(l) <- bases.(l - 1) + news.(l - 1)
  done;
  let total = bases.(nlev - 1) + news.(nlev - 1) in
  (* id of the vertex occupying position [pos] of level [l] (resolving
     carried positions down to their creation level) *)
  let rec id_at l pos =
    if l = 0 then pos
    else if pos < news.(l) then bases.(l) + pos
    else id_at (l - 1) (sizes.(l - 1) - 1)
  in
  (* creation level of id [v]: largest l with bases.(l) <= v *)
  let level_of v =
    let lo = ref 0 and hi = ref (nlev - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if bases.(mid) <= v then lo := mid else hi := mid - 1
    done;
    !lo
  in
  let iter_pred v f =
    let l = level_of v in
    if l > 0 then begin
      let pos = v - bases.(l) in
      let c1 = id_at (l - 1) (2 * pos) and c2 = id_at (l - 1) ((2 * pos) + 1) in
      (* a carried right child has a smaller id than the fresh left one *)
      f (min c1 c2);
      f (max c1 c2)
    end
  in
  let iter_succ v f =
    let rec go l pos =
      if sizes.(l) > 1 then
        if pos lor 1 < sizes.(l) then f (bases.(l + 1) + (pos / 2))
        else go (l + 1) (sizes.(l + 1) - 1)
    in
    let l = level_of v in
    go l (v - bases.(l))
  in
  {
    Implicit.n_vertices = total;
    iter_succ;
    iter_pred;
    is_input = (fun v -> v < leaves);
    is_output = (fun v -> v = total - 1);
    label =
      (fun v ->
        if v < leaves then Printf.sprintf "in%d" v else "v" ^ string_of_int v);
  }

(* -- diamond lattice --------------------------------------------- *)

let diamond ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Implicit_gen.diamond";
  let n = checked_mul "Implicit_gen.diamond" rows cols in
  {
    Implicit.n_vertices = n;
    iter_succ =
      (fun v f ->
        let j = v mod cols in
        if j < cols - 1 then f (v + 1);
        if v + cols < n then f (v + cols));
    iter_pred =
      (fun v f ->
        let j = v mod cols in
        if v >= cols then f (v - cols);
        if j > 0 then f (v - 1));
    is_input = (fun v -> v = 0);
    is_output = (fun v -> v = n - 1);
    label = (fun v -> Printf.sprintf "d%d_%d" (v / cols) (v mod cols));
  }

(* -- FFT butterfly ----------------------------------------------- *)

let butterfly k =
  if k < 0 || k > 55 then invalid_arg "Implicit_gen.butterfly: size out of range";
  let n = 1 lsl k in
  let total = checked_mul "Implicit_gen.butterfly" (k + 1) n in
  {
    Implicit.n_vertices = total;
    iter_succ =
      (fun v f ->
        let rank = v / n and i = v mod n in
        if rank < k then begin
          let j = i lxor (1 lsl rank) in
          let base = (rank + 1) * n in
          f (base + min i j);
          f (base + max i j)
        end);
    iter_pred =
      (fun v f ->
        let rank = v / n and i = v mod n in
        if rank > 0 then begin
          let j = i lxor (1 lsl (rank - 1)) in
          let base = (rank - 1) * n in
          f (base + min i j);
          f (base + max i j)
        end);
    is_input = (fun v -> v < n);
    is_output = (fun v -> v >= k * n);
    label = (fun v -> Printf.sprintf "f[r%d,%d]" (v / n) (v mod n));
  }

(* -- Jacobi stencils --------------------------------------------- *)

let jacobi ?(shape = Grid.Star) ~dims ~steps () =
  if steps < 1 then invalid_arg "Implicit_gen.jacobi: steps must be >= 1";
  List.iter
    (fun d -> if d <= 0 then invalid_arg "Implicit_gen.jacobi: non-positive dim")
    dims;
  let npts =
    List.fold_left (fun acc d -> checked_mul "Implicit_gen.jacobi" acc d) 1 dims
  in
  let total = checked_mul "Implicit_gen.jacobi" (steps + 1) npts in
  let grid = Grid.create dims in
  {
    Implicit.n_vertices = total;
    iter_succ =
      (fun v f ->
        let t = v / npts and i = v mod npts in
        if t < steps then begin
          let base = (t + 1) * npts in
          Grid.iter_footprint grid shape i (fun j -> f (base + j))
        end);
    iter_pred =
      (fun v f ->
        let t = v / npts and i = v mod npts in
        if t > 0 then begin
          let base = (t - 1) * npts in
          Grid.iter_footprint grid shape i (fun j -> f (base + j))
        end);
    is_input = (fun v -> v < npts);
    is_output = (fun v -> v >= steps * npts);
    label = (fun v -> Printf.sprintf "u[t%d,%d]" (v / npts) (v mod npts));
  }

let jacobi_1d ~n ~steps = jacobi ~shape:Grid.Star ~dims:[ n ] ~steps ()
let jacobi_2d ~n ~steps = jacobi ~shape:Grid.Box ~dims:[ n; n ] ~steps ()
let jacobi_3d ~n ~steps = jacobi ~shape:Grid.Star ~dims:[ n; n; n ] ~steps ()

(* -- dense matrix multiply --------------------------------------- *)

(* Id layout, which Linalg.mm's index maps restate: the A rows
   (a(i,k) = i*n + k), the B rows (b(k,j) = n^2 + k*n + j), then for
   each (i,j) pair, in order p = i*n + j, a block of 2n-1 vertices
   starting at 2n^2 + p*(2n-1): offset 0 is m(i,j,0), offset 2k-1 is
   m(i,j,k) and offset 2k is the accumulation c(i,j,k) for k >= 1. *)
let matmul n =
  if n <= 0 then invalid_arg "Implicit_gen.matmul";
  if n > 1 lsl 20 then invalid_arg "Implicit_gen.matmul: size out of range";
  let n2 = n * n in
  let pair_w = (2 * n) - 1 in
  let base = 2 * n2 in
  let total = base + (n2 * pair_w) in
  let iter_succ v f =
    if v < n2 then begin
      (* a(i,k) feeds m(i,j,k) for every j *)
      let i = v / n and k = v mod n in
      let off = if k = 0 then 0 else (2 * k) - 1 in
      for j = 0 to n - 1 do
        f (base + (((i * n) + j) * pair_w) + off)
      done
    end
    else if v < base then begin
      (* b(k,j) feeds m(i,j,k) for every i *)
      let r = v - n2 in
      let k = r / n and j = r mod n in
      let off = if k = 0 then 0 else (2 * k) - 1 in
      for i = 0 to n - 1 do
        f (base + (((i * n) + j) * pair_w) + off)
      done
    end
    else begin
      let r = v - base in
      let off = r mod pair_w in
      let pb = v - off in
      if off = 0 then begin
        (* m(i,j,0) starts the chain: feeds c(i,j,1) when n > 1 *)
        if n > 1 then f (pb + 2)
      end
      else if off land 1 = 1 then
        (* m(i,j,k) feeds c(i,j,k) *)
        f (pb + off + 1)
      else if off / 2 < n - 1 then
        (* c(i,j,k) feeds c(i,j,k+1) *)
        f (pb + off + 2)
    end
  in
  let iter_pred v f =
    if v >= base then begin
      let r = v - base in
      let p = r / pair_w and off = r mod pair_w in
      let i = p / n and j = p mod n in
      let pb = v - off in
      if off = 0 || off land 1 = 1 then begin
        let k = if off = 0 then 0 else (off + 1) / 2 in
        f ((i * n) + k);
        f (n2 + (k * n) + j)
      end
      else begin
        let k = off / 2 in
        f (if k = 1 then pb else pb + (2 * (k - 1)));
        f (pb + (2 * k) - 1)
      end
    end
  in
  let label v =
    if v < n2 then Printf.sprintf "a%d_%d" (v / n) (v mod n)
    else if v < base then
      let r = v - n2 in
      Printf.sprintf "b%d_%d" (r / n) (r mod n)
    else
      let r = v - base in
      let p = r / pair_w and off = r mod pair_w in
      let i = p / n and j = p mod n in
      if off = 0 then Printf.sprintf "m%d_%d_0" i j
      else if off land 1 = 1 then Printf.sprintf "m%d_%d_%d" i j ((off + 1) / 2)
      else Printf.sprintf "c%d_%d_%d" i j (off / 2)
  in
  {
    Implicit.n_vertices = total;
    iter_succ;
    iter_pred;
    is_input = (fun v -> v < base);
    is_output = (fun v -> v >= base && (v - base) mod pair_w = pair_w - 1);
    label;
  }
