type t = { dims : int array; strides : int array; size : int }

let create dims_list =
  let dims = Array.of_list dims_list in
  if Array.length dims = 0 then invalid_arg "Grid.create: no dimensions";
  Array.iter (fun n -> if n <= 0 then invalid_arg "Grid.create: non-positive dim") dims;
  let d = Array.length dims in
  let strides = Array.make d 1 in
  for k = d - 2 downto 0 do
    strides.(k) <- strides.(k + 1) * dims.(k + 1)
  done;
  { dims; strides; size = Array.fold_left ( * ) 1 dims }

let dims g = Array.to_list g.dims
let rank g = Array.length g.dims
let size g = g.size

let in_range g coords =
  List.length coords = rank g
  && List.for_all2 (fun c n -> c >= 0 && c < n) coords (dims g)

let index g coords =
  if not (in_range g coords) then invalid_arg "Grid.index: out of range";
  List.fold_left ( + ) 0 (List.mapi (fun k c -> c * g.strides.(k)) coords)

let coord g i =
  if i < 0 || i >= g.size then invalid_arg "Grid.coord: out of range";
  Array.to_list (Array.mapi (fun k s -> i / s mod g.dims.(k)) g.strides)

type footprint = Star | Box

(* Coordinate of linear index [i] along axis [k]. *)
let axis g i k = i / g.strides.(k) mod g.dims.(k)

(* Axis [k] and up: -stride_k before the points of the later axes, and
   +stride_k after them.  Along a size-1 axis nothing moves, and the
   strides of the axes that do move strictly decrease, so
   -stride_0 < ... < 0 < ... < +stride_0 is ascending. *)
let rec iter_star g i f k =
  if k = Array.length g.dims then f i
  else begin
    let c = axis g i k and s = g.strides.(k) in
    if c > 0 then f (i - s);
    iter_star g i f (k + 1);
    if c < g.dims.(k) - 1 then f (i + s)
  end

(* Offsets in {-1,0,1}^d with axis 0 outermost: the lexicographic order
   of the in-range neighbor coordinates, which is ascending row-major
   order. *)
let rec iter_box g i f k idx =
  if k = Array.length g.dims then f idx
  else begin
    let c = axis g i k and s = g.strides.(k) in
    if c > 0 then iter_box g i f (k + 1) (idx - s);
    iter_box g i f (k + 1) idx;
    if c < g.dims.(k) - 1 then iter_box g i f (k + 1) (idx + s)
  end

let iter_footprint g shape i f =
  if i < 0 || i >= g.size then invalid_arg "Grid.iter_footprint: out of range";
  match shape with Star -> iter_star g i f 0 | Box -> iter_box g i f 0 i

let neighbors shape g i =
  let out = ref [] in
  iter_footprint g shape i (fun j -> if j <> i then out := j :: !out);
  List.rev !out

let star_neighbors g i = neighbors Star g i
let box_neighbors g i = neighbors Box g i

let iter g f =
  for i = 0 to g.size - 1 do
    f i
  done
