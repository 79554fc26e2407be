module Bitset = Dmc_util.Bitset
module Cdag = Dmc_cdag.Cdag

type move =
  | Load of Cdag.vertex
  | Store of Cdag.vertex
  | Delete of Cdag.vertex
  | Begin of Cdag.vertex
  | Absorb of { v : Cdag.vertex; pred : Cdag.vertex }
  | Finish of Cdag.vertex

let pp_move ppf = function
  | Load v -> Format.fprintf ppf "load %d" v
  | Store v -> Format.fprintf ppf "store %d" v
  | Delete v -> Format.fprintf ppf "delete %d" v
  | Begin v -> Format.fprintf ppf "begin %d" v
  | Absorb { v; pred } -> Format.fprintf ppf "absorb %d <- %d" v pred
  | Finish v -> Format.fprintf ppf "finish %d" v

type stats = {
  loads : int;
  stores : int;
  io : int;
  finishes : int;
  absorbs : int;
  max_red : int;
}

type error = Rb_game.error = { step : int; reason : string }

type checker = (move, stats) Rb_game.checker

let illegal = Rb_game.illegal

(* The position of [pred] among [v]'s predecessors, or [-1]. *)
let slot g v pred =
  let i = ref 0 and found = ref (-1) in
  Cdag.iter_pred g v (fun u ->
      if u = pred then found := !i;
      incr i);
  !found

let start g ~s =
  if s <= 0 then invalid_arg "Pc_game.start: s must be positive";
  let n = Cdag.n_vertices g in
  let red = Bitset.create n and blue = Bitset.create n in
  List.iter (Bitset.add blue) (Cdag.inputs g);
  (* A red pebble is either a complete value (a loaded input, a loaded
     stored value, or a finished vertex) or an in-progress accumulator
     (begun, some predecessors absorbed).  Only complete values may be
     stored or absorbed by successors.  An open accumulator keeps its
     absorbed predecessors by their position among its predecessors. *)
  let begun = Bitset.create n in
  let finished = Bitset.create n in
  let input_read = Bitset.create n in
  let idle = Bitset.create 0 in
  let absorbed = Array.make n idle in
  let loads = ref 0 and stores = ref 0 and finishes = ref 0 and absorbs = ref 0 in
  let max_red = ref 0 in
  let is_complete v = Cdag.is_input g v || Bitset.mem finished v in
  let in_progress v = Bitset.mem begun v && not (Bitset.mem finished v) in
  let place v =
    if not (Bitset.mem red v) then begin
      if Bitset.cardinal red >= s then illegal "no free red pebble (S = %d)" s;
      Bitset.add red v;
      if Bitset.cardinal red > !max_red then max_red := Bitset.cardinal red
    end
  in
  let play = function
    | Load v | Store v | Delete v | Begin v | Finish v | Absorb { v; _ }
      when v < 0 || v >= n ->
        illegal "vertex %d out of range" v
    | Absorb { pred; _ } when pred < 0 || pred >= n -> illegal "vertex %d out of range" pred
    | Load v ->
        if not (Bitset.mem blue v) then illegal "load %d: no blue pebble" v;
        if in_progress v then illegal "load %d: an accumulator for it is in progress" v;
        place v;
        if Cdag.is_input g v then Bitset.add input_read v;
        incr loads
    | Store v ->
        if not (Bitset.mem red v) then illegal "store %d: no red pebble" v;
        if not (is_complete v) then
          illegal "store %d: not finished (partial values cannot be stored)" v;
        Bitset.add blue v;
        incr stores
    | Delete v ->
        if not (Bitset.mem red v) then illegal "delete %d: no red pebble" v;
        Bitset.remove red v;
        (* Deleting an in-progress accumulator discards its partial
           sums: the vertex may be begun again from scratch. *)
        if in_progress v then begin
          Bitset.remove begun v;
          absorbed.(v) <- idle
        end
    | Begin v ->
        if Cdag.is_input g v then illegal "begin %d: inputs cannot fire" v;
        if Bitset.mem finished v then
          illegal "begin %d: already finished (recomputation forbidden)" v;
        if Bitset.mem begun v then illegal "begin %d: already in progress" v;
        if Bitset.mem red v then illegal "begin %d: a complete copy is already red" v;
        place v;
        Bitset.add begun v;
        absorbed.(v) <- Bitset.create (Cdag.in_degree g v)
    | Absorb { v; pred } ->
        if not (in_progress v) then
          illegal "absorb %d <- %d: no accumulator in progress" v pred;
        if not (Bitset.mem red v) then illegal "absorb %d <- %d: accumulator not red" v pred;
        if not (Bitset.mem red pred) then illegal "absorb %d <- %d: operand not red" v pred;
        if not (is_complete pred) then illegal "absorb %d <- %d: operand not finished" v pred;
        let i = slot g v pred in
        if i < 0 then illegal "absorb %d <- %d: not a predecessor" v pred;
        if Bitset.mem absorbed.(v) i then illegal "absorb %d <- %d: already absorbed" v pred;
        Bitset.add absorbed.(v) i;
        incr absorbs
    | Finish v ->
        if not (in_progress v) then illegal "finish %d: no accumulator in progress" v;
        if not (Bitset.mem red v) then illegal "finish %d: accumulator not red" v;
        if Bitset.cardinal absorbed.(v) < Cdag.in_degree g v then
          illegal "finish %d: only %d of %d predecessors absorbed" v
            (Bitset.cardinal absorbed.(v)) (Cdag.in_degree g v);
        Bitset.add finished v;
        absorbed.(v) <- idle;
        incr finishes
  in
  let complete () =
    List.iter
      (fun v ->
        if not (Bitset.mem blue v) then illegal "output %d has no blue pebble at the end" v)
      (Cdag.outputs g);
    List.iter
      (fun v -> if not (Bitset.mem input_read v) then illegal "input %d was never loaded" v)
      (Cdag.inputs g);
    {
      loads = !loads;
      stores = !stores;
      io = !loads + !stores;
      finishes = !finishes;
      absorbs = !absorbs;
      max_red = !max_red;
    }
  in
  Rb_game.checker ~play ~complete

let step = Rb_game.step
let finish = Rb_game.finish
let run g ~s moves = Rb_game.replay (start g ~s) moves
